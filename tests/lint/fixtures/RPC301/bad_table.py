# simlint-fixture-path: src/repro/kvstore/fixture.py
# simlint-fixture-expect: RPC301 RPC301
MSG_GET = "kv.get"


class Store:
    RPC_HANDLERS = {MSG_GET: "_handle_get", "kv.put": "_on_put"}

    def __init__(self, endpoint):
        endpoint.serve(self)

    def _handle_get(self, request):
        raise KeyError(request.body["key"])

    def _on_put(self, request):
        # Named in the table under a non-conventional name: still a
        # handler.
        raise ValueError("bad value")

    def fetch(self, endpoint, dst):
        return endpoint.call(dst, MSG_GET, {"key": "a"})

    def store(self, endpoint, dst):
        return endpoint.call(dst, "kv.put", {})
