# simlint-fixture-path: src/repro/kvstore/fixture.py
# simlint-fixture-expect:
class Store:
    RPC_HANDLERS = {"kv.get": "_on_get"}

    def __init__(self, endpoint):
        endpoint.serve(self)

    def _on_get(self, request):
        raise KeyNotFoundError(request.body["key"])

    def helper(self):
        # Not in the table: builtins are fine outside the RPC surface.
        raise ValueError("local misuse")

    def fetch(self, endpoint, dst):
        return endpoint.call(dst, "kv.get", {"key": "a"})
