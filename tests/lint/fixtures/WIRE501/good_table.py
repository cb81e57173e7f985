# simlint-fixture-path: src/repro/overlay/fixture.py
# simlint-fixture-expect:
MSG_PROBE = "overlay.probe"


class Node:
    RPC_HANDLERS = {MSG_PROBE: "_handle_probe"}

    def __init__(self, endpoint):
        endpoint.serve(self)

    def _handle_probe(self, request):
        return request.body["peer"]

    def probe(self, endpoint, dst):
        return endpoint.call(dst, MSG_PROBE, {"peer": "a"})
