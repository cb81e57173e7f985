# simlint-fixture-path: src/repro/vstore/fixture.py
# simlint-fixture-expect:
class Node:
    def __init__(self, endpoint):
        endpoint.register("vstore.stat", self._handle_stat)

    def _handle_stat(self, request):
        name = request.body["name"]
        depth = request.body.get("depth")  # optional reads count too
        return name, depth, request.ctx

    def stat(self, endpoint, dst, span):
        # The telemetry context rides the envelope (ctx=), not the
        # body, so every body field is one some handler reads.
        body = {"name": "x", "depth": 2}
        return endpoint.call(dst, "vstore.stat", body, ctx=span)
