# simlint-fixture-path: src/repro/overlay/fixture.py
# simlint-fixture-expect: WIRE501 WIRE501
MSG_UNUSED = "overlay.unused"


class Node:
    # Served through the class table but no caller anywhere: a dead
    # endpoint.
    RPC_HANDLERS = {MSG_UNUSED: "_handle_unused"}

    def __init__(self, endpoint):
        endpoint.serve(self)

    def _handle_unused(self, request):
        return None

    def probe(self, endpoint, dst):
        # Sent but no handler anywhere: the message vanishes.
        return endpoint.call(dst, "overlay.ghost", {"seq": 1})
