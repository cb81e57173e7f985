"""Unit tests for the RPC endpoint layer."""

import pytest

from repro.net import (
    HostDownError,
    Link,
    Network,
    RemoteError,
    Route,
    RpcEndpoint,
    RpcTimeoutError,
)
from repro.sim import RandomSource, Simulator


def build_pair(latency=0.001):
    sim = Simulator()
    net = Network(sim, RandomSource(3))
    a = net.add_host("a", group="home")
    b = net.add_host("b", group="home")
    link = Link(sim, bandwidth=10e6, name="lan")
    net.connect_groups("home", "home", Route(link, base_latency=latency))
    ep_a = RpcEndpoint(net, a)
    ep_b = RpcEndpoint(net, b)
    ep_a.start()
    ep_b.start()
    return sim, net, ep_a, ep_b


def call_sync(sim, event):
    """Run the simulation until the RPC completes; return its value."""
    return sim.run(until=event)


class TestCalls:
    def test_simple_call(self):
        sim, _, ep_a, ep_b = build_pair()
        ep_b.register("ping", lambda req: f"pong:{req.body}")
        value = call_sync(sim, ep_a.call("b", "ping", 42))
        assert value == "pong:42"

    def test_call_takes_round_trip_time(self):
        sim, _, ep_a, ep_b = build_pair(latency=0.1)
        ep_b.register("ping", lambda req: "pong")
        call_sync(sim, ep_a.call("b", "ping"))
        assert sim.now >= 0.2  # two one-way latencies

    def test_generator_handler(self):
        sim, _, ep_a, ep_b = build_pair()

        def slow_handler(req):
            yield ep_b.sim.timeout(5.0)
            return "slow-done"

        ep_b.register("work", slow_handler)
        value = call_sync(sim, ep_a.call("b", "work"))
        assert value == "slow-done"
        assert sim.now >= 5.0

    def test_concurrent_requests_interleave(self):
        sim, _, ep_a, ep_b = build_pair()

        def slow_handler(req):
            yield ep_b.sim.timeout(5.0)
            return req.body

        ep_b.register("work", slow_handler)
        e1 = ep_a.call("b", "work", 1)
        e2 = ep_a.call("b", "work", 2)
        call_sync(sim, e2)
        # Both should be served in ~5 s, not 10 s (handlers run as
        # independent processes).
        assert sim.now < 6.0
        assert e1.triggered and e1.value == 1

    def test_unknown_type_raises_remote_error(self):
        sim, _, ep_a, ep_b = build_pair()
        with pytest.raises(RemoteError, match="no handler"):
            call_sync(sim, ep_a.call("b", "nope"))

    def test_handler_exception_propagates(self):
        sim, _, ep_a, ep_b = build_pair()

        def bad(req):
            raise ValueError("handler blew up")

        ep_b.register("bad", bad)
        with pytest.raises(RemoteError, match="handler blew up"):
            call_sync(sim, ep_a.call("b", "bad"))

    def test_timeout_when_no_dispatcher(self):
        sim, _, ep_a, ep_b = build_pair()
        ep_b.stop()
        with pytest.raises(RpcTimeoutError):
            call_sync(sim, ep_a.call("b", "ping", timeout=1.0))
        assert sim.now >= 1.0

    def test_call_to_offline_host_fails_fast(self):
        sim, net, ep_a, _ = build_pair()
        net.take_offline("b")
        event = ep_a.call("b", "ping")
        with pytest.raises(HostDownError):
            call_sync(sim, event)
        assert sim.now == 0.0

    def test_register_replaces_handler(self):
        sim, _, ep_a, ep_b = build_pair()
        ep_b.register("op", lambda req: "old")
        ep_b.register("op", lambda req: "new")
        assert call_sync(sim, ep_a.call("b", "op")) == "new"


class TestNotify:
    def test_notify_invokes_handler_without_response(self):
        sim, _, ep_a, ep_b = build_pair()
        seen = []
        ep_b.register("event", lambda req: seen.append(req.body))
        ep_a.notify("b", "event", "hello")
        sim.run()
        assert seen == ["hello"]

    def test_notify_to_offline_host_raises(self):
        sim, net, ep_a, _ = build_pair()
        net.take_offline("b")
        with pytest.raises(HostDownError):
            ep_a.notify("b", "event")


class TestLifecycle:
    def test_start_is_idempotent(self):
        sim, _, ep_a, ep_b = build_pair()
        ep_b.start()
        ep_b.start()
        ep_b.register("ping", lambda req: "pong")
        assert call_sync(sim, ep_a.call("b", "ping")) == "pong"

    def test_stopped_endpoint_can_restart(self):
        sim, _, ep_a, ep_b = build_pair()
        ep_b.register("ping", lambda req: "pong")
        ep_b.stop()
        ep_b.start()
        assert call_sync(sim, ep_a.call("b", "ping")) == "pong"

    def test_requests_served_counter(self):
        sim, _, ep_a, ep_b = build_pair()
        ep_b.register("ping", lambda req: "pong")
        call_sync(sim, ep_a.call("b", "ping"))
        call_sync(sim, ep_a.call("b", "ping"))
        assert ep_b.requests_served == 2


class _Echo:
    RPC_HANDLERS = {"echo": "_handle_echo", "work": "_handle_work"}

    def __init__(self, tag):
        self.tag = tag

    def _handle_echo(self, request):
        return f"{self.tag}:{request.body}"

    def _handle_work(self, request):
        yield self.sim.timeout(1.0)
        return f"{self.tag}:worked"


class _Other:
    RPC_HANDLERS = {"echo": "_handle_echo"}

    def _handle_echo(self, request):
        return "other"


class TestHandlerTables:
    def _serve(self, ep, owner):
        owner.sim = ep.sim
        ep.serve(owner)
        return owner

    def test_table_dispatch(self):
        sim, _, ep_a, ep_b = build_pair()
        self._serve(ep_b, _Echo("b"))
        assert call_sync(sim, ep_a.call("b", "echo", 7)) == "b:7"
        assert call_sync(sim, ep_a.call("b", "work")) == "b:worked"
        assert ep_b._adhoc is None

    def test_endpoints_serving_the_same_classes_share_one_table(self):
        _, _, ep_a, ep_b = build_pair()
        self._serve(ep_a, _Echo("a"))
        self._serve(ep_b, _Echo("b"))
        assert ep_a._table is ep_b._table
        assert ep_a._owners[0] is not ep_b._owners[0]

    def test_adhoc_registration_replaces_a_served_type(self):
        sim, _, ep_a, ep_b = build_pair()
        self._serve(ep_b, _Echo("b"))
        ep_b.register("echo", lambda req: "adhoc")
        assert call_sync(sim, ep_a.call("b", "echo")) == "adhoc"
        # The rest of the table still serves.
        assert call_sync(sim, ep_a.call("b", "work")) == "b:worked"

    def test_serve_replaces_an_earlier_binding(self):
        sim, _, ep_a, ep_b = build_pair()
        ep_b.register("echo", lambda req: "adhoc")
        self._serve(ep_b, _Echo("b"))
        assert call_sync(sim, ep_a.call("b", "echo", 1)) == "b:1"
        self._serve(ep_b, _Other())
        assert call_sync(sim, ep_a.call("b", "echo")) == "other"
        assert call_sync(sim, ep_a.call("b", "work")) == "b:worked"

    def test_unknown_type_on_a_served_endpoint(self):
        sim, _, ep_a, ep_b = build_pair()
        self._serve(ep_b, _Echo("b"))
        with pytest.raises(RemoteError, match="no handler for 'nope'"):
            call_sync(sim, ep_a.call("b", "nope"))

    def test_handler_is_resolved_by_name_at_dispatch(self, monkeypatch):
        sim, _, ep_a, ep_b = build_pair()
        owner = self._serve(ep_b, _Echo("b"))
        original = _Echo._handle_echo

        def wrapped(self, request):
            return "wrapped " + original(self, request)

        monkeypatch.setattr(_Echo, "_handle_echo", wrapped)
        assert call_sync(sim, ep_a.call("b", "echo", 2)) == "wrapped b:2"
        owner._handle_echo = lambda request: "instance"
        assert call_sync(sim, ep_a.call("b", "echo")) == "instance"

    def test_a_table_naming_a_missing_method_fails_at_serve(self):
        _, _, _, ep_b = build_pair()

        class Broken:
            RPC_HANDLERS = {"echo": "_handle_missing"}

        with pytest.raises(TypeError, match="_handle_missing"):
            ep_b.serve(Broken())
