"""Edge-case tests for the RPC layer under churn and concurrency."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    HostDownError,
    Link,
    Network,
    RemoteError,
    Route,
    RpcEndpoint,
    RpcTimeoutError,
)
from repro.sim import AllOf, Event, Interrupt, RandomSource, Simulator


def build_trio(latency=0.001):
    sim = Simulator()
    net = Network(sim, RandomSource(9))
    hosts = [net.add_host(n, group="home") for n in ("a", "b", "c")]
    link = Link(sim, bandwidth=10e6)
    net.connect_groups("home", "home", Route(link, base_latency=latency))
    endpoints = {h.name: RpcEndpoint(net, h) for h in hosts}
    for ep in endpoints.values():
        ep.start()
    return sim, net, endpoints


class TestChurn:
    def test_destination_dies_after_request_sent(self):
        sim, net, eps = build_trio(latency=0.5)

        def never(req):
            yield req  # pragma: no cover

        event = eps["a"].call("b", "slow-op", timeout=2.0)
        net.take_offline("b")  # dies while the request is in flight
        with pytest.raises((RpcTimeoutError, HostDownError)):
            sim.run(until=event)

    def test_caller_dies_before_response(self):
        sim, net, eps = build_trio()

        def slow(req):
            yield eps["b"].sim.timeout(5.0)
            return "late"

        eps["b"].register("slow", slow)
        event = eps["a"].call("b", "slow", timeout=30.0)

        def kill_caller(sim):
            yield sim.timeout(1.0)
            net.take_offline("a")

        sim.process(kill_caller(sim))

        def waiter(sim, event):
            try:
                yield event
            except (RpcTimeoutError, HostDownError):
                pass

        sim.process(waiter(sim, event))
        # The handler completes; its response cannot be delivered; the
        # caller's call fails cleanly — nothing crashes.
        sim.run(until=sim.now + 40.0)
        assert eps["b"].requests_served == 1

    def test_generator_handler_exception_propagates(self):
        sim, net, eps = build_trio()

        def bad(req):
            yield eps["b"].sim.timeout(1.0)
            raise KeyError("mid-handler")

        eps["b"].register("bad", bad)
        with pytest.raises(RemoteError, match="mid-handler"):
            sim.run(until=eps["a"].call("b", "bad"))


class TestOrphanedCalls:
    """A crash interrupts background processes mid-call (repairer,
    monitors); the abandoned call's later failure must not abort the
    run, while a caller that still waits must still see it."""

    @staticmethod
    def crash_mid_call(sim, event, at=1.0):
        def caller():
            try:
                yield event
            except Interrupt:
                return "interrupted"

        proc = sim.process(caller())

        def crash():
            yield sim.timeout(at)
            proc.interrupt("node crashed")

        sim.process(crash())
        return proc

    def test_interrupted_callers_timeout_does_not_abort_the_run(self):
        sim, net, eps = build_trio()
        eps["b"].stop()  # requests go unanswered: the call times out
        proc = self.crash_mid_call(sim, eps["a"].call("b", "ping", timeout=2.0))
        sim.run()
        assert proc.value == "interrupted"
        assert sim.now == pytest.approx(2.0)  # the orphaned deadline fired

    def test_interrupted_callers_remote_error_does_not_abort_the_run(self):
        sim, net, eps = build_trio()

        def bad(req):
            yield eps["b"].sim.timeout(2.0)
            raise RuntimeError("late failure")

        eps["b"].register("bad", bad)
        proc = self.crash_mid_call(sim, eps["a"].call("b", "bad"))
        sim.run()
        assert proc.value == "interrupted"
        assert eps["b"].requests_served == 1

    def test_waiting_caller_still_gets_the_timeout(self):
        sim, net, eps = build_trio()
        eps["b"].stop()
        seen = []

        def caller():
            try:
                yield eps["a"].call("b", "ping", timeout=2.0)
            except RpcTimeoutError as exc:
                seen.append(exc)

        sim.process(caller())
        sim.run()
        assert [exc.msg_type for exc in seen] == ["ping"]

    def test_unhandled_timeout_in_a_waiting_caller_still_surfaces(self):
        sim, net, eps = build_trio()
        eps["b"].stop()

        def caller():
            yield eps["a"].call("b", "ping", timeout=2.0)

        sim.process(caller())
        with pytest.raises(RpcTimeoutError):
            sim.run()


class TestConcurrency:
    def test_many_outstanding_calls_resolve_correctly(self):
        sim, net, eps = build_trio()
        eps["b"].register("echo", lambda req: req.body)
        events = [eps["a"].call("b", "echo", i) for i in range(20)]
        sim.run(until=AllOf(sim, events))
        assert [e.value for e in events] == list(range(20))

    def test_calls_to_multiple_destinations_interleave(self):
        sim, net, eps = build_trio()

        def handler_b(req):
            yield eps["b"].sim.timeout(3.0)
            return "from-b"

        def handler_c(req):
            yield eps["c"].sim.timeout(1.0)
            return "from-c"

        eps["b"].register("op", handler_b)
        eps["c"].register("op", handler_c)
        eb = eps["a"].call("b", "op")
        ec = eps["a"].call("c", "op")
        sim.run(until=AllOf(sim, [eb, ec]))
        assert (eb.value, ec.value) == ("from-b", "from-c")
        assert sim.now < 4.5  # concurrent, not serial

    def test_handler_calling_back_into_caller(self):
        """Mutual RPC: b's handler calls a service on a."""
        sim, net, eps = build_trio()
        eps["a"].register("lookup", lambda req: req.body * 2)

        def relay(req):
            doubled = yield eps["b"].call("a", "lookup", req.body)
            return doubled + 1

        eps["b"].register("relay", relay)
        assert sim.run(until=eps["a"].call("b", "relay", 10)) == 21


class TestPayloads:
    def test_various_body_types(self):
        sim, net, eps = build_trio()
        eps["b"].register("echo", lambda req: req.body)
        for body in [None, 0, "text", [1, 2], {"k": "v"}, {"nested": {"a": [1]}}]:
            assert sim.run(until=eps["a"].call("b", "echo", body)) == body

    def test_request_metadata_available_to_handler(self):
        sim, net, eps = build_trio()
        seen = []

        def handler(req):
            seen.append((req.src, req.msg_type, req.req_id))
            return "ok"

        eps["b"].register("meta", handler)
        sim.run(until=eps["a"].call("b", "meta"))
        src, msg_type, req_id = seen[0]
        assert src == "a"
        assert msg_type == "meta"
        assert req_id >= 1

    def test_larger_payload_sizes_add_latency(self):
        sim, net, eps = build_trio(latency=0.0)
        eps["b"].register("echo", lambda req: "x")
        t0 = sim.now
        sim.run(until=eps["a"].call("b", "echo", size=64))
        small = sim.now - t0
        t0 = sim.now
        sim.run(until=eps["a"].call("b", "echo", size=10_000_000))
        large = sim.now - t0
        assert large > small


#: Sub-millisecond deadlines next to long ones, so a shorter deadline
#: can arrive while a longer one holds the endpoint's sweep timer.
TIMEOUTS = (0.0004, 0.00093, 30.0, 120.0)
#: One-way latency of a 64-byte message on ``build_trio(latency=1e-4)``.
ONE_WAY_S = 1e-4 + 64 / 10e6

call_specs = st.lists(
    st.tuples(
        st.integers(0, 8),  # the slot the call is made in
        st.sampled_from(TIMEOUTS),
        # when the handler answers, relative to the deadline
        st.sampled_from(("before", "at", "after", "never")),
        st.booleans(),  # the caller is interrupted mid-call
    ),
    min_size=1,
    max_size=14,
)


def sweep_timers(sim, endpoint):
    """Kernel heap entries that would run ``endpoint``'s deadline sweep."""
    return sum(
        1
        for _when, _order, event in sim._queue
        if event.callbacks and endpoint._sweep in event.callbacks
    )


class TestDeadlineSemantics:
    """Lazy per-endpoint deadlines behave like one exact timer per call."""

    @settings(max_examples=150, deadline=None)
    @given(
        specs=call_specs,
        loss_rate=st.sampled_from((0.0, 0.0, 0.3)),
        crash_slot=st.one_of(st.none(), st.integers(0, 8)),
        slot_s=st.sampled_from((0.00013, 0.0007, 1.3)),
    )
    def test_every_call_settles_once_at_its_exact_deadline(
        self, specs, loss_rate, crash_slot, slot_s
    ):
        sim, net, eps = build_trio(latency=1e-4)
        client = eps["a"]
        net.loss_rate = loss_rate
        never = Event(sim)

        def work(req):
            hold, blocks = req.body
            if blocks:
                yield never
            yield sim.timeout(hold)
            return req.req_id

        eps["b"].register("work", work)
        calls = []

        def caller(call):
            hold = {
                "before": 0.0,
                "at": max(call.timeout - 2 * ONE_WAY_S, 0.0),
                "after": call.timeout + 0.001,
                "never": 0.0,
            }[call.answer]
            call.at = sim.now
            call.result = client.call(
                "b", "work", (hold, call.answer == "never"), timeout=call.timeout
            )
            try:
                value = yield call.result
            except Interrupt:
                call.interrupted = True
                return
            except (RpcTimeoutError, HostDownError) as exc:
                call.outcomes.append((type(exc), sim.now))
            else:
                call.outcomes.append((value, sim.now))

        def place_calls():
            for slot in range(9):
                if crash_slot == slot:
                    net.take_offline("b")
                for call_slot, timeout, answer, interrupt in specs:
                    if call_slot != slot:
                        continue
                    call = SimpleNamespace(
                        timeout=timeout,
                        answer=answer,
                        at=None,
                        result=None,
                        outcomes=[],
                        interrupted=False,
                    )
                    calls.append(call)
                    proc = sim.process(caller(call))
                    if interrupt:
                        sim.process(interrupter(proc, timeout / 2))
                yield sim.timeout(slot_s)

        def interrupter(proc, after):
            yield sim.timeout(after)
            if proc.is_alive:
                proc.interrupt("caller crashed")

        sim.process(place_calls())
        # Step until every call has settled; an unconsumed failure
        # would raise out of step() here.
        while len(calls) < len(specs) or any(
            call.result is None or call.result.callbacks is not None
            for call in calls
        ):
            sim.step()
        assert sweep_timers(sim, client) <= 1
        assert not client._pending
        sim.run()  # late replies, stale timers: none may abort the run

        for call in calls:
            assert call.result.triggered
            if call.interrupted:
                assert call.outcomes == []
                continue
            assert len(call.outcomes) == 1
            value, at = call.outcomes[0]
            deadline = call.at + call.timeout
            if value is RpcTimeoutError:
                assert at == deadline  # exact float, not approx
            elif value is HostDownError:
                assert at == call.at
            else:
                assert at <= deadline
        assert sweep_timers(sim, client) == 0

    def test_late_reply_is_ignored(self):
        sim, net, eps = build_trio()

        def slow(req):
            yield sim.timeout(5.0)
            return "late"

        eps["b"].register("slow", slow)
        call = eps["a"].call("b", "slow", timeout=1.0)
        with pytest.raises(RpcTimeoutError):
            sim.run(until=call)
        assert sim.now == 1.0
        sim.run()
        assert eps["b"].requests_served == 1
        assert not call.ok and isinstance(call.value, RpcTimeoutError)

    def test_shorter_deadline_after_a_longer_one_is_armed(self):
        sim, net, eps = build_trio()
        eps["b"].stop()
        long_call = eps["a"].call("b", "ping", timeout=120.0)
        sim.run(until=0.5)
        short_call = eps["a"].call("b", "ping", timeout=0.25)
        assert sweep_timers(sim, eps["a"]) == 1
        with pytest.raises(RpcTimeoutError):
            sim.run(until=short_call)
        assert sim.now == 0.5 + 0.25
        with pytest.raises(RpcTimeoutError):
            sim.run(until=long_call)
        assert sim.now == 120.0
