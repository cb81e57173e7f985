"""How processes start and end without kernel events of their own.

A process that returns while nobody waits on it is processed at once
and puts no done event on the heap; a failed one still does, so it
still raises out of ``run()``.  An RPC generator handler's serving
process starts inside the request's arrival, in the order the kernel's
urgent ``Initialize`` event would have given it.
"""

import pytest

from repro.net import RpcEndpoint
from repro.sim import Simulator

from tests.conftest import build_lan


def returns(value):
    return value
    yield  # a process that never waits


class TestUnwatchedProcess:
    def test_a_return_schedules_nothing(self):
        sim = Simulator()
        proc = sim.process(returns(7))
        before = sim._event_seq
        sim.run()
        assert sim._event_seq == before  # its start was already scheduled
        assert proc.processed and proc.ok and proc.value == 7
        assert not sim._queue

    def test_a_later_yield_gets_the_value_at_once(self):
        sim = Simulator()
        proc = sim.process(returns("v"))
        sim.run()
        seen = []

        def waiter():
            seen.append((yield proc))
            seen.append(sim.now)

        sim.run(until=sim.process(waiter()))
        assert seen == ["v", 0.0]

    def test_run_until_and_gather_get_the_value_at_once(self):
        sim = Simulator()
        proc = sim.process(returns(3))
        sim.run()
        before = sim._event_seq
        assert sim.run(until=proc) == 3
        assert sim._event_seq == before
        joined = sim.gather([proc])
        assert sim.run(until=joined) == [3]

    def test_a_watched_process_still_schedules_its_end(self):
        sim = Simulator()
        proc = sim.process(returns(1))
        ends = []
        proc.callbacks.append(lambda event: ends.append(sim._event_seq))
        before = sim._event_seq
        sim.run()
        assert sim._event_seq == before + 1 and ends == [before + 1]

    def test_an_unwatched_failure_still_raises_from_run(self):
        sim = Simulator()

        def fails():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        proc = sim.process(fails())
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert proc.triggered and not proc.ok


def traffic(start_now_via_initialize, monkeypatch):
    """Three same-instant requests, two to a generator handler that
    spawns a child process and waits, one to a plain handler; returns
    the order things ran in."""
    if start_now_via_initialize:
        monkeypatch.setattr(Simulator, "_start_now", lambda sim, gen: sim.process(gen))
    sim, net, hosts = build_lan(3)
    a, b, server = (RpcEndpoint(net, host) for host in hosts)
    log = []

    def child(tag):
        log.append(("child", tag, sim.now))
        yield sim.timeout(0.0)
        log.append(("child-done", tag, sim.now))

    def handler(request):
        log.append(("serve", request.body, sim.now, sim.active_process is not None))
        sim.process(child(request.body))
        yield sim.timeout(0.001)
        log.append(("reply", request.body, sim.now))
        return request.body

    def plain(request):
        log.append(("plain", request.body, sim.now))
        return request.body

    server.register("gen", handler)
    server.register("plain", plain)
    for ep in (a, b, server):
        ep.start()

    def caller(ep, msg_type, tag):
        reply = yield ep.call(server.name, msg_type, tag)
        log.append(("got", reply, sim.now))

    sim.process(caller(a, "gen", "first"))
    sim.process(caller(b, "gen", "second"))
    sim.process(caller(a, "plain", "third"))
    sim.run()
    return log


class TestHandlerStart:
    def test_same_instant_requests_start_in_initialize_order(self, monkeypatch):
        inline = traffic(False, monkeypatch)
        assert [entry[:2] for entry in inline[:5]] == [
            ("serve", "first"),
            ("child", "first"),
            ("serve", "second"),
            ("child", "second"),
            ("plain", "third"),
        ]
        # The first step runs inside its serving process.
        assert all(entry[3] for entry in inline if entry[0] == "serve")
        assert inline == traffic(True, monkeypatch)

    def test_start_now_restores_the_active_process(self):
        sim = Simulator()
        seen = []

        def outer():
            me = sim.active_process
            inner = sim._start_now(returns("x"))
            seen.append((inner.value, sim.active_process is me))
            yield sim.timeout(0.0)

        sim.run(until=sim.process(outer()))
        assert seen == [("x", True)]


class TestStoppedEndpoint:
    @pytest.mark.parametrize("generator", [False, True])
    def test_start_serves_what_queued_while_stopped(self, generator):
        sim, net, hosts = build_lan(2)
        client, server = (RpcEndpoint(net, host) for host in hosts)
        if generator:

            def echo(request):
                yield sim.timeout(0.01)
                return request.body

        else:

            def echo(request):
                return request.body

        server.register("echo", echo)
        client.start()
        result = client.call(server.name, "echo", "queued")
        sim.run(until=1.0)
        assert not result.triggered and len(hosts[1].inbox) == 1
        server.start()
        assert sim.run(until=result) == "queued"
        assert server.requests_served == 1 and len(hosts[1].inbox) == 0
