"""Exact kernel-event budgets for the coalesced hot paths.

Counts of scheduled events (``Simulator._event_seq``) are deterministic,
so these gates hold on any runner regardless of its speed.  They are
what keeps per-page XenSocket events, per-boundary timer processes and
per-message delivery processes from coming back.
"""

import pytest

from repro.net import Link, TcpProfile
from repro.sim import Simulator
from repro.virt import XenSocketChannel

from tests.conftest import build_lan

#: Kernel events one ``XenSocketChannel.transfer`` may schedule.
XENSOCKET_EVENT_BUDGET = 8

MB = 1024 * 1024


@pytest.mark.parametrize(
    "nbytes", [0, 1, 4096, 5000, 128 * 1024, MB, 10 * MB, 100 * MB]
)
def test_xensocket_transfer_event_budget(nbytes):
    sim = Simulator()
    chan = XenSocketChannel(sim)
    before = sim._event_seq
    sim.run(until=sim.process(chan.transfer(nbytes)))
    assert sim._event_seq - before <= XENSOCKET_EVENT_BUDGET


class TestLinkBoundaryEvents:
    def test_open_and_rate_change_schedule_one_event_each(self):
        sim = Simulator()
        link = Link(sim, bandwidth=10e6)
        profile = TcpProfile(rtt=0.05, shaping_after_s=1.0, shaped_rate=1e6)
        for nbytes in (4e6, 6e6, 2e6):
            before = sim._event_seq
            link.open_flow(nbytes, profile=profile)
            assert sim._event_seq - before == 1
        before = sim._event_seq
        link.set_bandwidth(5e6)
        assert sim._event_seq - before == 1

    def test_each_boundary_schedules_exactly_one_timer(self):
        sim = Simulator()
        link = Link(sim, bandwidth=10e6)
        profile = TcpProfile(rtt=0.05, shaping_after_s=1.0, shaped_rate=1e6)
        flows = [
            link.open_flow(4e6, profile=profile),
            link.open_flow(6e6, profile=profile, extra_cap=3e6),
            link.open_flow(2e6),
        ]
        on_boundary = link._on_boundary
        boundaries = []
        scheduled = []

        def counted_boundary():
            before = sim._event_seq
            remaining = [f for f in flows if f.finished_at is None]
            on_boundary()
            finished = sum(1 for f in remaining if f.finished_at is not None)
            # One timer while flows remain, plus one completion per
            # flow that finished at this boundary — nothing else.
            timer = 1 if link.active_flows else 0
            assert sim._event_seq - before == timer + finished
            boundaries.append(finished)
            scheduled.append(timer + finished)

        link._on_boundary = counted_boundary
        before_run = sim._event_seq
        sim.run()
        assert all(f.finished_at is not None for f in flows)
        # Firing a timer schedules nothing outside the boundary itself.
        assert sim._event_seq - before_run == sum(scheduled)
        assert sum(boundaries) == len(flows)
        # TCP phase changes add boundaries beyond the three completions.
        assert len(boundaries) > len(flows)


class TestControlMessageEvents:
    def test_each_message_schedules_one_delivery_event(self):
        sim, net, hosts = build_lan(3)
        n = 25
        for i in range(n):
            before = sim._event_seq
            net.send(hosts[i % 3].name, hosts[(i + 1) % 3].name, {"i": i})
            assert sim._event_seq - before == 1
        before = sim._event_seq
        sim.run()
        # Delivering a message only succeeds its ``done`` event.
        assert sim._event_seq - before == n
        assert net.messages_delivered == n
