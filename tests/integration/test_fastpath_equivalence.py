"""Coalesced hot paths vs independent references.

Each hot path runs as few kernel events as possible: a XenSocket
transfer is one closed-form timeout, a link boundary is one scheduled
callback, and the overlay caches next hops.  The references they are
held to are:

* XenSocket — a pure per-window arithmetic sum of page costs (no
  simulator involved), the model the closed form is derived from;
* link timers — finish times and delivered bytes pinned as literals,
  captured when the interrupt-driven timer process still existed and
  agreed with the coalesced timer to 1e-9;
* route cache — the uncached routing computation itself.

Times compare at 1e-9 relative tolerance; routing decisions exactly.
"""

import math

import pytest

from repro.net import Link, TcpProfile
from repro.net.tcp import UNCAPPED
from repro.sim import Simulator
from repro.virt import XenSocketChannel

from tests.conftest import build_overlay

REL_TOL = 1e-9


def assert_close(actual, expected, label):
    tol = REL_TOL * max(abs(actual), abs(expected), 1e-30)
    assert abs(actual - expected) <= tol, (
        f"{label}: {actual!r} != {expected!r}"
    )


def paged_sum(chan, nbytes, pages_per_event=1):
    """Transfer time as a page-by-page sum over shared-page windows.

    Setup, then each window of up to ``page_count`` pages charged in
    batches of ``pages_per_event`` pages, then the window turnaround.
    """
    total = chan.setup_s
    if nbytes > 0:
        pages = math.ceil(nbytes / chan.page_size)
        per_page = chan.page_overhead_s + chan.page_size / chan.memory_bandwidth
        sent = 0
        while sent < pages:
            in_window = min(chan.page_count, pages - sent)
            done = 0
            while done < in_window:
                batch = min(pages_per_event, in_window - done)
                total += batch * per_page
                done += batch
            sent += in_window
            total += chan.window_turnaround_s
    return total


class TestXenSocketEquivalence:
    @pytest.mark.parametrize(
        "nbytes", [0, 1, 4096, 5000, 128 * 1024, 1024 * 1024, 100 * 1024 * 1024]
    )
    def test_paged_matches_coalesced(self, nbytes):
        sim = Simulator()
        chan = XenSocketChannel(sim)
        coalesced = sim.run(until=sim.process(chan.transfer(nbytes)))
        assert_close(coalesced, paged_sum(chan, nbytes), f"transfer({nbytes})")
        assert_close(coalesced, chan.transfer_time(nbytes), "closed form")

    def test_paged_batching_is_invariant(self):
        nbytes = 10 * 1024 * 1024
        chan = XenSocketChannel(Simulator())
        expected = chan.transfer_time(nbytes)
        for batch in (1, 4, 32):
            assert_close(
                paged_sum(chan, nbytes, pages_per_event=batch),
                expected,
                f"pages_per_event={batch}",
            )

    def test_queued_transfers_serialize_identically(self):
        sim = Simulator()
        chan = XenSocketChannel(sim)
        procs = [sim.process(chan.transfer(512 * 1024)) for _ in range(3)]
        results = [sim.run(until=p) for p in procs]
        one = paged_sum(chan, 512 * 1024)
        assert_close(sim.now, 3 * one, "end time")
        for i, elapsed in enumerate(results):
            # Transfer i waits for the i transfers queued ahead of it.
            assert_close(elapsed, (i + 1) * one, f"transfer #{i} elapsed")


class TestLinkTimerEquivalence:
    @staticmethod
    def run_flows():
        """Three staggered flows with TCP phases sharing one link."""
        sim = Simulator()
        link = Link(sim, bandwidth=10e6)
        profile = TcpProfile(rtt=0.05, shaping_after_s=1.0, shaped_rate=1e6)
        finish_times = {}

        def start_flow(name, delay, nbytes, prof, cap):
            yield sim.timeout(delay)
            flow = link.open_flow(nbytes, profile=prof, extra_cap=cap)
            yield flow.done
            finish_times[name] = sim.now

        sim.process(start_flow("a", 0.0, 4e6, profile, UNCAPPED))
        sim.process(start_flow("b", 0.3, 6e6, profile, 3e6))
        sim.process(start_flow("c", 0.9, 2e6, None, UNCAPPED))
        sim.run()
        return finish_times, link.bytes_delivered

    def test_coalesced_timer_matches_timer_process(self):
        # Pinned from both timer implementations, which agreed exactly.
        finish, delivered = self.run_flows()
        assert set(finish) == {"a", "b", "c"}
        assert_close(finish["a"], 0.7762514285714285, "flow a finish")
        assert_close(finish["b"], 4.941951999999999, "flow b finish")
        assert_close(finish["c"], 1.1857142857142857, "flow c finish")
        assert_close(delivered, 12000000.0, "bytes delivered")

    def test_bandwidth_change_reschedules_identically(self):
        sim = Simulator()
        link = Link(sim, bandwidth=8e6)
        flow = link.open_flow(12e6)

        def degrade():
            yield sim.timeout(0.5)
            link.set_bandwidth(2e6)

        sim.process(degrade())
        sim.run(until=flow.done)
        # 4 MB at 8 MB/s, then the remaining 8 MB at 2 MB/s.
        assert_close(sim.now, 4.5, "finish under change")


class TestRouteCacheEquivalence:
    def test_cached_and_uncached_routing_agree(self):
        from repro.overlay import NodeId

        sim, net, nodes = build_overlay(16, seed=11)
        assert any(n.route_cache_hits == 0 for n in nodes)
        keys = [NodeId.from_name(f"eq-{i}") for i in range(64)]
        for node in nodes:
            for key in keys:
                cached = node.next_hop(key)
                uncached = node._next_hop_uncached(key)
                assert cached is uncached or (
                    cached is not None
                    and uncached is not None
                    and cached.id == uncached.id
                ), f"{node.name} routes {key} differently"
        # Second pass is served from the cache.
        hits_before = sum(n.route_cache_hits for n in nodes)
        for node in nodes:
            for key in keys:
                node.next_hop(key)
        hits_after = sum(n.route_cache_hits for n in nodes)
        assert hits_after >= hits_before + len(nodes) * len(keys)

    def test_membership_change_invalidates_cache(self):
        from repro.overlay import NodeId

        sim, net, nodes = build_overlay(8, seed=3)
        key = NodeId.from_name("invalidate-me")
        node = nodes[0]
        node.next_hop(key)
        assert key in node._route_cache
        leaver = nodes[-1]
        proc = sim.process(leaver.leave())
        sim.run(until=proc)
        sim.run()
        assert key not in node._route_cache
        refreshed = node.next_hop(key)
        uncached = node._next_hop_uncached(key)
        assert (refreshed is None) == (uncached is None)
        if refreshed is not None:
            assert refreshed.id == uncached.id
