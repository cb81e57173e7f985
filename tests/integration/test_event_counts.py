"""Exact kernel-event budgets for the coalesced hot paths.

Counts of scheduled events (``Simulator._event_seq``) are deterministic,
so these gates hold on any runner regardless of its speed.  They are
what keeps per-page XenSocket events, per-boundary timer processes,
per-message delivery processes and per-call RPC timers from coming
back.
"""

import pytest

from repro.kvstore import DhtKeyValueStore
from repro.net import Link, RpcEndpoint, TcpProfile
from repro.overlay import NodeId
from repro.sim import Simulator
from repro.storage import SimDiskStore, StorageFlusher
from repro.virt import XenSocketChannel

from tests.conftest import build_lan, build_overlay

#: Kernel events one ``XenSocketChannel.transfer`` may schedule.
XENSOCKET_EVENT_BUDGET = 8

#: A sync-handler echo: request arrival, response arrival, the result.
SYNC_ROUND_TRIP_EVENTS = 3
#: The same on an idle endpoint, which also arms its deadline sweep.
FIRST_CALL_EVENTS = 4
#: A generator-handler echo adds its one serving process's start and end.
GENERATOR_ROUND_TRIP_EVENTS = 5
#: A ``kv.get`` forwarded once: the origin's process start, processing
#: delay and end (3, as for a get served by the owner itself) plus the
#: hop, which is a generator round trip with the owner's processing
#: delay inside it (6).
KV_GET_ONE_HOP_EVENTS = 9
KV_GET_HOP_EVENTS = 6

#: A flush of a dirty disk store: the flusher's tick and its charge.
DIRTY_FLUSH_EVENTS = 2
#: A flush period of a clean store: the flusher is parked.
IDLE_PERIOD_EVENTS = 0

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
        # Delivering a message schedules nothing further.
        assert sim._event_seq - before == 0
        assert net.messages_delivered == n


def echo_pair(generator):
    """A client endpoint and an ``echo`` server on a two-host LAN."""
    sim, net, hosts = build_lan(2)
    client, server = (RpcEndpoint(net, host) for host in hosts)
    if generator:

        def echo(request):
            return request.body
            yield  # a generator handler that never waits

    else:

        def echo(request):
            return request.body

    server.register("echo", echo)
    client.start()
    server.start()
    return sim, client, server.name


def round_trip_events(sim, client, dst):
    before = sim._event_seq
    result = client.call(dst, "echo", "x")
    assert sim.run(until=result) == "x"
    return sim._event_seq - before


class TestRpcRoundTripEvents:
    def test_sync_echo(self):
        sim, client, dst = echo_pair(generator=False)
        assert round_trip_events(sim, client, dst) == FIRST_CALL_EVENTS
        for _ in range(5):
            assert round_trip_events(sim, client, dst) == SYNC_ROUND_TRIP_EVENTS

    def test_endpoint_idle_again_after_its_sweep(self):
        sim, client, dst = echo_pair(generator=False)
        round_trip_events(sim, client, dst)
        sim.run()  # the sweep fires at the deadline and finds nothing
        assert round_trip_events(sim, client, dst) == FIRST_CALL_EVENTS

    def test_generator_echo(self):
        sim, client, dst = echo_pair(generator=True)
        round_trip_events(sim, client, dst)
        for _ in range(5):
            assert round_trip_events(sim, client, dst) == GENERATOR_ROUND_TRIP_EVENTS

    def test_settled_calls_leave_one_sweep_timer(self):
        sim, client, dst = echo_pair(generator=False)
        for _ in range(20):
            round_trip_events(sim, client, dst)
        assert len(sim._queue) == 1


def test_forwarded_kv_get_hop():
    sim, _net, nodes = build_overlay(4)
    stores = [DhtKeyValueStore(node, cache_enabled=False) for node in nodes]
    sim.run(until=sim.process(stores[0].put("k", "v")))
    key = NodeId.from_name("k")
    owner = next(s for s in stores if key.hex in s.primary)
    origin = next(
        s
        for s in stores
        if s is not owner and s.chimera.next_hop(key).name == owner.name
    )

    def get_events(store):
        before = sim._event_seq
        assert sim.run(until=sim.process(store.get("k"))) == "v"
        return sim._event_seq - before

    get_events(origin)  # arms the origin's deadline sweep
    forwards = origin.stats.forwards
    one_hop = get_events(origin)
    assert origin.stats.forwards == forwards + 1
    assert one_hop == KV_GET_ONE_HOP_EVENTS
    assert one_hop - get_events(owner) == KV_GET_HOP_EVENTS


class TestSingleCopyObjectEvents:
    """A single-copy object's store and delete schedule exactly the
    kernel events they did before every layout shared one store, delete
    and repair path: one holder means no scatter, no gather and no
    extra process.  Message sizes and therefore timings follow."""

    @pytest.mark.parametrize(
        "placement, store_events, delete_events",
        [
            (None, 20, 25),  # the writer's own mandatory bin
            (("named-node", "netbook1"), 31, 22),  # a peer's voluntary bin
            (("remote-cloud", None), 35, 22),  # the remote cloud
        ],
    )
    def test_store_and_delete(self, placement, store_events, delete_events):
        from repro import Cloud4Home, ClusterConfig
        from repro.vstore.policies import Placement, PlacementTarget, StorePolicy

        c4h = Cloud4Home(ClusterConfig(seed=5, telemetry=True))
        c4h.start(monitors=False)
        writer = c4h.devices[0]
        if placement is not None:
            target, node = placement
            writer.vstore.store_policy = StorePolicy(
                default=Placement(PlacementTarget(target), node)
            )
        sim = c4h.sim
        before = sim._event_seq
        c4h.run(writer.client.store_file("a.bin", 3.0))
        assert sim._event_seq - before == store_events
        before = sim._event_seq
        c4h.run(c4h.devices[1].client.delete_object("a.bin"))
        assert sim._event_seq - before == delete_events
        assert not any(d.vstore.holds("a.bin") for d in c4h.devices)


class TestDiskFlusherEvents:
    def test_dirty_flush_and_idle_period(self):
        sim = Simulator()
        store = SimDiskStore(jitter=0.0)
        flusher = StorageFlusher(sim, store, period_s=0.25)
        flusher.start()
        sim.run(until=0.0)  # the process starts and parks
        table = store.table("t")
        periods = 4
        for i in range(5):
            before = sim._event_seq
            table[f"k{i}"] = i
            sim.run(until=sim.now + periods * flusher.period_s)
            # One event is the run's own horizon marker.
            events = sim._event_seq - before - 1
            assert events == DIRTY_FLUSH_EVENTS + (periods - 1) * IDLE_PERIOD_EVENTS
            assert store.synced == i + 1 and not store.dirty
        periods = 100
        before = sim._event_seq
        sim.run(until=sim.now + periods * flusher.period_s)
        assert sim._event_seq - before - 1 == periods * IDLE_PERIOD_EVENTS
        assert flusher.flushes == 5
