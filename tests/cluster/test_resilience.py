"""Integration tests for the resilience layer across a deployment.

Covers the store-time payload replication, fetch failover chain
(primary -> replicas -> cloud copy), the background repairer, and the
headline availability-under-crashes scenario from the robustness PR.
"""

import pytest

from repro.cluster import (
    ChaosSchedule,
    Cloud4Home,
    ClusterConfig,
    DeviceConfig,
    ResilienceConfig,
)
from repro.kvstore import DhtKeyValueStore
from repro.overlay import PeerInfo
from repro.resilience.detector import MSG_SUSPECT
from repro.resilience.repair import Repairer
from repro.vstore.node import MSG_PING, object_key
from repro.vstore.objects import LOCATION_REMOTE, ObjectMeta
from repro.vstore.policies import Placement, PlacementTarget, StorePolicy
from repro.vstore.striping import chunk_name


def resilient_config(seed, nodes=8, **overrides):
    defaults = dict(
        devices=[DeviceConfig(name=f"node{i}") for i in range(nodes)],
        seed=seed,
        resilience=True,
        data_replicas=2,
        # Metadata on 3 KV copies so any 2 crashes leave the record
        # reachable; payload availability is what's under test here.
        replication_factor=3,
        resilience_tuning=ResilienceConfig(repair_period_s=1000.0),
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def get_meta(c4h, device, name):
    value = c4h.run(device.kv.get(object_key(name)))
    return ObjectMeta.from_wire(dict(value))


class TestReplicatedStore:
    def test_store_places_payload_replicas(self):
        c4h = Cloud4Home(resilient_config(801))
        c4h.start()
        writer = c4h.devices[0]
        c4h.run(writer.client.store_file("obj.bin", 2.0))
        meta = get_meta(c4h, writer, "obj.bin")
        assert meta.location == "node0"
        assert len(meta.replicas) == 2
        for replica in meta.replicas:
            assert replica != "node0"
            assert c4h.device(replica).vstore.holds("obj.bin")

    def test_resilience_off_places_no_replicas(self):
        c4h = Cloud4Home(resilient_config(802, resilience=False))
        c4h.start()
        writer = c4h.devices[0]
        c4h.run(writer.client.store_file("obj.bin", 2.0))
        meta = get_meta(c4h, writer, "obj.bin")
        assert meta.replicas == []
        holders = [d for d in c4h.devices if d.vstore.holds("obj.bin")]
        assert [d.name for d in holders] == ["node0"]

    def test_replica_shortfall_spills_one_copy_to_cloud(self):
        # No peer has voluntary room for the object, so replication
        # falls short and a single durable cloud copy backstops it.
        c4h = Cloud4Home(resilient_config(803, nodes=4))
        for device in c4h.devices:
            device.vstore.voluntary.capacity_mb = 0.5
        c4h.start()
        writer = c4h.device("node1")
        c4h.run(writer.client.store_file("spill.bin", 1.0))
        meta = get_meta(c4h, writer, "spill.bin")
        assert meta.replicas == []
        assert meta.url is not None
        assert c4h.metrics.counter("vstore.replicate.short", node="node1").value >= 1


def layout_local_copy():
    return Cloud4Home(resilient_config(811, nodes=4, data_replicas=0)), 1.0


def layout_peer_copy():
    c4h = Cloud4Home(resilient_config(812, nodes=4, data_replicas=0))
    c4h.devices[0].vstore.store_policy = StorePolicy(
        default=Placement(PlacementTarget.NAMED_NODE, "node2")
    )
    return c4h, 1.0


def layout_replicas():
    return Cloud4Home(resilient_config(813)), 1.0


def layout_replicas_and_cloud_spill():
    # Only node1 has voluntary room: one replica lands, the second is
    # short and a cloud copy stands in for it.
    c4h = Cloud4Home(resilient_config(814, nodes=5))
    for device in c4h.devices[2:]:
        device.vstore.voluntary.capacity_mb = 0.5
    return c4h, 1.0


def layout_stripe_with_spilled_chunk():
    # Five nodes cannot give six chunks distinct homes: one spills.
    config = resilient_config(815, nodes=5, data_replicas=0, striping=True)
    return Cloud4Home(config), 16.0


def layout_cloud_resident():
    c4h = Cloud4Home(resilient_config(816, nodes=4, data_replicas=0))
    c4h.devices[0].vstore.store_policy = StorePolicy(
        default=Placement(PlacementTarget.REMOTE_CLOUD)
    )
    return c4h, 1.0


LAYOUTS = {
    "local-copy": (layout_local_copy, (1, 1)),
    "peer-copy": (layout_peer_copy, (1, 1)),
    "replicas": (layout_replicas, (1, 3)),
    "replicas+cloud": (layout_replicas_and_cloud_spill, (1, 2)),
    "stripe+cloud": (layout_stripe_with_spilled_chunk, (4, 6)),
    "cloud": (layout_cloud_resident, (1, 1)),
}


def store_layout(layout):
    build, (k, n) = LAYOUTS[layout]
    c4h, size_mb = build()
    c4h.start()
    writer = c4h.devices[0]
    c4h.run(writer.client.store_file("obj.bin", size_mb))
    meta = get_meta(c4h, writer, "obj.bin")
    assert (meta.k, len(meta.holders)) == (k, n)
    if layout == "replicas+cloud":
        assert meta.url is not None
    if layout == "stripe+cloud":
        assert meta.holders.count(LOCATION_REMOTE) == 1
    return c4h, meta


def live_holders(c4h, meta):
    """Slots whose holder is up and physically has its share."""
    live = []
    for slot, holder in enumerate(meta.holders):
        stored = meta.slot_name(slot)
        if holder == LOCATION_REMOTE:
            ok = c4h.s3.contains(stored)
        else:
            ok = c4h.network.hosts[holder].online and c4h.device(
                holder
            ).vstore.holds(stored)
        if ok:
            live.append(holder)
    return live


def owner_of(c4h, name):
    key_hex = DhtKeyValueStore.key_for(object_key(name)).hex
    return next(d for d in c4h.devices if key_hex in d.kv.primary)


class TestEveryLayout:
    """Store, delete and repair over each k-of-n layout."""

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_delete_removes_every_payload_copy(self, layout):
        c4h, meta = store_layout(layout)
        assert len(live_holders(c4h, meta)) == len(meta.holders)
        c4h.run(c4h.devices[1].client.delete_object("obj.bin"))
        names = ["obj.bin"] + [chunk_name("obj.bin", i) for i in range(6)]
        for name in names:
            assert [d.name for d in c4h.devices if d.vstore.holds(name)] == []
            assert not c4h.s3.contains(name)

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_repair_restores_n_holders_from_k(self, layout):
        c4h, meta = store_layout(layout)
        n = len(meta.holders)
        owner = owner_of(c4h, "obj.bin")
        victims = [
            h for h in meta.holders if h not in (LOCATION_REMOTE, owner.name)
        ][: n - meta.k]
        assert len(victims) == n - meta.k
        if layout == "replicas+cloud":
            # Room for the restored copy once the victim is gone.
            c4h.device("node2").vstore.voluntary.capacity_mb = 4096.0
            c4h.sim.run(until=c4h.sim.now + 2 * c4h.config.monitor_period_s)
        chaos = ChaosSchedule(c4h)
        for victim in victims:
            chaos.crash(0.0, victim)
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 1.0)
        c4h.run(owner.repairer.scan_once())
        healed = get_meta(c4h, owner, "obj.bin")
        assert not set(victims) & set(healed.holders)
        assert len(live_holders(c4h, healed)) == len(healed.holders) >= n


def count_pings(device):
    """Record each ``vstore.ping`` ``device`` sends as (dst, names)."""
    sent = []
    call = device.vstore.endpoint.call

    def counting(dst, msg_type, body=None, **kwargs):
        if msg_type == MSG_PING:
            sent.append((dst, list(body["names"])))
        return call(dst, msg_type, body, **kwargs)

    device.vstore.endpoint.call = counting
    return sent


def drop_payload(device, name):
    """The holder stays up but loses one stored share."""
    vstore = device.vstore
    (vstore.mandatory if name in vstore.mandatory else vstore.voluntary).remove(name)


def repair_actions(device, after):
    return [a.action for a in device.repairer.repairs if a.at >= after]


class TestBatchedProbe:
    """A sweep probes each distinct holder once and repairs only what
    the probe found short."""

    def test_healthy_sweep_pings_each_holder_once_and_opens_no_span(self):
        c4h = Cloud4Home(resilient_config(821, telemetry=True))
        c4h.start()
        names = [f"h{i}.bin" for i in range(12)]
        for i, name in enumerate(names):
            c4h.run(c4h.devices[i % 8].client.store_file(name, 1.0))
        metas = {name: get_meta(c4h, c4h.devices[0], name) for name in names}
        swept = 0
        for device in c4h.devices:
            owned = [m for m in metas.values() if owner_of(c4h, m.name) is device]
            remote = {h for m in owned for h in m.holders} - {device.name}
            pings = count_pings(device)
            since = c4h.sim.now
            assert c4h.run(device.repairer.scan_once()) == 0
            assert sorted(dst for dst, _ in pings) == sorted(remote)
            for dst, asked in pings:
                assert sorted(asked) == sorted(m.name for m in owned if dst in m.holders)
            assert not [
                s
                for s in c4h.telemetry.spans
                if s.name == "resilience.repair" and s.start >= since
            ]
            swept += len(owned)
        # Holders are shared: the old per-(object, holder) probe sent more.
        assert swept == len(names)
        assert sum(len(m.holders) for m in metas.values()) > 8

    def test_breaker_open_holder_gets_no_probe(self):
        c4h, meta = store_layout("replicas")
        owner = owner_of(c4h, "obj.bin")
        target = next(h for h in meta.holders if h != owner.name)
        breakers = owner.repairer.caller.breakers
        pings = count_pings(owner)
        scans = owner.repairer.scans
        for _ in range(breakers.failure_threshold):
            breakers.record_failure(target, c4h.sim.now)
        assert breakers.is_open(target, c4h.sim.now)
        # The opening breaker is a reason to sweep: one sweep runs.
        c4h.sim.run(until=c4h.sim.now + 5.0)
        assert owner.repairer.scans == scans + 1
        sent_to = [dst for dst, _ in pings]
        assert target not in sent_to
        assert sorted(sent_to) == sorted(
            set(meta.holders) - {owner.name, target, LOCATION_REMOTE}
        )

    @pytest.mark.parametrize(
        "layout, action", [("replicas", "replicate"), ("stripe+cloud", "rebuild")]
    )
    def test_live_holder_that_lost_its_share_is_repaired(self, layout, action):
        c4h, meta = store_layout(layout)
        owner = owner_of(c4h, "obj.bin")
        slot, holder = next(
            (slot, h)
            for slot, h in enumerate(meta.holders)
            if h not in (owner.name, LOCATION_REMOTE)
        )
        drop_payload(c4h.device(holder), meta.slot_name(slot))
        assert len(live_holders(c4h, meta)) == len(meta.holders) - 1
        since = c4h.sim.now
        c4h.run(owner.repairer.scan_once())
        assert action in repair_actions(owner, since)
        healed = get_meta(c4h, owner, "obj.bin")
        assert len(live_holders(c4h, healed)) == len(healed.holders) == len(meta.holders)

    def test_returned_holder_is_reattached_by_the_batched_probe(self):
        c4h = Cloud4Home(resilient_config(822, storage="wal"))
        c4h.start()
        c4h.run(c4h.devices[0].client.store_file("obj.bin", 1.0))
        meta = get_meta(c4h, c4h.devices[0], "obj.bin")
        owner = owner_of(c4h, "obj.bin")
        assert owner.repairer.track_lost
        victim = next(h for h in meta.replicas if h != owner.name)
        chaos = ChaosSchedule(c4h).crash(0.0, victim)
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 1.0)
        c4h.run(owner.repairer.scan_once())
        pruned = get_meta(c4h, owner, "obj.bin")
        assert victim not in pruned.holders
        assert pruned.lost_replicas == [victim]

        # The revive is a reason to sweep: the owner's triggered sweep
        # probes the returned holder once and reattaches it.
        pings = count_pings(owner)
        since, scans = c4h.sim.now, owner.repairer.scans
        ChaosSchedule(c4h).revive(0.0, victim).start()
        c4h.sim.run(until=c4h.sim.now + 10.0)
        assert c4h.device(victim).vstore.holds("obj.bin")
        assert owner.repairer.scans == scans + 1
        reattached = [
            a for a in owner.repairer.repairs if a.at >= since and a.action == "reattach"
        ]
        assert [a.nodes for a in reattached] == [[victim]]
        assert [dst for dst, _ in pings].count(victim) == 1
        rejoined = get_meta(c4h, owner, "obj.bin")
        assert victim in rejoined.holders
        assert rejoined.lost_replicas == []


def count_parses(monkeypatch):
    """Record the object name of every ``ObjectMeta.from_wire`` call."""
    parsed = []
    from_wire = ObjectMeta.from_wire.__func__

    def counting(cls, data):
        meta = from_wire(cls, data)
        parsed.append(meta.name)
        return meta

    monkeypatch.setattr(ObjectMeta, "from_wire", classmethod(counting))
    return parsed


class TestSweepParseCache:
    """A sweep parses an owned metadata record once per write of it."""

    def test_two_sweeps_over_unchanged_records_parse_each_once(self, monkeypatch):
        c4h = Cloud4Home(resilient_config(823))
        c4h.start()
        names = [f"p{i}.bin" for i in range(12)]
        for i, name in enumerate(names):
            c4h.run(c4h.devices[i % 8].client.store_file(name, 1.0))
        owner = max(
            c4h.devices,
            key=lambda d: sum(owner_of(c4h, name) is d for name in names),
        )
        owned = sorted(name for name in names if owner_of(c4h, name) is owner)
        assert len(owned) >= 2
        parsed = count_parses(monkeypatch)
        for _ in range(2):
            assert c4h.run(owner.repairer.scan_once()) == 0
        assert sorted(parsed) == owned

    def test_a_repaired_object_is_parsed_afresh(self, monkeypatch):
        c4h, meta = store_layout("replicas")
        owner = owner_of(c4h, "obj.bin")
        holder = next(h for h in meta.replicas if h != owner.name)
        drop_payload(c4h.device(holder), "obj.bin")
        seen = []

        def edit_in_place(repairer, meta, held, stamp, span):
            # Never republished: only a fresh parse undoes this edit.
            seen.append(list(meta.replicas))
            meta.replicas.clear()
            return False
            yield

        monkeypatch.setattr(Repairer, "_repair", edit_in_place)
        parsed = count_parses(monkeypatch)
        for _ in range(2):
            c4h.run(owner.repairer.scan_once())
        assert parsed == ["obj.bin", "obj.bin"]
        assert seen == [meta.replicas, meta.replicas]


class TestRepairDeleteRace:
    """A sweep works from metadata read at its start; a delete that
    lands meanwhile must win: no false ``lost``, no metadata written
    back, and no copy the sweep placed left behind."""

    @pytest.mark.parametrize("layout", ["replicas", "stripe+cloud"])
    def test_sweep_across_a_delete_leaves_nothing_behind(self, layout):
        c4h, meta = store_layout(layout)
        owner = owner_of(c4h, "obj.bin")
        slot, holder = next(
            (slot, h)
            for slot, h in enumerate(meta.holders)
            if h not in (owner.name, LOCATION_REMOTE)
        )
        drop_payload(c4h.device(holder), meta.slot_name(slot))
        sim = c4h.sim
        since = sim.now
        done = {}
        sweep = sim.process(owner.repairer.scan_once())
        delete = sim.process(c4h.devices[1].client.delete_object("obj.bin"))
        for name, proc in (("sweep", sweep), ("delete", delete)):
            proc.callbacks.append(lambda _e, name=name: done.setdefault(name, sim.now))
        sim.run(until=sim.all_of([sweep, delete]))
        sim.run(until=sim.now + 5.0)  # replica deletes are one-way pushes
        # The sweep restored the share while the delete ran.
        assert done["delete"] < done["sweep"]
        actions = repair_actions(owner, since)
        assert ("replicate" if meta.k == 1 else "rebuild") in actions
        assert "lost" not in actions
        key_hex = DhtKeyValueStore.key_for(object_key("obj.bin")).hex
        for device in c4h.devices:
            assert key_hex not in device.kv.primary
            assert key_hex not in device.kv.replicas
        names = ["obj.bin"] + [chunk_name("obj.bin", i) for i in range(6)]
        for name in names:
            assert [d.name for d in c4h.devices if d.vstore.holds(name)] == []
            assert not c4h.s3.contains(name)

    def test_sweep_that_probes_a_half_deleted_object_logs_no_loss(self):
        c4h, meta = store_layout("replicas")
        owner = owner_of(c4h, "obj.bin")
        sim = c4h.sim
        delete = sim.process(c4h.devices[1].client.delete_object("obj.bin"))
        # Every copy is gone; the metadata delete is still on its way.
        while any(c4h.device(h).vstore.holds("obj.bin") for h in meta.holders):
            sim.step()
        key_hex = DhtKeyValueStore.key_for(object_key("obj.bin")).hex
        assert key_hex in owner.kv.primary
        since = sim.now
        done = {}
        sweep = sim.process(owner.repairer.scan_once())
        for name, proc in (("sweep", sweep), ("delete", delete)):
            proc.callbacks.append(lambda _e, name=name: done.setdefault(name, sim.now))
        sim.run(until=sim.all_of([sweep, delete]))
        assert done["delete"] < done["sweep"]
        assert repair_actions(owner, since) == []


class TestFetchFailover:
    def test_fetch_fails_over_to_replica_after_crash(self):
        c4h = Cloud4Home(resilient_config(804))
        c4h.start()
        writer = c4h.device("node1")
        c4h.run(writer.client.store_file("x.bin", 1.0))
        meta = get_meta(c4h, writer, "x.bin")
        assert len(meta.replicas) == 2
        ChaosSchedule(c4h).crash(after=0.5, device_name="node1").start()
        c4h.sim.run(until=c4h.sim.now + 1.0)
        fetch = c4h.run(c4h.device("node0").client.fetch_object("x.bin"))
        assert fetch.served_from in meta.replicas

    def test_fetch_falls_back_to_cloud_copy(self):
        c4h = Cloud4Home(resilient_config(805, nodes=4))
        for device in c4h.devices:
            device.vstore.voluntary.capacity_mb = 0.5
        c4h.start()
        writer = c4h.device("node1")
        c4h.run(writer.client.store_file("c.bin", 1.0))
        assert get_meta(c4h, writer, "c.bin").url is not None
        ChaosSchedule(c4h).crash(after=0.5, device_name="node1").start()
        c4h.sim.run(until=c4h.sim.now + 1.0)
        fetch = c4h.run(c4h.device("node0").client.fetch_object("c.bin"))
        assert fetch.served_from == "remote-cloud"
        assert fetch.remote_cloud_s > 0


class TestRepairer:
    def test_repairer_restores_replication_after_crash(self):
        c4h = Cloud4Home(
            resilient_config(
                806,
                resilience_tuning=ResilienceConfig(repair_period_s=10.0),
            )
        )
        c4h.start()
        writer = c4h.device("node0")
        names = [f"r{i}.bin" for i in range(6)]
        for name in names:
            c4h.run(writer.client.store_file(name, 1.0))
        # Crash one replica holder so at least one object drops below
        # full redundancy.
        victim = get_meta(c4h, writer, names[0]).replicas[0]
        ChaosSchedule(c4h).crash(after=0.5, device_name=victim).start()
        c4h.sim.run(until=c4h.sim.now + 60.0)  # several repair periods
        live = {d.name for d in c4h.devices if d.name != victim}
        repairs = [
            action
            for d in c4h.devices
            if d.name != victim
            for action in d.repairer.repairs
        ]
        assert repairs, "no repair action was logged"
        assert any(a.action == "replicate" for a in repairs)
        for name in names:
            meta = get_meta(c4h, c4h.device("node0"), name)
            assert meta.location in live
            assert len(meta.replicas) == 2
            assert all(r in live for r in meta.replicas)
            for replica in meta.replicas:
                assert c4h.device(replica).vstore.holds(name)


class TestAvailabilityUnderChaos:
    def test_fifty_objects_survive_two_crashed_holders(self):
        """The PR's acceptance scenario: 8 nodes, 50 objects with two
        payload replicas each, two holder nodes crash mid-workload —
        every fetch still succeeds, and the repairer brings every
        object back to full replication within the run."""
        c4h = Cloud4Home(
            resilient_config(
                807,
                resilience_tuning=ResilienceConfig(repair_period_s=15.0),
            )
        )
        c4h.start()
        victims = {"node1", "node2"}
        names = []
        for i in range(25):
            writer = c4h.devices[i % len(c4h.devices)]
            name = f"churn-{i:02d}.bin"
            c4h.run(writer.client.store_file(name, 1.0))
            names.append(name)
        chaos = (
            ChaosSchedule(c4h)
            .crash(after=0.5, device_name="node1")
            .crash(after=1.0, device_name="node2")
        )
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 2.0)
        survivors = [d for d in c4h.devices if d.name not in victims]
        for i in range(25, 50):
            writer = survivors[i % len(survivors)]
            name = f"churn-{i:02d}.bin"
            c4h.run(writer.client.store_file(name, 1.0))
            names.append(name)

        # Availability: every object fetches despite two dead holders.
        fetcher = c4h.device("node0")
        results = [c4h.run(fetcher.client.fetch_object(n)) for n in names]
        assert len(results) == 50
        assert all(r.served_from for r in results)
        assert not any(r.served_from in victims for r in results)

        # Durability: the repairer converges back to full replication.
        c4h.sim.run(until=c4h.sim.now + 120.0)
        live = {d.name for d in survivors}
        repairs = [a for d in survivors for a in d.repairer.repairs]
        assert repairs, "repair log is empty after the crash schedule"
        for name in names:
            meta = get_meta(c4h, fetcher, name)
            assert not meta.is_remote
            assert meta.location in live
            assert all(r in live for r in meta.replicas)
            assert len(meta.replicas) == 2


class TestDeterminism:
    def test_resilient_run_is_bit_for_bit_repeatable(self):
        """Retry backoffs, failovers, and repairs all draw from seeded
        streams: two identical runs agree on every simulated latency."""

        def one_run():
            c4h = Cloud4Home(
                resilient_config(
                    808,
                    nodes=4,
                    resilience_tuning=ResilienceConfig(repair_period_s=20.0),
                )
            )
            c4h.start()
            names = [f"d{i}.bin" for i in range(8)]
            for i, name in enumerate(names):
                writer = c4h.devices[i % 4]
                c4h.run(writer.client.store_file(name, 1.0))
            ChaosSchedule(c4h).crash(after=0.5, device_name="node1").start()
            c4h.sim.run(until=c4h.sim.now + 1.0)
            fetcher = c4h.device("node0")
            latencies = [
                c4h.run(fetcher.client.fetch_object(name)).total_s
                for name in names
            ]
            c4h.sim.run(until=c4h.sim.now + 60.0)
            repairs = [
                (a.at, a.object, a.action, tuple(a.nodes))
                for d in c4h.devices
                if d.repairer is not None
                for a in d.repairer.repairs
            ]
            return latencies, repairs, c4h.sim.now

        assert one_run() == one_run()


class TestHealthAwareDecisions:
    def test_stale_snapshots_are_filtered(self):
        c4h = Cloud4Home(
            resilient_config(
                809,
                nodes=4,
                resilience_tuning=ResilienceConfig(freshness_ttl_s=30.0),
            )
        )
        c4h.start(monitors=False)  # snapshots published once, then age out
        decider = c4h.devices[0].decision
        c4h.sim.run(until=c4h.sim.now + 100.0)
        from repro.monitoring import DecisionPolicy

        ranked = c4h.run(decider.decide(DecisionPolicy.BALANCED))
        # Only the decider itself survives the freshness filter.
        assert [s.node for s in ranked] == ["node0"]
        assert decider.filtered_stale > 0


class TestRepairTriggers:
    """Each sign of a failed or returned peer starts exactly one sweep,
    long before the backstop period (1000 s here) would."""

    def home(self, seed, **overrides):
        tuning = ResilienceConfig(
            repair_period_s=overrides.pop("repair_period_s", 1000.0),
            failure_threshold=overrides.pop("failure_threshold", 3),
        )
        c4h = Cloud4Home(resilient_config(seed, resilience_tuning=tuning, **overrides))
        c4h.start()
        for i in range(6):
            c4h.run(c4h.devices[i].client.store_file(f"t{i}.bin", 1.0))
        # No publishes (and so no failure detection): the only traffic
        # is what the test drives.
        for device in c4h.devices:
            device.monitor.stop()
        c4h.sim.run(until=c4h.sim.now + 5.0)
        return c4h

    def sweeps(self, c4h, action) -> dict:
        """Sweeps per node (where any) in the 30 s after ``action()``."""
        before = {d.name: d.repairer.scans for d in c4h.devices}
        action()
        c4h.sim.run(until=c4h.sim.now + 30.0)
        return {
            d.name: d.repairer.scans - before[d.name]
            for d in c4h.devices
            if d.repairer.scans != before[d.name]
        }

    def test_the_overlay_forgetting_a_peer(self):
        c4h = self.home(831)
        node, peer = c4h.devices[2], c4h.devices[5]
        forget = lambda: node.chimera._forget(peer.chimera.id)
        assert self.sweeps(c4h, forget) == {node.name: 1}

    def test_a_breaker_opening(self):
        c4h = self.home(832)
        node, peer = c4h.devices[2], c4h.devices[5]
        breakers = node.breakers

        def fail(times):
            for _ in range(times):
                breakers.record_failure(peer.name, c4h.sim.now)

        assert self.sweeps(c4h, lambda: fail(breakers.failure_threshold - 1)) == {}
        assert self.sweeps(c4h, lambda: fail(1)) == {node.name: 1}

    def test_a_fetch_failing_over(self):
        # A breaker that never opens: the failover is the only signal.
        c4h = self.home(833, failure_threshold=100)
        name = next(
            f"t{i}.bin"
            for i in range(6)
            if get_meta(c4h, c4h.devices[0], f"t{i}.bin").location
            != owner_of(c4h, f"t{i}.bin").name
        )
        meta = get_meta(c4h, c4h.devices[0], name)
        reader = next(d for d in c4h.devices if d.name not in meta.holders)
        c4h.network.take_offline(meta.location)
        fetched = []
        fetch = lambda: fetched.append(c4h.run(reader.client.fetch_object(name)))
        assert self.sweeps(c4h, fetch) == {reader.name: 1}
        assert fetched[0].served_from in meta.replicas

    def test_a_revive(self):
        c4h = self.home(834, storage="wal")
        victim = c4h.devices[3]
        ChaosSchedule(c4h).crash(0.0, victim.name).start()
        c4h.sim.run(until=c4h.sim.now + 1.0)
        others = [d for d in c4h.devices if d is not victim]

        def notice():
            for device in others:
                device.chimera._forget(victim.chimera.id)

        assert self.sweeps(c4h, notice) == {d.name: 1 for d in others}
        revive = lambda: ChaosSchedule(c4h).revive(0.0, victim.name).start()
        # The revived node sweeps after its anti-entropy round, and every
        # node that learns it is back sweeps once.
        assert self.sweeps(c4h, revive) == {d.name: 1 for d in c4h.devices}

    def test_a_rejoin_closes_the_breaker_its_outage_opened(self):
        """The join announcement is evidence of life: the sweep it
        starts must probe the returned peer, not skip it as down."""
        c4h = self.home(841)
        node, peer = c4h.devices[2], c4h.devices[5]
        node.chimera._forget(peer.chimera.id)
        for _ in range(node.breakers.failure_threshold):
            node.breakers.record_failure(peer.name, c4h.sim.now)
        c4h.sim.run(until=c4h.sim.now + 1.0)  # the sweeps these start
        assert node.breakers.is_open(peer.name, c4h.sim.now)
        scans = node.repairer.scans
        node.chimera._add_peer(PeerInfo(peer.name, peer.chimera.id))
        c4h.sim.run(until=c4h.sim.now + 1.0)  # well inside the cooldown
        assert node.breakers.open_peers(c4h.sim.now) == []
        assert node.repairer.scans == scans + 1

    def test_a_stopped_repairer_ignores_triggers(self):
        c4h = self.home(835)
        node = c4h.devices[2]
        node.repairer.stop()
        assert self.sweeps(c4h, node.repairer.trigger) == {}

    def test_a_durable_home_waits_for_the_backstop_while_a_spare_lives(self):
        """A triggered sweep leaves a copy set with two of three holders
        live (k = 1) to the backstop, which triggers do not postpone."""
        period = 100.0
        c4h = self.home(836, storage="wal", repair_period_s=period)
        meta = get_meta(c4h, c4h.devices[0], "t0.bin")
        owner = owner_of(c4h, "t0.bin")
        victim = c4h.device(next(h for h in meta.holders if h != owner.name))
        ChaosSchedule(c4h).crash(0.0, victim.name).start()
        c4h.sim.run(until=c4h.sim.now + 1.0)
        noticed = c4h.sim.now
        owner.chimera._forget(victim.chimera.id)

        def poke():
            while True:
                yield c4h.sim.timeout(30.0)
                owner.repairer.trigger()

        c4h.sim.process(poke())
        c4h.sim.run(until=noticed + 20.0)
        assert owner.repairer.scans > 0
        assert repair_actions(owner, noticed) == []
        c4h.sim.run(until=noticed + period + 20.0)
        assert "replicate" in repair_actions(owner, noticed)
        restored = get_meta(c4h, owner, "t0.bin")
        assert victim.name not in restored.holders
        assert len(live_holders(c4h, restored)) == 3

    def test_a_memory_home_repairs_at_once(self):
        """Without a durable backend a revived holder comes back empty,
        so a triggered sweep restores the missing copy at once."""
        c4h = self.home(837, storage="mem")
        meta = get_meta(c4h, c4h.devices[0], "t0.bin")
        owner = owner_of(c4h, "t0.bin")
        victim = c4h.device(next(h for h in meta.holders if h != owner.name))
        ChaosSchedule(c4h).crash(0.0, victim.name).start()
        c4h.sim.run(until=c4h.sim.now + 1.0)
        noticed = c4h.sim.now
        forget = lambda: owner.chimera._forget(victim.chimera.id)
        assert self.sweeps(c4h, forget) == {owner.name: 1}
        assert "replicate" in repair_actions(owner, noticed)
        restored = get_meta(c4h, owner, "t0.bin")
        assert victim.name not in restored.holders
        assert len(live_holders(c4h, restored)) == 3

    def test_a_crash_the_detector_confirms(self):
        """With monitors publishing, a crash is confirmed within four
        monitor periods: every live node evicts the victim and sweeps."""
        c4h = Cloud4Home(
            resilient_config(
                838, resilience_tuning=ResilienceConfig(repair_period_s=1000.0)
            )
        )
        c4h.start()
        for i in range(6):
            c4h.run(c4h.devices[i].client.store_file(f"t{i}.bin", 1.0))
        c4h.sim.run(until=c4h.sim.now + 5.0)
        victim = c4h.devices[3]
        others = [d for d in c4h.devices if d is not victim]
        before = {d.name: d.repairer.scans for d in others}
        crashed = c4h.sim.now
        ChaosSchedule(c4h).crash(0.0, victim.name).start()
        c4h.sim.run(until=crashed + 4 * c4h.config.monitor_period_s + 2.0)
        assert any(d.detector.reports == [victim.name] for d in others)
        assert not any(d.chimera.knows(victim.chimera.id) for d in others)
        # Several holders report the crash; each device acts on one.
        assert {d.name: d.repairer.scans - before[d.name] for d in others} == {
            d.name: 1 for d in others
        }
        # Nothing else looks dead.
        c4h.sim.run(until=c4h.sim.now + 60.0)
        assert all(d.detector.reports in ([], [victim.name]) for d in others)


class TestFailureDetector:
    """Stale snapshots are only a reason to ask; a live node that was
    evicted anyway comes back."""

    def home(self, seed):
        c4h = Cloud4Home(resilient_config(seed))
        c4h.start()
        c4h.sim.run(until=c4h.sim.now + 5.0)
        return c4h

    def test_a_silent_live_peer_is_pinged_not_evicted(self):
        c4h = self.home(839)
        quiet = c4h.devices[4]
        quiet.monitor.stop()
        scans = {d.name: d.repairer.scans for d in c4h.devices}
        c4h.sim.run(until=c4h.sim.now + 60.0)
        holders = [d for d in c4h.devices if quiet.name in d.detector.stale]
        assert holders  # its snapshot went stale where it is held
        assert all(d.detector.reports == [] for d in c4h.devices)
        assert all(d.chimera.knows(quiet.chimera.id) for d in c4h.devices if d is not quiet)
        assert {d.name: d.repairer.scans for d in c4h.devices} == scans

    def test_a_wrongly_evicted_node_announces_itself(self):
        c4h = self.home(840)
        accuser, victim = c4h.devices[0], c4h.devices[5]
        others = [d for d in c4h.devices[1:] if d is not victim]
        seen = []
        for device in others:
            device.chimera.on_node_left.append(lambda p, d=device: seen.append(("left", d.name)))
            device.chimera.on_node_joined.append(lambda p, d=device: seen.append(("back", d.name)))
        for device in c4h.devices[1:]:
            accuser.kv.endpoint.notify(device.name, MSG_SUSPECT, {"node": victim.name})
        c4h.sim.run(until=c4h.sim.now + 0.5)
        assert {("left", d.name) for d in others} <= set(seen)
        assert all(d.chimera.knows(victim.chimera.id) for d in others)
        assert {("back", d.name) for d in others} <= set(seen)
