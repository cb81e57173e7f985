"""Cluster-level durability: crash/revive with pluggable backends.

The storage backend decides what a revived node remembers: ``mem``
rejoins empty (the seed behaviour), ``wal`` replays its journal, and
``disk`` additionally charges simulated replay time and can lose the
unsynced tail.
"""

import pytest

from repro.cluster import (
    ChaosSchedule,
    Cloud4Home,
    ClusterConfig,
    ResilienceConfig,
    StorageConfig,
)
from repro.cluster.invariants import check_invariants, live_objects
from repro.kvstore.records import is_soft_state
from repro.vstore.node import object_key


def fresh_cluster(seed, **kwargs):
    c4h = Cloud4Home(ClusterConfig(seed=seed, **kwargs))
    c4h.start(monitors=False)
    return c4h


class TestBackendWiring:
    def test_default_storage_builds_no_backends(self):
        c4h = fresh_cluster(910)
        assert c4h.config.storage == "mem"
        assert all(d.storage is None for d in c4h.devices)
        assert all(d.flusher is None for d in c4h.devices)
        # A volatile node still keeps tombstones, in a plain dict.
        assert all(type(d.kv.tombstones) is dict for d in c4h.devices)

    def test_wal_attaches_a_backend_per_device(self):
        c4h = fresh_cluster(911, storage="wal")
        assert all(d.storage is not None for d in c4h.devices)
        assert all(d.storage.kind == "wal" for d in c4h.devices)
        assert all(d.flusher is None for d in c4h.devices)  # wal is idealized
        # The KV tables and the bin manifests share the device backend.
        d = c4h.devices[0]
        assert d.kv.primary is d.storage.table("kv.primary")

    def test_disk_gets_a_flusher(self):
        c4h = Cloud4Home(
            ClusterConfig(
                seed=912,
                storage="disk",
                storage_tuning=StorageConfig(fsync_interval_s=0.1),
            )
        )
        # The flusher is periodic background activity, started with the
        # monitors (monitors=False keeps the deployment quiescent).
        c4h.start(monitors=True)
        assert all(d.storage.kind == "disk" for d in c4h.devices)
        assert all(d.flusher is not None and d.flusher.running for d in c4h.devices)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="ClusterConfig.storage"):
            Cloud4Home(ClusterConfig(seed=913, storage="floppy"))

    def test_off_is_rejected_at_build_time_naming_the_field(self):
        """``"off"`` was a second crash model; it is no longer a value."""
        with pytest.raises(ValueError) as info:
            Cloud4Home(ClusterConfig(seed=913, storage="off"))
        message = str(info.value)
        assert "ClusterConfig.storage" in message and "'off'" in message
        assert all(kind in message for kind in ("'mem'", "'wal'", "'disk'"))


class TestWalCrashRevive:
    def test_revive_restores_kv_records_and_bin_contents(self):
        c4h = fresh_cluster(900, storage="wal")
        writer = c4h.devices[0]
        for i in range(8):
            c4h.run(writer.kv.put(f"dur-{i}", i))
        victim = c4h.device("netbook2")
        c4h.run(victim.client.store_file("dur.bin", 2.0))
        assert victim.vstore.holds("dur.bin")
        c4h.sim.run(until=c4h.sim.now + 1.0)
        # Resource snapshots are soft state: the WAL never held them.
        held = {
            k: r.version
            for k, r in [*victim.kv.primary.items(), *victim.kv.replicas.items()]
            if not is_soft_state(r)
        }
        chaos = (
            ChaosSchedule(c4h)
            .crash(after=1.0, device_name="netbook2")
            .revive(after=10.0, device_name="netbook2")
        )
        t0 = c4h.sim.now
        chaos.start()
        c4h.sim.run(until=t0 + 5.0)
        # Down: RAM state is gone, the journal is not.
        assert not victim.vstore.holds("dur.bin")
        assert victim.kv.primary == {} and victim.kv.replicas == {}
        c4h.sim.run(until=t0 + 30.0)
        kinds = [e.kind for e in chaos.events]
        assert kinds == ["crash", "revive"]
        revive = chaos.events[1]
        assert "replayed" in revive.detail and "synced" in revive.detail
        # Everything the WAL journaled is live again.
        assert victim.vstore.holds("dur.bin")
        for key_hex, version in held.items():
            record = victim.kv.primary.get(key_hex) or victim.kv.replicas.get(
                key_hex
            )
            assert record is not None and record.version >= version
        # And the revived node serves its own payload.
        fetch = c4h.run(c4h.devices[0].client.fetch_object("dur.bin"))
        assert fetch.served_from == "netbook2"

    def test_mem_backend_rejoins_empty_handed(self):
        c4h = fresh_cluster(901, storage="mem")
        victim = c4h.device("netbook2")
        c4h.run(victim.client.store_file("vol.bin", 1.0))
        assert victim.vstore.holds("vol.bin")
        chaos = (
            ChaosSchedule(c4h)
            .crash(after=1.0, device_name="netbook2")
            .revive(after=10.0, device_name="netbook2")
        )
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 30.0)
        revive = next(e for e in chaos.events if e.kind == "revive")
        # No backend, so nothing replays; the anti-entropy round runs.
        assert "replayed" not in revive.detail
        assert "synced" in revive.detail
        assert not victim.vstore.holds("vol.bin")

    def test_disk_backend_replays_synced_state(self):
        c4h = fresh_cluster(
            902,
            storage="disk",
            storage_tuning=StorageConfig(fsync_interval_s=0.1),
        )
        for device in c4h.devices:  # monitors are off: start these by hand
            device.flusher.start()
        writer = c4h.devices[0]
        for i in range(6):
            c4h.run(writer.kv.put(f"disk-{i}", i))
        # Let the flushers fsync the journals.
        c4h.sim.run(until=c4h.sim.now + 2.0)
        # Resource snapshots are soft state: the journal never holds them.
        victim = next(
            d
            for d in c4h.devices
            if any(not is_soft_state(r) for r in d.kv.primary.values())
        )
        assert victim.storage.fsyncs > 0
        held = {k for k, r in victim.kv.primary.items() if not is_soft_state(r)}
        chaos = (
            ChaosSchedule(c4h)
            .crash(after=1.0, device_name=victim.name)
            .revive(after=10.0, device_name=victim.name)
        )
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 40.0)
        assert [e.kind for e in chaos.events] == ["crash", "revive"]
        assert held <= set(victim.kv.primary) | set(victim.kv.replicas)
        # The flusher is back for the next crash.
        assert victim.flusher.running

    def test_crash_detail_counts_what_was_lost(self):
        c4h = fresh_cluster(903, storage="wal")
        writer = c4h.devices[0]
        for i in range(4):
            c4h.run(writer.kv.put(f"lost-{i}", i))
        c4h.sim.run(until=c4h.sim.now + 1.0)
        victim = next(d for d in c4h.devices if d.kv.primary or d.kv.replicas)
        chaos = ChaosSchedule(c4h).crash(after=1.0, device_name=victim.name)
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 5.0)
        assert "lost" in chaos.events[0].detail
        assert "unsynced ops" in chaos.events[0].detail


class TestVolatileCrash:
    """The default ``"mem"`` storage: a crash loses the node's RAM."""

    def test_a_crashed_device_holds_nothing_while_down(self):
        c4h = fresh_cluster(914)
        writer = c4h.devices[0]
        for i in range(12):
            c4h.run(writer.kv.put(f"gone-{i}", i))
        for i in range(12):
            c4h.run(writer.kv.delete(f"gone-{i}"))
        victim = next(d for d in c4h.devices if d.kv.tombstones)
        c4h.run(victim.client.store_file("vol.bin", 1.0))
        assert victim.kv.replicas and victim.vstore.holds("vol.bin")
        ChaosSchedule(c4h).crash(after=1.0, device_name=victim.name).start()
        c4h.sim.run(until=c4h.sim.now + 5.0)
        kv = victim.kv
        assert (kv.primary, kv.replicas, kv.tombstones, dict(kv.cache)) == ({}, {}, {}, {})
        inventory = victim.vstore.inventory()
        assert (inventory["mandatory"], inventory["voluntary"]) == ({}, {})

    def test_a_replica_holder_crashed_during_a_delete_keeps_no_stale_record(self):
        c4h = fresh_cluster(915)
        c4h.run(c4h.devices[0].client.store_file("gone.bin", 1.0))
        key_hex = c4h.devices[0].kv.key_for(object_key("gone.bin")).hex
        stale = next(d for d in c4h.devices if key_hex in d.kv.replicas)
        chaos = (
            ChaosSchedule(c4h)
            .crash(after=1.0, device_name=stale.name)
            .revive(after=20.0, device_name=stale.name)
        )
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 5.0)
        deleter = next(d for d in c4h.devices if d is not stale)
        c4h.run(deleter.client.delete_object("gone.bin"))
        c4h.sim.run(until=c4h.sim.now + 30.0)
        assert [e.kind for e in chaos.events] == ["crash", "revive"]
        assert key_hex not in stale.kv.primary and key_hex not in stale.kv.replicas
        # The delete's owner keeps the tombstone, and the revive's
        # anti-entropy round brings no copy back.
        assert any(key_hex in d.kv.tombstones for d in c4h.devices)
        assert "gone.bin" not in live_objects(c4h)
        assert check_invariants(c4h) == []


class TestReviveSkip:
    def test_reviving_an_online_node_is_a_typed_noop(self):
        c4h = fresh_cluster(904)
        peers_before = len(c4h.devices[1].chimera.peers())
        chaos = ChaosSchedule(c4h).revive(after=1.0, device_name="netbook1")
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 5.0)
        assert [e.kind for e in chaos.events] == ["revive-skip"]
        assert chaos.events[0].target == "netbook1"
        assert chaos.events[0].detail == "already online"
        # No double-join side effects: membership view unchanged.
        assert len(c4h.devices[1].chimera.peers()) == peers_before

    def test_revive_after_crash_still_works(self):
        c4h = fresh_cluster(905)
        chaos = (
            ChaosSchedule(c4h)
            .crash(after=1.0, device_name="netbook1")
            .revive(after=8.0, device_name="netbook1")
            .revive(after=16.0, device_name="netbook1")  # second is a no-op
        )
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 30.0)
        kinds = [e.kind for e in chaos.events]
        assert kinds == ["crash", "revive", "revive-skip"]


class TestLeaveStranded:
    def test_unreachable_transfer_targets_are_counted(self):
        c4h = fresh_cluster(906)
        writer = c4h.devices[0]
        for i in range(12):
            c4h.run(writer.kv.put(f"strand-{i}", i))
        c4h.sim.run(until=c4h.sim.now + 1.0)
        leaver = next(d for d in c4h.devices if d.kv.primary)
        owned = len(leaver.kv.primary)
        for device in c4h.devices:
            if device.name != leaver.name:
                c4h.network.take_offline(device.name)
        c4h.run(leaver.kv.leave())
        assert leaver.kv.stats.leave_stranded == owned
        snapshot = leaver.kv.stats.snapshot()
        assert snapshot["counters"]["leave_stranded"] == owned

    def test_clean_leave_strands_nothing(self):
        c4h = fresh_cluster(907)
        writer = c4h.devices[0]
        for i in range(6):
            c4h.run(writer.kv.put(f"clean-{i}", i))
        chaos = ChaosSchedule(c4h).leave(after=1.0, device_name="netbook3")
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 10.0)
        assert c4h.device("netbook3").kv.stats.leave_stranded == 0


class TestReattach:
    def test_recovered_holder_reattaches_without_copying(self):
        c4h = fresh_cluster(
            908,
            storage="wal",
            resilience=True,
            resilience_tuning=ResilienceConfig(repair_period_s=5.0),
        )
        for device in c4h.devices:  # monitors are off: sweep by hand
            device.repairer.start()
        writer = c4h.devices[0]
        for i in range(6):
            c4h.run(writer.client.store_file(f"att-{i}.bin", 1.0))
        c4h.sim.run(until=c4h.sim.now + 1.0)
        victim = next(
            d
            for d in c4h.devices
            if d.name != writer.name and any(
                d.vstore.holds(f"att-{i}.bin") for i in range(6)
            )
        )
        chaos = (
            ChaosSchedule(c4h)
            .crash(after=1.0, device_name=victim.name)
            .revive(after=12.0, device_name=victim.name)
        )
        chaos.start()
        # Two sweeps down (holders marked lost), two sweeps back up
        # (the WAL-restored payloads are probed and reattached).
        c4h.sim.run(until=c4h.sim.now + 40.0)
        actions = [
            r.action
            for d in c4h.devices
            if d.repairer is not None
            for r in d.repairer.repairs
        ]
        assert "reattach" in actions
