"""Soak test: a large home under churn, degradation, and load.

Exercises every layer at once on a 20-device deployment: stabilizers
running, scripted crashes/leaves/revivals, a degraded-and-restored LAN,
and a continuous store/fetch workload.  The assertions are systemic:
the workload completes, replicated metadata survives, membership views
converge, and no layer deadlocks or leaks failures.  The durable run
repeats it on disk-backed journals and checks what they retain.
"""

import pytest

from repro.cluster import ChaosSchedule, Cloud4Home, StorageConfig, large_home
from repro.kvstore import KeyNotFoundError
from repro.net import NetworkError
from repro.overlay import Stabilizer
from repro.storage import entry_bytes
from repro.vstore import VStoreError


@pytest.mark.slow
def test_large_home_soak():
    soak(Cloud4Home(large_home(n_devices=20, seed=500, replication_factor=2)))


@pytest.mark.slow
def test_durable_home_soak():
    # Resource snapshots stay out of the journal, so a small snapshot
    # interval is what makes object metadata alone compact.
    c4h = Cloud4Home(
        large_home(
            n_devices=20,
            seed=500,
            replication_factor=2,
            storage="disk",
            storage_tuning=StorageConfig(snapshot_every=32),
        )
    )
    soak(c4h)
    # Every journal entry still carries the size of its own payload,
    # however that size was found (encoded, cached on the record, or
    # taken from the replica message that carried it).
    entries = 0
    for device in c4h.devices:
        store = device.storage
        for entry in store.log:
            expected = entry_bytes(entry.value) if entry.op == "put" else 24
            assert entry.size == expected, (device.name, entry.table, entry.key)
            entries += 1
        for table, values in store.snapshot.items():
            for key, value in values.items():
                assert store._snapshot_sizes[table, key] == entry_bytes(value)
                entries += 1
    assert entries > 0
    assert sum(device.storage.compactions for device in c4h.devices) > 0


def soak(c4h):
    """Run the chaos-and-load scenario on ``c4h`` and check it end to end."""
    c4h.start(monitors=True)
    stabilizers = [Stabilizer(d.chimera, period_s=15.0) for d in c4h.devices]
    for stab in stabilizers:
        stab.start()

    victims = ["dev02", "dev05", "dev10"]
    chaos = (
        ChaosSchedule(c4h)
        .crash(after=20.0, device_name=victims[0])
        .leave(after=40.0, device_name=victims[1])
        .degrade_link(after=60.0, link=c4h.lan_link, factor=0.3, duration=30.0)
        .revive(after=80.0, device_name=victims[0])
        .crash(after=100.0, device_name=victims[2])
    )
    chaos.start()

    writers = [d for d in c4h.devices if d.name not in victims]
    stored: list[str] = []
    failures = 0
    for round_index in range(12):
        writer = writers[round_index % len(writers)]
        name = f"soak-{round_index}.bin"
        try:
            c4h.run(writer.client.store_file(name, 1.0 + round_index % 3))
            stored.append(name)
        except (NetworkError, VStoreError):
            failures += 1
        # Metadata heartbeat alongside the object workload.
        c4h.run(writer.kv.put(f"hb-{round_index}", round_index))
        c4h.sim.run(until=c4h.sim.now + 12.0)

    # The chaos schedule really ran.
    kinds = [e.kind for e in chaos.events]
    assert kinds.count("crash") == 2
    assert "leave" in kinds and "revive" in kinds
    assert "degrade" in kinds and "restore" in kinds

    # The workload overwhelmingly succeeded despite the chaos.
    assert failures <= 2
    assert len(stored) >= 10

    # Replicated metadata survived every crash.
    reader = writers[0]
    for round_index in range(12):
        assert c4h.run(reader.kv.get(f"hb-{round_index}")) == round_index

    # Objects on live holders stay fetchable.
    live = {d.name for d in c4h.devices if d.chimera.joined}
    fetched = 0
    for name in stored:
        holder = next(
            (d for d in c4h.devices if d.vstore.holds(name)), None
        )
        if holder is not None and holder.name in live:
            try:
                c4h.run(reader.client.fetch_object(name))
                fetched += 1
            except (NetworkError, VStoreError, KeyNotFoundError):
                pass
    assert fetched >= len(stored) * 0.7

    # Views converge operationally: after the stabilizers have had time
    # to gossip and probe, the dead node's ring neighbours have evicted
    # it, and every resolution lands on a live owner.
    # (The probe sweep visits every known peer roughly once per
    # len(known) rounds; give it a few sweeps plus gossip time.)
    c4h.sim.run(until=c4h.sim.now + 300.0)
    dead = c4h.device(victims[2]).chimera
    evicted_count = sum(
        1
        for device in c4h.devices
        if device.chimera.joined
        and device.name != victims[2]
        and dead.id not in device.chimera.known
    )
    live_count = sum(
        1
        for device in c4h.devices
        if device.chimera.joined and device.name != victims[2]
    )
    assert evicted_count >= live_count // 2
    live_names = {
        d.name for d in c4h.devices if d.chimera.joined and d.name != victims[2]
    }
    from repro.overlay import NodeId

    for probe in range(6):
        key = NodeId.from_name(f"post-churn-{probe}")
        owner = c4h.run(reader.chimera.resolve(key))
        assert owner.name in live_names
