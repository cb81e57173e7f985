"""Durable rejoin vs empty rejoin: ``BENCH_durability.json``.

The WAL backend's quantitative claim: when crashed nodes come back,
recovering from the local journal must be far cheaper for the cluster
than rejoining empty-handed.  This benchmark runs the *same* seeded
crash-and-revive scenario with ``ClusterConfig(storage=)`` set to
``"mem"`` (RAM only — the revived nodes rejoin with nothing) and
``"wal"`` (the revived nodes replay their journals and keep their
payloads):

1. eight nodes store 1 MB objects round-robin (two payload replicas
   each, resilience on);
2. a fixed chaos script crashes two holder nodes, then revives them
   before the first repair sweep;
3. right after the revives, each victim fetches the objects it held
   before the crash — the *local-serve* fraction says whether recovery
   actually brought the payloads back (WAL) or just the membership
   (mem);
4. the repairers then sweep; every ``replicate`` action re-copies a
   full object, so summed copy bytes measure what the rejoin cost the
   cluster;
5. a survivor fetches every object: availability must be 100% in both
   modes — durability changes the *cost* of recovery, never whether
   data survives.

The WAL scenario runs twice and must agree bit-for-bit.
"""

from __future__ import annotations

from repro.cluster import (
    ChaosSchedule,
    Cloud4Home,
    ClusterConfig,
    DeviceConfig,
    ResilienceConfig,
)
from repro.kvstore import KvError
from repro.net import NetworkError
from repro.vstore.errors import VStoreError

N_NODES = 8
#: The two holder nodes the fixed chaos script kills and revives.
VICTIMS = ("node1", "node2")
OBJECT_MB = 1.0
#: Backstop period.  Two backstop sweeps bring every object to full
#: strength before the fault.  During the outage only the sweeps that
#: the crashes trigger run; on a durable backend they restore only
#: objects one failure from loss, so what a WAL rejoin costs is that
#: plus whatever recovery left behind.
REPAIR_PERIOD_S = 60.0


def _build(seed: int, storage: str) -> Cloud4Home:
    config = ClusterConfig(
        devices=[DeviceConfig(name=f"node{i}") for i in range(N_NODES)],
        seed=seed,
        replication_factor=3,
        resilience=True,
        data_replicas=2,
        resilience_tuning=ResilienceConfig(repair_period_s=REPAIR_PERIOD_S),
        storage=storage,
    )
    c4h = Cloud4Home(config)
    c4h.start()
    return c4h


def _run_scenario(seed: int, storage: str, n_objects: int) -> dict:
    c4h = _build(seed, storage)
    names = []
    for i in range(n_objects):
        writer = c4h.devices[i % N_NODES]
        name = f"dur-{i:03d}.bin"
        c4h.run(writer.client.store_file(name, OBJECT_MB))
        names.append(name)

    # Stored payloads start single-homed; the repair sweeps are what
    # create the replica copies.  Run two periods so every object is at
    # full strength before the fault — pre-fault replication must not
    # be billed to the rejoin.
    c4h.sim.run(until=c4h.sim.now + 2.0 * REPAIR_PERIOD_S + 5.0)

    held_before = {
        victim: [n for n in names if c4h.device(victim).vstore.holds(n)]
        for victim in VICTIMS
    }

    chaos = (
        ChaosSchedule(c4h)
        .crash(after=1.0, device_name=VICTIMS[0])
        .crash(after=2.0, device_name=VICTIMS[1])
        .revive(after=20.0, device_name=VICTIMS[0])
        .revive(after=21.0, device_name=VICTIMS[1])
    )
    t0 = c4h.sim.now
    chaos.start()
    c4h.sim.run(until=t0 + 30.0)

    # Local-serve: can a revived node serve what it held, itself?
    # ("local" for objects it primaries, its own name for replicas.)
    local = 0
    held_total = 0
    for victim, held in sorted(held_before.items()):
        device = c4h.device(victim)
        for name in held:
            held_total += 1
            try:
                fetch = c4h.run(device.client.fetch_object(name))
            except (NetworkError, VStoreError, KvError):
                continue
            if fetch.served_from in ("local", victim):
                local += 1
    local_serve = local / held_total if held_total else 0.0

    # Let the repairers sweep twice more, then price the rejoin: every
    # replicate action after the crash re-copied a whole object.
    c4h.sim.run(until=t0 + 2.5 * REPAIR_PERIOD_S)
    repairs = [
        action
        for device in c4h.devices
        if device.repairer is not None
        for action in device.repairer.repairs
        if action.at >= t0
    ]
    replicate_copies = sum(
        len(action.nodes) for action in repairs if action.action == "replicate"
    )
    reattaches = sum(1 for action in repairs if action.action == "reattach")

    survivor = c4h.device("node0")
    failures = 0
    latencies: list[float] = []
    for name in names:
        started = c4h.sim.now
        try:
            c4h.run(survivor.client.fetch_object(name))
        except (NetworkError, VStoreError, KvError):
            failures += 1
        else:
            latencies.append(c4h.sim.now - started)

    recoveries = [
        event.detail
        for event in chaos.events
        if event.kind == "revive"
    ]
    return {
        "storage": storage,
        "objects": n_objects,
        "held_by_victims": held_total,
        "local_serve_fraction": local_serve,
        "replicate_copies": replicate_copies,
        "repair_bytes_mb": replicate_copies * OBJECT_MB,
        "reattach_actions": reattaches,
        "repair_actions": len(repairs),
        "failures": failures,
        "success_rate": (n_objects - failures) / n_objects,
        "latencies_s": latencies,
        "revives": recoveries,
    }


def bench_durability(seed: int = 1100, n_objects: int = 24) -> dict:
    """WAL rejoin vs empty rejoin under the fixed 2-of-8 crash script.

    The WAL scenario runs twice; the benchmark asserts the runs agree
    bit-for-bit (every fetch latency and repair action included) before
    reporting anything.
    """
    mem = _run_scenario(seed, "mem", n_objects)
    wal = _run_scenario(seed, "wal", n_objects)
    wal_again = _run_scenario(seed, "wal", n_objects)
    assert wal == wal_again, (
        "durability scenario is not deterministic: two identically "
        "seeded WAL runs disagree"
    )
    deterministic = wal == wal_again
    for mode in (mem, wal, wal_again):
        mode.pop("latencies_s")
    mem_mb = mem["repair_bytes_mb"]
    ratio = wal["repair_bytes_mb"] / mem_mb if mem_mb > 0 else 1.0
    return {
        "nodes": N_NODES,
        "killed": list(VICTIMS),
        "object_mb": OBJECT_MB,
        "objects": n_objects,
        "mem": mem,
        "wal": wal,
        #: WAL repair traffic as a fraction of the empty-rejoin cost
        #: (1.0 when the mem run repaired nothing — a broken scenario
        #: must fail the ratio check, not pass it vacuously).
        "repair_ratio": ratio,
        "deterministic": deterministic,
    }
