"""Background work that finds nothing to do: exact counts on a healthy home.

A durable home with resilience on runs two background loops: resource
publishes and payload-repair sweeps.  Neither should cost in proportion
to time when nothing changes.  :data:`COUNTS` pins what they do:

* ``soft_state_appends`` — journal appends of ``resource:*`` records
  over a run of monitor publishes (soft state stays in RAM);
* ``pending_trigger_sweeps`` — sweeps after three triggers that arrive
  before the sweep they start has begun;
* ``running_trigger_sweeps`` — sweeps after a trigger and five more
  that arrive while its sweep runs (the sweep plus one follow-up);
* ``idle_sweeps_per_node`` — sweeps each node makes over 3.5 backstop
  periods of an idle healthy home: one per elapsed backstop period.

Every count is exact, so the gate holds on any runner.
"""

from __future__ import annotations

from repro.cluster import Cloud4Home, large_home
from repro.kvstore.records import SOFT_STATE_PREFIX

COUNTS = {
    "soft_state_appends": 0,
    "pending_trigger_sweeps": 1,
    "running_trigger_sweeps": 2,
    "idle_sweeps_per_node": 3,
}

KV_TABLES = ("kv.primary", "kv.replicas")

#: Backstop periods the idle home runs for.
IDLE_PERIODS = 3.5


def durable_home(seed: int = 5) -> Cloud4Home:
    """An 8-device durable home with resilience and striping on, a few
    stored objects, and its background loops running."""
    c4h = Cloud4Home(
        large_home(8, seed=seed, resilience=True, striping=True, storage="disk")
    )
    c4h.start()
    for i in range(6):
        c4h.run(c4h.devices[i].client.store_file(f"bg-{i}.bin", 1.0 + 3.0 * (i % 2)))
    return c4h


def soft_state_appends(c4h) -> int:
    """KV journal entries, retained or compacted, of ``resource:*`` records."""
    count = 0
    for device in c4h.devices:
        store = device.storage
        wires = [e.value for e in store.log if e.op == "put" and e.table in KV_TABLES]
        for table in KV_TABLES:
            wires.extend(store.snapshot.get(table, {}).values())
        count += sum(wire["name"].startswith(SOFT_STATE_PREFIX) for wire in wires)
    return count


def sweeper(c4h):
    """The repairer of the node owning the most objects held elsewhere,
    so its sweep waits on the network."""
    return max(
        (d.repairer for d in c4h.devices),
        key=lambda r: (
            sum(1 for rec in r.vstore.kv.primary.values() if rec.name.startswith("object:")),
            r.name,
        ),
    )


def triggered_sweeps(c4h, repairer, during_sweep: bool) -> int:
    """Sweeps ``repairer`` makes after a burst of triggers."""
    sim = c4h.sim
    before = repairer.scans
    repairer.trigger()
    if during_sweep:
        sim.run(until=sim.now + 1e-4)  # the sweep is waiting on its probes
        assert repairer.scans == before + 1 and repairer._wake is None
        extra = 5
    else:
        extra = 2
    for _ in range(extra):
        repairer.trigger()
    sim.run(until=sim.now + 30.0)
    return repairer.scans - before


def idle_sweeps(c4h) -> list[int]:
    """Each node's sweeps over :data:`IDLE_PERIODS` backstop periods."""
    period = c4h.config.resilience_tuning.repair_period_s
    for device in c4h.devices:
        # Restart each loop so every backstop period is counted from now.
        device.repairer.stop()
        device.repairer.start()
    before = [d.repairer.scans for d in c4h.devices]
    c4h.sim.run(until=c4h.sim.now + IDLE_PERIODS * period)
    return [d.repairer.scans - b for d, b in zip(c4h.devices, before)]


def bench_background() -> dict:
    """The exact background-work counts of one healthy durable home."""
    c4h = durable_home()
    repairer = sweeper(c4h)
    counts = {
        "pending_trigger_sweeps": triggered_sweeps(c4h, repairer, during_sweep=False),
        "running_trigger_sweeps": triggered_sweeps(c4h, repairer, during_sweep=True),
    }
    per_node = set(idle_sweeps(c4h))
    counts["idle_sweeps_per_node"] = per_node.pop() if len(per_node) == 1 else sorted(per_node)
    counts["soft_state_appends"] = soft_state_appends(c4h)
    return {"counts": counts, "event_counts": COUNTS}
