"""The seeded availability-under-chaos SLO scenario.

One scenario, three consumers — the ``python -m repro slo --check``
CLI, ``benchmarks/perf/slo_bench.py``, and the integration test in
``tests/telemetry/`` — so the proof the acceptance gate relies on is
defined exactly once:

* eight home nodes store a working set with two payload replicas each
  (``resilience=True``), while a survivor drives a steady fetch loop;
* a fixed chaos script kills 2 of the 8 nodes;
* the **availability SLO must fire within one window** of the second
  kill, and must **resolve after the Repairer restores replication**
  (promoting surviving replicas to primary and re-replicating) — with
  a schema-valid flight-recorder dump produced along the way.

The SLO judges *clean* fetches: a fetch counts toward availability
only when it succeeds **and** is served by the object's recorded
primary or from the fetching node's own disk (as primary or replica
holder), not by failover to a *remote* replica or the cloud
backstop.  That is the honest signal here: with two replicas the stack
keeps every fetch *succeeding* through the outage (that is PR 4's
availability claim, benchmarked in ``resilience_bench``), but a
quarter of the working set is being served degraded — one failed
holder away from loss — until the repairers promote and re-replicate.
The clean-fetch ratio drops below target within a window of the kills
and recovers only after the repair log shows the promotions, which is
exactly the firing → resolved sequence the engine must produce.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.builder import Cloud4Home
from repro.cluster.chaos import ChaosSchedule
from repro.cluster.config import (
    ClusterConfig,
    DeviceConfig,
    ResilienceConfig,
    SloConfig,
)
from repro.kvstore import KvError
from repro.net import NetworkError
from repro.telemetry.slo import SloSpec
from repro.vstore.errors import VStoreError

__all__ = ["availability_chaos_scenario", "AVAILABILITY_SLO_ID", "CLEAN_FETCH_METRIC"]

N_NODES = 8
VICTIMS = ("node1", "node2")
AVAILABILITY_SLO_ID = "fetch-availability"
#: The windowed histogram the scenario feeds with each fetch's elapsed
#: time; ok = fetch succeeded and was served by its primary holder (no
#: failover, no cloud backstop).
CLEAN_FETCH_METRIC = "fetch.clean"

WINDOW_S = 10.0
SUB_WINDOWS = 5
EVAL_PERIOD_S = 2.0
REPAIR_PERIOD_S = 20.0
FETCH_GAP_S = 0.4


def _availability_spec() -> SloSpec:
    return SloSpec(
        id=AVAILABILITY_SLO_ID,
        metric=CLEAN_FETCH_METRIC,
        kind="ratio",
        op=">=",
        threshold=0.99,
        min_samples=5,
        breach_windows=1,
        clear_windows=1,
        description=f"clean fetch ratio >= 0.99 over {WINDOW_S:.0f}s windows",
    )


def _build(seed: int, dump_dir: Optional[str]) -> Cloud4Home:
    config = ClusterConfig(
        devices=[DeviceConfig(name=f"node{i}") for i in range(N_NODES)],
        seed=seed,
        replication_factor=3,
        resilience=True,
        data_replicas=2,
        resilience_tuning=ResilienceConfig(repair_period_s=REPAIR_PERIOD_S),
        slo=True,
        slo_tuning=SloConfig(
            window_s=WINDOW_S,
            sub_windows=SUB_WINDOWS,
            eval_period_s=EVAL_PERIOD_S,
            specs=[_availability_spec()],
            recorder_dump_dir=dump_dir,
        ),
    )
    c4h = Cloud4Home(config)
    c4h.start()
    return c4h


def _one_fetch(c4h: Cloud4Home, survivor, name: str, rollup):
    """Process: one fetch, observed into the clean rollup on completion."""
    sim = c4h.sim
    started = sim.now
    try:
        result = yield from survivor.client.fetch_object(name)
    except (NetworkError, VStoreError, KvError):
        rollup.observe(sim.now - started, now=sim.now, ok=False)
    else:
        # Clean = served from this node's own disk (as primary or as a
        # replica holder) or by the recorded primary.  A serve that had
        # to fail over to a *remote* replica or the cloud backstop is
        # the degraded signal the SLO watches.
        clean = result.served_from in (
            "local",
            survivor.name,
            result.meta.location,
        )
        rollup.observe(sim.now - started, now=sim.now, ok=clean)


def _fetch_loop(c4h: Cloud4Home, survivor, names: list[str], rollup, stop_at: float):
    """Process: open-loop round-robin fetch injection.

    Each fetch runs as its own process so one straggler (e.g. an RPC
    in flight to a node the chaos script kills, which burns its full
    timeout) cannot stall the offered load — the same open-loop
    principle as :class:`repro.load.OpenLoopDriver`.
    """
    sim = c4h.sim
    i = 0
    while sim.now < stop_at:
        sim.process(_one_fetch(c4h, survivor, names[i % len(names)], rollup))
        i += 1
        yield sim.timeout(FETCH_GAP_S)


def availability_chaos_scenario(
    seed: int = 7,
    n_objects: int = 24,
    horizon_s: float = 80.0,
    dump_dir: Optional[str] = None,
) -> dict:
    """Run the scenario; return a JSON-ready timeline and verdict.

    The returned dict's ``ok`` is True iff the availability SLO fired
    within one window (plus one evaluator period of detection
    granularity) of the second kill AND resolved at-or-after the first
    repair action.  ``dump`` always carries one flight-recorder dump
    for schema validation; when ``dump_dir`` is set, alert-triggered
    artifacts land there too (paths in ``dump_paths``).
    """
    c4h = _build(seed, dump_dir)
    engine = c4h.slo_engine
    # The fetch vantage must be a survivor that is *not* itself a
    # replica holder for the working set: the balanced placement
    # policy concentrates replica copies on a few nodes (node0 among
    # them), and a node that holds a copy of everything serves every
    # fetch from its own disk — clean by definition — so it can never
    # observe the degraded window the SLO is meant to catch.
    survivor = c4h.device("node3")

    names = []
    for i in range(n_objects):
        writer = c4h.devices[i % N_NODES]
        name = f"slo-{i:03d}.jpg"
        c4h.run(writer.client.store_file(name, 1.0))
        names.append(name)

    t0 = c4h.sim.now
    rollup = c4h.metrics.windowed_histogram(
        CLEAN_FETCH_METRIC, node=survivor.name,
        window_s=WINDOW_S, sub_windows=SUB_WINDOWS,
    )
    c4h.sim.process(_fetch_loop(c4h, survivor, names, rollup, t0 + horizon_s))
    chaos = (
        ChaosSchedule(c4h)
        .crash(after=0.5, device_name=VICTIMS[0])
        .crash(after=1.0, device_name=VICTIMS[1])
    )
    chaos.start()
    t_kill = t0 + 1.0  # the second (final) kill
    c4h.sim.run(until=t0 + horizon_s)

    alerts = [a for a in engine.alerts if a.slo_id == AVAILABILITY_SLO_ID]
    fired = next((a for a in alerts if a.state == "firing"), None)
    resolved = next((a for a in alerts if a.state == "resolved"), None)
    repairs = [
        action
        for device in c4h.devices
        if device.repairer is not None and device.name not in VICTIMS
        for action in device.repairer.repairs
        if action.action in ("promote", "replicate")
    ]
    first_repair_at = min((a.at for a in repairs), default=None)

    fired_ok = fired is not None and fired.at - t_kill <= WINDOW_S + EVAL_PERIOD_S
    resolved_ok = (
        resolved is not None
        and fired is not None
        and resolved.at > fired.at
        and first_repair_at is not None
        and resolved.at >= first_repair_at
    )
    # The engine must agree the SLO is healthy again at the horizon.
    clear_ok = (AVAILABILITY_SLO_ID, "") not in engine.firing() and (
        AVAILABILITY_SLO_ID,
        survivor.name,
    ) not in engine.firing()

    hub = c4h.recorders
    final_dump = hub.dump(now=c4h.sim.now, reason="scenario-end")
    return {
        "seed": seed,
        "nodes": N_NODES,
        "killed": list(VICTIMS),
        "objects": n_objects,
        "window_s": WINDOW_S,
        "eval_period_s": EVAL_PERIOD_S,
        "t_kill": t_kill,
        "fired_at": fired.at if fired is not None else None,
        "fired_within_s": (fired.at - t_kill) if fired is not None else None,
        "resolved_at": resolved.at if resolved is not None else None,
        "first_repair_at": first_repair_at,
        "repair_actions": len(repairs),
        "alerts": [a.as_dict() for a in alerts],
        "alerts_total": len(engine.alerts),
        "evaluations": engine.evaluations,
        "ok": bool(fired_ok and resolved_ok and clear_ok),
        "dump": final_dump,
        "dump_paths": list(hub.dump_paths),
        "health": {
            node: hs.score for node, hs in c4h.health.scoreboard(c4h.sim.now).items()
        },
    }
