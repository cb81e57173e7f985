"""SLO-layer overhead + the fire/resolve proof: ``BENCH_slo.json``.

Two claims, one payload:

* **Overhead** — the active observability layer (windowed rollups fed
  from judged spans, the SLO engine, the flight-recorder hub) must
  cost ≤ 5% wall time *on top of plain telemetry* on the paper's
  Table I store+fetch sweep.  Three modes are timed: everything off,
  telemetry on, and ``slo=True`` (telemetry + windowed rollups +
  engine + recorders).  They are interleaved point by point: each
  Table I point runs in all three modes back to back (the order
  rotating from point to point, a full collection before each), over
  ``repeats`` rounds.  The gate is the median, over every (point,
  round), of the slo/telemetry wall ratio: the two walls of a pair
  are ~10 ms apart, so host-load drift cancels inside each pair, and
  the median ignores the pairs a burst of load split.  The minimum of
  a ~40 ms sweep over 9 rounds swung from −3% to +16% on a shared
  host with a true overhead of ~3%.  The simulated metrics of all
  three modes must be bit-identical — the SLO layer observes the
  simulation, it never perturbs it.

  Staying under the bar is a design property, not luck: the span feed
  only writes rollups for the metrics the engine and health board
  judge (``WindowPolicy.names``), and the flight recorder reads span
  tails from the telemetry plane at dump time instead of copying
  every span as it finishes — so a span outside the judged set costs
  one set-membership test.

* **Fire/resolve** — the seeded 8-node chaos scenario
  (:func:`repro.cluster.availability_chaos_scenario`): killing 2 of 8
  nodes must fire the availability SLO within one window (plus one
  evaluator period) of the second kill, and the alert must resolve
  after the Repairer restores replication.  The scenario is run twice
  and must reproduce bit-for-bit; its flight-recorder dump must
  validate against the ``c4h.flightrec/1`` schema.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

from repro import Cloud4Home, ClusterConfig
from repro.cluster import availability_chaos_scenario
from repro.telemetry import validate_recorder_dump

SIZES_MB = [1, 2, 5, 10, 20, 50, 100]

#: Sweep modes, in measurement order.
_MODES = ("off", "telemetry", "slo")


def _measure(size_mb: int, mode: str, ops: int):
    """One Table I point: a cluster, then ``ops`` store+fetch pairs.

    Several operations per build keep the measurement about the steady
    state (the per-span feed, the rollup writes) rather than about
    cluster construction, which dominates a single-op point.
    """
    config = ClusterConfig(
        seed=700 + size_mb,
        telemetry=mode != "off",
        slo=mode == "slo",
    )
    c4h = Cloud4Home(config)
    c4h.start(monitors=False)
    owner = c4h.devices[0]
    reader = c4h.devices[2]
    fetches = []
    for i in range(ops):
        name = f"table1-{size_mb}-{i}.bin"
        c4h.run(owner.client.store_file(name, float(size_mb)))
        fetches.append(c4h.run(reader.vstore.fetch_object(name)))
    if mode == "slo":
        # One end-of-point evaluation (the periodic evaluator is a
        # monitor and monitors are off here) so the engine path is on
        # the clock too.
        c4h.slo_engine.evaluate(c4h.sim.now)
    return fetches


def _interleaved(sizes, ops: int, repeats: int):
    """Time every Table I point in each mode, the modes back to back.

    Returns ``walls[mode][round][point]`` and each mode's simulated
    metrics (from the last round).
    """
    walls = {mode: [[0.0] * len(sizes) for _ in range(repeats)] for mode in _MODES}
    metrics: dict[str, dict] = {mode: {} for mode in _MODES}
    for round_ in range(repeats):
        for point, size in enumerate(sizes):
            shift = (round_ + point) % len(_MODES)
            for mode in _MODES[shift:] + _MODES[:shift]:
                gc.collect()
                t0 = time.perf_counter()
                fetches = _measure(size, mode, ops)
                walls[mode][round_][point] = time.perf_counter() - t0
                metrics[mode][str(size)] = [
                    [f.total_s, f.dht_lookup_s, f.inter_node_s, f.inter_domain_s]
                    for f in fetches
                ]
    return walls, metrics


def _paired_overhead(walls: dict, mode: str, base: str) -> float:
    """Median over every (round, point) of ``mode``'s wall over
    ``base``'s, minus one."""
    return (
        statistics.median(
            wall / base_wall
            for mode_round, base_round in zip(walls[mode], walls[base])
            for wall, base_wall in zip(mode_round, base_round)
        )
        - 1.0
    )


def _chaos_section() -> dict:
    """Run the availability scenario twice; summarize + verify."""
    first = availability_chaos_scenario()
    second = availability_chaos_scenario()
    deterministic = json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )
    dump_entries = validate_recorder_dump(first["dump"])
    return {
        "nodes": first["nodes"],
        "killed": first["killed"],
        "window_s": first["window_s"],
        "eval_period_s": first["eval_period_s"],
        "t_kill": first["t_kill"],
        "fired_at": first["fired_at"],
        "fired_within_s": first["fired_within_s"],
        "resolved_at": first["resolved_at"],
        "first_repair_at": first["first_repair_at"],
        "repair_actions": first["repair_actions"],
        "alerts": first["alerts"],
        "evaluations": first["evaluations"],
        "dump_entries": dump_entries,
        "ok": first["ok"],
        "deterministic": deterministic,
    }


def bench_slo(sizes=SIZES_MB, repeats: int = 21, ops: int = 6) -> dict:
    walls, metrics = _interleaved(sizes, ops, repeats)
    assert metrics["off"] == metrics["telemetry"] == metrics["slo"], (
        "the SLO layer perturbed simulated results: "
        f"{metrics['off']} vs {metrics['telemetry']} vs {metrics['slo']}"
    )
    # Fastest whole sweep per mode, for the record.
    sweep = {mode: min(sum(round_) for round_ in walls[mode]) for mode in _MODES}
    return {
        "sizes_mb": list(sizes),
        "repeats": repeats,
        "ops_per_point": ops,
        "disabled_wall_s": sweep["off"],
        "telemetry_wall_s": sweep["telemetry"],
        "slo_wall_s": sweep["slo"],
        "overhead_vs_disabled": _paired_overhead(walls, "slo", "off"),
        "overhead_vs_telemetry": _paired_overhead(walls, "slo", "telemetry"),
        "simulated_results_identical": True,
        "chaos": _chaos_section(),
    }
