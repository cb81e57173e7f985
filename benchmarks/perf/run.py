"""Run the perf suites: ``BENCH_fastpath.json`` + ``BENCH_parallel.json``
+ ``BENCH_telemetry.json`` + ``BENCH_resilience.json`` + ``BENCH_scale.json``
+ ``BENCH_striping.json`` + ``BENCH_slo.json`` + ``BENCH_durability.json``.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.perf.run            # full run
    PYTHONPATH=src python -m benchmarks.perf.run --smoke    # CI smoke
    PYTHONPATH=src python -m benchmarks.perf.run --check    # + thresholds

``--smoke`` shrinks every workload so the whole suite finishes in a few
seconds (used by CI, which makes no timing assertions).  Every mode
enforces the exact event-count gates: XenSocket ``transfer()`` may
schedule at most 8 kernel events at any size from 0 B to 100 MB, and
an RPC echo round trip takes exactly 3 events (4 on an idle endpoint,
5 with a generator handler), a forwarded ``kv.get`` hop 6, a
delivered ``Network.send`` message schedules nothing further, and a
disk store's flush takes exactly 2 events when dirty and none per idle
period, and a healthy durable home journals no resource snapshot,
sweeps once for a burst of repair triggers (twice when the burst lands
during a sweep) and once per elapsed backstop period when idle.
The ``fastpath`` suite records absolute figures — kernel events/s,
wall time plus kernel events for the XenSocket transfer and the
overlay lookup storm, and sequential RPC round trips per second.  ``--check`` additionally enforces the acceptance
thresholds: ≥1.3× on the full Table I sweep against the seed tree
(failing, not passing, when the seed tree is unavailable), ≥2× for the
parallel harness on the Table I sweep with repeats, a strictly
faster scatter-gather decision at every candidate count, a
disabled-telemetry guard overhead under 5% of the Table I sweep,
an active SLO layer (windowed rollups + engine + flight recorders)
under 5% on top of plain telemetry with its seeded chaos scenario
firing and resolving the availability alert deterministically,
>= 99% fetch/process availability with resilience on while 2 of 8
nodes are down (the resilience suite also self-asserts that two
identically seeded resilient runs agree bit-for-bit), for the
striping suite a >= 2x large-object fetch speedup over whole-payload
replication at <= 0.6x its stored bytes with 100% availability under
the same 2-of-8 kill, and for the durability suite a WAL rejoin that
costs <= 0.25x the repair bytes of an empty (mem) rejoin while the
revived nodes serve >= 90% of their pre-crash holdings locally and
both modes stay at 100% fetch availability.

The parallel suite verifies — not just claims — that pooled execution
reproduces the naive serial loop bit-for-bit at several worker counts;
the speedup numbers only mean anything on top of that equality.

The scale suite (``BENCH_scale.json``) drives 256 → 10 k-node overlays
with the open-loop load driver and A/Bs the O(N²) protocol join against
``fast_join``; ``--check`` requires ≥2× on that A/B at the largest
node count and holds the 10,000-node curve's peak RSS under a
ceiling.  It is the slow suite — skip it with ``--no-scale`` when
iterating on the others.  Every suite payload records its own
:func:`repro.telemetry.memory_probe` snapshot, taken after the suite
with the peak RSS reset before it (``peak_rss_mb`` is null where the
peak cannot be reset), so memory regressions surface next to time
regressions.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf.background_bench import COUNTS as BACKGROUND_COUNTS
from benchmarks.perf.background_bench import bench_background
from benchmarks.perf.decision_bench import bench_decision
from benchmarks.perf.durability_bench import bench_durability
from benchmarks.perf.flusher_bench import EVENT_COUNTS as FLUSHER_EVENT_COUNTS
from benchmarks.perf.flusher_bench import bench_flusher
from benchmarks.perf.kernel_bench import bench_kernel
from benchmarks.perf.overlay_bench import bench_overlay
from benchmarks.perf.parallel_bench import (
    bench_parallel_fig5,
    bench_parallel_table1,
)
from benchmarks.perf.resilience_bench import bench_resilience
from benchmarks.perf.rpc_bench import EVENT_COUNTS as RPC_EVENT_COUNTS
from benchmarks.perf.rpc_bench import bench_rpc
from benchmarks.perf.scale_bench import bench_scale
from benchmarks.perf.slo_bench import bench_slo
from benchmarks.perf.striping_bench import bench_striping
from benchmarks.perf.table1_bench import bench_table1
from benchmarks.perf.telemetry_bench import bench_telemetry
from benchmarks.perf.xensocket_bench import EVENT_BUDGET as XENSOCKET_EVENT_BUDGET
from benchmarks.perf.xensocket_bench import bench_xensocket
from repro.telemetry import memory_probe

MB = 1024 * 1024

#: Speedup over the seed tree's Table I sweep.
THRESHOLDS = {"table1_sweep": 1.3}

#: Protocol join vs fast_join at the largest A/B node count.
SCALE_MIN_JOIN_SPEEDUP = 2.0

#: Peak RSS (MB) ceiling of the 10,000-node load curve: 182.6 MB as
#: measured with each node's peer view kept as an id -> name dict over
#: its cached sorted ids (198.9 MB with a red-black tree beside them,
#: 254.6 MB with idle queues and routing rows allocated up front too),
#: plus 10%.
SCALE_MAX_PEAK_RSS_MB = 200.9

PARALLEL_THRESHOLDS = {
    "table1_parallel": 2.0,
    "fig5_parallel": 2.0,
    "decision_scatter_gather": 1.2,
}

#: The guarded no-op emit path must stay under 5% of sweep wall time.
TELEMETRY_MAX_DISABLED_OVERHEAD = 0.05

#: The active SLO layer must stay under 5% on top of plain telemetry.
SLO_MAX_ENABLED_OVERHEAD = 0.05

#: Fetch/process availability with resilience on, 2 of 8 nodes dead.
RESILIENCE_MIN_SUCCESS = 0.99

#: Striping vs replication: summed healthy large-object transfer time.
STRIPING_MIN_SPEEDUP = 2.0
#: Striped stored bytes over replicated stored bytes ((k+m)/k vs 1+R).
STRIPING_MAX_STORAGE_RATIO = 0.6
#: Fetch availability with striping on and exactly m=2 holders dead.
STRIPING_MIN_SUCCESS = 1.0

#: WAL-rejoin repair bytes over empty-rejoin repair bytes.
DURABILITY_MAX_REPAIR_RATIO = 0.25
#: Fraction of their pre-crash holdings revived WAL nodes serve locally.
DURABILITY_MIN_LOCAL_SERVE = 0.9
#: Fetch availability after recovery, in *both* storage modes.
DURABILITY_MIN_SUCCESS = 1.0


def _suites(smoke: bool, workers: int) -> list:
    """``(suite, run)`` pairs in run order; ``run()`` returns the suite's
    ``results`` payload, sized down for ``smoke``."""
    if smoke:
        return [
            ("fastpath", lambda: {
                "kernel": bench_kernel(n_procs=200, n_waits=10),
                "xensocket_100mb": bench_xensocket(nbytes=5 * MB),
                "overlay_lookup_storm": bench_overlay(n_nodes=12, n_lookups=100),
                "rpc_round_trip": bench_rpc(n_calls=2000),
                "disk_flusher": bench_flusher(),
                "background_work": bench_background(),
                "table1_sweep": bench_table1(sizes=[1, 10], repeats=1),
            }),
            ("parallel", lambda: {
                "table1_parallel": bench_parallel_table1(
                    sizes=[1, 10], repeats=6, workers=workers
                ),
                "fig5_parallel": bench_parallel_fig5(
                    sizes=[5, 20], repeats=4, workers=workers
                ),
                "decision_scatter_gather": bench_decision(ks=(2, 4)),
            }),
            ("telemetry", lambda: {
                "table1_telemetry": bench_telemetry(sizes=[1, 10], repeats=1)
            }),
            ("resilience", lambda: {
                "availability_under_chaos": bench_resilience(n_objects=16)
            }),
            ("striping", lambda: {
                "striping_vs_replication": bench_striping(n_objects=8)
            }),
            ("slo", lambda: {
                "table1_slo": bench_slo(sizes=[1, 10], repeats=2, ops=2)
            }),
            ("durability", lambda: {
                "wal_vs_empty_rejoin": bench_durability(n_objects=12)
            }),
            ("scale", lambda: bench_scale(
                node_counts=(64, 256),
                rates=(500.0, 4000.0),
                duration_s=2.0,
                workers=workers,
                ab_node_counts=(256,),
            )),
        ]
    return [
        ("fastpath", lambda: {
            "kernel": bench_kernel(),
            "xensocket_100mb": bench_xensocket(),
            "overlay_lookup_storm": bench_overlay(),
            "rpc_round_trip": bench_rpc(),
            "disk_flusher": bench_flusher(),
            "background_work": bench_background(),
            "table1_sweep": bench_table1(),
        }),
        ("parallel", lambda: {
            "table1_parallel": bench_parallel_table1(workers=workers),
            "fig5_parallel": bench_parallel_fig5(workers=workers),
            "decision_scatter_gather": bench_decision(),
        }),
        ("telemetry", lambda: {"table1_telemetry": bench_telemetry()}),
        ("resilience", lambda: {"availability_under_chaos": bench_resilience()}),
        ("striping", lambda: {"striping_vs_replication": bench_striping()}),
        ("slo", lambda: {"table1_slo": bench_slo()}),
        ("durability", lambda: {"wal_vs_empty_rejoin": bench_durability()}),
        ("scale", lambda: bench_scale(workers=workers)),
    ]


#: Gate fields recorded next to each suite's results.
GATES = {
    "fastpath": {
        "thresholds": THRESHOLDS,
        "xensocket_event_budget": XENSOCKET_EVENT_BUDGET,
        "rpc_event_counts": RPC_EVENT_COUNTS,
        "flusher_event_counts": FLUSHER_EVENT_COUNTS,
        "background_counts": BACKGROUND_COUNTS,
    },
    "parallel": {"thresholds": PARALLEL_THRESHOLDS},
    "telemetry": {"max_disabled_overhead": TELEMETRY_MAX_DISABLED_OVERHEAD},
    "resilience": {"min_success_rate": RESILIENCE_MIN_SUCCESS},
    "striping": {
        "min_speedup": STRIPING_MIN_SPEEDUP,
        "max_storage_ratio": STRIPING_MAX_STORAGE_RATIO,
        "min_success_rate": STRIPING_MIN_SUCCESS,
    },
    "slo": {"max_enabled_overhead": SLO_MAX_ENABLED_OVERHEAD},
    "durability": {
        "max_repair_ratio": DURABILITY_MAX_REPAIR_RATIO,
        "min_local_serve": DURABILITY_MIN_LOCAL_SERVE,
        "min_success_rate": DURABILITY_MIN_SUCCESS,
    },
    "scale": {
        "min_join_speedup": SCALE_MIN_JOIN_SPEEDUP,
        "max_peak_rss_mb": SCALE_MAX_PEAK_RSS_MB,
    },
}


def _reset_peak_rss() -> bool:
    """Reset this process's peak RSS (``VmHWM``) to its current RSS.

    Writing ``5`` to ``/proc/self/clear_refs`` does this on Linux;
    returns False where it cannot be done.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def _measure_suite(run) -> tuple:
    """Run one suite; returns ``(results, memory)``.

    ``memory["peak_rss_mb"]`` is this suite's own high-water mark in
    this process (pool workers are not included), or None when the
    peak could not be reset first — a lifetime peak would be wrong.
    """
    isolated = _reset_peak_rss()
    results = run()
    memory = memory_probe(count_objects=False)
    if not isolated or memory["rss_mb"] is None:
        memory["peak_rss_mb"] = None
    return results, memory


def _write_bench(
    path: Path,
    suite: str,
    smoke: bool,
    host: dict,
    memory: dict,
    results: dict,
    gates: dict,
) -> None:
    """Write one suite's BENCH json: results, memory and gate fields."""
    payload = {
        "suite": suite,
        "smoke": smoke,
        **host,
        "memory": memory,
        "results": results,
        **gates,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workloads; verifies the harness runs, not the timings",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless the acceptance speedup thresholds are met",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_fastpath.json"),
        help="where to write the fastpath results JSON",
    )
    parser.add_argument(
        "--output-parallel",
        default=str(REPO_ROOT / "BENCH_parallel.json"),
        help="where to write the parallel-harness results JSON",
    )
    parser.add_argument(
        "--output-telemetry",
        default=str(REPO_ROOT / "BENCH_telemetry.json"),
        help="where to write the telemetry-overhead results JSON",
    )
    parser.add_argument(
        "--output-resilience",
        default=str(REPO_ROOT / "BENCH_resilience.json"),
        help="where to write the availability-under-chaos results JSON",
    )
    parser.add_argument(
        "--output-scale",
        default=str(REPO_ROOT / "BENCH_scale.json"),
        help="where to write the scale-wall results JSON",
    )
    parser.add_argument(
        "--output-striping",
        default=str(REPO_ROOT / "BENCH_striping.json"),
        help="where to write the striping-vs-replication results JSON",
    )
    parser.add_argument(
        "--output-slo",
        default=str(REPO_ROOT / "BENCH_slo.json"),
        help="where to write the SLO-layer overhead + chaos results JSON",
    )
    parser.add_argument(
        "--output-durability",
        default=str(REPO_ROOT / "BENCH_durability.json"),
        help="where to write the WAL-vs-empty rejoin results JSON",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="pool size for the parallel-harness benchmarks",
    )
    parser.add_argument(
        "--no-scale",
        action="store_true",
        help="skip the (slow) 10k-node scale suite",
    )
    args = parser.parse_args(argv)

    measured = {
        suite: _measure_suite(run)
        for suite, run in _suites(args.smoke, args.workers)
        if not (suite == "scale" and args.no_scale)
    }
    host = {"python": platform.python_version(), "platform": platform.platform()}
    written = []
    for suite, (suite_results, memory) in measured.items():
        option = "output" if suite == "fastpath" else f"output_{suite}"
        path = Path(getattr(args, option))
        _write_bench(
            path, suite, args.smoke, host, memory, suite_results, GATES[suite]
        )
        written.append(path)

    results = measured["fastpath"][0]
    parallel_results = measured["parallel"][0]
    telemetry_result = measured["telemetry"][0]["table1_telemetry"]
    resilience_result = measured["resilience"][0]["availability_under_chaos"]
    striping_result = measured["striping"][0]["striping_vs_replication"]
    slo_result = measured["slo"][0]["table1_slo"]
    durability_result = measured["durability"][0]["wal_vs_empty_rejoin"]
    scale_result = measured["scale"][0] if "scale" in measured else None

    mode = "smoke" if args.smoke else "full"
    kernel = results["kernel"]
    xs = results["xensocket_100mb"]
    storm = results["overlay_lookup_storm"]
    rpc = results["rpc_round_trip"]
    flusher = results["disk_flusher"]
    background = results["background_work"]
    table1 = results["table1_sweep"]
    print(f"fastpath microbenchmarks ({mode} mode)")
    print(
        f"  kernel                   {kernel['events_per_s']:,.0f} events/s"
        f" ({kernel['events']} events)"
    )
    print(
        f"  xensocket_100mb          {xs['wall_s'] * 1e3:.3f} ms wall,"
        f" {xs['events']} events; max {xs['max_events']} events per transfer"
        f" (budget {xs['event_budget']})"
    )
    print(
        f"  overlay_lookup_storm     {storm['wall_s']:.3f} s wall,"
        f" {storm['events']} events"
    )
    print(
        f"  rpc_round_trip           {rpc['round_trips_per_s']:,.0f} round trips/s;"
        f" events {rpc['events']}"
    )
    print(f"  disk_flusher             events {flusher['events']}")
    print(f"  background_work          counts {background['counts']}")
    if table1["speedup"] is None:
        print(
            f"  table1_sweep             {table1['wall_s']:.4f} s wall"
            " (no seed tree: speedup not evaluable)"
        )
    else:
        print(
            f"  table1_sweep             speedup {table1['speedup']:6.2f}x"
            f" vs the seed tree"
        )
    print(f"parallel harness ({mode} mode, {args.workers} workers)")
    for name, r in parallel_results.items():
        extra = ""
        if "jobs" in r:
            extra = f"  ({r['jobs']} jobs, {r['distinct_jobs']} distinct)"
        print(f"  {name:24s} speedup {r['speedup']:6.2f}x{extra}")
    print(f"telemetry overhead ({mode} mode)")
    print(
        f"  table1_telemetry         disabled "
        f"{telemetry_result['overhead_disabled_estimate']:.4%} (est.), "
        f"enabled {telemetry_result['overhead_enabled']:+.1%}, "
        f"guard {telemetry_result['guard_cost_ns']:.0f} ns"
    )
    chaos = slo_result["chaos"]
    print(f"slo layer ({mode} mode)")
    print(
        f"  table1_slo               overhead "
        f"{slo_result['overhead_vs_telemetry']:+.1%} vs telemetry "
        f"({slo_result['overhead_vs_disabled']:+.1%} vs all-off); "
        f"chaos fired +{chaos['fired_within_s']:.2f}s after the kill, "
        f"resolved at {chaos['resolved_at']:.2f}s "
        f"(ok={chaos['ok']}, deterministic={chaos['deterministic']}, "
        f"{chaos['dump_entries']} dump entries)"
    )
    print(f"availability under chaos ({mode} mode)")
    print(
        f"  resilience               off "
        f"{resilience_result['off']['success_rate']:.1%} -> on "
        f"{resilience_result['on']['success_rate']:.1%} "
        f"(p99 {resilience_result['on']['p99_s']:.3f} s, "
        f"{resilience_result['on']['repair_actions']} repairs, "
        f"deterministic={resilience_result['deterministic']})"
    )
    print(f"striping vs replication ({mode} mode)")
    print(
        f"  striping                 speedup "
        f"{striping_result['speedup']:6.2f}x, storage "
        f"{striping_result['storage_ratio']:.2f}x of replication, "
        f"availability {striping_result['on']['success_rate']:.0%} "
        f"with {len(striping_result['killed'])} of "
        f"{striping_result['nodes']} killed "
        f"(deterministic={striping_result['deterministic']})"
    )
    print(f"durable vs empty rejoin ({mode} mode)")
    print(
        f"  durability               repair bytes "
        f"{durability_result['wal']['repair_bytes_mb']:.0f} MB (wal) vs "
        f"{durability_result['mem']['repair_bytes_mb']:.0f} MB (mem), "
        f"ratio {durability_result['repair_ratio']:.2f}x, "
        f"local-serve {durability_result['wal']['local_serve_fraction']:.0%}, "
        f"availability {durability_result['wal']['success_rate']:.0%}/"
        f"{durability_result['mem']['success_rate']:.0%} "
        f"(deterministic={durability_result['deterministic']})"
    )
    if scale_result is not None:
        print(f"scale wall ({mode} mode, {args.workers} workers)")
        for n in scale_result["node_counts"]:
            curve = scale_result["curves"][str(n)]
            knee = curve["points"][-1]
            print(
                f"  {n:>6d} nodes: saturation "
                f"{curve['saturation_rate']:8.0f} req/s, "
                f"p99 {knee['p99_ms']:6.1f} ms, "
                f"peak rss {curve['peak_rss_mb']:.0f} MB"
            )
        print(
            f"  join A/B @ {scale_result['speedup_nodes']} nodes: "
            f"{scale_result['speedup']:.2f}x"
        )

    print("written: " + " ".join(str(p) for p in written))

    # Event counts are exact, so these gates hold in every mode.
    failures = []
    if xs["max_events"] > XENSOCKET_EVENT_BUDGET:
        failures.append(
            f"xensocket: transfer() scheduled {xs['max_events']} kernel events"
            f" > {XENSOCKET_EVENT_BUDGET} ({xs['events_by_size']})"
        )
    if rpc["events"] != RPC_EVENT_COUNTS:
        failures.append(
            f"rpc: kernel events {rpc['events']} != {RPC_EVENT_COUNTS}"
        )
    if flusher["events"] != FLUSHER_EVENT_COUNTS:
        failures.append(
            f"disk flusher: kernel events {flusher['events']} != {FLUSHER_EVENT_COUNTS}"
        )
    if background["counts"] != BACKGROUND_COUNTS:
        failures.append(
            f"background work: counts {background['counts']} != {BACKGROUND_COUNTS}"
        )
    if args.check:
        for name, minimum in THRESHOLDS.items():
            speedup = results[name]["speedup"]
            if speedup is None:
                failures.append(
                    f"{name}: gate not evaluable (seed tree unavailable:"
                    " no git history)"
                )
            elif speedup < minimum:
                failures.append(f"{name}: {speedup:.2f}x < {minimum}x")
        failures += [
            f"{name}: {parallel_results[name]['speedup']:.2f}x < {minimum}x"
            for name, minimum in PARALLEL_THRESHOLDS.items()
            if parallel_results[name]["speedup"] < minimum
        ]
        disabled = telemetry_result["overhead_disabled_estimate"]
        if disabled >= TELEMETRY_MAX_DISABLED_OVERHEAD:
            failures.append(
                f"table1_telemetry: disabled-path overhead {disabled:.2%}"
                f" >= {TELEMETRY_MAX_DISABLED_OVERHEAD:.0%}"
            )
        slo_overhead = slo_result["overhead_vs_telemetry"]
        if slo_overhead >= SLO_MAX_ENABLED_OVERHEAD:
            failures.append(
                f"slo: enabled overhead {slo_overhead:.2%} on top of telemetry"
                f" >= {SLO_MAX_ENABLED_OVERHEAD:.0%}"
            )
        if not slo_result["chaos"]["ok"]:
            failures.append(
                "slo: chaos scenario did not fire-and-resolve the"
                " availability SLO within its bars"
            )
        if not slo_result["chaos"]["deterministic"]:
            failures.append("slo: chaos scenario runs are not bit-for-bit repeatable")
        on_success = resilience_result["on"]["success_rate"]
        if on_success < RESILIENCE_MIN_SUCCESS:
            failures.append(
                f"resilience: on-success {on_success:.1%}"
                f" < {RESILIENCE_MIN_SUCCESS:.0%}"
            )
        if not resilience_result["deterministic"]:
            failures.append("resilience: runs are not bit-for-bit repeatable")
        if striping_result["speedup"] < STRIPING_MIN_SPEEDUP:
            failures.append(
                f"striping: fetch speedup {striping_result['speedup']:.2f}x"
                f" < {STRIPING_MIN_SPEEDUP}x"
            )
        if striping_result["storage_ratio"] > STRIPING_MAX_STORAGE_RATIO:
            failures.append(
                f"striping: storage ratio {striping_result['storage_ratio']:.2f}x"
                f" > {STRIPING_MAX_STORAGE_RATIO}x of replication"
            )
        striping_success = striping_result["on"]["success_rate"]
        if striping_success < STRIPING_MIN_SUCCESS:
            failures.append(
                f"striping: availability {striping_success:.1%}"
                f" < {STRIPING_MIN_SUCCESS:.0%} with m holders killed"
            )
        if not striping_result["deterministic"]:
            failures.append("striping: runs are not bit-for-bit repeatable")
        if durability_result["repair_ratio"] > DURABILITY_MAX_REPAIR_RATIO:
            failures.append(
                f"durability: WAL rejoin repair ratio"
                f" {durability_result['repair_ratio']:.2f}x"
                f" > {DURABILITY_MAX_REPAIR_RATIO}x of the empty rejoin"
            )
        wal_local = durability_result["wal"]["local_serve_fraction"]
        if wal_local < DURABILITY_MIN_LOCAL_SERVE:
            failures.append(
                f"durability: WAL local-serve {wal_local:.1%}"
                f" < {DURABILITY_MIN_LOCAL_SERVE:.0%} after revive"
            )
        for mode_name in ("mem", "wal"):
            mode_success = durability_result[mode_name]["success_rate"]
            if mode_success < DURABILITY_MIN_SUCCESS:
                failures.append(
                    f"durability: {mode_name} availability {mode_success:.1%}"
                    f" < {DURABILITY_MIN_SUCCESS:.0%} after recovery"
                )
        if not durability_result["deterministic"]:
            failures.append(
                "durability: runs are not bit-for-bit repeatable"
            )
        if scale_result is not None and (
            scale_result["speedup"] < SCALE_MIN_JOIN_SPEEDUP
        ):
            failures.append(
                f"scale: join A/B {scale_result['speedup']:.2f}x"
                f" < {SCALE_MIN_JOIN_SPEEDUP}x"
                f" at {scale_result['speedup_nodes']} nodes"
            )
        ten_k = scale_result["curves"].get("10000") if scale_result else None
        if ten_k is not None and ten_k["peak_rss_mb"] > SCALE_MAX_PEAK_RSS_MB:
            failures.append(
                f"scale: 10000-node peak rss {ten_k['peak_rss_mb']:.1f} MB"
                f" > {SCALE_MAX_PEAK_RSS_MB} MB"
            )
    if failures:
        print("threshold failures:\n  " + "\n  ".join(failures))
        return 1
    print("all thresholds met" if args.check else "event-count gates met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
