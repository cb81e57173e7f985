"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kv_zipf --seed 1 --seconds 10 --trace 0

Every run happens in a fresh interpreter (``worker.py``) with a pinned
``PYTHONHASHSEED``, one after another.  ``--trace 0`` sets the workload
up once and runs its timed region ``REGIONS`` times untraced (each in a
fork of the set-up process, checking that they agree), takes extra
set-up samples in further fresh interpreters, and reports the end-to-end
metrics.  ``--trace 1`` runs it untraced and then
traced with the same seed, checks that both runs produced byte-identical
simulated results, and reports the per-layer metrics.  A table of every
metric (unit and sample count) precedes the final JSON line.  The
gated wall figures, ``setup_s`` and ``ops_per_ref_s``, are taken at the
host's reference speed (``hostspeed.py``); the raw ones are printed too.

Exit status is non-zero, with no result line, when a worker cannot run
(for example outside a checkout that holds ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER, layer_metrics  # noqa: E402

#: End-to-end metrics, in print order: name -> unit.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "ops_per_wall_s": "ops/s",
    "ops_per_ref_s": "ops/s",
    "peak_rss_mb": "MB",
    "sim_read_p50_ms": "ms",
    "sim_read_p99_ms": "ms",
    "sim_write_p50_ms": "ms",
    "sim_write_p99_ms": "ms",
    "sim_process_p50_ms": "ms",
    "sim_process_p99_ms": "ms",
    "sim_goodput_ops_s": "ops/s",
    "op_fail_ratio": "ratio",
    "space_amp": "ratio",
}

#: The subset on the result line, gated run over run: defined on every
#: workload and steady across seeds.  ``ops_per_wall_s`` follows the
#: shared host's speed, which wanders by tens of percent for minutes at
#: a time; ``ops_per_ref_s`` is the same throughput at the host's
#: reference speed (``hostspeed.py``) and is the gated one.
#: ``sim_process_*`` exist on
#: ``home_edonkey`` only; ``op_fail_ratio`` is 0 on a healthy run and
#: reaches the result line as ``failed``; the ``*_p99_ms`` tails vary
#: 13-30% from seed to seed (heavy-tailed object sizes, and durable_mix
#: stops near sim t = 2048 s at the link livelock with only ~400 reads).
#: Every row of ``END_TO_END`` is printed in the table with its sample count.
TRACKED = [
    "setup_s",
    "ops_per_ref_s",
    "peak_rss_mb",
    "sim_read_p50_ms",
    "sim_write_p50_ms",
    "sim_goodput_ops_s",
    "space_amp",
]

#: Whole-invocation wall budget; a worker still running past it is
#: killed and the invocation fails.
BUDGET_S = 170.0

#: Timed regions per ``--trace 0`` invocation.  The worker sets up once
#: and runs each region in a forked copy of the post-set-up process;
#: the regions must agree exactly in simulated results, and the wall
#: metrics are their median (one region is not a steady sample;
#: NOTES.md).  Two keep an acceptance pass (70 invocations) inside its
#: time budget.
REGIONS = 2

#: Set-up samples per invocation: the worker's own set-up plus
#: set-up-only workers, each a fresh interpreter.  home_edonkey's set-up
#: is ~0.6 s, so it takes the median of three; a second kv_zipf set-up
#: (~20-28 s) does not fit the time budget (NOTES.md, "Two sets").
SETUP_SAMPLES = {"kv_zipf": 1, "home_edonkey": 3, "durable_mix": 1}


class WorkerError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and parse its last stdout line."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([os.path.abspath("src"), HERE])
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {' '.join(args)} exceeded the {BUDGET_S:g} s budget")
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _deterministic(report: dict) -> dict:
    """The parts of a report that must repeat exactly for one seed."""
    return {k: report[k] for k in ("sim", "counters", "costs", "counts", "ops", "events", "cause")}


def _end_to_end(runs: list[dict], setups: list[dict]) -> dict:
    """Rows (value, unit, samples); wall metrics are medians over the
    regions, ``setup_s`` the median set-up at the host's reference speed."""
    report = runs[0]
    sim = report["sim"]
    values = {
        "setup_s": statistics.median(s["setup_s"] / s["host_slowdown"] for s in setups),
        "ops_per_wall_s": statistics.median(r["ops_per_wall_s"] for r in runs),
        "ops_per_ref_s": statistics.median(r["ops_per_wall_s"] * r["host_slowdown"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        **{k: sim[k] for k in END_TO_END if k in sim},
    }
    samples = {
        "setup_s": len(setups),
        "ops_per_wall_s": len(runs) * report["ops"]["completed"],
        "ops_per_ref_s": len(runs) * report["ops"]["completed"],
        "peak_rss_mb": len(runs),
        "sim_read_p50_ms": sim["sim_read_n"],
        "sim_read_p99_ms": sim["sim_read_n"],
        "sim_write_p50_ms": sim["sim_write_n"],
        "sim_write_p99_ms": sim["sim_write_n"],
        "sim_process_p50_ms": sim["sim_process_n"],
        "sim_process_p99_ms": sim["sim_process_n"],
        "sim_goodput_ops_s": report["ops"]["completed"],
        "op_fail_ratio": report["ops"]["attempted"],
        "space_amp": 1,
    }
    return {name: (values[name], unit, samples[name]) for name, unit in END_TO_END.items()}


def _print_table(title: str, rows: dict) -> None:
    print(f"== {title}")
    for name, (value, unit, n) in rows.items():
        shown = "n/a" if n == 0 else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {unit:6s} n={n}")


def _print_outcome(report: dict) -> None:
    ops = report["ops"]
    print(
        f"  ops: attempted={ops['attempted']} completed={ops['completed']} "
        f"failed={ops['failed']} misses={ops['misses']} "
        f"stale_reads={report['counts'].get('stale_reads', 0)}"
    )
    if report.get("host_samples"):
        print(f"  host slowdown: {report['host_slowdown']:.3f} (median of {report['host_samples']} samples)")
    if report["errors"]:
        print(f"  errors: {report['errors']}")
    if report["cause"]:
        print(f"  run stopped: {report['cause']}")
    for violation in report["violations"]:
        print(f"  VIOLATION: {violation}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_SAMPLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run.py: no src/repro here; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if args.trace == 0:
            runs = _worker([*common, "--traced", "0", "--regions", str(REGIONS)], deadline)
            base = runs[0]
            correct = not any(r["violations"] for r in runs)
            if any(_deterministic(r) != _deterministic(base) for r in runs):
                print("  VIOLATION: timed regions of one seed differ in simulated results")
                correct = False
            setups = [base["setup"]]
            for _ in range(SETUP_SAMPLES[args.workload] - 1):
                setups.append(_worker([*common, "--role", "setup"], deadline)[0]["setup"])
            rows = _end_to_end(runs, setups)
            _print_table(f"{args.workload} seed={args.seed} end-to-end", rows)
            for s in setups:
                print(f"  set-up wall: {s['setup_s']:.3f} s, host slowdown {s['host_slowdown']:.3f}")
            _print_outcome(base)
            metrics = {name: rows[name][:2] for name in TRACKED}
        else:
            out_dir = ".perfbench"
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv.gz")
            base = _worker([*common, "--traced", "0"], deadline)[0]
            traced = _worker([*common, "--traced", "1", "--spans-out", spans], deadline)[0]
            same = _deterministic(base) == _deterministic(traced)
            if not same:
                print("  VIOLATION: traced and untraced runs of one seed differ in simulated results")
            correct = same and not base["violations"] and not traced["violations"]
            traced["setup"] = base["setup"]
            values = layer_metrics(traced, base["timed_wall_s"], traced["traced"])
            rows = {
                name: (values[name], PER_LAYER[name], traced["ops"]["attempted"]) for name in PER_LAYER
            }
            _print_table(f"{args.workload} seed={args.seed} per-layer (traced)", rows)
            _print_outcome(traced)
            print(f"  spans written: {traced['traced']['spans']} -> {spans}")
            metrics = {name: rows[name][:2] for name in PER_LAYER}
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": base["ops"]["attempted"],
        "failed": base["ops"]["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
