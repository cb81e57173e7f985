"""One benchmark run in a fresh interpreter (started by ``run.py``).

Builds, starts and prepopulates one workload, then drives its timed
region under a stall watchdog ``--regions`` times, each in a forked copy
of the post-set-up process, and prints the list of reports as one JSON
line, the last line of stdout.  ``--role setup`` stops after set-up
(extra set-up samples); ``--traced 1`` wraps every layer's entry points
before the cluster is built and adds the tracer's totals to the report.

Usage: PYTHONPATH=src python perfbench/worker.py --workload kv_zipf
       --seed 1 --seconds 10 --traced 0 --regions 2
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import traceback
from time import perf_counter

from hostspeed import HostSampler, TickSampler
from layers import install, public_counters
from tracer import Tracer
from watchdog import StallWatchdog
from workloads import WORKLOADS, HomeEdonkey, OpLog, RecordedKv, ReplaceTrace, nearest_rank

#: Wall seconds without simulated progress that count as a livelock.
STALL_S = 3.0

#: Wall seconds between host-speed samples (set-up and untraced regions).
SAMPLE_EVERY_S = 0.05


def _guarded(sim, fn):
    """Run ``fn()`` under the watchdog; returns the failure cause or None."""
    watchdog = StallWatchdog(lambda: sim.now, stall_s=STALL_S)
    try:
        with watchdog:
            fn()
    except KeyboardInterrupt:
        if not watchdog.fired:
            raise
        return watchdog.cause()
    except Exception as exc:  # noqa: BLE001 - any escape from Simulator.run is reported
        return repr(exc)
    return None


def _sim_metrics(log: OpLog, space_amp: float) -> dict:
    """The end-to-end ``sim_*`` figures (deterministic for a seed)."""
    out = {}
    for kind, prefix in (("read", "sim_read"), ("write", "sim_write"), ("process", "sim_process")):
        lat = sorted(log.latency[kind])
        out[f"{prefix}_p50_ms"] = 1000.0 * nearest_rank(lat, 0.50)
        out[f"{prefix}_p99_ms"] = 1000.0 * nearest_rank(lat, 0.99)
        out[f"{prefix}_n"] = len(lat)
    span = log.last_sim - log.sim_start
    succeeded = log.completed
    out["sim_goodput_ops_s"] = succeeded / span if span > 0 else 0.0
    out["op_fail_ratio"] = log.failed / log.attempted if log.attempted else 1.0
    out["space_amp"] = space_amp
    return out


def _forked(fn) -> dict:
    """Run ``fn()`` in a forked child; return the dict it produced.

    The child is a copy of this process right after set-up, so every
    timed region starts from the same state and none runs in a process
    an earlier region has warmed.
    """
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        status = 0
        try:
            payload = json.dumps(fn(), sort_keys=True)
        except BaseException:  # noqa: BLE001 - reported to the parent, which fails the run
            payload = json.dumps({"error": traceback.format_exc()})
            status = 1
        with os.fdopen(write_fd, "w") as fh:
            fh.write(payload)
        os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    report = json.loads(data) if data else {"error": f"child exited with status {status}"}
    if status != 0 or "error" in report:
        raise RuntimeError(f"timed region failed: {report.get('error')}")
    return report


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    traced: bool,
    role: str,
    spans_out: str,
    regions: int = 1,
) -> list[dict]:
    """Set up once, then run ``regions`` timed regions (one per fork)."""
    workload = WORKLOADS[workload_name](seed, seconds)
    tracer = sums = None
    if traced:
        tracer = Tracer()
        sums = install(
            tracer,
            extra=(
                (RecordedKv, ("operation",), "load"),
                (ReplaceTrace, ("_client", "_replace", "_fetch"), "load"),
                (HomeEdonkey, ("_camera",), "load"),
            ),
        )
    with HostSampler(SAMPLE_EVERY_S) as host:
        t0 = perf_counter()
        c4h = workload.build()
        t1 = perf_counter()
        workload.start()
        t2 = perf_counter()
        cause = _guarded(c4h.sim, lambda: c4h.run(workload.prepopulate()))
        t3 = perf_counter()
    setup = {"build_s": t1 - t0, "start_s": t2 - t1, "prepopulate_s": t3 - t2}
    setup["setup_s"] = t3 - t0 - host.spent_before(t3)
    setup["host_slowdown"] = host.slowdown()
    if role == "setup":
        return [{"setup": setup, "cause": cause}]
    # Move the set-up heap out of the collector's reach: a region's
    # collections then scan only what the region allocates, and do not
    # write to (and so copy) every page of the heap the fork shares.
    gc.collect()
    gc.freeze()
    return [
        _forked(lambda: _timed(workload, c4h, setup, cause, tracer, sums, spans_out))
        for _ in range(regions)
    ]


def _timed(workload, c4h, setup: dict, cause, tracer, sums, spans_out: str) -> dict:
    """Drive one timed region, run the output checks, and report."""
    from repro.telemetry import memory_probe

    sim = c4h.sim
    before = public_counters(c4h)
    events0 = sim._event_seq
    log = OpLog(sim)
    if tracer is not None:
        tracer.reset()
        sums.reset()
        tracer.recording = True

    def on_start(request_id: int) -> None:
        if tracer is not None:
            tracer.set_request(request_id)

    wall0 = perf_counter()
    # The traced run's layer times leave the sampler out altogether.
    sampler = log.sampler = TickSampler(SAMPLE_EVERY_S, wall0) if tracer is None else None
    if cause is None:
        cause = _guarded(sim, lambda: workload.drive(log, on_start))
    else:
        cause = f"set-up: {cause}"
    drive_wall_s = perf_counter() - wall0
    sampled_s = sampler.spent_before(log.last_wall) if sampler else 0.0
    timed_wall_s = max(log.last_wall - wall0 - sampled_s, 1e-9)
    if tracer is not None:
        tracer.recording = False
    workload.finish(log)
    if cause is not None:
        # Every planned op that did not complete is a failed op.
        log.attempted += workload.unstarted()
        log.failed = log.attempted - log.completed
    workload.check(log)
    after = public_counters(c4h)
    report = {
        "setup": setup,
        "timed_wall_s": timed_wall_s,
        "drive_wall_s": drive_wall_s,
        "cause": cause,
        "violations": log.violations,
        "errors": dict(sorted(log.errors.items())),
        "ops": {
            "attempted": log.attempted,
            "failed": log.failed,
            "completed": log.completed,
            "misses": log.misses,
            "writes": len(log.latency["write"]),
        },
        "ops_per_wall_s": log.completed / timed_wall_s,
        "host_slowdown": sampler.slowdown() if sampler else 1.0,
        "host_samples": len(sampler.samples) if sampler else 0,
        "sim": _sim_metrics(log, workload.space()),
        "events": log.last_events - events0,
        "counters": {k: after[k] - before[k] for k in after},
        "costs": dict(sorted(log.costs.items())),
        "counts": dict(sorted(log.counts.items())),
    }
    if tracer is not None:
        report["traced"] = {
            "self_s": {k: v.self_s for k, v in sorted(tracer.layers.items())},
            "calls": dict(sorted(tracer.calls.items())),
            "s3_mb": sums.s3_mb,
            "rpc_timeouts": sums.rpc_timeouts,
            "spans": tracer.write_spans(spans_out) if spans_out else len(tracer.spans),
        }
        tracer.uninstall()
    report["peak_rss_mb"] = memory_probe(count_objects=False)["peak_rss_mb"]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup"), default="run")
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--regions", type=int, default=1)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") is None:
        print("worker: PYTHONHASHSEED must be pinned by the caller", file=sys.stderr)
        return 2
    reports = run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.traced),
        args.role,
        args.spans_out,
        args.regions,
    )
    print(json.dumps(reports, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
