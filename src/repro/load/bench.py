"""Scale-bench job functions (importable by ``repro.parallel``).

Each function here is a self-contained job: JSON-able parameters in,
JSON-able dict out, safe to run in a forked worker.  They are the
units ``benchmarks/perf/scale_bench.py`` shards across the parallel
runner and the ``python -m repro load`` CLI calls inline.

Measurement split per job:

* **Simulated** numbers (offered/achieved rates, latency percentiles,
  shed counts) are bit-for-bit deterministic for a seed — byte-equal
  across runs, worker counts, and machines.
* **Wall-clock** numbers (build/run seconds, events/s) measure this
  machine — they are what the scale wall is made of, and what the
  fast-path-vs-reference A/B compares.
"""

from __future__ import annotations

import time

from repro.cluster import Cloud4Home
from repro.cluster.presets import scale_overlay
from repro.load.arrivals import DeterministicArrivals, PoissonArrivals
from repro.load.driver import OpenLoopDriver
from repro.load.scenario import KvScenario
from repro.sim import RandomSource
from repro.telemetry import memory_probe

__all__ = ["scale_point", "join_wall", "DEFAULT_MAX_INFLIGHT"]

#: Fixed total concurrency budget for the KV scenario: the shedding
#: cap that gives the open-loop curves their saturation knee (roughly
#: ``max_inflight / mean latency`` requests/second).
DEFAULT_MAX_INFLIGHT = 96


def scale_point(
    n_nodes: int,
    rate: float,
    duration_s: float = 5.0,
    seed: int = 0,
    n_keys: int = 512,
    get_fraction: float = 0.9,
    arrivals: str = "poisson",
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    drain_s: float = 10.0,
    fast_join: bool = True,
    probe_objects: bool = True,
) -> dict:
    """One open-loop measurement: ``n_nodes`` overlay at ``rate`` req/s.

    Returns ``{"sim": ..., "wall": ..., "memory": ...}`` where the
    ``sim`` block is deterministic for a seed and the rest measures
    this machine/run.
    """
    wall0 = time.perf_counter()
    c4h = Cloud4Home(
        scale_overlay(n_nodes, seed=seed, fast_join=fast_join)
    )
    c4h.start(monitors=False, publish=False)
    build_wall_s = time.perf_counter() - wall0

    scenario = KvScenario(
        c4h,
        RandomSource(seed, "load-scenario"),
        n_keys=n_keys,
        get_fraction=get_fraction,
    )
    c4h.run(scenario.prepopulate())

    if arrivals == "poisson":
        process = PoissonArrivals(rate, RandomSource(seed, "load-arrivals"))
    elif arrivals == "deterministic":
        process = DeterministicArrivals(rate)
    else:
        raise ValueError(f"unknown arrival process {arrivals!r}")

    driver = OpenLoopDriver(
        c4h.sim,
        process,
        scenario.operation,
        metrics=c4h.metrics,
        node="load",
        max_inflight=max_inflight,
    )
    events_before = c4h.sim._event_seq
    wall1 = time.perf_counter()
    report = driver.run(duration_s, drain_s=drain_s)
    run_wall_s = time.perf_counter() - wall1
    events = c4h.sim._event_seq - events_before

    return {
        "n_nodes": n_nodes,
        "rate": rate,
        "seed": seed,
        "fast_join": fast_join,
        "sim": {
            **report.as_dict(),
            "kv_misses": scenario.misses,
        },
        "wall": {
            "build_s": round(build_wall_s, 3),
            "run_s": round(run_wall_s, 3),
            "events": events,
            "events_per_s": round(events / run_wall_s) if run_wall_s else 0,
            "requests_per_wall_s": (
                round(report.completed / run_wall_s) if run_wall_s else 0
            ),
        },
        "memory": memory_probe(count_objects=probe_objects),
    }


def join_wall(n_nodes: int, seed: int = 0, fast_join: bool = True) -> dict:
    """Wall-clock cost of bringing up an ``n_nodes`` overlay.

    The A/B for the builder scale wall: ``fast_join=False`` is the
    paper-faithful sequential protocol join (O(N²) messages),
    ``fast_join=True`` the direct view construction.
    """
    wall0 = time.perf_counter()
    c4h = Cloud4Home(scale_overlay(n_nodes, seed=seed, fast_join=fast_join))
    built_wall_s = time.perf_counter() - wall0
    wall1 = time.perf_counter()
    c4h.start(monitors=False, publish=False)
    join_wall_s = time.perf_counter() - wall1
    return {
        "n_nodes": n_nodes,
        "seed": seed,
        "fast_join": fast_join,
        "device_build_s": round(built_wall_s, 3),
        "join_s": round(join_wall_s, 3),
        "total_s": round(built_wall_s + join_wall_s, 3),
        "memory": memory_probe(count_objects=False),
    }
