"""Telemetry overhead on the Table I sweep: ``BENCH_telemetry.json``.

The telemetry plane's contract is *near-zero cost when disabled*: every
instrumented layer guards span emission behind one ``sim.telemetry is
not None`` check, adds no keys to RPC bodies, and adds no simulated
time.  This benchmark quantifies both sides of that contract on the
paper's Table I store+fetch sweep:

* ``overhead_disabled_estimate`` — the guarded no-op path.  A tight
  microbenchmark times the guard pattern itself (attribute read +
  ``is not None``), which is then scaled by the number of guard sites
  the sweep actually executes (measured by running it once with
  telemetry attached and counting spans).  This is the cost the sweep
  pays for being instrumented at all; the acceptance bar is < 5%.
* ``overhead_enabled`` — the full recording path (span allocation,
  id assignment, histogram feed), for context.  Enabled runs do real
  extra work, so no threshold applies.

The benchmark also re-asserts the byte-identity invariant: the
simulated metrics of every sweep point must be identical with telemetry
off and on — tracing observes the simulation, it never perturbs it.
"""

from __future__ import annotations

import time

from repro import Cloud4Home, ClusterConfig
from repro.sim import Simulator

SIZES_MB = [1, 2, 5, 10, 20, 50, 100]


def guard_cost_ns(iterations: int = 1_000_000) -> float:
    """Per-call cost of the guarded emit pattern with telemetry off.

    Times ``iterations`` executions of exactly what an instrumented
    layer does on the disabled path — read ``sim.telemetry``, compare
    against None, skip — minus the cost of an equivalent loop with no
    guard, so pure loop/call overhead cancels out.
    """
    sim = Simulator()
    assert sim.telemetry is None

    def guarded(sim=sim):
        tel = sim.telemetry
        if tel is not None:  # pragma: no cover - telemetry is off
            raise AssertionError("telemetry unexpectedly attached")

    def bare():
        pass

    for fn in (guarded, bare):  # warm up
        for _ in range(10_000):
            fn()
    t0 = time.perf_counter()
    for _ in range(iterations):
        guarded()
    guarded_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(iterations):
        bare()
    bare_s = time.perf_counter() - t0
    return max(0.0, (guarded_s - bare_s) / iterations * 1e9)


def _measure(size_mb: int, telemetry: bool):
    c4h = Cloud4Home(
        ClusterConfig(seed=300 + size_mb, telemetry=telemetry)
    )
    c4h.start(monitors=False)
    owner = c4h.devices[0]
    reader = c4h.devices[2]
    name = f"table1-{size_mb}.bin"
    c4h.run(owner.client.store_file(name, float(size_mb)))
    fetched = c4h.run(reader.vstore.fetch_object(name))
    spans = len(c4h.telemetry.spans) if c4h.telemetry is not None else 0
    return fetched, spans


def _sweep(sizes, telemetry: bool) -> tuple[float, dict, int]:
    t0 = time.perf_counter()
    results = {size: _measure(size, telemetry) for size in sizes}
    wall = time.perf_counter() - t0
    metrics = {
        str(size): [f.total_s, f.dht_lookup_s, f.inter_node_s, f.inter_domain_s]
        for size, (f, _) in results.items()
    }
    spans = sum(n for _, n in results.values())
    return wall, metrics, spans


def bench_telemetry(sizes=SIZES_MB, repeats: int = 3) -> dict:
    off_walls, on_walls = [], []
    off_metrics = on_metrics = None
    spans = 0
    for _ in range(repeats):
        wall, off_metrics, _ = _sweep(sizes, telemetry=False)
        off_walls.append(wall)
        wall, on_metrics, spans = _sweep(sizes, telemetry=True)
        on_walls.append(wall)
    assert off_metrics == on_metrics, (
        "telemetry perturbed simulated results: "
        f"{off_metrics} vs {on_metrics}"
    )
    off_wall = min(off_walls)
    on_wall = min(on_walls)
    ns = guard_cost_ns()
    # Every span corresponds to one begin-site guard; ends and
    # never-fired sites roughly double the count.
    guard_sites = spans * 2
    return {
        "sizes_mb": list(sizes),
        "repeats": repeats,
        "disabled_wall_s": off_wall,
        "enabled_wall_s": on_wall,
        "spans_recorded": spans,
        "guard_cost_ns": ns,
        "guard_sites_estimate": guard_sites,
        "overhead_disabled_estimate": (ns * 1e-9 * guard_sites) / off_wall,
        "overhead_enabled": on_wall / off_wall - 1.0,
        "simulated_results_identical": True,
    }
