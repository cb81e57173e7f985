"""Paper-experiment job functions and sweep definitions.

Every function here that a :class:`~repro.parallel.runner.Job` names is
a *complete, independent* simulation: it builds its own deployment from
a seed, runs one sweep point, and returns plain JSON-able metrics.
That independence is what lets ``run_jobs`` fan a whole evaluation
(Table I sweep points × repeats, Figure 5 replications, lookup storms,
chaos trials, decision-latency points) across a process pool while
staying bit-for-bit deterministic at any worker count.

``python -m repro sweep`` drives :func:`run_sweep`; the perf harness
(``benchmarks/perf/parallel_bench.py``) and the paper benchmarks
(``benchmarks/test_table1_fetch_costs.py``,
``benchmarks/test_fig5_optimal_object_size.py``) reuse the same job
functions, so the parallel harness measures exactly the simulations the
figures report.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

from repro.cluster import ChaosSchedule, Cloud4Home, ClusterConfig
from repro.net import Link, Network, Route
from repro.overlay import ChimeraNode, NodeId
from repro.parallel.aggregate import aggregate_repeats, canonical_results
from repro.parallel.runner import Job, run_jobs
from repro.parallel.seeds import derive_seed
from repro.sim import RandomSource, Simulator

__all__ = [
    "TABLE1_SIZES_MB",
    "FIG5_SIZES_MB",
    "table1_fetch",
    "table1_point",
    "fig5_access_mix",
    "fig5_point",
    "storm_point",
    "chaos_trial",
    "decision_point",
    "table1_jobs",
    "fig5_jobs",
    "storm_jobs",
    "chaos_jobs",
    "decision_jobs",
    "run_sweep",
    "EXPERIMENTS",
]

MB = 1024 * 1024

TABLE1_SIZES_MB = [1, 2, 5, 10, 20, 50, 100]
FIG5_SIZES_MB = [5, 10, 20, 30, 50, 100]
FIG5_TOTAL_MB_METHOD1 = 260.0
FIG5_FILES_METHOD2 = 5
FIG5_STORE_FRACTION = 0.6
DECISION_KS = [2, 3, 4, 5, 6]


# -- job functions (module-level: pool workers resolve them by name) ------


def table1_fetch(size_mb: int, seed: int):
    """One Table I point; returns the raw :class:`FetchResult`.

    The exact scenario the paper benchmark and the Table I goldens
    measure: store on the owner, fetch from a third device.
    """
    c4h = Cloud4Home(ClusterConfig(seed=seed))
    c4h.start(monitors=False)
    owner = c4h.devices[0]
    reader = c4h.devices[2]
    name = f"table1-{size_mb}.bin"
    c4h.run(owner.client.store_file(name, float(size_mb)))
    fetch = c4h.run(reader.vstore.fetch_object(name))
    assert fetch.served_from == owner.name
    return fetch


def table1_point(size_mb: int, seed: int) -> dict:
    """Job: Table I fetch cost breakdown as a metric dict."""
    fetch = table1_fetch(size_mb, seed)
    return {
        "total_s": fetch.total_s,
        "dht_lookup_s": fetch.dht_lookup_s,
        "inter_node_s": fetch.inter_node_s,
        "inter_domain_s": fetch.inter_domain_s,
        "served_from": fetch.served_from,
    }


def fig5_access_mix(size_mb: int, n_files: int, seed: int) -> float:
    """Sequential remote-cloud interactions; returns MB/s aggregate.

    The Figure 5 access mix (modified eDonkey trace: 60 % store / 40 %
    fetch against S3).  Moved here from the benchmark file so the
    parallel harness and the pytest benchmark run the same code.
    """
    c4h = Cloud4Home(ClusterConfig(seed=seed))
    c4h.start(monitors=False)
    rng = RandomSource(seed).fork("fig5")
    s3 = c4h.s3
    names = [f"obj-{size_mb}-{i}" for i in range(n_files)]
    # Seed the bucket so fetches always have something to download.
    for name in names:
        c4h.run(s3.put_object("netbook0", name, size_mb * MB))

    t0 = c4h.sim.now
    moved_mb = 0.0
    n_ops = max(n_files, 8)
    clients = [d.name for d in c4h.devices]
    for _ in range(n_ops):
        name = rng.choice(names)
        client = rng.choice(clients)
        if rng.random() < FIG5_STORE_FRACTION:
            c4h.run(s3.put_object(client, name, size_mb * MB))
        else:
            c4h.run(s3.get_object(client, name))
        moved_mb += size_mb
    return moved_mb / (c4h.sim.now - t0)


def fig5_point(size_mb: int, n_files: int, seed: int) -> dict:
    """Job: one Figure 5 point as a metric dict."""
    return {"mb_s": fig5_access_mix(size_mb, n_files, seed)}


def _build_storm_overlay(n_nodes: int, seed: int):
    """A fully joined overlay on one home LAN (the conftest topology)."""
    sim = Simulator()
    net = Network(sim, RandomSource(seed))
    link = Link(sim, bandwidth=95.5e6 / 8, name="lan")
    net.connect_groups("home", "home", Route(link, base_latency=0.001))
    hosts = [net.add_host(f"node{i:02d}", group="home") for i in range(n_nodes)]
    nodes = [ChimeraNode(net, host, leaf_size=4) for host in hosts]
    nodes[0].start()
    for node in nodes[1:]:
        proc = sim.process(node.join(bootstrap=nodes[0].name))
        sim.run(until=proc)
        sim.run()  # drain join announcements before the next join
    return sim, nodes


def storm_point(n_nodes: int, n_lookups: int, seed: int) -> dict:
    """Job: a DHT lookup storm; returns a digest of the full trace.

    The owner sequence and final simulated time pin routing behaviour
    across workers without shipping the whole trace between processes.
    """
    sim, nodes = _build_storm_overlay(n_nodes, seed)
    digest = hashlib.sha256()
    for i in range(n_lookups):
        key = NodeId.from_name(f"storm-{seed}-{i}")
        origin = nodes[i % len(nodes)]
        owner = sim.run(until=sim.process(origin.resolve(key)))
        digest.update(f"{key.hex}>{owner.name};".encode())
    return {
        "n_nodes": n_nodes,
        "n_lookups": n_lookups,
        "final_t": sim.now,
        "owners_sha256": digest.hexdigest(),
    }


def chaos_trial(seed: int, n_ops: int = 10) -> dict:
    """Job: store/fetch traffic while a device crashes and revives.

    Operations that hit the crashed device (placement on it, fetches of
    objects it held) count as failures; the trial reports the split and
    the mean successful fetch latency.
    """
    c4h = Cloud4Home(ClusterConfig(seed=seed))
    c4h.start(monitors=False)
    schedule = (
        ChaosSchedule(c4h)
        .crash(8.0, "netbook3")
        .revive(40.0, "netbook3", bootstrap="netbook0")
    )
    schedule.start()
    rng = RandomSource(seed).fork("chaos-ops")
    clients = [d for d in c4h.devices if d.name != "netbook3"]
    completed = 0
    failures: list[str] = []
    fetch_times: list[float] = []
    for i in range(n_ops):
        writer = rng.choice(clients)
        reader = rng.choice(clients)
        name = f"chaos-{i}.bin"
        size_mb = 1.0 + 4.0 * rng.random()
        try:
            c4h.run(writer.client.store_file(name, size_mb))
            fetch = c4h.run(reader.client.fetch_object(name))
            fetch_times.append(fetch.total_s)
            completed += 1
        except Exception as exc:
            failures.append(type(exc).__name__)
        c4h.sim.run(until=c4h.sim.now + 5.0)
    return {
        "n_ops": n_ops,
        "completed": completed,
        "failed": len(failures),
        "failure_kinds": sorted(set(failures)),
        "mean_fetch_s": (
            sum(fetch_times) / len(fetch_times) if fetch_times else 0.0
        ),
        "chaos_events": len(schedule.events),
    }


def decision_point(k: int, parallel: bool, seed: int) -> dict:
    """Job: simulated latency of one k-candidate placement decision."""
    c4h = Cloud4Home(ClusterConfig(seed=seed, parallel_decision=parallel))
    c4h.start(monitors=False)
    engine = c4h.devices[0].decision
    among = [d.name for d in c4h.devices[:k]]
    t0 = c4h.sim.now
    ranked = c4h.run(engine.decide(among=among))
    return {
        "k": k,
        "parallel": parallel,
        "latency_s": c4h.sim.now - t0,
        "ranking": [c.node for c in ranked],
    }


# -- sweep builders -------------------------------------------------------


def table1_jobs(
    sizes: Optional[Sequence[int]] = None,
    repeats: int = 1,
    root_seed: int = 0,
    paper_seeds: bool = True,
) -> list[Job]:
    """The Table I sweep: sizes × repeats.

    With ``paper_seeds`` (default) every repeat of a size uses the
    paper benchmark's fixed seed (``300 + size``) — repeats are timing
    repeats of identical deterministic jobs, which the runner computes
    once.  With ``paper_seeds=False`` each repeat gets its own derived
    seed and becomes a statistical replication.
    """
    jobs = []
    for rep in range(repeats):
        for size in sizes if sizes is not None else TABLE1_SIZES_MB:
            seed = (
                300 + size
                if paper_seeds
                else derive_seed(root_seed, "table1", size, rep)
            )
            jobs.append(
                Job.make(
                    "repro.parallel.sweeps:table1_point",
                    {"size_mb": size, "seed": seed},
                )
            )
    return jobs


def fig5_jobs(
    sizes: Optional[Sequence[int]] = None,
    repeats: int = 1,
    root_seed: int = 0,
    paper_seeds: bool = True,
) -> list[Job]:
    """The Figure 5 sweep: both methods × sizes × repeats."""
    jobs = []
    for rep in range(repeats):
        for size in sizes if sizes is not None else FIG5_SIZES_MB:
            n1 = max(2, round(FIG5_TOTAL_MB_METHOD1 / size))
            for method, n_files, paper_seed in (
                (1, n1, 500 + size),
                (2, FIG5_FILES_METHOD2, 700 + size),
            ):
                seed = (
                    paper_seed
                    if paper_seeds
                    else derive_seed(root_seed, "fig5", method, size, rep)
                )
                jobs.append(
                    Job.make(
                        "repro.parallel.sweeps:fig5_point",
                        {"size_mb": size, "n_files": n_files, "seed": seed},
                    )
                )
    return jobs


def storm_jobs(
    n_nodes: int = 24, n_lookups: int = 120, trials: int = 2, root_seed: int = 0
) -> list[Job]:
    return [
        Job.make(
            "repro.parallel.sweeps:storm_point",
            {
                "n_nodes": n_nodes,
                "n_lookups": n_lookups,
                "seed": derive_seed(root_seed, "storm", trial),
            },
        )
        for trial in range(trials)
    ]


def chaos_jobs(trials: int = 3, n_ops: int = 10, root_seed: int = 0) -> list[Job]:
    return [
        Job.make(
            "repro.parallel.sweeps:chaos_trial",
            {"seed": derive_seed(root_seed, "chaos", trial), "n_ops": n_ops},
        )
        for trial in range(trials)
    ]


def decision_jobs(
    ks: Optional[Sequence[int]] = None, root_seed: int = 0
) -> list[Job]:
    jobs = []
    for k in ks if ks is not None else DECISION_KS:
        for parallel in (False, True):
            jobs.append(
                Job.make(
                    "repro.parallel.sweeps:decision_point",
                    {
                        "k": k,
                        "parallel": parallel,
                        "seed": derive_seed(root_seed, "decision", k),
                    },
                )
            )
    return jobs


# -- sweep execution and aggregation --------------------------------------


def _value_or_error(result) -> dict:
    if result.ok:
        return result.value
    return {"error": result.error}


def _run_table1(workers, repeats, root_seed, smoke):
    sizes = [1, 10] if smoke else TABLE1_SIZES_MB
    jobs = table1_jobs(sizes, repeats=repeats, root_seed=root_seed)
    results = run_jobs(jobs, workers=workers)
    per_size: dict[str, list] = {str(size): [] for size in sizes}
    for job_index, result in enumerate(results):
        size = sizes[job_index % len(sizes)]
        per_size[str(size)].append(_value_or_error(result))
    return jobs, results, {
        "per_size": {
            size: aggregate_repeats(values) for size, values in per_size.items()
        }
    }


def _run_fig5(workers, repeats, root_seed, smoke):
    sizes = [5, 20] if smoke else FIG5_SIZES_MB
    jobs = fig5_jobs(sizes, repeats=repeats, root_seed=root_seed)
    results = run_jobs(jobs, workers=workers)
    methods: dict[str, dict[str, list]] = {"method1": {}, "method2": {}}
    for job_index, result in enumerate(results):
        point = job_index % (len(sizes) * 2)
        size = sizes[point // 2]
        method = "method1" if point % 2 == 0 else "method2"
        methods[method].setdefault(str(size), []).append(_value_or_error(result))
    return jobs, results, {
        method: {size: aggregate_repeats(vals) for size, vals in sizes_map.items()}
        for method, sizes_map in methods.items()
    }


def _run_storm(workers, repeats, root_seed, smoke):
    jobs = storm_jobs(
        n_nodes=8 if smoke else 24,
        n_lookups=20 if smoke else 120,
        trials=max(1, repeats),
        root_seed=root_seed,
    )
    results = run_jobs(jobs, workers=workers)
    return jobs, results, {"trials": [_value_or_error(r) for r in results]}


def _run_chaos(workers, repeats, root_seed, smoke):
    jobs = chaos_jobs(
        trials=max(1, repeats), n_ops=4 if smoke else 10, root_seed=root_seed
    )
    results = run_jobs(jobs, workers=workers)
    trials = [_value_or_error(r) for r in results]
    ok_trials = [r.value for r in results if r.ok]
    summary = aggregate_repeats(ok_trials) if ok_trials else {}
    return jobs, results, {"trials": trials, "summary": summary}


def _run_decision(workers, repeats, root_seed, smoke):
    ks = [2, 3] if smoke else DECISION_KS
    jobs = decision_jobs(ks, root_seed=root_seed)
    results = run_jobs(jobs, workers=workers)
    per_k: dict[str, dict] = {}
    for job_index, result in enumerate(results):
        k = ks[job_index // 2]
        mode = "serial" if job_index % 2 == 0 else "parallel"
        per_k.setdefault(str(k), {})[mode] = _value_or_error(result)
    for entry in per_k.values():
        serial = entry.get("serial", {}).get("latency_s")
        parallel = entry.get("parallel", {}).get("latency_s")
        if serial and parallel:
            entry["speedup_simulated"] = serial / parallel
    return jobs, results, {"per_k": per_k}


EXPERIMENTS = {
    "table1": _run_table1,
    "fig5": _run_fig5,
    "storm": _run_storm,
    "chaos": _run_chaos,
    "decision": _run_decision,
}


def run_sweep(
    experiment: str,
    workers: int = 0,
    repeats: int = 1,
    root_seed: int = 0,
    smoke: bool = False,
    verify: bool = False,
) -> dict:
    """Run one named sweep (or ``"all"``) and return its payload.

    ``payload["results"]`` is the deterministic section: its canonical
    JSON is byte-identical at every worker count.  ``verify=True``
    additionally re-runs the sweep inline (``workers=0``) and raises if
    the parallel run diverged — the CI smoke path.
    """
    if experiment == "all":
        return {
            "experiment": "all",
            "root_seed": root_seed,
            "smoke": smoke,
            "workers": workers,
            "sweeps": {
                name: run_sweep(
                    name,
                    workers=workers,
                    repeats=repeats,
                    root_seed=root_seed,
                    smoke=smoke,
                    verify=verify,
                )
                for name in EXPERIMENTS
            },
        }
    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; pick from "
            f"{sorted(EXPERIMENTS)} or 'all'"
        )
    jobs, results, aggregated = EXPERIMENTS[experiment](
        workers, repeats, root_seed, smoke
    )
    if verify and workers > 1:
        reference = run_jobs(jobs, workers=0)
        if canonical_results(reference) != canonical_results(results):
            raise AssertionError(
                f"{experiment}: parallel run (workers={workers}) diverged "
                "from the serial reference — determinism bug"
            )
    failed = sum(1 for r in results if not r.ok)
    return {
        "experiment": experiment,
        "root_seed": root_seed,
        "smoke": smoke,
        "workers": workers,
        "n_jobs": len(jobs),
        "n_distinct_jobs": len({job.key for job in jobs}),
        "n_failed": failed,
        "verified_vs_serial": bool(verify and workers > 1),
        "results": aggregated,
    }
