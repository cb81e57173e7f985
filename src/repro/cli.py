"""Command-line interface: quick looks at a simulated deployment.

Usage::

    python -m repro demo                 # store/fetch walkthrough
    python -m repro topology             # show the assembled testbed
    python -m repro trace --files 12     # sample the eDonkey workload
    python -m repro surveillance         # run the camera pipeline once
    python -m repro sweep --workers 4    # paper sweeps on a process pool
    python -m repro report --files 8     # traced run + latency attribution
    python -m repro chaos --seed 3       # churn workload, resilience on
    python -m repro load --nodes 256     # open-loop load driver
    python -m repro slo --check          # SLO fire/resolve chaos gate
    python -m repro lint --check         # simlint invariant checker
    python -m repro bench-help           # how to regenerate the paper

All subcommands run entirely offline on the discrete-event simulator.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro import __version__
from repro.cluster import Cloud4Home, ClusterConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cloud4Home / VStore++ reproduction (ICDCS 2011)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="store/fetch walkthrough")
    demo.add_argument("--seed", type=int, default=7)

    topology = sub.add_parser("topology", help="show the assembled testbed")
    topology.add_argument("--seed", type=int, default=0)

    trace = sub.add_parser("trace", help="sample the eDonkey workload")
    trace.add_argument("--files", type=int, default=10)
    trace.add_argument("--accesses", type=int, default=10)
    trace.add_argument("--seed", type=int, default=0)

    surveillance = sub.add_parser(
        "surveillance", help="run the camera pipeline once"
    )
    surveillance.add_argument("--image-mb", type=float, default=0.5)
    surveillance.add_argument("--seed", type=int, default=42)

    overlay = sub.add_parser("overlay", help="inspect the DHT ring")
    overlay.add_argument("--seed", type=int, default=0)
    overlay.add_argument(
        "--keys",
        nargs="*",
        default=["camera.jpg", "movie.avi", "song.mp3"],
        help="object names to map onto owners",
    )

    sweep = sub.add_parser(
        "sweep", help="run paper sweeps across a process pool"
    )
    sweep.add_argument(
        "experiment",
        nargs="?",
        default="all",
        choices=["table1", "fig5", "storm", "chaos", "decision", "all"],
        help="which sweep to run (default: all)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="pool size; 0 or 1 runs inline (the serial reference path)",
    )
    sweep.add_argument(
        "--repeats", type=int, default=1, help="repeats/trials per sweep point"
    )
    sweep.add_argument(
        "--root-seed",
        type=int,
        default=0,
        help="root seed every job seed is derived from",
    )
    sweep.add_argument(
        "--smoke", action="store_true", help="tiny sweep points (CI-sized)"
    )
    sweep.add_argument(
        "--verify",
        action="store_true",
        help="re-run inline and require bit-identical results",
    )
    sweep.add_argument(
        "--output", default=None, help="write the JSON payload to this path"
    )

    report = sub.add_parser(
        "report",
        help="run a traced scenario; print latency attribution + metrics",
    )
    report.add_argument(
        "--files", type=int, default=6, help="objects to store and fetch"
    )
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace JSON (load in chrome://tracing or Perfetto)",
    )
    report.add_argument(
        "--spans-out",
        default=None,
        metavar="PATH",
        help="write the raw span dump as JSON",
    )
    report.add_argument(
        "--top-traces",
        type=int,
        default=1,
        help="slowest request trees to render in full",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded random-churn workload with the resilience layer",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--objects", type=int, default=24, help="objects stored over the run"
    )
    chaos.add_argument(
        "--horizon",
        type=float,
        default=300.0,
        help="simulated seconds of random chaos",
    )
    chaos.add_argument(
        "--mean-interval",
        type=float,
        default=30.0,
        help="mean seconds between injected faults",
    )
    chaos.add_argument(
        "--loss-max",
        type=float,
        default=0.0,
        help="max message-loss probability drawn by loss faults (loss "
        "stresses layers below the retry wrapper, so it defaults off)",
    )
    chaos.add_argument(
        "--resilience-off",
        action="store_true",
        help="run the same script without the resilience layer (contrast)",
    )
    chaos.add_argument(
        "--durability",
        action="store_true",
        help="attach the WAL storage backend: crashed nodes lose RAM, "
        "replay their journal on revive, and run an anti-entropy round "
        "(with --assert-clean, the run must show a WAL-backed recovery)",
    )
    chaos.add_argument(
        "--assert-clean",
        action="store_true",
        help="exit 1 unless every operation succeeded, the stack healed "
        "(the repair log is non-empty, or with --durability a revive "
        "recovered from its journal) and, with resilience on, no "
        "durability invariant is breached at the end (the CI chaos smoke)",
    )
    chaos.add_argument(
        "--flightrec-dir",
        default=None,
        metavar="DIR",
        help="enable the flight recorder and dump per-node rings to "
        "this directory when --assert-clean fails (CI uploads them "
        "as artifacts)",
    )

    slo = sub.add_parser(
        "slo",
        help="seeded availability-SLO chaos scenario: kill 2 of 8 nodes, "
        "require the alert to fire within a window and resolve after repair",
    )
    slo.add_argument("--seed", type=int, default=7)
    slo.add_argument(
        "--objects", type=int, default=24, help="objects in the working set"
    )
    slo.add_argument(
        "--horizon",
        type=float,
        default=80.0,
        help="simulated seconds of fetch load after the stores",
    )
    slo.add_argument(
        "--dump-dir",
        default=None,
        metavar="DIR",
        help="write alert-triggered flight-recorder dumps here",
    )
    slo.add_argument(
        "--check",
        action="store_true",
        help="CI gate: exit 1 unless the SLO fires within one window of "
        "the kills, resolves after the Repairer acts, and the "
        "flight-recorder dump is schema-valid",
    )
    slo.add_argument(
        "--json",
        action="store_true",
        help="print the scenario timeline as JSON (dump elided to a summary)",
    )

    load = sub.add_parser(
        "load",
        help="drive an overlay with the open-loop load generator",
    )
    load.add_argument(
        "--nodes", type=int, default=256, help="overlay size (devices)"
    )
    load.add_argument(
        "--rate", type=float, default=2000.0, help="offered arrival rate, req/s"
    )
    load.add_argument(
        "--duration",
        type=float,
        default=5.0,
        help="simulated injection window, seconds",
    )
    load.add_argument("--seed", type=int, default=0)
    load.add_argument(
        "--arrivals",
        choices=["poisson", "deterministic"],
        default="poisson",
        help="arrival process (both seeded / exactly reproducible)",
    )
    load.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: cap at 256 nodes, run the point twice, and fail "
        "unless the simulated results are bit-for-bit identical",
    )
    load.add_argument(
        "--json",
        action="store_true",
        help="print the full scale_point payload as JSON",
    )

    lint = sub.add_parser(
        "lint",
        help="run simlint, the AST-based invariant checker (--check = CI gate)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    sub.add_parser("bench-help", help="how to regenerate the paper's results")
    return parser


def cmd_demo(args) -> int:
    from repro.telemetry import metrics_report

    c4h = Cloud4Home(ClusterConfig(seed=args.seed, telemetry=True))
    c4h.start(monitors=False)
    device = c4h.devices[0]
    print(f"deployment: {[d.name for d in c4h.devices]} + S3/EC2")
    for name, size in [("photo.jpg", 2.0), ("album.mp3", 6.0)]:
        result = c4h.run(device.client.store_file(name, size))
        print(f"stored {name} -> {result.meta.location} ({result.total_s:.2f}s)")
    fetch = c4h.run(c4h.device("desktop").client.fetch_object("photo.jpg"))
    print(f"fetched photo.jpg from {fetch.served_from} ({fetch.total_s:.2f}s)")
    print()
    print(metrics_report(c4h.collect_metrics()))
    return 0


def cmd_topology(args) -> int:
    c4h = Cloud4Home(ClusterConfig(seed=args.seed))
    print("Cloud4Home testbed (paper Section V):")
    for device in c4h.devices:
        profile = device.profile
        power = "mains" if device.config.battery is None else "battery"
        print(
            f"  {device.name:10s} {profile.name:13s} "
            f"{profile.cpu_cores}x{profile.cpu_ghz:g} GHz "
            f"{profile.mem_mb:.0f} MB "
            f"(guest VM: {device.guest.vcpus} vcpu / "
            f"{device.guest.mem_mb:.0f} MB, {power})"
        )
    lan = c4h.config.lan
    wan = c4h.config.wan
    print(f"  LAN: {lan.bandwidth_mbps:g} Mbps, {lan.latency_s * 1000:g} ms")
    print(
        f"  WAN: up {wan.up_flow_mean_mb_s:g} MB/s / "
        f"down {wan.down_flow_mean_mb_s:g} MB/s mean per transfer, "
        f"shaping after {wan.shaping_after_s:g}s"
    )
    print(f"  cloud: S3 bucket + {len(c4h.ec2)} EC2 instance(s)")
    return 0


def cmd_trace(args) -> int:
    from repro.sim import RandomSource
    from repro.workloads import EDonkeyTraceGenerator

    gen = EDonkeyTraceGenerator(
        rng=RandomSource(args.seed), n_files=args.files
    )
    print(f"files ({args.files}):")
    for f in gen.files():
        print(f"  {f.name:22s} {f.size_mb:6.1f} MB  [{f.bucket}]")
    print(f"accesses ({args.accesses}, 60/40 store/fetch):")
    for a in gen.accesses(args.accesses):
        print(f"  client {a.client}: {a.op:5s} {a.file.name}")
    return 0


def cmd_surveillance(args) -> int:
    from repro.services import FaceDetection, FaceRecognition

    c4h = Cloud4Home(ClusterConfig(seed=args.seed))
    c4h.start(monitors=False)
    camera = c4h.device("netbook0")
    c4h.deploy_service(lambda: FaceDetection(), nodes=["netbook0", "desktop"])
    c4h.deploy_service(
        lambda: FaceRecognition(training_mb=60.0), nodes=["netbook0", "desktop"]
    )
    for svc in camera.registry.local.values():
        svc.prewarm(camera.guest)
    c4h.run(camera.client.store_file("frame.jpg", args.image_mb))
    result = c4h.run(
        camera.client.process_pipeline(
            "frame.jpg", ["face-detect#v1", "face-recognize#v1"]
        )
    )
    print(
        f"{args.image_mb:g} MB frame: pipeline ran on {result.executed_on} "
        f"in {result.total_s:.2f}s (decision {result.decision_s * 1000:.0f} ms, "
        f"move {result.move_s:.2f}s, exec {result.execute_s:.2f}s)"
    )
    return 0


def cmd_overlay(args) -> int:
    from repro.overlay import NodeId, ring_diagram, routing_summary

    c4h = Cloud4Home(ClusterConfig(seed=args.seed))
    c4h.start(monitors=False)
    nodes = [d.chimera for d in c4h.devices]
    keys = {name: NodeId.from_name(f"object:{name}") for name in args.keys}
    print(ring_diagram(nodes, keys=keys))
    print()
    print(routing_summary(nodes[0]))
    return 0


def cmd_sweep(args) -> int:
    import json
    import time

    from repro.parallel.sweeps import run_sweep

    started = time.perf_counter()
    payload = run_sweep(
        args.experiment,
        workers=args.workers,
        repeats=args.repeats,
        root_seed=args.root_seed,
        smoke=args.smoke,
        verify=args.verify,
    )
    wall_s = time.perf_counter() - started

    sweeps = payload["sweeps"].values() if "sweeps" in payload else [payload]
    n_jobs = sum(p["n_jobs"] for p in sweeps)
    n_distinct = sum(p["n_distinct_jobs"] for p in sweeps)
    n_failed = sum(p["n_failed"] for p in sweeps)
    mode = "inline" if args.workers <= 1 else f"{args.workers} workers"
    print(
        f"sweep {args.experiment}: {n_jobs} jobs "
        f"({n_distinct} distinct) on {mode} in {wall_s:.2f}s"
        + (", verified vs serial" if args.verify and args.workers > 1 else "")
    )
    if n_failed:
        print(f"  {n_failed} job(s) FAILED:")
        for p in sweeps:
            _print_failures(p)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"  wrote {args.output}")
    return 1 if n_failed else 0


def _print_failures(payload: dict) -> None:
    """Surface failed sweep points buried in the aggregated results."""

    def walk(obj, path):
        if isinstance(obj, dict):
            if set(obj) == {"error"}:
                print(f"    {payload['experiment']}/{path}: {obj['error']}")
                return
            for key, value in obj.items():
                walk(value, f"{path}/{key}" if path else key)
        elif isinstance(obj, list):
            for i, value in enumerate(obj):
                walk(value, f"{path}[{i}]")

    walk(payload["results"], "")


def cmd_report(args) -> int:
    import json

    from repro.services import FaceDetection
    from repro.telemetry import (
        attribution_report,
        chrome_trace,
        metrics_report,
        span_dump,
    )
    from repro.workloads import EDonkeyTraceGenerator
    from repro.sim import RandomSource

    c4h = Cloud4Home(ClusterConfig(seed=args.seed, telemetry=True))
    c4h.start(monitors=False)
    tel = c4h.telemetry
    c4h.deploy_service(lambda: FaceDetection(), nodes=["netbook0", "desktop"])

    files = EDonkeyTraceGenerator(
        rng=RandomSource(args.seed), n_files=max(1, args.files)
    ).files()
    storer = c4h.devices[0]
    fetcher = c4h.device("desktop")
    for f in files:
        c4h.run(storer.client.store_file(f.name, f.size_mb))
    for f in files:
        c4h.run(fetcher.client.fetch_object(f.name))
    c4h.run(storer.client.process(files[0].name, "face-detect#v1"))

    n_roots = len(tel.roots())
    print(
        f"scenario: {len(files)} stores + {len(files)} fetches + 1 process "
        f"-> {len(tel.spans)} spans in {n_roots} request trees "
        f"({c4h.sim.now:.2f}s simulated)"
    )
    print()
    print(attribution_report(tel, top_traces=args.top_traces))
    print()
    print(metrics_report(c4h.collect_metrics()))

    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump(chrome_trace(tel), fh)
        print(f"\nwrote Chrome trace: {args.trace_out}")
    if args.spans_out:
        with open(args.spans_out, "w") as fh:
            json.dump(span_dump(tel), fh, indent=2)
        print(f"wrote span dump: {args.spans_out}")
    return 0


def cmd_chaos(args) -> int:
    from repro.cluster import SloConfig
    from repro.cluster.chaos import RandomChaos
    from repro.cluster.invariants import check_invariants
    from repro.kvstore import KvError
    from repro.net import NetworkError
    from repro.vstore.errors import VStoreError

    # The flight recorder rides on the SLO layer; enabling it is
    # observation-only (guarded emits), so the churn outcome is the
    # same either way.
    config = ClusterConfig(
        seed=args.seed,
        resilience=not args.resilience_off,
        data_replicas=2,
        replication_factor=3,
        slo=args.flightrec_dir is not None,
        slo_tuning=SloConfig(recorder_dump_dir=args.flightrec_dir),
        storage="wal" if args.durability else "mem",
    )
    c4h = Cloud4Home(config)
    c4h.start()
    chaos = RandomChaos(
        c4h,
        seed=args.seed,
        mean_interval_s=args.mean_interval,
        protected=("netbook0",),  # the measuring client stays up
        loss_rate_max=args.loss_max,
    )
    schedule = chaos.script(args.horizon)
    schedule.start()

    client = c4h.device("netbook0")
    failures: list[tuple[str, str]] = []
    names: list[str] = []
    step = args.horizon / max(1, args.objects)
    for i in range(args.objects):
        writer = c4h.devices[i % len(c4h.devices)]
        if not c4h.network.hosts[writer.name].online:
            writer = client  # a dead client can't issue requests
        name = f"chaos-{i:03d}.bin"
        try:
            c4h.run(writer.client.store_file(name, 1.0))
            names.append(name)
        except (NetworkError, VStoreError, KvError) as exc:
            failures.append((f"store {name}", repr(exc)))
        c4h.sim.run(until=c4h.sim.now + step)
    for name in names:
        try:
            c4h.run(client.client.fetch_object(name))
        except (NetworkError, VStoreError, KvError) as exc:
            failures.append((f"fetch {name}", repr(exc)))
    c4h.sim.run(until=c4h.sim.now + 90.0)  # let revives and repairs drain

    kinds: dict[str, int] = {}
    for event in schedule.events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    repairs = sum(
        len(d.repairer.repairs) for d in c4h.devices if d.repairer is not None
    )
    mode = "off" if args.resilience_off else "on"
    print(
        f"chaos run (seed {args.seed}, resilience {mode}): "
        f"{len(schedule.events)} fault events over {args.horizon:g}s "
        + (f"{dict(sorted(kinds.items()))}" if kinds else "")
    )
    ops = args.objects + len(names)
    print(
        f"  operations: {ops - len(failures)}/{ops} succeeded, "
        f"{repairs} repair action(s) logged"
    )
    recoveries = 0
    if args.durability:
        recoveries = sum(
            1
            for event in schedule.events
            if event.kind == "revive" and "replayed" in event.detail
        )
        backends = sum(1 for d in c4h.devices if d.storage is not None)
        print(
            f"  durability: {backends} WAL backends attached, "
            f"{recoveries} revive(s) recovered from the journal"
        )
    breaches = [] if args.resilience_off else check_invariants(c4h)
    if not args.resilience_off:
        print(f"  invariants: {len(breaches)} breach(es) at the end")
    for op, error in failures:
        print(f"  FAILED {op}: {error}")
    for breach in breaches:
        print(f"  BREACH {breach.kind} {breach.name}: {breach.detail}")
    if args.assert_clean:
        # With durable storage a revive that replays its journal heals
        # the node without a single repair action.
        unhealed = not args.resilience_off and repairs == 0 and recoveries == 0
        missing_recovery = args.durability and recoveries == 0
        problem = (
            "operation failures above"
            if failures
            else "repair log is empty"
            if unhealed
            else "no revive recovered from the WAL"
            if missing_recovery
            else "invariant breaches above"
            if breaches
            else None
        )
        if problem is not None:
            print(f"assert-clean: {problem}")
            if c4h.recorders is not None:
                c4h.recorders.dump(
                    now=c4h.sim.now, reason="assert-clean-failure"
                )
                for path in c4h.recorders.dump_paths:
                    print(f"  flight recorder: {path}")
            return 1
        print("assert-clean: ok")
    return 0


def cmd_slo(args) -> int:
    import json

    from repro.cluster import availability_chaos_scenario
    from repro.telemetry import validate_recorder_dump

    result = availability_chaos_scenario(
        seed=args.seed,
        n_objects=args.objects,
        horizon_s=args.horizon,
        dump_dir=args.dump_dir,
    )
    try:
        entries = validate_recorder_dump(result["dump"])
        dump_error = None
    except ValueError as exc:
        entries = 0
        dump_error = str(exc)

    if args.json:
        payload = dict(result)
        payload["dump"] = {
            "schema": result["dump"].get("schema"),
            "entries": entries,
            "nodes": sorted(result["dump"].get("nodes", {})),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        bar = result["window_s"] + result["eval_period_s"]
        print(
            f"slo scenario (seed {args.seed}): {result['nodes']} nodes, "
            f"{result['objects']} objects, killed {result['killed']} "
            f"at t={result['t_kill']:.1f}s"
        )
        if result["fired_at"] is not None:
            print(
                f"  firing   at {result['fired_at']:.2f}s "
                f"(+{result['fired_within_s']:.2f}s after the kill; "
                f"bar {bar:g}s)"
            )
        else:
            print("  firing   never (FAIL)")
        if result["first_repair_at"] is not None:
            print(
                f"  repair   at {result['first_repair_at']:.2f}s "
                f"({result['repair_actions']} promote/replicate actions)"
            )
        if result["resolved_at"] is not None:
            print(f"  resolved at {result['resolved_at']:.2f}s")
        else:
            print("  resolved never (FAIL)")
        if dump_error is None:
            print(
                f"  flight recorder: {entries} entries across "
                f"{len(result['dump']['nodes'])} nodes "
                f"(schema {result['dump']['schema']})"
            )
        else:
            print(f"  flight recorder: INVALID — {dump_error}")
        for path in result["dump_paths"]:
            print(f"  wrote {path}")
        health = " ".join(
            f"{node} {score:.2f}"
            for node, score in sorted(result["health"].items())
        )
        print(f"  health: {health}")

    if args.check:
        ok = result["ok"] and dump_error is None
        print(f"slo --check: {'ok' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def cmd_load(args) -> int:
    import json

    from repro.load import scale_point

    nodes = args.nodes
    if args.smoke and nodes > 256:
        print(f"load --smoke: capping --nodes {nodes} at 256")
        nodes = 256
    kwargs = dict(
        n_nodes=nodes,
        rate=args.rate,
        duration_s=args.duration,
        seed=args.seed,
        arrivals=args.arrivals,
        probe_objects=False,
    )
    result = scale_point(**kwargs)

    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        sim = result["sim"]
        wall = result["wall"]
        lat = sim["latency"]
        print(
            f"load: {nodes} nodes, {args.arrivals} arrivals at "
            f"{args.rate:g} req/s for {args.duration:g}s (seed {args.seed})"
        )
        print(
            f"  offered {sim['offered_rate']:.1f}/s -> achieved "
            f"{sim['achieved_rate']:.1f}/s "
            f"({sim['completed']} completed, {sim['shed']} shed, "
            f"{sim['failed']} failed, {sim['kv_misses']} misses)"
        )
        print(
            f"  latency p50 {lat['p50'] * 1000:.1f} ms / "
            f"p99 {lat['p99'] * 1000:.1f} ms / "
            f"p999 {lat['p999'] * 1000:.1f} ms "
            f"(max inflight {sim['max_inflight_seen']})"
        )
        print(
            f"  wall: build {wall['build_s']:.2f}s, run {wall['run_s']:.2f}s, "
            f"{wall['events_per_s']} events/s, "
            f"rss {result['memory']['rss_mb']} MB"
        )

    if args.smoke:
        rerun = scale_point(**kwargs)
        # Wall/memory blocks measure the machine; the simulated block
        # must be reproduced bit-for-bit from the seed.
        first, second = result["sim"], rerun["sim"]
        if json.dumps(first, sort_keys=True) != json.dumps(
            second, sort_keys=True
        ):
            print("load --smoke: FAIL — seeded rerun diverged")
            return 1
        print("load --smoke: ok (seeded rerun bit-for-bit identical)")
    return 0


def cmd_lint(args) -> int:
    from repro.lint.cli import run

    return run(args)


def cmd_bench_help(args) -> int:
    print("Regenerate every table and figure from the paper with:")
    print()
    print("    pytest benchmarks/ --benchmark-only")
    print()
    print("Individual experiments:")
    for bench, what in [
        ("test_fig4_home_vs_remote.py", "Figure 4: home vs remote latency"),
        ("test_table1_fetch_costs.py", "Table I: fetch cost breakdown"),
        ("test_fig5_optimal_object_size.py", "Figure 5: optimal object size"),
        ("test_fig6_fetch_throughput.py", "Figure 6: concurrent fetch throughput"),
        ("test_split_processing.py", "Sec. V-B: home/EC2/split recognition"),
        ("test_fig7_service_placement.py", "Figure 7: pipeline placement"),
        ("test_fig8_dynamic_routing.py", "Figure 8: Town vs Topt"),
        ("test_scaling.py", "future work (iii): overlay scaling"),
        ("test_ablation_*.py", "design ablations"),
    ]:
        print(f"    pytest benchmarks/{bench:36s} # {what}")
    return 0


COMMANDS = {
    "demo": cmd_demo,
    "topology": cmd_topology,
    "trace": cmd_trace,
    "surveillance": cmd_surveillance,
    "overlay": cmd_overlay,
    "sweep": cmd_sweep,
    "report": cmd_report,
    "chaos": cmd_chaos,
    "slo": cmd_slo,
    "load": cmd_load,
    "lint": cmd_lint,
    "bench-help": cmd_bench_help,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)
