"""The printed metric names are exactly the benchmark's specified names."""

import json
import os
import subprocess
import sys

import run
from layers import PER_LAYER, layer_metrics

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

#: The end-to-end table, in order: the issue's twelve, plus
#: ``ops_per_ref_s``, the gated host-speed-corrected throughput.
SPEC_END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_wall_s", "ops/s"),
    ("ops_per_ref_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("sim_read_p50_ms", "ms"),
    ("sim_read_p99_ms", "ms"),
    ("sim_write_p50_ms", "ms"),
    ("sim_write_p99_ms", "ms"),
    ("sim_process_p50_ms", "ms"),
    ("sim_process_p99_ms", "ms"),
    ("sim_goodput_ops_s", "ops/s"),
    ("op_fail_ratio", "ratio"),
    ("space_amp", "ratio"),
]

#: The per-layer table, layer by layer.
SPEC_PER_LAYER = """
sim.events sim.events_per_op sim.self_s
cluster.build_s cluster.start_s cluster.prepopulate_s
load.injected load.shed load.self_s
net.rpc_calls net.rpc_timeouts net.rpc_self_s net.messages_lost
net.flows net.flow_mb net.boundaries_per_flow net.link_self_s net.sim_inter_node_s
virt.transfers virt.self_s virt.sim_inter_domain_s
overlay.routes overlay.route_cache_hit_ratio overlay.stabilizer_rounds overlay.self_s
kvstore.gets kvstore.puts kvstore.forwards_per_op kvstore.cache_hit_ratio
kvstore.sim_lookup_ms kvstore.self_s
vstore.stores vstore.fetches vstore.deletes vstore.local_serve_ratio
vstore.sim_placement_s vstore.sim_metadata_s vstore.self_s
vstore.stripe_chunks vstore.stripe_spilled
monitoring.decisions monitoring.snapshots_published monitoring.sim_decision_s monitoring.self_s
services.executions services.offload_ratio services.sim_execute_s services.self_s
cloud.s3_puts cloud.s3_gets cloud.mb_moved cloud.sim_remote_s cloud.self_s
resilience.attempts resilience.retries resilience.giveups resilience.replicate_short
resilience.repair_scans resilience.repair_actions resilience.self_s
storage.wal_appends storage.appends_per_write storage.compactions storage.fsyncs
storage.flushes storage.self_s
telemetry.spans telemetry.slo_evaluations telemetry.alerts telemetry.self_s
trace.overhead_ratio trace.unattributed_share
""".split()


def _report(**over):
    counters = {
        k: 1
        for k in (
            "kv.gets kv.puts kv.deletes kv.cache_hits kv.forwards kv.lookup_count "
            "kv.lookup_time_total overlay.routes_resolved overlay.route_cache_hits "
            "virt.xensocket_transfers monitoring.decisions_made monitoring.updates_published "
            "storage.appends storage.compactions storage.fsyncs storage.flushes "
            "resilience.attempts resilience.retries resilience.giveups resilience.repair_scans "
            "resilience.repair_actions resilience.replicate_short vstore.stripe_placed "
            "vstore.stripe_spilled net.messages_lost net.messages_delivered net.bytes_delivered cloud.s3_puts "
            "cloud.s3_gets telemetry.spans telemetry.slo_evaluations telemetry.alerts"
        ).split()
    }
    sim = {
        f"{p}_{q}": 1.0 for p in ("sim_read", "sim_write", "sim_process") for q in ("p50_ms", "p99_ms")
    }
    sim.update(sim_read_n=1, sim_write_n=1, sim_process_n=0)
    sim.update(sim_goodput_ops_s=1.0, op_fail_ratio=0.0, space_amp=1.0)
    report = {
        "counters": counters,
        "costs": {},
        "counts": {},
        "ops": {"attempted": 2, "completed": 2, "failed": 0, "misses": 0, "writes": 1},
        "events": 10,
        "timed_wall_s": 2.0,
        "drive_wall_s": 2.0,
        "ops_per_wall_s": 1.0,
        "host_slowdown": 1.0,
        "host_samples": 1,
        "peak_rss_mb": 30.0,
        "sim": sim,
        "setup": {"build_s": 0.1, "start_s": 0.1, "prepopulate_s": 0.1, "setup_s": 0.3},
    }
    report.update(over)
    return report


def test_end_to_end_names_and_units():
    assert list(run.END_TO_END.items()) == SPEC_END_TO_END
    runs = [_report(), _report(ops_per_wall_s=3.0, host_slowdown=2.0)]
    setups = [{"setup_s": s, "host_slowdown": 2.0} for s in (0.6, 0.4, 0.8)]
    rows = run._end_to_end(runs, setups)
    assert list(rows) == [name for name, _ in SPEC_END_TO_END]
    assert rows["setup_s"] == (0.3, "s", 3)
    assert rows["ops_per_wall_s"] == (2.0, "ops/s", 4)
    assert rows["ops_per_ref_s"] == (3.5, "ops/s", 4)


def test_per_layer_names():
    assert list(PER_LAYER) == SPEC_PER_LAYER
    traced = {"self_s": {}, "calls": {}, "s3_mb": 0.0, "rpc_timeouts": 0}
    assert list(layer_metrics(_report(), 1.0, traced)) == SPEC_PER_LAYER


def test_benchmark_json_uses_the_printed_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert list(e2e) == run.TRACKED
    assert all(run.END_TO_END[name] == unit for name, unit in e2e.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.SETUP_SAMPLES)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "kv_zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
