"""Layer entry points, public counters, and the per-layer metric table.

Layers are the ``src/repro/`` packages.  :func:`install` wraps each
layer's entry points (public methods, RPC handlers, background loops)
with a :class:`~tracer.Tracer`; :func:`public_counters` reads the
counters the program already keeps; :func:`layer_metrics` folds both,
plus the simulated cost fields the harness summed from public call
results, into the ``PER_LAYER`` names.
"""

from __future__ import annotations

import importlib

__all__ = ["PER_LAYER", "install", "public_counters", "layer_metrics"]

MB = 1024 * 1024

#: Every per-layer metric the traced run prints: name -> unit.
PER_LAYER: dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_op": "count",
    "sim.self_s": "s",
    "cluster.build_s": "s",
    "cluster.start_s": "s",
    "cluster.prepopulate_s": "s",
    "load.injected": "count",
    "load.shed": "count",
    "load.self_s": "s",
    "net.rpc_calls": "count",
    "net.rpc_timeouts": "count",
    "net.rpc_self_s": "s",
    "net.messages_lost": "count",
    "net.flows": "count",
    "net.flow_mb": "MB",
    "net.boundaries_per_flow": "count",
    "net.link_self_s": "s",
    "net.sim_inter_node_s": "s",
    "virt.transfers": "count",
    "virt.self_s": "s",
    "virt.sim_inter_domain_s": "s",
    "overlay.routes": "count",
    "overlay.route_cache_hit_ratio": "ratio",
    "overlay.stabilizer_rounds": "count",
    "overlay.self_s": "s",
    "kvstore.gets": "count",
    "kvstore.puts": "count",
    "kvstore.forwards_per_op": "count",
    "kvstore.cache_hit_ratio": "ratio",
    "kvstore.sim_lookup_ms": "ms",
    "kvstore.self_s": "s",
    "vstore.stores": "count",
    "vstore.fetches": "count",
    "vstore.deletes": "count",
    "vstore.local_serve_ratio": "ratio",
    "vstore.sim_placement_s": "s",
    "vstore.sim_metadata_s": "s",
    "vstore.self_s": "s",
    "vstore.stripe_chunks": "count",
    "vstore.stripe_spilled": "count",
    "monitoring.decisions": "count",
    "monitoring.snapshots_published": "count",
    "monitoring.sim_decision_s": "s",
    "monitoring.self_s": "s",
    "services.executions": "count",
    "services.offload_ratio": "ratio",
    "services.sim_execute_s": "s",
    "services.self_s": "s",
    "cloud.s3_puts": "count",
    "cloud.s3_gets": "count",
    "cloud.mb_moved": "MB",
    "cloud.sim_remote_s": "s",
    "cloud.self_s": "s",
    "resilience.attempts": "count",
    "resilience.retries": "count",
    "resilience.giveups": "count",
    "resilience.replicate_short": "count",
    "resilience.repair_scans": "count",
    "resilience.repair_actions": "count",
    "resilience.self_s": "s",
    "storage.wal_appends": "count",
    "storage.appends_per_write": "count",
    "storage.compactions": "count",
    "storage.fsyncs": "count",
    "storage.flushes": "count",
    "storage.self_s": "s",
    "telemetry.spans": "count",
    "telemetry.slo_evaluations": "count",
    "telemetry.alerts": "count",
    "telemetry.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}

#: (module, class, explicit entry points, tracer layer).  Every
#: ``_handle_*`` RPC handler a listed class defines is wrapped too.
ENTRY_POINTS: list[tuple[str, str, tuple[str, ...], str]] = [
    ("repro.load.driver", "OpenLoopDriver", ("_inject", "_one"), "load"),
    ("repro.net.rpc", "RpcEndpoint", ("call", "notify", "_on_message", "_serve"), "net.rpc"),
    ("repro.net.topology", "Network", ("send",), "net.rpc"),
    ("repro.net.topology", "Network", ("transfer",), "net.link"),
    ("repro.net.link", "Link", ("open_flow", "_on_boundary", "_abort_flow"), "net.link"),
    ("repro.virt.xensocket", "XenSocketChannel", ("transfer",), "virt"),
    ("repro.virt.splice", "TransferEngine", ("send",), "virt"),
    ("repro.virt.hypervisor", "Domain", ("execute",), "virt"),
    (
        "repro.overlay.node",
        "ChimeraNode",
        ("next_hop", "resolve", "nearest_peers", "closest_known", "successors",
         "start", "join", "leave", "seed_view"),
        "overlay",
    ),
    ("repro.overlay.stabilizer", "Stabilizer", ("stabilize_once",), "overlay"),
    (
        "repro.kvstore.store",
        "DhtKeyValueStore",
        ("put", "get", "get_record", "get_chain", "delete", "recover",
         "sync_with_peers", "_handled", "_on_node_joined", "_on_node_left"),
        "kvstore",
    ),
    (
        "repro.vstore.node",
        "VStoreNode",
        ("create_object", "store_object", "fetch_object", "fetch_range", "delete_object",
         "process", "process_pipeline", "fetch_process", "replicate_local", "recover"),
        "vstore",
    ),
    (
        "repro.vstore.client",
        "VStoreClient",
        ("create_object", "store_object", "fetch_object", "fetch_range", "process",
         "process_pipeline", "fetch_process", "delete_object", "store_file"),
        "vstore",
    ),
    ("repro.monitoring.decision", "DecisionEngine", ("decide",), "monitoring"),
    ("repro.monitoring.monitor", "ResourceMonitor", ("publish_once", "fetch", "_run"), "monitoring"),
    ("repro.monitoring.bandwidth", "BandwidthEstimator", ("observe_report",), "monitoring"),
    ("repro.services.base", "Service", ("execute",), "services"),
    ("repro.services.registry", "ServiceRegistry", ("register", "lookup"), "services"),
    ("repro.cloud.s3", "S3Store", ("put_object", "get_object", "delete_object"), "cloud"),
    ("repro.cloud.interface", "PublicCloudInterface", ("store_remote", "fetch_remote"), "cloud"),
    ("repro.cloud.ec2", "Ec2Instance", ("offload", "run_service"), "cloud"),
    ("repro.resilience.retry", "ResilientCaller", ("call",), "resilience"),
    ("repro.resilience.repair", "Repairer", ("scan_once", "repair_object", "_run"), "resilience"),
    (
        "repro.resilience.breaker",
        "BreakerRegistry",
        ("allow", "check", "record_success", "record_failure"),
        "resilience",
    ),
    ("repro.storage.wal", "WalStore", ("append", "compact", "replay", "crash"), "storage"),
    ("repro.storage.disk", "SimDiskStore", ("begin_flush", "commit_flush"), "storage"),
    ("repro.storage.disk", "StorageFlusher", ("_run",), "storage"),
    ("repro.telemetry.spans", "Telemetry", ("begin", "end", "event", "wrap"), "telemetry"),
    ("repro.telemetry.slo", "SloEngine", ("evaluate",), "telemetry"),
]


class _Sums:
    """Result-derived sums the wrappers' hooks accumulate."""

    def __init__(self) -> None:
        self.s3_mb = 0.0
        self.rpc_timeouts = 0

    def reset(self) -> None:
        self.__init__()


def install(tracer, extra: tuple = ()) -> _Sums:
    """Wrap every entry point in :data:`ENTRY_POINTS` (plus ``extra``
    ``(class, names, layer)`` triples, e.g. the harness's own client
    loops); returns the hook sums."""
    from repro.net.rpc import RpcTimeoutError

    sums = _Sums()

    def on_s3_put(result, args, kwargs):
        sums.s3_mb += (args[3] if len(args) > 3 else kwargs["nbytes"]) / MB

    def on_s3_get(result, args, kwargs):
        sums.s3_mb += result.nbytes / MB

    def on_rpc_call(event, args, kwargs):
        def settled(ev):
            if not ev.ok and isinstance(ev.value, RpcTimeoutError):
                sums.rpc_timeouts += 1

        if event.callbacks is not None:
            event.callbacks.append(settled)

    hooks = {
        "S3Store.put_object": on_s3_put,
        "S3Store.get_object": on_s3_get,
        "RpcEndpoint.call": on_rpc_call,
    }
    for module, cls_name, names, layer in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        handlers = sorted(n for n in vars(cls) if n.startswith("_handle_"))
        for name in (*names, *handlers):
            tracer.instrument(cls, [name], layer, hook=hooks.get(f"{cls_name}.{name}"))
    for cls, names, layer in extra:
        tracer.instrument(cls, names, layer)
    return sums


def _counter_sum(metrics, name: str) -> float:
    return sum(c.value for (n, _node), c in metrics.counter_items() if n == name)


def _links(network) -> list:
    """Every link of the fabric: the route's link between each pair of
    host groups (a link shared by several routes is listed once)."""
    from repro.net.errors import NoRouteError

    hosts: dict[str, str] = {}
    for host in network.hosts.values():
        hosts.setdefault(host.group, host.name)
    links: dict[int, object] = {}
    for src in hosts.values():
        for dst in hosts.values():
            try:
                link = network.route(src, dst).link
            except NoRouteError:
                continue
            links.setdefault(id(link), link)
    return list(links.values())


def public_counters(c4h) -> dict:
    """The program's own lifetime counters, summed over devices."""
    out: dict[str, float] = {
        "kv.gets": 0, "kv.puts": 0, "kv.deletes": 0, "kv.cache_hits": 0,
        "kv.forwards": 0, "kv.lookup_count": 0, "kv.lookup_time_total": 0.0,
        "overlay.routes_resolved": 0, "overlay.route_cache_hits": 0,
        "virt.xensocket_transfers": 0, "monitoring.decisions_made": 0,
        "monitoring.updates_published": 0, "storage.appends": 0,
        "storage.compactions": 0, "storage.fsyncs": 0, "storage.flushes": 0,
        "resilience.attempts": 0, "resilience.retries": 0, "resilience.giveups": 0,
        "resilience.repair_scans": 0, "resilience.repair_actions": 0,
    }
    for d in c4h.devices:
        st = d.kv.stats
        out["kv.gets"] += st.gets
        out["kv.puts"] += st.puts
        out["kv.deletes"] += st.deletes
        out["kv.cache_hits"] += st.cache_hits
        out["kv.forwards"] += st.forwards
        out["kv.lookup_count"] += st.lookup_count
        out["kv.lookup_time_total"] += st.lookup_time_total
        out["overlay.routes_resolved"] += d.chimera.routes_resolved
        out["overlay.route_cache_hits"] += d.chimera.route_cache_hits
        out["virt.xensocket_transfers"] += d.xensocket.transfers
        out["monitoring.decisions_made"] += d.decision.decisions_made
        out["monitoring.updates_published"] += d.monitor.updates_published
        if d.storage is not None:
            out["storage.appends"] += d.storage.appends
            out["storage.compactions"] += d.storage.compactions
            out["storage.fsyncs"] += getattr(d.storage, "fsyncs", 0)
        if d.flusher is not None:
            out["storage.flushes"] += d.flusher.flushes
        if d.caller is not None:
            out["resilience.attempts"] += d.caller.attempts
            out["resilience.retries"] += d.caller.retries
            out["resilience.giveups"] += d.caller.giveups
        if d.repairer is not None:
            out["resilience.repair_scans"] += d.repairer.scans
            out["resilience.repair_actions"] += len(d.repairer.repairs)
    metrics = c4h.metrics
    out["resilience.replicate_short"] = _counter_sum(metrics, "vstore.replicate.short")
    out["vstore.stripe_placed"] = _counter_sum(metrics, "stripe.store.placed")
    out["vstore.stripe_spilled"] = _counter_sum(metrics, "stripe.store.spilled")
    out["net.messages_lost"] = c4h.network.messages_lost
    out["net.messages_delivered"] = c4h.network.messages_delivered
    out["net.bytes_delivered"] = sum(link.bytes_delivered for link in _links(c4h.network))
    out["cloud.s3_puts"] = c4h.s3.puts
    out["cloud.s3_gets"] = c4h.s3.gets
    tel = c4h.sim.telemetry
    out["telemetry.spans"] = len(tel.spans) + tel.dropped if tel is not None else 0
    engine = c4h.slo_engine
    out["telemetry.slo_evaluations"] = engine.evaluations if engine is not None else 0
    out["telemetry.alerts"] = len(engine.alerts) if engine is not None else 0
    return out


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 where the layer did no work (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(run: dict, base_wall_s: float, traced: dict) -> dict:
    """Per-layer metrics for one workload.

    ``run`` is the traced run's report (counter deltas over the timed
    region, result-field sums, tracer totals), ``base_wall_s`` the
    untraced run's timed wall, ``traced`` the tracer block.
    """
    c = run["counters"]
    costs = run["costs"]
    counts = run["counts"]
    selfs = traced["self_s"]
    calls = traced["calls"]
    ops = run["ops"]
    # Layer self times cover the whole drive, including a stalled
    # kernel's spin after the last completion.
    wall = run["drive_wall_s"]
    kv_ops = c["kv.gets"] + c["kv.puts"] + c["kv.deletes"]
    flows = calls.get("Link.open_flow", 0)
    routes = calls.get("ChimeraNode.next_hop", 0)
    attributed = sum(selfs.values())
    sim_self = wall - attributed
    m = {
        "sim.events": run["events"],
        "sim.events_per_op": _ratio(run["events"], ops["attempted"]),
        "sim.self_s": sim_self,
        "cluster.build_s": run["setup"]["build_s"],
        "cluster.start_s": run["setup"]["start_s"],
        "cluster.prepopulate_s": run["setup"]["prepopulate_s"],
        "load.injected": counts.get("injected", 0),
        "load.shed": counts.get("shed", 0),
        "load.self_s": selfs.get("load", 0.0),
        "net.rpc_calls": calls.get("RpcEndpoint.call", 0),
        "net.rpc_timeouts": traced["rpc_timeouts"],
        "net.rpc_self_s": selfs.get("net.rpc", 0.0),
        "net.messages_lost": c["net.messages_lost"],
        "net.flows": flows,
        "net.flow_mb": c["net.bytes_delivered"] / MB,
        "net.boundaries_per_flow": _ratio(calls.get("Link._on_boundary", 0), flows),
        "net.link_self_s": selfs.get("net.link", 0.0),
        "net.sim_inter_node_s": costs.get("inter_node_s", 0.0),
        "virt.transfers": c["virt.xensocket_transfers"],
        "virt.self_s": selfs.get("virt", 0.0),
        "virt.sim_inter_domain_s": costs.get("inter_domain_s", 0.0),
        "overlay.routes": routes,
        "overlay.route_cache_hit_ratio": _ratio(c["overlay.route_cache_hits"], routes),
        "overlay.stabilizer_rounds": calls.get("Stabilizer.stabilize_once", 0),
        "overlay.self_s": selfs.get("overlay", 0.0),
        "kvstore.gets": c["kv.gets"],
        "kvstore.puts": c["kv.puts"],
        "kvstore.forwards_per_op": _ratio(c["kv.forwards"], kv_ops),
        "kvstore.cache_hit_ratio": _ratio(c["kv.cache_hits"], c["kv.gets"]),
        "kvstore.sim_lookup_ms": 1000.0 * _ratio(c["kv.lookup_time_total"], c["kv.lookup_count"]),
        "kvstore.self_s": selfs.get("kvstore", 0.0),
        "vstore.stores": calls.get("VStoreNode.store_object", 0),
        "vstore.fetches": calls.get("VStoreNode.fetch_object", 0),
        "vstore.deletes": calls.get("VStoreNode.delete_object", 0),
        "vstore.local_serve_ratio": _ratio(counts.get("fetches_local", 0), counts.get("fetches", 0)),
        "vstore.sim_placement_s": costs.get("placement_s", 0.0),
        "vstore.sim_metadata_s": costs.get("metadata_s", 0.0),
        "vstore.self_s": selfs.get("vstore", 0.0),
        "vstore.stripe_chunks": c["vstore.stripe_placed"] + c["vstore.stripe_spilled"],
        "vstore.stripe_spilled": c["vstore.stripe_spilled"],
        "monitoring.decisions": c["monitoring.decisions_made"],
        "monitoring.snapshots_published": c["monitoring.updates_published"],
        "monitoring.sim_decision_s": costs.get("decision_s", 0.0),
        "monitoring.self_s": selfs.get("monitoring", 0.0),
        "services.executions": calls.get("Service.execute", 0),
        "services.offload_ratio": _ratio(counts.get("offloaded", 0), counts.get("processed", 0)),
        "services.sim_execute_s": costs.get("execute_s", 0.0),
        "services.self_s": selfs.get("services", 0.0),
        "cloud.s3_puts": c["cloud.s3_puts"],
        "cloud.s3_gets": c["cloud.s3_gets"],
        "cloud.mb_moved": traced["s3_mb"],
        "cloud.sim_remote_s": costs.get("remote_cloud_s", 0.0),
        "cloud.self_s": selfs.get("cloud", 0.0),
        "resilience.attempts": c["resilience.attempts"],
        "resilience.retries": c["resilience.retries"],
        "resilience.giveups": c["resilience.giveups"],
        "resilience.replicate_short": c["resilience.replicate_short"],
        "resilience.repair_scans": c["resilience.repair_scans"],
        "resilience.repair_actions": c["resilience.repair_actions"],
        "resilience.self_s": selfs.get("resilience", 0.0),
        "storage.wal_appends": c["storage.appends"],
        "storage.appends_per_write": _ratio(c["storage.appends"], ops["writes"]),
        "storage.compactions": c["storage.compactions"],
        "storage.fsyncs": c["storage.fsyncs"],
        "storage.flushes": c["storage.flushes"],
        "storage.self_s": selfs.get("storage", 0.0),
        "telemetry.spans": c["telemetry.spans"],
        "telemetry.slo_evaluations": c["telemetry.slo_evaluations"],
        "telemetry.alerts": c["telemetry.alerts"],
        "telemetry.self_s": selfs.get("telemetry", 0.0),
        "trace.overhead_ratio": _ratio(run["timed_wall_s"], base_wall_s),
        "trace.unattributed_share": _ratio(sim_self, wall),
    }
    assert list(m) == list(PER_LAYER), "metric table out of sync"
    return m
