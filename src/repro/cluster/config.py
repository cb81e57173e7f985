"""Configuration for assembling a Cloud4Home deployment.

Defaults reproduce the paper's testbed (Section V): five dual-core
1.66 GHz Atom netbooks plus a 2.3 GHz quad-core desktop on a 95.5 Mbps
Ethernet LAN, reaching Amazon EC2/S3 over a wireless uplink with
~6.5 Mbps download / ~4.5 Mbps upload maxima and ~1.5 Mbps averages.
The WAN TCP parameters (window cap ≈1.6 MB, ISP traffic shaping of
long transfers) are the ones behind Figure 5's optimum object size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "WanConfig",
    "LanConfig",
    "DeviceConfig",
    "ResilienceConfig",
    "StripingConfig",
    "SloConfig",
    "StorageConfig",
    "ClusterConfig",
]

MB = 1024 * 1024

#: The settable values of ``ClusterConfig.storage``.
STORAGE_KINDS = ("mem", "wal", "disk")


@dataclass
class LanConfig:
    """The home Ethernet segment."""

    bandwidth_mbps: float = 95.5
    latency_s: float = 0.0008
    jitter: float = 0.15
    #: Effective per-flow TCP throughput on commodity devices; Table I's
    #: inter-node column implies ≈8 MB/s for a single stream.
    flow_cap_mb_s: float = 8.0


@dataclass
class WanConfig:
    """The path between the home and the remote public cloud."""

    latency_s: float = 0.045
    jitter: float = 0.35
    #: Aggregate link capacity in each direction, MB/s.
    down_capacity_mb_s: float = 2.6
    up_capacity_mb_s: float = 1.8
    #: Per-transfer achievable throughput (lognormal), MB/s — the
    #: wireless variability behind Figure 4's error bars.
    down_flow_mean_mb_s: float = 1.5
    up_flow_mean_mb_s: float = 1.0
    flow_sigma: float = 0.30
    #: TCP behaviour: S3's window cap and slow start.
    tcp_rtt_s: float = 0.15
    tcp_init_window: int = 4 * 1024
    tcp_max_window: int = int(1.6 * MB)
    #: ISP traffic shaping of long, bandwidth-hogging transfers.
    shaping_after_s: float = 15.0
    shaped_down_mb_s: float = 0.80
    shaped_up_mb_s: float = 0.50
    #: Per-request S3 overhead (auth + HTTP), seconds.
    s3_request_overhead_s: float = 0.08


@dataclass
class DeviceConfig:
    """One home device and its domain layout."""

    name: str
    profile_name: str = "atom-netbook"  # key into repro.virt profiles
    guest_mem_mb: float = 512.0
    guest_vcpus: int = 1
    mandatory_mb: float = 4096.0
    voluntary_mb: float = 8192.0
    battery: float | None = 0.8  # None = mains powered
    xensocket_page_size: int = 4 * 1024
    xensocket_page_count: int = 32


def default_devices() -> list[DeviceConfig]:
    """The paper's testbed: 5 Atom netbooks + 1 quad desktop."""
    devices = [
        DeviceConfig(name=f"netbook{i}", profile_name="atom-netbook")
        for i in range(5)
    ]
    devices.append(
        DeviceConfig(
            name="desktop",
            profile_name="quad-desktop",
            guest_mem_mb=1024.0,
            guest_vcpus=4,
            battery=None,
        )
    )
    return devices


@dataclass
class ResilienceConfig:
    """Tuning for the resilience layer.

    Only read when ``ClusterConfig.resilience`` is on; the defaults are
    sized for the paper's testbed (5 s monitor period, 600 s worst-case
    fetch timeout).
    """

    #: Retry policy around every peer RPC.
    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    #: Per-operation deadline budget (attempts + backoffs).  Must exceed
    #: the longest single-RPC timeout on the data path — fetches allow
    #: 600 s — or legitimate large transfers would be cut short.
    deadline_s: float = 900.0
    #: Circuit breaker: consecutive failures before opening, and how
    #: long an open breaker refuses calls before half-opening.
    failure_threshold: int = 3
    breaker_cooldown_s: float = 15.0
    #: Backstop period of each node's payload-repair sweeps.  Sweeps
    #: run when a peer looks failed or returned (the failure detector,
    #: overlay membership, an opened breaker, a fetch failover, a
    #: revive); this periodic one, ``repair_period_s`` after the last
    #: one ended, catches loss that nothing reports, such as a disk
    #: crash that drops unsynced appends.
    repair_period_s: float = 300.0
    #: Decision-engine freshness TTL: candidates whose published
    #: snapshot is older than this are treated as dead.  Six monitor
    #: periods of slack by default.
    freshness_ttl_s: float = 30.0


@dataclass
class StripingConfig:
    """Tuning for erasure-coded striping.

    Only read when ``ClusterConfig.striping`` is on.  The (4, 2)
    default matches the resilience layer's 2-failure tolerance
    (``data_replicas=2``) at half its storage overhead: 1.5x stored
    bytes per logical byte instead of 3.0x.
    """

    #: Data chunks per object — reads parallelize k ways.
    stripe_k: int = 4
    #: Parity chunks per object — up to m holders may fail.
    stripe_m: int = 2
    #: Objects below this size keep the replication path (chunking a
    #: tiny object trades one RPC for k+m of them with no bandwidth win).
    min_object_mb: float = 4.0
    #: Erasure encode/decode throughput, MB of logical data per second.
    codec_mb_s: float = 400.0


@dataclass
class SloConfig:
    """Tuning for the active observability layer.

    Only read when ``ClusterConfig.slo`` is on.  Window geometry
    applies to every windowed rollup the telemetry plane mints; the SLO
    engine evaluates once per ``eval_period_s`` of simulated time.
    """

    #: Sliding-window span for every windowed instrument, seconds.
    window_s: float = 60.0
    #: Ring granularity: rotation happens every window_s / sub_windows.
    sub_windows: int = 6
    #: Simulated period of the background SLO evaluator process.
    eval_period_s: float = 10.0
    #: Objectives to enforce; None selects
    #: :func:`repro.telemetry.slo.default_slo_specs`.
    specs: list | None = None
    #: Health scoreboard: the reference latency metric/target and the
    #: repair-pressure window (freshness TTL comes from
    #: ``ResilienceConfig.freshness_ttl_s``).
    health_latency_metric: str = "kv.get"
    health_latency_target_s: float = 2.0
    health_repair_window_s: float = 60.0
    #: Flight recorder: per-node ring capacity, and where firing alerts
    #: drop their dump artifacts (None = keep dumps in memory only).
    recorder_capacity: int = 256
    recorder_dump_dir: str | None = None


@dataclass
class StorageConfig:
    """Tuning for the durable storage backends.

    The cost-model fields apply to the ``"disk"`` backend only; WAL
    geometry applies to both ``"wal"`` and ``"disk"``; the anti-entropy
    fanout applies to every node.
    """

    #: Fold the WAL into the compacted snapshot every N entries.
    snapshot_every: int = 256
    #: Disk cost model: sequential journal write bandwidth, MB/s.
    write_mb_s: float = 40.0
    #: Disk cost model: per-fsync latency, seconds.
    fsync_s: float = 0.005
    #: Period of the background flusher that makes appends durable.
    fsync_interval_s: float = 0.25
    #: Disk cost model: replay read bandwidth, MB/s.
    replay_mb_s: float = 80.0
    #: Multiplicative latency jitter on flush/replay costs.
    jitter: float = 0.10
    #: Ring neighbours contacted per anti-entropy round after a
    #: revive or a heal (0 = derive from the KV replication factor).
    anti_entropy_peers: int = 0


@dataclass
class ClusterConfig:
    """Everything needed to build a Cloud4Home deployment."""

    devices: list[DeviceConfig] = field(default_factory=default_devices)
    lan: LanConfig = field(default_factory=LanConfig)
    wan: WanConfig = field(default_factory=WanConfig)
    seed: int = 0
    replication_factor: int = 2
    cache_enabled: bool = True
    leaf_size: int = 4
    monitor_period_s: float = 5.0
    with_ec2: bool = True
    ec2_instances: int = 1
    #: When set, all public-cloud traffic relays through this device
    #: ("the public cloud interactions are performed only via some
    #: subset of designated nodes", Section III-C).
    cloud_gateway: str | None = None
    #: Attach the :mod:`repro.telemetry` plane (causal spans + metrics
    #: registry) to the deployment's simulator.  Off by default: with
    #: telemetry disabled every instrumented layer skips emission behind
    #: a single ``is not None`` check, each RPC's ``Request.ctx`` header
    #: stays None (no body carries span context, on or off), and
    #: simulated results are byte-identical to a build without the
    #: subsystem.
    telemetry: bool = False
    #: Scatter-gather placement decisions: ``chimeraGetDecision`` issues
    #: all k candidate snapshot lookups concurrently and joins them, so
    #: a decision's simulated latency is roughly the max of the k
    #: lookups instead of their sum.  Concurrent lookups overlap on the
    #: links, which *changes simulated timing*, so the flag defaults to
    #: off and has its own golden tests; the ranking produced is
    #: identical in both modes.
    parallel_decision: bool = False
    #: Resilience layer (repro.resilience): retries with deadlines and
    #: circuit breakers on every peer RPC, k-way payload replication at
    #: store time with fetch failover, health-aware decision filtering,
    #: and a background payload repairer per node.  Off by default:
    #: with it off no retry/breaker/replication code runs and simulated
    #: results are byte-identical to a build without the subsystem.
    resilience: bool = False
    #: Extra payload copies per object when ``resilience`` is on.
    data_replicas: int = 2
    #: Tuning knobs for the resilience layer.
    resilience_tuning: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: Erasure-coded striping (repro.vstore.striping): qualifying
    #: objects split into (k, m) chunks scattered across distinct
    #: holders; fetches run as first-k-of-(k+m) parallel scatter-gather
    #: and tolerate up to m lost holders at m/k storage overhead.  Off
    #: by default: with it off no striping code runs on any store or
    #: fetch path and simulated results are byte-identical to a build
    #: without the subsystem.
    striping: bool = False
    #: Tuning knobs for erasure-coded striping.
    striping_tuning: StripingConfig = field(default_factory=StripingConfig)
    #: The active observability layer (repro.telemetry.slo / health /
    #: recorder): declarative SLOs evaluated periodically over the
    #: windowed rollups (repro.telemetry.timeseries) of the span names
    #: they judge, with firing/resolved alerts, a per-node health
    #: scoreboard, and per-node flight recorders.  Implies
    #: ``telemetry``.  Off by default: nothing is built and no windowed
    #: instrument is allocated, and simulated results are byte-identical.  Enabled, the evaluator
    #: tick is pure observation (no shared randomness, no simulated
    #: resources), so workload results stay identical too — asserted in
    #: ``benchmarks/perf/slo_bench.py``.
    slo: bool = False
    #: Tuning knobs for windows, SLO evaluation, health, and recorders.
    slo_tuning: SloConfig = field(default_factory=SloConfig)
    #: Scale construction: instead of the sequential protocol join
    #: (O(N²) messages — minutes of wall clock past ~1k devices), the
    #: builder computes each node's Pastry-correct partial view (leaf
    #: set + routing table) directly from the sorted id list and
    #: installs it in O(N log N) total.  No protocol traffic is emitted
    #: and no simulated time elapses, so it is only valid for bringing
    #: up a *fresh* overlay (which is exactly what the scale benches
    #: do).  Off by default: the default path stays the paper-faithful
    #: protocol join.
    fast_join: bool = False
    #: Per-node route-cache entry cap (LRU).  Lower it for 10k-node
    #: runs where per-node memory dominates.
    route_cache_max: int = 4096
    #: What survives a crash (repro.storage).  Every node keeps delete
    #: tombstones, loses its RAM on a crash and reconciles with its
    #: ring neighbours on a revive or heal; this picks the backend:
    #: ``"mem"`` (volatile, no backend object: the node rejoins
    #: empty), ``"wal"`` (append-only journal with snapshot+compaction;
    #: every KV/bin mutation is durable instantly and replayed on
    #: revive), or ``"disk"`` (WAL plus a seeded disk cost model:
    #: interval fsync via a background flusher, un-synced appends lost
    #: on crash, replay latency charged through the event kernel).
    storage: str = "mem"
    #: Tuning knobs for the storage backends and anti-entropy.
    storage_tuning: StorageConfig = field(default_factory=StorageConfig)
