"""Assembly of a complete Cloud4Home deployment.

:class:`Cloud4Home` wires every layer of the reproduction together the
way the prototype deployment did: per-device hypervisors with a dom0
and a guest domain joined by a XenSocket channel, a Chimera overlay
with the DHT key-value store, resource monitors, service registries,
the VStore++ node and client, a home LAN, and the WAN path to the
simulated S3/EC2 cloud.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from repro.cloud import Ec2Instance, PublicCloudInterface, S3Store
from repro.kvstore import DhtKeyValueStore
from repro.monitoring import (
    BandwidthEstimator,
    DecisionEngine,
    FileSystemWatcher,
    ResourceMonitor,
    ResourceSnapshot,
)
from repro.net import Link, Network, Route, TcpProfile
from repro.overlay import ID_DIGITS, ChimeraNode, PeerInfo
from repro.resilience import (
    BreakerRegistry,
    FailureDetector,
    Repairer,
    ResilientCaller,
    RetryPolicy,
)
from repro.services import Service, ServiceRegistry
from repro.sim import RandomSource, Simulator
from repro.storage import SimDiskStore, StorageFlusher, make_store
from repro.telemetry import (
    HealthBoard,
    MetricsRegistry,
    RecorderHub,
    SloEngine,
    SloEvaluator,
    Telemetry,
    WindowPolicy,
    default_slo_specs,
)
from repro.virt import (
    ATOM_NETBOOK,
    ATOM_S1,
    EC2_XL,
    QUAD_DESKTOP,
    QUAD_S2,
    DeviceProfile,
    Domain,
    Hypervisor,
    TransferEngine,
    XenSocketChannel,
)
from repro.vstore import StripeCodec, StripingPolicy, VStoreClient, VStoreNode
from repro.cluster.config import STORAGE_KINDS, ClusterConfig, DeviceConfig

__all__ = ["Device", "Cloud4Home", "PROFILES"]

MB = 1024 * 1024

PROFILES: dict[str, DeviceProfile] = {
    "atom-netbook": ATOM_NETBOOK,
    "quad-desktop": QUAD_DESKTOP,
    "atom-s1": ATOM_S1,
    "quad-s2": QUAD_S2,
    "ec2-xl": EC2_XL,
}


@dataclass
class Device:
    """One fully assembled home device."""

    config: DeviceConfig
    profile: DeviceProfile
    hypervisor: Hypervisor
    dom0: Domain
    guest: Domain
    xensocket: XenSocketChannel
    chimera: ChimeraNode
    kv: DhtKeyValueStore
    registry: ServiceRegistry
    watcher: FileSystemWatcher
    monitor: ResourceMonitor
    decision: DecisionEngine
    bandwidth: BandwidthEstimator
    cloud: PublicCloudInterface
    vstore: VStoreNode
    client: VStoreClient
    #: Resilience layer (None when ``ClusterConfig.resilience`` is off).
    breakers: Optional[BreakerRegistry] = None
    caller: Optional[ResilientCaller] = None
    repairer: Optional[Repairer] = None
    #: Evicts crashed peers and triggers the repairer; checks on each
    #: monitor tick (resilience on only).
    detector: Optional[FailureDetector] = None
    #: Durable storage backend (None when ``ClusterConfig.storage`` is
    #: ``"mem"``) and its background flusher (``"disk"`` backend only).
    storage: Optional[object] = None
    flusher: Optional[StorageFlusher] = None

    @property
    def name(self) -> str:
        return self.config.name


def _lognormal_sampler(mean_mb_s: float, sigma: float, cap_mb_s: float):
    """Per-transfer bandwidth sampler: lognormal with the given mean,
    clipped to the direction's physical maximum."""
    # For a lognormal, mean = exp(mu + sigma^2/2).
    mu = math.log(mean_mb_s * MB) - sigma * sigma / 2.0

    def sample(rng: RandomSource) -> float:
        return min(rng.lognormal(mu, sigma), cap_mb_s * MB)

    return sample


class Cloud4Home:
    """A running Cloud4Home deployment (home cloud + remote cloud).

    Passing an existing ``network`` (and optionally a shared ``s3``)
    places this home on a shared fabric — the basis for federating
    multiple Cloud4Home infrastructures (Section VII (v)).
    ``home_group`` names this home's location group on that fabric.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        network: Optional[Network] = None,
        s3: Optional[S3Store] = None,
        home_group: str = "home",
    ) -> None:
        self.config = config or ClusterConfig()
        if self.config.storage not in STORAGE_KINDS:
            raise ValueError(
                f"ClusterConfig.storage must be one of "
                f"{', '.join(map(repr, STORAGE_KINDS))}, "
                f"not {self.config.storage!r}"
            )
        self.home_group = home_group
        if network is None:
            self.sim = Simulator()
            self.rng = RandomSource(self.config.seed)
            self.network = Network(self.sim, self.rng)
        else:
            self.network = network
            self.sim = network.sim
            self.rng = RandomSource(self.config.seed).fork(home_group)
        slo = self.config.slo
        if (self.config.telemetry or slo) and self.sim.telemetry is None:
            # Federated homes on a shared fabric inherit the simulator's
            # already-attached plane instead of replacing it, so one
            # span/metric store covers the whole federation.
            windowed = self._window_policy() if slo else None
            # With SLOs on, spans are kept only as far back as the
            # flight recorders can dump them.
            max_spans = (
                self.config.slo_tuning.recorder_capacity * len(self.config.devices)
                if slo
                else None
            )
            Telemetry(self.sim, max_spans=max_spans, windowed=windowed).attach()
        elif slo and self.sim.telemetry.windowed is None:
            # Joining a federation whose plane predates this home's
            # windowed request: upgrade the shared plane in place.
            self.sim.telemetry.windowed = self._window_policy()
        #: Shared metrics plane for this deployment.  With telemetry
        #: attached this is the plane's own registry, so span latency
        #: histograms and ingested KV counters land in one place.
        self.metrics = (
            self.sim.telemetry.metrics
            if self.sim.telemetry is not None
            else MetricsRegistry()
        )
        self._build_fabric()
        self.s3 = s3 or S3Store(
            self.network,
            request_overhead_s=self.config.wan.s3_request_overhead_s,
        )
        self.ec2: list[Ec2Instance] = []
        if self.config.with_ec2:
            for i in range(self.config.ec2_instances):
                name = f"ec2-xl-{i}" if home_group == "home" else f"{home_group}-ec2-{i}"
                self.ec2.append(Ec2Instance(self.network, name=name))
        self.devices: list[Device] = [
            self._build_device(dc) for dc in self.config.devices
        ]
        self._by_name: dict[str, Device] = {d.name: d for d in self.devices}
        #: Active observability layer (None unless ``config.slo``).
        self.slo_engine: Optional[SloEngine] = None
        self.health: Optional[HealthBoard] = None
        self.recorders: Optional[RecorderHub] = None
        self._slo_evaluator: Optional[SloEvaluator] = None
        if self.config.slo:
            self._build_slo_layer()
        self._started = False

    # -- fabric -----------------------------------------------------------

    def _build_fabric(self) -> None:
        lan = self.config.lan
        wan = self.config.wan
        lan_link = Link(
            self.sim,
            bandwidth=lan.bandwidth_mbps * 1e6 / 8,
            name=f"{self.home_group}-lan",
        )
        self.lan_link = lan_link
        self.network.connect_groups(
            self.home_group,
            self.home_group,
            Route(
                lan_link,
                base_latency=lan.latency_s,
                jitter=lan.jitter,
                cap_sampler=lambda rng: lan.flow_cap_mb_s * MB,
            ),
        )
        up_tcp = TcpProfile(
            rtt=wan.tcp_rtt_s,
            init_window=wan.tcp_init_window,
            max_window=wan.tcp_max_window,
            shaping_after_s=wan.shaping_after_s,
            shaped_rate=wan.shaped_up_mb_s * MB,
        )
        down_tcp = TcpProfile(
            rtt=wan.tcp_rtt_s,
            init_window=wan.tcp_init_window,
            max_window=wan.tcp_max_window,
            shaping_after_s=wan.shaping_after_s,
            shaped_rate=wan.shaped_down_mb_s * MB,
        )
        self.uplink = Link(
            self.sim,
            bandwidth=wan.up_capacity_mb_s * MB,
            name=f"{self.home_group}-uplink",
        )
        self.downlink = Link(
            self.sim,
            bandwidth=wan.down_capacity_mb_s * MB,
            name=f"{self.home_group}-downlink",
        )
        self._up_tcp = up_tcp
        self._down_tcp = down_tcp
        self._up_sampler = _lognormal_sampler(
            wan.up_flow_mean_mb_s, wan.flow_sigma, wan.up_capacity_mb_s
        )
        self.network.connect_groups(
            self.home_group,
            "cloud",
            Route(
                self.uplink,
                base_latency=wan.latency_s,
                jitter=wan.jitter,
                tcp=up_tcp,
                cap_sampler=_lognormal_sampler(
                    wan.up_flow_mean_mb_s, wan.flow_sigma, wan.up_capacity_mb_s
                ),
            ),
        )
        self.network.connect_groups(
            "cloud",
            self.home_group,
            Route(
                self.downlink,
                base_latency=wan.latency_s,
                jitter=wan.jitter,
                tcp=down_tcp,
                cap_sampler=_lognormal_sampler(
                    wan.down_flow_mean_mb_s, wan.flow_sigma, wan.down_capacity_mb_s
                ),
            ),
        )
        # Cloud-internal traffic (S3 <-> EC2) is fast and flat.
        cloud_link = Link(self.sim, bandwidth=200 * MB, name="cloud-internal")
        self.network.connect_groups(
            "cloud", "cloud", Route(cloud_link, base_latency=0.002)
        )

    # -- devices ------------------------------------------------------------

    def _build_device(self, dc: DeviceConfig) -> Device:
        profile = PROFILES[dc.profile_name]
        host = self.network.add_host(dc.name, group=self.home_group)
        hypervisor = Hypervisor(self.sim, profile)
        guest = hypervisor.create_domain(
            f"{dc.name}-guest", vcpus=dc.guest_vcpus, mem_mb=dc.guest_mem_mb
        )
        dom0 = hypervisor.create_domain(
            f"{dc.name}-dom0",
            vcpus=profile.cpu_cores,
            mem_mb=hypervisor.free_mem_mb(),
            is_control=True,
        )
        xensocket = XenSocketChannel(
            self.sim,
            page_size=dc.xensocket_page_size,
            page_count=dc.xensocket_page_count,
        )
        xensocket.owner = dc.name
        chimera = ChimeraNode(
            self.network,
            host,
            leaf_size=self.config.leaf_size,
            route_cache_max=self.config.route_cache_max,
        )
        storage = None
        flusher = None
        if self.config.storage != "mem":
            st = self.config.storage_tuning
            storage = make_store(
                self.config.storage,
                node=dc.name,
                metrics=self.metrics,
                snapshot_every=st.snapshot_every,
                write_mb_s=st.write_mb_s,
                fsync_s=st.fsync_s,
                replay_mb_s=st.replay_mb_s,
                jitter=st.jitter,
                rng=self.rng.fork(f"storage:{dc.name}"),
            )
            if isinstance(storage, SimDiskStore):
                flusher = StorageFlusher(
                    self.sim, storage, period_s=st.fsync_interval_s
                )
        kv = DhtKeyValueStore(
            chimera,
            replication_factor=self.config.replication_factor,
            cache_enabled=self.config.cache_enabled,
            storage=storage,
        )
        registry = ServiceRegistry(kv)
        res = self.config.resilience_tuning if self.config.resilience else None
        breakers = None
        caller = None
        if res is not None:
            breakers = BreakerRegistry(
                failure_threshold=res.failure_threshold,
                cooldown_s=res.breaker_cooldown_s,
                metrics=self.metrics,
                node=dc.name,
            )
            caller = ResilientCaller(
                chimera.endpoint,
                policy=RetryPolicy(
                    max_attempts=res.max_attempts,
                    base_delay_s=res.base_delay_s,
                    multiplier=res.multiplier,
                    max_delay_s=res.max_delay_s,
                    jitter=res.jitter,
                    deadline_s=res.deadline_s,
                ),
                rng=self.rng.fork(f"retry:{dc.name}"),
                breakers=breakers,
                metrics=self.metrics,
                node=dc.name,
            )
        decision = DecisionEngine(
            chimera,
            kv,
            parallel=self.config.parallel_decision,
            freshness_ttl_s=res.freshness_ttl_s if res is not None else None,
            breakers=breakers,
        )
        bandwidth = BandwidthEstimator(
            default_mbps=self.config.lan.bandwidth_mbps,
            metrics=self.metrics,
            node=dc.name,
        )
        transfer = TransferEngine(
            self.network, zero_copy=True, observer=bandwidth.observe_report
        )
        cloud = PublicCloudInterface(
            self.network, dc.name, self.s3, gateway=self.config.cloud_gateway
        )
        striping = None
        if self.config.striping:
            st = self.config.striping_tuning
            striping = StripingPolicy(
                codec=StripeCodec(st.stripe_k, st.stripe_m),
                min_object_mb=st.min_object_mb,
                codec_mb_s=st.codec_mb_s,
            )
        vstore = VStoreNode(
            chimera=chimera,
            kv=kv,
            registry=registry,
            decision=decision,
            transfer=transfer,
            mandatory_mb=dc.mandatory_mb,
            voluntary_mb=dc.voluntary_mb,
            guest_domain=guest,
            dom0_domain=dom0,
            xensocket=xensocket,
            cloud=cloud,
            ec2=self.ec2[0] if self.ec2 else None,
            disk_mb_s=profile.disk_mb_s,
            caller=caller,
            data_replicas=self.config.data_replicas if res is not None else 0,
            striping=striping,
            metrics=self.metrics,
            storage=storage,
        )
        repairer = None
        if res is not None:
            repairer = Repairer(
                vstore,
                data_replicas=self.config.data_replicas,
                period_s=res.repair_period_s,
                caller=caller,
                metrics=self.metrics,
                track_lost=storage is not None,
            )
        watcher = FileSystemWatcher(vstore.mandatory, vstore.voluntary)

        def sampler(
            dc=dc, profile=profile, hypervisor=hypervisor, guest=guest, watcher=watcher
        ) -> ResourceSnapshot:
            return ResourceSnapshot(
                node=dc.name,
                device_type=profile.name,
                vcpus=dc.guest_vcpus,
                cpu_cores=profile.cpu_cores,
                cpu_ghz=profile.cpu_ghz,
                cpu_load=hypervisor.instantaneous_load(),
                mem_total_mb=profile.mem_mb,
                # The guest VM's allocation bounds what services see.
                mem_free_mb=guest.mem_mb,
                mandatory_free_mb=watcher.mandatory_free_mb(),
                voluntary_free_mb=watcher.voluntary_free_mb(),
                # Adaptive: observed throughput once transfers happened,
                # the nominal LAN figure before that.
                bandwidth_mbps=bandwidth.overall_mbps(),
                battery=dc.battery,
                taken_at=self.sim.now,
            )

        vstore.snapshot_fn = sampler
        monitor = ResourceMonitor(kv, sampler, period_s=self.config.monitor_period_s)
        detector = None
        if repairer is not None:
            detector = FailureDetector(
                kv, (d.name for d in self.config.devices), monitor.period_s
            )
            detector.on_suspect.append(repairer.trigger)
            monitor.on_tick = [detector.check_once]
        client = VStoreClient(vstore)
        return Device(
            config=dc,
            profile=profile,
            hypervisor=hypervisor,
            dom0=dom0,
            guest=guest,
            xensocket=xensocket,
            chimera=chimera,
            kv=kv,
            registry=registry,
            watcher=watcher,
            monitor=monitor,
            decision=decision,
            bandwidth=bandwidth,
            cloud=cloud,
            vstore=vstore,
            client=client,
            breakers=breakers,
            caller=caller,
            repairer=repairer,
            detector=detector,
            storage=storage,
            flusher=flusher,
        )

    # -- observability ----------------------------------------------------------

    def _slo_specs(self) -> list:
        tuning = self.config.slo_tuning
        return (
            tuning.specs
            if tuning.specs is not None
            else default_slo_specs(window_s=tuning.window_s)
        )

    def _window_policy(self) -> WindowPolicy:
        """The windowed-rollup shape for this home's telemetry plane.

        The per-span feed is scoped to the metrics the SLO engine and
        health board actually judge — every other span then costs one
        set-membership test instead of a ring write, which is what
        keeps the active layer inside its overhead budget
        (``benchmarks/perf/slo_bench.py``).
        """
        tuning = self.config.slo_tuning
        names = frozenset(
            {spec.metric for spec in self._slo_specs()} | {tuning.health_latency_metric}
        )
        return WindowPolicy(
            window_s=tuning.window_s, sub_windows=tuning.sub_windows, names=names
        )

    def _build_slo_layer(self) -> None:
        """SLO engine + health scoreboard + flight recorders (slo on)."""
        tuning = self.config.slo_tuning
        specs = self._slo_specs()
        self.slo_engine = SloEngine(
            self.metrics, specs, telemetry=self.sim.telemetry, node=self.home_group
        )
        res = self.config.resilience_tuning
        self.health = HealthBoard(
            self.metrics,
            latency_metric=tuning.health_latency_metric,
            latency_target_s=tuning.health_latency_target_s,
            repair_window_s=tuning.health_repair_window_s,
            freshness_ttl_s=res.freshness_ttl_s,
        )
        self.recorders = RecorderHub(
            telemetry=self.sim.telemetry,
            metrics=self.metrics,
            capacity=tuning.recorder_capacity,
            dump_dir=tuning.recorder_dump_dir,
        )
        self.slo_engine.on_alert(self.recorders.alert_hook)
        for device in self.devices:
            self.health.attach_node(
                device.name,
                breakers=device.breakers,
                repairer=device.repairer,
                monitor=device.monitor,
            )
        self._slo_evaluator = SloEvaluator(
            self.sim, self.slo_engine, period_s=tuning.eval_period_s
        )

    @property
    def telemetry(self):
        """The attached :class:`repro.telemetry.Telemetry` plane, or
        None when the deployment runs untraced (the default)."""
        return self.sim.telemetry

    def collect_metrics(self) -> MetricsRegistry:
        """Fold the deployment's state readings into the metrics registry
        and return it.

        Sets each device's KV totals (``kv.*``, from its stats), its
        average core load since boot (``device.load``), and each home
        link's share of capacity used since time zero
        (``link.utilization``, node = link name).  Safe to call
        repeatedly: every reading is set, not incremented.
        """
        metrics = self.metrics
        for device in self.devices:
            metrics.ingest_kvstats(device.name, device.kv.stats)
            metrics.gauge("device.load", node=device.name).set(
                device.hypervisor.average_load()
            )
        elapsed = self.sim.now
        for link in (self.lan_link, self.uplink, self.downlink):
            used = link.bytes_delivered / (link.bandwidth * elapsed) if elapsed > 0 else 0.0
            metrics.gauge("link.utilization", node=link.name).set(min(1.0, used))
        return metrics

    # -- lifecycle --------------------------------------------------------------

    def start(self, monitors: bool = True, publish: bool = True) -> None:
        """Join all devices into one overlay and publish resources.

        ``publish=False`` skips the initial resource-snapshot puts —
        the scale benches bring up 10k-node overlays that only exercise
        the KV path and have no use for 10k monitor publications.
        """
        if self._started:
            return
        if self.config.fast_join:
            self._seed_overlay_views()
        else:
            bootstrap = self.devices[0]
            bootstrap.chimera.start()
            for device in self.devices[1:]:
                self.run(device.chimera.join(bootstrap=bootstrap.name))
                self.sim.run()  # drain join announcements
        for device in self.devices:
            if publish:
                self.run(device.monitor.publish_once())
            if monitors:
                device.monitor.start(publish_immediately=False)
                if device.repairer is not None:
                    device.repairer.start()
                if device.flusher is not None:
                    device.flusher.start()
        # The SLO evaluator is a background process like the monitors;
        # monitors=False means "no periodic activity" and callers can
        # still drive SloEngine.evaluate() by hand.
        if monitors and self._slo_evaluator is not None:
            self._slo_evaluator.start()
        self._started = True

    def _seed_overlay_views(self) -> None:
        """Install Pastry-correct partial views on every node directly.

        Builds the routing state a fresh protocol bring-up converges
        to, straight from the globally sorted id list: each node's leaf
        set is its ``leaf_size`` true ring neighbours per side, and its
        routing-table (row, col) entry is the first id inside that
        prefix range (deterministic — no RNG, no protocol traffic, no
        simulated time).  Rows stop once the node is alone in its
        prefix group, so per-node state is O(log N) and total
        construction is O(N log N) instead of the protocol join's
        O(N²) messages.
        """
        order = sorted((d.chimera for d in self.devices), key=lambda c: c.id.value)
        values = [c.id.value for c in order]
        infos = [PeerInfo(c.name, c.id) for c in order]
        n = len(order)
        per_side = self.config.leaf_size
        for i, node in enumerate(order):
            node.start()
            if n == 1:
                continue
            peers: dict[int, PeerInfo] = {}
            for j in range(1, per_side + 1):
                for k in ((i + j) % n, (i - j) % n):
                    if k != i:
                        peers[k] = infos[k]
            value = node.id.value
            for row in range(ID_DIGITS):
                shift = (ID_DIGITS - row - 1) * 4
                prefix_base = (value >> (shift + 4)) << (shift + 4)
                glo = bisect_left(values, prefix_base)
                ghi = bisect_left(values, prefix_base + (1 << (shift + 4)))
                if ghi - glo <= 1:
                    break  # alone in the prefix group: deeper rows are empty
                own_col = (value >> shift) & 0xF
                for col in range(16):
                    if col == own_col:
                        continue
                    low = prefix_base + (col << shift)
                    k = bisect_left(values, low, glo, ghi)
                    if k < ghi and values[k] < low + (1 << shift):
                        peers[k] = infos[k]
            peers.pop(i, None)
            node.seed_view(peers.values())

    def device(self, name: str) -> Device:
        """Look up one assembled device by name (KeyError if absent)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no device named {name!r}") from None

    def run(self, generator):
        """Drive a process generator to completion; return its value."""
        proc = self.sim.process(generator)
        return self.sim.run(until=proc)

    def object_inventory(self) -> dict:
        """Where every physically stored object lives, cluster-wide.

        Maps object name -> {"node": name or "@remote-cloud",
        "bin": bin name or "s3", "size_mb": size}.
        """
        out: dict[str, dict] = {}
        for device in self.devices:
            inv = device.vstore.inventory()
            for bin_name in ("mandatory", "voluntary"):
                for name, size_mb in inv[bin_name].items():
                    out[name] = {
                        "node": device.name,
                        "bin": bin_name,
                        "size_mb": size_mb,
                    }
        for key, obj in self.s3.objects.items():
            out.setdefault(
                key,
                {"node": "@remote-cloud", "bin": "s3", "size_mb": obj.size_mb},
            )
        return out

    def storage_report(self) -> str:
        """Human-readable cluster storage summary."""
        lines = ["== storage =="]
        for device in self.devices:
            inv = device.vstore.inventory()
            lines.append(
                f"{device.name}: mandatory "
                f"{len(inv['mandatory'])} objs "
                f"({inv['mandatory_free_mb']:.0f} MB free), voluntary "
                f"{len(inv['voluntary'])} objs "
                f"({inv['voluntary_free_mb']:.0f} MB free)"
            )
        lines.append(
            f"s3: {len(self.s3.objects)} objs "
            f"({self.s3.stored_bytes / (1024 * 1024):.1f} MB)"
        )
        return "\n".join(lines)

    def deploy_service(self, service_factory, nodes: Optional[list[str]] = None):
        """Register a service (built per node by ``service_factory``)
        on the named nodes (default: all), and on EC2 when present."""
        targets = (
            self.devices
            if nodes is None
            else [self.device(name) for name in nodes]
        )
        for device in targets:
            service: Service = service_factory()
            self.run(device.registry.register(service))
        for instance in self.ec2:
            instance.deploy(service_factory())
