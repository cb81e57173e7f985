"""The three benchmark workloads and the per-op bookkeeping they share.

Each workload builds its deployment through the program's public API,
prepopulates it, then drives a fixed, seed-determined amount of work
(``seconds * nominal_ops_per_s`` ops), sized so that one run's timed
region lasts about ``--seconds`` wall seconds on a 2-vCPU x86-64
container.  A fixed amount of work (instead of "stop at the deadline")
is what keeps every ``sim_*`` figure byte-identical across runs of one
seed.

* ``kv_zipf``: open loop, Poisson arrivals at 4,000 req/s (simulated)
  on a 10,000-node ``scale_overlay``; 90% ``kv.get`` / 10% ``kv.put`` of
  64-byte values over Zipf(0.99) keys, 16,384 of them prepopulated.
  The only workload where the event kernel, RPC dispatch, overlay
  routing and KV hot paths dominate wall time.
* ``home_edonkey``: the paper's testbed with every switch at its
  default; six closed-loop clients replay the Section V-A modified
  eDonkey trace (60/40 store/fetch over 1,300 files, stores replace)
  plus a camera client running store -> face pipeline -> delete.
* ``durable_mix``: ``large_home(24)`` with resilience, striping, disk
  storage and SLOs on; four closed-loop clients replay the same
  replace trace over 400 files.  The only workload where the redundancy
  write path, the WAL and the telemetry plane do real work.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from time import perf_counter

from repro.cluster import Cloud4Home
from repro.cluster.presets import large_home, paper_testbed, scale_overlay
from repro.kvstore import DhtKeyValueStore, KeyNotFoundError
from repro.load.arrivals import PoissonArrivals
from repro.load.driver import OpenLoopDriver
from repro.load.scenario import KvScenario
from repro.services import FaceDetection, FaceRecognition
from repro.sim import RandomSource
from repro.vstore import LOCATION_REMOTE, ObjectMeta, chunk_name
from repro.vstore.node import object_key
from repro.workloads.edonkey import EDonkeyTraceGenerator

__all__ = ["WORKLOADS", "OpLog", "nearest_rank"]

MB = 1024 * 1024
PIPELINE = ["face-detect#v1", "face-recognize#v1"]


def nearest_rank(sorted_values: list, q: float) -> float:
    """Exact nearest-rank quantile of an already sorted list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


class OpLog:
    """Outcome of every timed operation: latencies, failures, misses.

    ``kind`` is ``read``, ``write`` or ``process``.  Latencies are
    simulated seconds; ``last_wall`` is the wall clock of the latest
    completion (the end of the ``ops_per_wall_s`` window), and
    ``last_events`` the kernel's event count then (a stalled kernel
    keeps counting zero-delay events after the last completion).  With
    ``sampler`` set, a completion may take a host-speed sample
    (``hostspeed.py``).
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.latency: dict[str, list[float]] = {"read": [], "write": [], "process": []}
        self.attempted = 0
        self.failed = 0
        self.misses = 0
        self.errors: dict[str, int] = defaultdict(int)
        self.violations: list[str] = []
        self.sim_start = sim.now
        self.last_sim = sim.now
        self.last_wall = perf_counter()
        self.last_events = sim._event_seq
        self.sampler = None
        #: Simulated cost fields summed from the public calls' results.
        self.costs: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def begin(self) -> None:
        self.attempted += 1

    def ok(self, kind: str, latency: float) -> None:
        self.latency[kind].append(latency)
        self.last_sim = self.sim.now
        self.last_wall = perf_counter()
        self.last_events = self.sim._event_seq
        if self.sampler is not None:
            self.sampler.tick(self.last_wall)

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        self.errors[type(exc).__name__] += 1

    def add_store(self, result) -> None:
        self.costs["inter_domain_s"] += result.inter_domain_s
        self.costs["placement_s"] += result.placement_s
        self.costs["metadata_s"] += result.metadata_s

    def add_fetch(self, result) -> None:
        self.costs["inter_domain_s"] += result.inter_domain_s
        self.costs["inter_node_s"] += result.inter_node_s
        self.costs["dht_lookup_s"] += result.dht_lookup_s
        self.costs["remote_cloud_s"] += result.remote_cloud_s
        self.counts["fetches"] += 1
        if result.served_from == "local":
            self.counts["fetches_local"] += 1

    def add_process(self, result, node: str) -> None:
        self.costs["decision_s"] += result.decision_s
        self.costs["move_s"] += result.move_s
        self.costs["execute_s"] += result.execute_s
        self.counts["processed"] += 1
        if result.executed_on != node:
            self.counts["offloaded"] += 1

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.latency.values())


# -- kv_zipf -------------------------------------------------------------------


class RecordedKv(KvScenario):
    """``KvScenario`` that puts a unique value per put and records when
    every put and get ran, which the last-value check needs."""

    def __init__(self, c4h, rng: RandomSource, n_keys: int, get_fraction: float, value_bytes: int):
        super().__init__(c4h, rng, n_keys=n_keys, skew=0.99, get_fraction=get_fraction)
        self.sim = c4h.sim
        self.value_bytes = value_bytes
        #: key -> [(start, end, value)] for every put, prepopulation included.
        self.puts: dict[str, list] = defaultdict(list)
        #: (key, start, end, value-or-None) per completed get.
        self.gets: list[tuple] = []
        #: Set by the workload before the driver runs.
        self.log: OpLog | None = None
        self.on_start = None

    def _put(self, device, key: str, value: str):
        start = self.sim.now
        yield from device.kv.put(key, value)
        self.puts[key].append((start, self.sim.now, value))

    def prepopulate(self):
        for rank in range(self.keys.n_keys):
            value = f"p{rank:011d}".ljust(self.value_bytes, "x")
            yield from self._put(self.devices[rank % len(self.devices)], self.keys.key_name(rank), value)

    def operation(self, index: int, injected_at: float):
        sim, log = self.sim, self.log
        device = self.devices[self._origins.randint(0, len(self.devices) - 1)]
        key = self.keys.sample()
        is_get = self._mix.random() < self.get_fraction
        log.begin()
        self.on_start(index)
        start = sim.now
        try:
            if is_get:
                try:
                    value = yield from device.kv.get(key)
                except KeyNotFoundError:
                    value = None
                    log.misses += 1
                self.gets.append((key, start, sim.now, value))
                log.ok("read", sim.now - injected_at)
            else:
                yield from self._put(device, key, f"v{index:011d}".ljust(self.value_bytes, "x"))
                log.ok("write", sim.now - injected_at)
        except Exception as exc:
            log.fail(exc)
            raise


class KvZipf:
    """Open-loop zipfian KV mix on a 10k-node overlay."""

    name = "kv_zipf"
    #: Completed requests per wall second on the reference container;
    #: sizes the run so its timed region lasts about ``--seconds``.
    nominal_ops_per_s = 2600.0
    n_nodes = 10_000
    n_keys = 16_384
    rate = 4000.0
    get_fraction = 0.9
    value_bytes = 64
    drain_s = 10.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.ops = max(1, round(seconds * self.nominal_ops_per_s))
        self.duration_s = self.ops / self.rate
        self.driver = None

    def build(self) -> Cloud4Home:
        self.c4h = Cloud4Home(scale_overlay(self.n_nodes, seed=self.seed))
        return self.c4h

    def start(self) -> None:
        self.c4h.start(monitors=False, publish=False)

    def prepopulate(self):
        self.kv = RecordedKv(
            self.c4h,
            RandomSource(self.seed, "kv_zipf"),
            n_keys=self.n_keys,
            get_fraction=self.get_fraction,
            value_bytes=self.value_bytes,
        )
        yield from self.kv.prepopulate()

    def drive(self, log: OpLog, on_start):
        """Inject for ``duration_s`` simulated seconds, then drain."""
        c4h = self.c4h
        self.kv.log, self.kv.on_start = log, on_start
        self.driver = OpenLoopDriver(
            c4h.sim,
            PoissonArrivals(self.rate, RandomSource(self.seed, "kv_zipf-arrivals")),
            self.kv.operation,
            metrics=c4h.metrics,
            node="load",
        )
        self.driver.run(self.duration_s, drain_s=self.drain_s)

    def unstarted(self) -> int:
        """Planned requests the driver never injected (a stopped run)."""
        offered = self.driver.offered if self.driver is not None else 0
        return max(0, self.ops - offered)

    def finish(self, log: OpLog) -> None:
        """Ops the driver shed or never completed count as failed."""
        driver = self.driver
        if driver is None:
            return
        log.failed += driver.shed + driver.inflight
        log.attempted += driver.shed
        log.counts["injected"] = driver.offered - driver.shed
        log.counts["shed"] = driver.shed

    def check(self, log: OpLog) -> None:
        """Every get returns the last value put, or counts as a miss.

        A put P is the last value for a get running over [s, e] if P
        started before e and no other put Q both started after P ended
        and ended before s (Q would have overwritten P first).  A value
        no put wrote, or one written after the get ended, is a violation.
        """
        index: dict[str, tuple] = {}
        for key, puts in self.kv.puts.items():
            by_end = sorted(puts, key=lambda p: p[1])
            ends = [p[1] for p in by_end]
            prefix_max_start = []
            best = -math.inf
            for p in by_end:
                best = max(best, p[0])
                prefix_max_start.append(best)
            values = {p[2]: p for p in puts}
            index[key] = (ends, prefix_max_start, values)
        stale = invented = 0
        for key, start, end, value in self.kv.gets:
            if value is None:
                continue
            ends, prefix_max_start, values = index[key]
            put = values.get(value)
            if put is None or put[0] > end:
                invented += 1
                continue
            done_before = bisect.bisect_left(ends, start)
            if done_before and prefix_max_start[done_before - 1] > put[1]:
                stale += 1
        # Cache-update pushes are asynchronous, so a cached copy can lag
        # a completed put; such a read is counted as a miss.
        log.counts["stale_reads"] = stale
        log.misses += stale
        if invented:
            log.violations.append(f"{invented} kv.get results match no put that could precede them")

    def space(self) -> float:
        """KV record copies (primary + replica tables) per live key."""
        copies = sum(len(d.kv.primary) + len(d.kv.replicas) for d in self.c4h.devices)
        return copies / len(self.kv.puts)


# -- the replace trace (home_edonkey, durable_mix) ----------------------------


class ReplaceTrace:
    """Closed-loop clients replaying a 60/40 store/fetch eDonkey trace.

    The file population is one fixed dataset, as the paper's modified
    trace is; ``--seed`` drives the access stream and the deployment's
    randomness.  (A per-seed population would make the heavy-tailed
    size mix, and with it every latency figure, differ run to run.)
    Every file is stored once in setup by its owning client; a later
    store of the same file replaces it (delete, then store, timed as one
    write).  Stores go to the file's owner so two replaces of one file
    never race; a fetch that overlaps a replace of its file and fails
    counts as a miss, not a failure.
    """

    n_clients = 6
    n_files = 1300
    population_seed = 0

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.ops = max(self.n_clients, round(seconds * self.nominal_ops_per_s))
        self.files = EDonkeyTraceGenerator(
            RandomSource(self.population_seed, self.name), n_files=self.n_files
        ).files()
        self.gen = EDonkeyTraceGenerator(
            RandomSource(seed, self.name), n_clients=self.n_clients, n_files=self.n_files
        )
        self.sizes = {f.name: f.size_mb for f in self.files}
        self._replacing: dict[str, int] = defaultdict(int)
        self._replaces_done: dict[str, int] = defaultdict(int)
        self.live: set[str] = set()
        self.active_clients = 0
        self.started = 0

    def build(self) -> Cloud4Home:
        self.c4h = Cloud4Home(self.config())
        self.clients = [self.c4h.devices[i] for i in self.client_devices()]
        return self.c4h

    def start(self) -> None:
        self.c4h.start()

    def prepopulate(self):
        """Each client stores the files it owns, one after another."""
        sim = self.c4h.sim
        loaders = [
            sim.process(self._load(c, [f for f in self.files if self.gen.owner_of(f) == c]))
            for c in range(self.n_clients)
        ]
        yield sim.all_of(loaders)

    def _load(self, client: int, files):
        device = self.clients[client]
        for f in files:
            yield from device.client.store_file(f.name, f.size_mb)
            self.live.add(f.name)

    def streams(self) -> list[list]:
        """Per-client op lists: stores routed to the file's owner."""
        out: list[list] = [[] for _ in range(self.n_clients)]
        for access in self.gen.accesses(self.ops, files=self.files):
            client = self.gen.owner_of(access.file) if access.op == "store" else access.client
            out[client].append(access)
        return out

    def drive(self, log: OpLog, on_start):
        sim = self.c4h.sim
        procs = [
            sim.process(self._client(log, on_start, self.clients[c], stream))
            for c, stream in enumerate(self.streams())
        ]
        self.active_clients = len(procs)
        procs.extend(self.extra_clients(log, on_start))
        sim.run(until=sim.all_of(procs))

    def extra_clients(self, log: OpLog, on_start) -> list:
        return []

    def _client(self, log: OpLog, on_start, device, stream):
        sim = self.c4h.sim
        try:
            for access in stream:
                log.begin()
                self.started += 1
                on_start(access.seq)
                if access.op == "store":
                    yield from self._replace(log, device, access.file)
                else:
                    yield from self._fetch(log, device, access.file)
        finally:
            self.active_clients -= 1

    def _replace(self, log: OpLog, device, file):
        sim = self.c4h.sim
        start = sim.now
        self._replacing[file.name] += 1
        try:
            if file.name in self.live:
                yield from device.client.delete_object(file.name)
                self.live.discard(file.name)
            result = yield from device.client.store_file(file.name, file.size_mb)
        except Exception as exc:
            log.fail(exc)
            return
        finally:
            self._replacing[file.name] -= 1
            self._replaces_done[file.name] += 1
        self.live.add(file.name)
        log.add_store(result)
        log.ok("write", sim.now - start)

    def _fetch(self, log: OpLog, device, file):
        sim = self.c4h.sim
        start = sim.now
        racing = self._replacing[file.name] > 0
        done_before = self._replaces_done[file.name]
        try:
            result = yield from device.client.fetch_object(file.name)
        except Exception as exc:
            racing = racing or self._replaces_done[file.name] != done_before
            if racing or self._replacing[file.name] > 0:
                log.misses += 1
                log.ok("read", sim.now - start)
            else:
                log.fail(exc)
            return
        if result.meta.size_mb != file.size_mb:
            log.violations.append(
                f"fetch {file.name}: got {result.meta.size_mb} MB, stored {file.size_mb} MB"
            )
        log.add_fetch(result)
        log.ok("read", sim.now - start)

    def unstarted(self) -> int:
        """Trace ops no client reached (a stopped run)."""
        return self.ops - self.started

    def finish(self, log: OpLog) -> None:
        log.counts["injected"] = log.attempted
        log.counts["shed"] = 0

    def home_mb(self) -> float:
        total = 0.0
        for device in self.c4h.devices:
            inv = device.vstore.inventory()
            total += sum(inv["mandatory"].values()) + sum(inv["voluntary"].values())
        return total

    def space(self) -> float:
        """(home bins + cloud MB) per live object MB."""
        live_mb = sum(self.sizes[name] for name in self.live)
        return (self.home_mb() + self.c4h.s3.stored_bytes / MB) / live_mb

    def check(self, log: OpLog) -> None:
        """Nothing beyond the per-fetch size check by default."""


class HomeEdonkey(ReplaceTrace):
    """The paper's testbed replaying its own modified eDonkey trace."""

    name = "home_edonkey"
    nominal_ops_per_s = 950.0
    camera_device = "netbook0"
    frame_mb = 0.5

    def config(self):
        return paper_testbed(seed=self.seed)

    def client_devices(self) -> list[int]:
        return list(range(self.n_clients))

    def start(self) -> None:
        super().start()
        for factory in (FaceDetection, lambda: FaceRecognition(training_mb=60.0)):
            self.c4h.deploy_service(factory, nodes=[self.camera_device, "desktop"])
        camera = self.c4h.device(self.camera_device)
        for service in camera.registry.local.values():
            service.prewarm(camera.guest)

    def extra_clients(self, log: OpLog, on_start) -> list:
        return [self.c4h.sim.process(self._camera(log, on_start))]

    def _camera(self, log: OpLog, on_start):
        """Store a frame, run the face pipeline on it, delete it; repeat
        while any trace client is still running."""
        sim = self.c4h.sim
        device = self.c4h.device(self.camera_device)
        frame = 0
        while self.active_clients > 0:
            name = f"cam-{frame:07d}.jpg"
            frame += 1
            log.begin()
            on_start(-frame)
            try:
                yield from device.client.store_file(name, self.frame_mb)
                start = sim.now
                result = yield from device.client.process_pipeline(name, PIPELINE)
                latency = sim.now - start
                yield from device.client.delete_object(name)
            except Exception as exc:
                log.fail(exc)
                continue
            log.add_process(result, device.name)
            log.ok("process", latency)


class DurableMix(ReplaceTrace):
    """Every non-chaos feature on, on a 24-device home."""

    name = "durable_mix"
    nominal_ops_per_s = 150.0
    n_clients = 4
    n_files = 400

    def config(self):
        return large_home(
            24,
            seed=self.seed,
            resilience=True,
            data_replicas=2,
            replication_factor=3,
            striping=True,
            storage="disk",
            slo=True,
        )

    def client_devices(self) -> list[int]:
        return [0, 6, 12, 18]

    def check(self, log: OpLog) -> None:
        """Every live object keeps its replicas, its (4, 2) stripe, or a
        cloud copy.  Metadata is read from the owners' KV tables, so the
        check also runs on a run the watchdog stopped (objects with a
        replace in flight are skipped then)."""
        c4h = self.c4h
        inventory = c4h.object_inventory()
        want = c4h.config.data_replicas
        k, m = c4h.config.striping_tuning.stripe_k, c4h.config.striping_tuning.stripe_m
        bad = []
        checked = 0
        for name in sorted(self.live):
            if self._replacing[name]:
                continue
            meta = self._meta(name)
            checked += 1
            if meta is None:
                ok = False
            elif meta.is_striped:
                chunks = [chunk_name(name, i) for i in range(len(meta.chunk_nodes))]
                ok = (meta.stripe_k, meta.stripe_m) == (k, m) and len(chunks) == k + m
                ok = ok and all(
                    chunk in inventory and self._holds(holder, chunk)
                    for chunk, holder in zip(chunks, meta.chunk_nodes)
                )
            elif meta.is_remote:
                ok = name in inventory and c4h.s3.contains(name)
            else:
                ok = name in inventory and self._holds(meta.location, name)
                ok = ok and all(self._holds(r, name) for r in meta.replicas)
                ok = ok and (len(meta.replicas) >= want or meta.url is not None)
            if not ok:
                bad.append(name)
        log.counts["inventory_checked"] = checked
        if bad:
            log.violations.append(
                f"{len(bad)} live objects lack replicas, a full stripe or a cloud copy "
                f"(first: {bad[0]})"
            )

    def _meta(self, name: str):
        key_hex = DhtKeyValueStore.key_for(object_key(name)).hex
        for device in self.c4h.devices:
            record = device.kv.primary.get(key_hex)
            if record is not None:
                return ObjectMeta.from_wire(record.latest.value)
        return None

    def _holds(self, holder: str, name: str) -> bool:
        if holder == LOCATION_REMOTE:
            return self.c4h.s3.contains(name)
        return self.c4h.device(holder).vstore.holds(name)


WORKLOADS = {w.name: w for w in (KvZipf, HomeEdonkey, DurableMix)}
