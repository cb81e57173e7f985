"""The VStore++ control-domain component: store, fetch, and process.

This is the paper's core contribution (Section III-B): a virtualized
object store whose operations name only the object and/or service —
*where* the object lives and *where* manipulation functions run is
decided at the metadata layer, using placement policies and the
resource-monitoring state in the DHT key-value store.

One :class:`VStoreNode` runs in each device's control domain (dom0).
It composes every substrate in this reproduction:

* the Chimera overlay + KV store for metadata and discovery,
* the decision engine for resource-aware target selection,
* XenSocket channels for guest↔dom0 data movement,
* the zero-copy transfer engine for node↔node object movement,
* the public-cloud interface (S3) and optional EC2 instances.

All operation methods are generators intended to be driven as
simulation processes; they return result objects carrying the timing
breakdowns the paper's Table I and Figures 4-8 report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cloud import Ec2Instance, PublicCloudInterface
from repro.kvstore import DhtKeyValueStore, KeyNotFoundError
from repro.monitoring import DecisionEngine, DecisionPolicy, ResourceSnapshot
from repro.net import (
    HostDownError,
    NetworkError,
    RemoteError,
    Request,
    RpcTimeoutError,
)
from repro.overlay import ChimeraNode
from repro.services import Service, ServiceRegistry
from repro.virt import Domain, TransferEngine, XenSocketChannel
from repro.vstore.bins import StorageBin
from repro.vstore.errors import (
    AccessDeniedError,
    BinFullError,
    ChunksLostError,
    ObjectExistsError,
    ObjectNotFoundError,
    PlacementError,
    ServiceUnavailableError,
    VStoreError,
)
from repro.vstore.objects import LOCATION_REMOTE, ObjectMeta
from repro.vstore.placement import (
    PlacementEstimate,
    estimate_completion,
    fold_estimates,
)
from repro.vstore.policies import Placement, PlacementTarget, StorePolicy
from repro.vstore.striping import (
    StripeCodec,
    StripingPolicy,
    chunk_name,
    plan_chunk_placement,
)

__all__ = ["VStoreNode", "StoreResult", "FetchResult", "ProcessResult"]

MSG_STORE_VOLUNTARY = "vstore.store-voluntary"
MSG_FETCH = "vstore.fetch"
MSG_PROCESS_REMOTE = "vstore.process-remote"
MSG_DELETE = "vstore.delete"
#: Liveness/holdership probe (resilience layer; reply says whether the
#: payload is physically here).
MSG_PING = "vstore.ping"


def object_key(name: str) -> str:
    """KV-store key for an object's metadata entry."""
    return f"object:{name}"


@dataclass
class StoreResult:
    """Outcome and cost breakdown of a store operation."""

    meta: ObjectMeta
    placement: Placement
    total_s: float
    inter_domain_s: float = 0.0
    placement_s: float = 0.0
    metadata_s: float = 0.0
    blocking: bool = True


@dataclass
class FetchResult:
    """Outcome and cost breakdown of a fetch (Table I's columns)."""

    meta: ObjectMeta
    total_s: float
    dht_lookup_s: float = 0.0
    inter_node_s: float = 0.0
    inter_domain_s: float = 0.0
    remote_cloud_s: float = 0.0
    served_from: str = ""


@dataclass
class ProcessResult:
    """Outcome of a process / fetch-and-process operation."""

    object_name: str
    service: str
    executed_on: str
    output_mb: float
    total_s: float
    decision_s: float = 0.0
    move_s: float = 0.0
    execute_s: float = 0.0
    estimates: list = field(default_factory=list)


class VStoreNode:
    """The per-device VStore++ service (dom0 component)."""

    #: Called with a holder's name when a fetch finds it unreachable (a
    #: full-copy failover, or a stripe chunk pull that failed).  The
    #: shared empty tuple until a subscriber replaces it with a list, so
    #: a node nobody watches allocates nothing.
    on_failover: "tuple | list[Callable[[str], None]]" = ()
    #: Called with ``(holder, stored name)`` when a delete cannot reach
    #: a holder to drop its copy or chunk (the holder is down).  The
    #: same shared empty tuple until a subscriber replaces it.
    on_missed_drop: "tuple | list[Callable[[str, str], None]]" = ()

    def __init__(
        self,
        chimera: ChimeraNode,
        kv: DhtKeyValueStore,
        registry: ServiceRegistry,
        decision: DecisionEngine,
        transfer: TransferEngine,
        mandatory_mb: float = 2048.0,
        voluntary_mb: float = 4096.0,
        store_policy: Optional[StorePolicy] = None,
        guest_domain: Optional[Domain] = None,
        dom0_domain: Optional[Domain] = None,
        xensocket: Optional[XenSocketChannel] = None,
        cloud: Optional[PublicCloudInterface] = None,
        ec2: Optional[Ec2Instance] = None,
        snapshot_fn: Optional[Callable[[], ResourceSnapshot]] = None,
        op_overhead_s: float = 0.002,
        disk_mb_s: float = 80.0,
        caller=None,
        data_replicas: int = 0,
        striping: Optional[StripingPolicy] = None,
        metrics=None,
        storage=None,
    ) -> None:
        self.chimera = chimera
        self.kv = kv
        self.registry = registry
        self.decision = decision
        self.transfer = transfer
        #: Optional :class:`repro.storage.IStore` backend shared with
        #: the KV store.  When set, the bins journal their manifests
        #: through it so a crashed node can recover its holdings.
        self.storage = storage
        self.mandatory = StorageBin(
            "mandatory",
            mandatory_mb,
            manifest=storage.table("bin.mandatory") if storage is not None else None,
        )
        self.voluntary = StorageBin(
            "voluntary",
            voluntary_mb,
            manifest=storage.table("bin.voluntary") if storage is not None else None,
        )
        self.store_policy = store_policy or StorePolicy()
        self.guest_domain = guest_domain
        self.dom0_domain = dom0_domain
        self.xensocket = xensocket
        self.cloud = cloud
        self.ec2 = ec2
        self.snapshot_fn = snapshot_fn
        self.op_overhead_s = op_overhead_s
        self.disk_mb_s = disk_mb_s
        #: Optional :class:`repro.resilience.ResilientCaller`; when set,
        #: peer RPCs gain retries, deadlines, and circuit breaking.
        self.caller = caller
        if data_replicas < 0:
            raise ValueError("data_replicas must be >= 0")
        #: Extra payload copies placed at store time (0 = single-homed,
        #: the pre-resilience behaviour).
        self.data_replicas = data_replicas
        #: Optional :class:`repro.vstore.striping.StripingPolicy`; when
        #: set, qualifying objects are split into (k, m) erasure-coded
        #: chunks scattered across distinct holders instead of stored
        #: (and replicated) whole.  ``None`` keeps every store on the
        #: replication-era path unchanged.
        self.striping = striping
        self.metrics = metrics
        #: Objects created but not yet stored (CreateObject staging).
        self.staged: dict[str, ObjectMeta] = {}
        self._register_handlers()

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.chimera.name

    @property
    def sim(self):
        return self.chimera.sim

    @property
    def endpoint(self):
        return self.chimera.endpoint

    def snapshot(self) -> Optional[ResourceSnapshot]:
        """This node's current resource state (None if no sampler)."""
        return self.snapshot_fn() if self.snapshot_fn else None

    # -- durability: crash / recovery ---------------------------------------

    def lose_memory(self) -> None:
        """RAM loss on crash: wipe staged objects and live bin maps."""
        self.staged.clear()
        self.mandatory.lose_contents()
        self.voluntary.lose_contents()

    def recover(self) -> dict:
        """Adopt replayed bin manifests after the shared backend's WAL
        replay (driven by ``kv.recover()``); returns restored counts."""
        return {
            "mandatory": self.mandatory.restore_from_manifest(),
            "voluntary": self.voluntary.restore_from_manifest(),
        }

    def _span(self, name: str, ctx, **attrs):
        """(telemetry, span) pair; (None, None) when telemetry is off."""
        tel = self.sim.telemetry
        if tel is None:
            return None, None
        return tel, tel.begin(name, layer="vstore", node=self.name, parent=ctx, **attrs)

    def _count(self, metric: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(metric, node=self.name).inc(amount)

    def _call(self, dst: str, msg_type: str, body, timeout: float, size: int = 64):
        """Process: one peer RPC, through the resilient caller when set.

        Without a caller this is exactly ``endpoint.call`` — same event,
        same timing — so resilience-off runs are unchanged.
        """
        if self.caller is not None:
            return (
                yield from self.caller.call(
                    dst, msg_type, body, timeout=timeout, size=size
                )
            )
        return (
            yield self.endpoint.call(dst, msg_type, body, timeout=timeout, size=size)
        )

    # -- object lifecycle -----------------------------------------------------

    def create_object(
        self,
        name: str,
        size_mb: float,
        tags: Optional[list[str]] = None,
        access: str = "home",
    ) -> ObjectMeta:
        """Map a file to an object and create its mandatory metadata.

        Purely local; :meth:`store_object` performs the distributed
        placement and the KV-store update.
        """
        if name in self.staged or name in self.mandatory or name in self.voluntary:
            raise ObjectExistsError(name)
        meta = ObjectMeta(
            name=name,
            size_mb=size_mb,
            tags=list(tags or []),
            access=access,
            created_by=self.name,
            created_at=self.sim.now,
        )
        self.staged[name] = meta
        return meta

    def store_object(
        self, name: str, blocking: bool = True, from_guest: bool = True, ctx=None
    ):
        """Process: place a created object and publish its metadata.

        Blocking stores wait for placement and the metadata update (and
        pay the acknowledgement); non-blocking stores return right
        after the object reaches the control domain, with placement
        completing in the background.
        """
        meta = self.staged.get(name)
        if meta is None:
            raise ObjectNotFoundError(name)
        tel, span = self._span("vstore.store", ctx, object=name, size_mb=meta.size_mb)
        started = self.sim.now
        yield self.sim.timeout(self.op_overhead_s)
        inter_domain_s = 0.0
        if from_guest and self.xensocket is not None:
            t0 = self.sim.now
            yield from self.xensocket.transfer(meta.size_bytes, ctx=span)
            inter_domain_s = self.sim.now - t0
        del self.staged[name]

        if not blocking:
            self.sim.process(self._place_and_publish(meta, ctx=span))
            if span is not None:
                tel.end(span, blocking=False)
            return StoreResult(
                meta=meta,
                placement=self.store_policy.decide(meta),
                total_s=self.sim.now - started,
                inter_domain_s=inter_domain_s,
                blocking=False,
            )

        placement, placement_s, metadata_s = yield from self._place_and_publish(
            meta, ctx=span
        )
        # Blocking stores "incur the cost of an additional
        # acknowledgement" back to the guest.
        if self.xensocket is not None:
            yield from self.xensocket.transfer(64, ctx=span)
        if span is not None:
            tel.end(span, target=placement.target.name, location=meta.location)
        return StoreResult(
            meta=meta,
            placement=placement,
            total_s=self.sim.now - started,
            inter_domain_s=inter_domain_s,
            placement_s=placement_s,
            metadata_s=metadata_s,
            blocking=True,
        )

    def _place_and_publish(self, meta: ObjectMeta, ctx=None):
        tel, span = self._span("vstore.place", ctx, object=meta.name)
        t0 = self.sim.now
        if self.striping is not None and self.striping.applies_to(meta.size_mb):
            codec = self.striping.codec
            # Encoding: compute the m parity chunks over the k data slices.
            yield self.sim.timeout(self.striping.codec_time_s(meta.size_mb))
            meta.stripe_k, meta.stripe_m = codec.k, codec.m
            # The coordinator anchors the metadata; the payload lives
            # only in the chunks.
            meta.location, meta.bin_name = self.name, ""
            placement = Placement(PlacementTarget.HOME_VOLUNTARY, self.name)
            slots = [None] * codec.n
        else:
            placement = yield from self._place(meta, ctx=span)
            # A cloud-resident object needs no more: the cloud already
            # is the redundancy.
            slots = [meta.location] + [None] * (
                0 if meta.is_remote else self.data_replicas
            )
        if None in slots:
            slots = yield from self.replicate_local(meta, slots, self.name, ctx=span)
            if meta.is_striped:
                if None in slots:
                    raise PlacementError(
                        f"object {meta.name!r}: chunks without a home holder "
                        "and no public-cloud interface configured"
                    )
                spilled = slots.count(LOCATION_REMOTE)
                self._count("stripe.store.placed", len(slots) - spilled)
                self._count("stripe.store.spilled", spilled)
                meta.chunk_nodes = slots
            else:
                meta.replicas = [node for node in slots[1:] if node is not None]
                if len(meta.replicas) < self.data_replicas:
                    self._count("vstore.replicate.short")
        placement_s = self.sim.now - t0
        if span is not None:
            tel.end(span, target=placement.target.name)
        t1 = self.sim.now
        yield from self.kv.put(object_key(meta.name), meta.wire(), ctx=ctx)
        metadata_s = self.sim.now - t1
        return placement, placement_s, metadata_s

    def _place(self, meta: ObjectMeta, ctx=None):
        """Place the first full copy by the store policy.

        The paper's fallbacks: a full mandatory bin or an unreachable
        named node falls back to voluntary space in the home, and a
        full home to the remote cloud.
        """
        placement = self.store_policy.decide(meta)
        target = placement.target
        if target is PlacementTarget.LOCAL_MANDATORY:
            if self.mandatory.fits(meta.size_mb):
                self.mandatory.store(meta.name, meta.size_mb)
                meta.location = self.name
                meta.bin_name = "mandatory"
                return placement
            target = PlacementTarget.HOME_VOLUNTARY

        if target is PlacementTarget.NAMED_NODE:
            if (yield from self._place_on(meta, placement.node, ctx)):
                return placement
            target = PlacementTarget.HOME_VOLUNTARY

        if target is PlacementTarget.HOME_VOLUNTARY:
            candidates = yield from self.decision.decide(
                DecisionPolicy.BALANCED,
                require=lambda s: s.voluntary_free_mb >= meta.size_mb,
                ctx=ctx,
            )
            for candidate in candidates:
                if (yield from self._place_on(meta, candidate.node, ctx)):
                    return Placement(PlacementTarget.HOME_VOLUNTARY, candidate.node)
            target = PlacementTarget.REMOTE_CLOUD

        if self.cloud is None:
            raise PlacementError(
                f"object {meta.name!r}: no home capacity and no "
                "public-cloud interface configured"
            )
        url = yield from self.cloud.store_remote(meta.name, meta.size_bytes, ctx=ctx)
        meta.location = LOCATION_REMOTE
        meta.bin_name = ""
        meta.url = url
        return Placement(PlacementTarget.REMOTE_CLOUD)

    def _place_on(self, meta: ObjectMeta, node: str, ctx=None):
        """Process: the first full copy into ``node``'s voluntary bin;
        False when the node cannot take it."""
        try:
            yield from self._push(meta.name, meta.size_mb, node, self.name, ctx)
        except (NetworkError, VStoreError):
            return False
        meta.location = node
        meta.bin_name = "voluntary"
        return True

    # -- the k-of-n layout: fill, push, scatter ----------------------------------

    def replicate_local(
        self, meta: ObjectMeta, slots: list, src: str, avoid=(), ctx=None
    ):
        """Process: give every empty (``None``) holder slot a holder.

        The one write path behind store-time redundancy and repair, for
        every layout.  Fresh holders come from the decision engine's
        ranking, one per distinct node that holds no other slot and is
        not in ``avoid`` (holders just found dead).  Every share, a full
        copy or a chunk, streams from ``src`` at once: the storing node,
        a live full copy, or a repairer that re-encoded the stripe.
        What the home cannot take goes to the cloud: each unplaced chunk
        as itself, and for full copies one ``url`` copy that stands in
        for every missing replica.  Returns the slots, still ``None``
        where nothing took the share.
        """
        tel, span = self._span(
            "vstore.replicate", ctx, object=meta.name, want=slots.count(None)
        )
        slots = list(slots)
        share_mb = meta.size_mb / meta.k
        try:
            candidates = yield from self.decision.decide(
                DecisionPolicy.BALANCED,
                require=lambda s: s.voluntary_free_mb >= share_mb,
                ctx=span,
            )
        except (HostDownError, RpcTimeoutError, RemoteError):
            candidates = []
        empty = [slot for slot, node in enumerate(slots) if node is None]
        plan = plan_chunk_placement(
            [c.node for c in candidates],
            len(empty),
            exclude=[*avoid, *(node for node in slots if node is not None)],
        )
        pushes = [(slot, node) for slot, node in zip(empty, plan) if node is not None]
        outcomes = yield from self._scatter(
            [
                self._push(meta.slot_name(slot), share_mb, node, src, span)
                for slot, node in pushes
            ]
        )
        for (slot, node), outcome in zip(pushes, outcomes):
            if not isinstance(outcome, BaseException):
                slots[slot] = node
        unplaced = [slot for slot in empty if slots[slot] is None]
        if unplaced and self.cloud is not None:
            if meta.is_striped:
                for slot in unplaced:
                    yield from self.cloud.store_remote(
                        meta.slot_name(slot), share_mb * 1024 * 1024, ctx=span
                    )
                    slots[slot] = LOCATION_REMOTE
            elif meta.url is None:
                meta.url = yield from self.cloud.store_remote(
                    meta.name, meta.size_bytes, ctx=span
                )
        if span is not None:
            tel.end(span, placed=len(empty) - slots.count(None))
        return slots

    def _push(self, stored: str, size_mb: float, target: str, src: str, ctx=None):
        """Process: a copy of ``stored`` into ``target``'s voluntary bin,
        streamed from ``src``.  Raises when the target is unreachable or
        full."""
        if target == self.name:
            return (yield from self._receive(stored, size_mb, src, ctx))
        tel, span = self._span("vstore.store_peer", ctx, peer=target, object=stored)
        body = {"name": stored, "size_mb": size_mb, "src": src}
        if span is not None:
            body["span"] = span.ctx_wire()
        try:
            yield from self._call(target, MSG_STORE_VOLUNTARY, body, timeout=120.0)
        except (NetworkError, VStoreError) as exc:
            if span is not None:
                tel.fail(span, exc)
            raise
        if span is not None:
            tel.end(span)

    def _receive(self, name: str, size_mb: float, src: str, ctx=None):
        """Process: take a copy streamed from ``src`` into the voluntary bin."""
        if not self.voluntary.fits(size_mb):
            raise BinFullError("voluntary", size_mb, self.voluntary.free_mb)
        if src != self.name:
            yield from self.transfer.send(src, self.name, size_mb * 1024 * 1024, ctx=ctx)
        self.voluntary.store(name, size_mb)

    def _scatter(self, branches: list):
        """Process: run ``branches`` at once; their outcomes in order.

        A failed branch contributes its exception.  A lone branch runs
        inline, so an object with one holder costs exactly the events
        of one plain call.
        """
        if not branches:
            return []
        if len(branches) > 1:
            return (yield self.sim.gather(branches, return_exceptions=True))
        try:
            return [(yield from branches[0])]
        except (NetworkError, VStoreError) as exc:
            return [exc]

    # -- erasure-coded striping: reads -------------------------------------------

    def _pull_chunk(self, meta: ObjectMeta, index: int, span):
        """Process: bring chunk ``index`` of a stripe to this node.

        Each pull is its own telemetry span, so a scatter-gather fetch
        reconstructs as one parent with k+m ``vstore.chunk_pull``
        children.  Returns the chunk index; raises on unreachable
        holders (the gather's ``return_exceptions`` captures those).
        """
        cname = chunk_name(meta.name, index)
        holder = meta.chunk_nodes[index]
        chunk_mb = meta.size_mb / meta.stripe_k
        tel, cspan = self._span(
            "vstore.chunk_pull", span, object=meta.name, chunk=index, holder=holder
        )
        try:
            if holder == LOCATION_REMOTE:
                if self.cloud is None:
                    raise VStoreError(
                        f"chunk {cname!r} is in the remote cloud but this "
                        "node has no public-cloud interface"
                    )
                yield from self.cloud.fetch_remote(cname, ctx=cspan)
            elif holder == self.name:
                if not self.holds(cname):
                    raise ObjectNotFoundError(cname)
                yield self.sim.timeout(chunk_mb / self.disk_mb_s)
            else:
                body = {"name": cname, "to": self.name}
                if cspan is not None:
                    body["span"] = cspan.ctx_wire()
                yield from self._call(holder, MSG_FETCH, body, timeout=600.0)
        except Exception as exc:
            if cspan is not None:
                tel.fail(cspan, exc)
            raise
        if cspan is not None:
            tel.end(cspan)
        return index

    def _fetch_striped(self, meta: ObjectMeta, span):
        """Process: scatter-gather chunk pulls, first k of k+m win.

        All ``k + m`` pulls launch together; the join fires at the
        k-th success, so fetch latency is the max of the *fastest* k
        pulls and up to ``m`` dead or slow holders cost nothing but
        their parity.  Decoding is only charged when a parity chunk had
        to stand in for data (a degraded read).  When fewer than k
        chunks are reachable the full-object cloud copy (if any)
        backstops; otherwise the typed :class:`ChunksLostError` names
        the shortfall.  Returns ``(served_from, inter_node_s,
        remote_cloud_s)`` like :meth:`_pull_payload`.
        """
        codec = StripeCodec(meta.stripe_k, meta.stripe_m)
        t_start = self.sim.now
        pulls = [self._pull_chunk(meta, i, span) for i in range(codec.n)]
        outcomes = yield self.sim.gather(
            pulls, count=codec.k, return_exceptions=True
        )
        arrived = [
            i for i, outcome in enumerate(outcomes) if isinstance(outcome, int)
        ]
        for i, outcome in enumerate(outcomes):
            if isinstance(outcome, BaseException):
                for callback in self.on_failover:
                    callback(meta.chunk_nodes[i])
        if codec.can_decode(len(arrived)):
            if any(codec.is_parity(i) for i in arrived):
                # Parity chunks were among the first k (they won the
                # race, or stood in for failed data holders): the
                # missing data slices must be reconstructed.
                yield from self.decode(meta)
            # Degraded means holders actually failed, not that parity
            # merely out-raced data on a healthy cluster.
            degraded = any(
                isinstance(outcome, BaseException) for outcome in outcomes
            )
            if degraded:
                self._count("stripe.fetch.degraded")
            served_from = "stripe-degraded" if degraded else "stripe"
            return served_from, self.sim.now - t_start, 0.0
        if meta.url is not None and self.cloud is not None:
            t0 = self.sim.now
            yield from self.cloud.fetch_remote(meta.name, ctx=span)
            self._count("stripe.fetch.cloud_backstop")
            return "remote-cloud", t0 - t_start, self.sim.now - t0
        self._count("stripe.fetch.lost")
        raise ChunksLostError(meta.name, len(arrived), codec.k)

    def decode(self, meta: ObjectMeta):
        """Process: rebuild a stripe's missing slices from any k chunks."""
        policy = self.striping if self.striping is not None else StripingPolicy()
        yield self.sim.timeout(meta.size_mb / policy.codec_mb_s)

    def fetch_range(
        self,
        name: str,
        offset_mb: float,
        length_mb: float,
        to_guest: bool = True,
        ctx=None,
    ):
        """Process: FetchRange — bring only bytes [offset, offset+length).

        On a striped object just the data chunks covering the range
        move (a suffix read of a 32 MB object touches 1-2 chunks, not
        32 MB); if a covering chunk's holder is unreachable the read
        degrades to a full k-of-(k+m) decode.  Un-striped objects fall
        back to a whole-object fetch with only the range delivered to
        the guest.
        """
        tel, span = self._span(
            "vstore.fetch_range",
            ctx,
            object=name,
            offset_mb=offset_mb,
            length_mb=length_mb,
        )
        started = self.sim.now
        yield self.sim.timeout(self.op_overhead_s)
        meta, dht_s = yield from self._lookup_meta(name, ctx=span)
        self._check_access(meta)
        if offset_mb < 0 or length_mb < 0 or offset_mb + length_mb > meta.size_mb:
            raise ValueError(
                f"range [{offset_mb}, {offset_mb + length_mb}) MB outside "
                f"object {name!r} ({meta.size_mb} MB)"
            )
        self._count("stripe.fetch.range")

        inter_node_s = 0.0
        remote_s = 0.0
        if meta.is_striped:
            codec = StripeCodec(meta.stripe_k, meta.stripe_m)
            indices = codec.data_chunks_for_range(
                meta.size_mb, offset_mb, length_mb
            )
            t0 = self.sim.now
            pulls = [self._pull_chunk(meta, i, span) for i in indices]
            outcomes = yield self.sim.gather(pulls, return_exceptions=True)
            served_from = "stripe-range"
            if any(isinstance(outcome, BaseException) for outcome in outcomes):
                # A covering chunk is lost: any k of the k+m chunks
                # reconstruct every byte, so degrade to a full decode.
                self._count("stripe.fetch.range_degraded")
                served_from, _, remote_s = yield from self._fetch_striped(
                    meta, span
                )
            inter_node_s = self.sim.now - t0 - remote_s
        else:
            served_from, inter_node_s, remote_s = yield from self._pull_payload(
                meta, span
            )

        inter_domain_s = 0.0
        if to_guest and self.xensocket is not None:
            t0 = self.sim.now
            yield from self.xensocket.transfer(length_mb * 1024 * 1024, ctx=span)
            inter_domain_s = self.sim.now - t0

        if span is not None:
            tel.end(span, served_from=served_from)
        return FetchResult(
            meta=meta,
            total_s=self.sim.now - started,
            dht_lookup_s=dht_s,
            inter_node_s=inter_node_s,
            inter_domain_s=inter_domain_s,
            remote_cloud_s=remote_s,
            served_from=served_from,
        )

    # -- fetch ------------------------------------------------------------------

    def fetch_object(self, name: str, to_guest: bool = True, ctx=None):
        """Process: bring an object to this node (and its guest VM).

        Returns a :class:`FetchResult` with the Table I cost breakdown:
        DHT lookup, inter-node transfer (or remote-cloud download), and
        inter-domain (XenSocket) delivery.
        """
        tel, span = self._span("vstore.fetch", ctx, object=name)
        started = self.sim.now
        yield self.sim.timeout(self.op_overhead_s)
        meta, dht_s = yield from self._lookup_meta(name, ctx=span)
        self._check_access(meta)

        served_from, inter_node_s, remote_s = yield from self._pull_payload(
            meta, span
        )

        inter_domain_s = 0.0
        if to_guest and self.xensocket is not None:
            t0 = self.sim.now
            yield from self.xensocket.transfer(meta.size_bytes, ctx=span)
            inter_domain_s = self.sim.now - t0

        if span is not None:
            tel.end(span, served_from=served_from)
        return FetchResult(
            meta=meta,
            total_s=self.sim.now - started,
            dht_lookup_s=dht_s,
            inter_node_s=inter_node_s,
            inter_domain_s=inter_domain_s,
            remote_cloud_s=remote_s,
            served_from=served_from,
        )

    def _pull_payload(self, meta: ObjectMeta, span):
        """Process: bring an object's payload to this node, any layout.

        The one data path under fetch, range reads, process (local and
        remote execution) and federation publish.  Stripes gather their
        chunks; remote objects download from the cloud.  A full copy is
        served from this node's own copy when it really holds one, else
        from the primary holder, then each payload replica, then the
        remote-cloud copy when one exists.  Returns ``(served_from,
        inter_node_s, remote_cloud_s)``; failed attempts stay inside
        ``inter_node_s`` so the Table I breakdown still sums to total.
        """
        if meta.is_striped:
            return (yield from self._fetch_striped(meta, span))
        t_start = self.sim.now
        if meta.is_remote:
            if self.cloud is None:
                raise VStoreError(
                    f"object {meta.name!r} is in the remote cloud but this "
                    "node has no public-cloud interface"
                )
            yield from self.cloud.fetch_remote(meta.name, ctx=span)
            return "remote-cloud", 0.0, self.sim.now - t_start
        sources = [meta.location]
        sources.extend(r for r in meta.replicas if r not in sources)
        if self.name in sources:
            sources.remove(self.name)
            # The holds() guard matters after a crash: metadata can
            # outlive the payload (a revived node without a durable
            # backend rejoins with empty bins), and a phantom local
            # serve must fail over, not fabricate bytes.
            if self.holds(meta.name):
                yield self.sim.timeout(meta.size_mb / self.disk_mb_s)
                if meta.location == self.name:
                    return "local", 0.0, 0.0
                self._count("vstore.fetch.served_replica")
                return self.name, self.sim.now - t_start, 0.0
        # With resilience off and a single home, nothing from the
        # resilience layer runs (ClusterConfig's contract).
        failover = self.caller is not None or bool(meta.replicas)
        last_exc = None
        for src in sources:
            body = {"name": meta.name, "to": self.name}
            if span is not None:
                body["span"] = span.ctx_wire()
            try:
                yield from self._call(src, MSG_FETCH, body, timeout=600.0)
            except (HostDownError, RpcTimeoutError, RemoteError) as exc:
                last_exc = exc
                if failover:
                    self._count("vstore.fetch.failover")
                    for callback in self.on_failover:
                        callback(src)
                    # An unreachable source is evidence the metadata we
                    # routed on may be a stale cached copy whose owner
                    # (the node that would push us updates) is gone.
                    # Drop it so the next lookup re-routes to the live
                    # owner instead of failing over forever.
                    if self.kv.invalidate_cached(object_key(meta.name)):
                        self._count("vstore.fetch.meta_invalidated")
                continue
            if src != meta.location:
                self._count("vstore.fetch.served_replica")
            return src, self.sim.now - t_start, 0.0
        if meta.url is not None and self.cloud is not None:
            t0 = self.sim.now
            yield from self.cloud.fetch_remote(meta.name, ctx=span)
            self._count("vstore.fetch.served_cloud")
            return "remote-cloud", t0 - t_start, self.sim.now - t0
        if last_exc is None:
            raise ObjectNotFoundError(meta.name)
        raise last_exc

    def delete_object(self, name: str, ctx=None):
        """Process: remove an object's every copy and its metadata.

        One scatter over the layout's holders, each dropping its full
        copy or chunk, plus the ``url`` cloud copy.
        """
        tel, span = self._span("vstore.delete", ctx, object=name)
        meta, _ = yield from self._lookup_meta(name, ctx=span)
        copies = meta.copies()
        outcomes = yield from self._scatter(
            [self._drop(node, stored, span) for node, stored in copies]
        )
        for (node, stored), outcome in zip(copies, outcomes):
            if isinstance(outcome, (HostDownError, RpcTimeoutError)):
                for callback in self.on_missed_drop:
                    callback(node, stored)
        yield from self.kv.delete(object_key(name), ctx=span)
        if span is not None:
            tel.end(span)

    def _drop(self, holder: str, stored: str, span):
        """Process: delete ``holder``'s copy of ``stored``.  Best effort:
        a holder that does not answer is reported to ``on_missed_drop``
        subscribers, which may retry it."""
        if holder == LOCATION_REMOTE:
            if self.cloud is not None:
                self.cloud.s3.delete_object(stored)
        elif holder == self.name:
            self._remove_local(stored)
        else:
            body = {"name": stored}
            if span is not None:
                body["span"] = span.ctx_wire()
            yield self.endpoint.call(holder, MSG_DELETE, body)

    def _lookup_meta(self, name: str, ctx=None):
        t0 = self.sim.now
        try:
            value = yield from self.kv.get(object_key(name), ctx=ctx)
        except KeyNotFoundError:
            raise ObjectNotFoundError(name) from None
        return ObjectMeta.from_wire(value), self.sim.now - t0

    def _check_access(self, meta: ObjectMeta) -> None:
        """Enforce the object's access level for this requesting device.

        Devices within one home cloud share the "home" level; "private"
        objects are only readable by their creating device.  (Cross-home
        federation performs its own "public"-only check.)
        """
        if not meta.readable_by(self.name, same_home=True):
            raise AccessDeniedError(meta.name, self.name)

    def _remove_local(self, name: str) -> None:
        if name in self.mandatory:
            self.mandatory.remove(name)
        elif name in self.voluntary:
            self.voluntary.remove(name)

    def holds(self, name: str) -> bool:
        """Is the object physically stored in one of this node's bins?"""
        return name in self.mandatory or name in self.voluntary

    def inventory(self) -> dict:
        """What this node physically stores, by bin."""
        return {
            "mandatory": {
                name: self.mandatory.size_of(name)
                for name in self.mandatory.names()
            },
            "voluntary": {
                name: self.voluntary.size_of(name)
                for name in self.voluntary.names()
            },
            "mandatory_free_mb": self.mandatory.free_mb,
            "voluntary_free_mb": self.voluntary.free_mb,
            "staged": list(self.staged),
        }

    # -- process -----------------------------------------------------------------

    def process(
        self,
        name: str,
        qualified_service: str,
        policy: DecisionPolicy = DecisionPolicy.PERFORMANCE,
        return_output: bool = True,
        ctx=None,
    ):
        """Process: run a service on a stored object (Section III-B).

        A one-step :meth:`process_pipeline`.
        """
        return (
            yield from self.process_pipeline(
                name, [qualified_service], policy, return_output, ctx
            )
        )

    def process_pipeline(
        self,
        name: str,
        qualified_services: list[str],
        policy: DecisionPolicy = DecisionPolicy.PERFORMANCE,
        return_output: bool = True,
        ctx=None,
    ):
        """Process: run one or more services over one stored object.

        Placement follows the paper's fetch-and-process decision: every
        node advertising the services (plus EC2 when configured) gets a
        completion-time estimate per step, and the best target wins
        (see :meth:`_choose_processing_target`).  The surveillance use
        case invokes "a process operation ... on a set of stored images,
        to first perform face detection, and next face recognition
        processing on each image" (Section III-B): the argument object
        moves to the chosen target *once* and the steps execute back to
        back there, so a node's estimates fold into one
        (:func:`fold_estimates`).

        Returns a :class:`ProcessResult`; all timing includes the
        decision process itself, as the paper's results do.
        """
        if not qualified_services:
            raise ValueError("pipeline needs at least one service")
        tel, span = self._span(
            "vstore.process", ctx, object=name, services="+".join(qualified_services)
        )
        started = self.sim.now
        yield self.sim.timeout(self.op_overhead_s)
        meta, dht_s = yield from self._lookup_meta(name, ctx=span)
        self._check_access(meta)
        decision_t0 = self.sim.now
        first_choice = None
        steps = []
        snapshots: dict[str, ResourceSnapshot] = {}
        for qs in qualified_services:
            choice, step_estimates, step_snapshots = (
                yield from self._choose_processing_target(meta, qs, policy, ctx=span)
            )
            first_choice = first_choice or choice
            steps.append(step_estimates)
            snapshots.update(step_snapshots)
        estimates = fold_estimates(steps)
        if estimates:
            target = min(
                estimates,
                key=lambda e: self._policy_rank(policy, snapshots[e.node], e.total_s),
            ).node
        else:
            # No node can run every step: follow the first step's choice.
            target = first_choice
        decision_s = self.sim.now - decision_t0

        move_t0 = self.sim.now
        if target == "@ec2":
            if meta.is_remote:
                # The instance pulls from S3 — both sit in the cloud, so
                # the movement is cloud-internal and fast.
                yield self.sim.timeout(meta.size_mb / 200.0)
            else:
                yield from self.ec2.upload_input(meta.location, meta.size_bytes)
            move_s = self.sim.now - move_t0
            exec_t0 = self.sim.now
            output_mb = meta.size_mb
            for qs in qualified_services:
                result = yield from self.ec2.run_service(qs, meta.size_mb)
                output_mb = result.output_mb
            execute_s = self.sim.now - exec_t0
            if return_output:
                yield from self.ec2.download_output(
                    self.name, output_mb * 1024 * 1024
                )
            executed_on = self.ec2.name
        elif target == self.name:
            yield from self._pull_payload(meta, span)
            move_s = self.sim.now - move_t0
            output_mb, execute_s = yield from self._execute_steps(
                qualified_services, meta.size_mb, span
            )
            executed_on = self.name
        else:
            body = {
                "meta": meta.wire(),
                "services": list(qualified_services),
                "reply_to": self.name if return_output else None,
            }
            if span is not None:
                body["span"] = span.ctx_wire()
            reply = yield from self._call(
                target, MSG_PROCESS_REMOTE, body, timeout=3600.0
            )
            move_s = reply["move_s"]
            execute_s = reply["execute_s"]
            output_mb = reply["output_mb"]
            executed_on = target

        if span is not None:
            tel.end(span, executed_on=executed_on)
        return ProcessResult(
            object_name=name,
            service="+".join(qualified_services),
            executed_on=executed_on,
            output_mb=output_mb,
            total_s=self.sim.now - started,
            decision_s=decision_s + dht_s,
            move_s=move_s,
            execute_s=execute_s,
            estimates=estimates,
        )

    def _execute_steps(self, qualified_services: list[str], size_mb: float, span):
        """Process: run the services back to back in this node's guest.

        Returns ``(output_mb, execute_s)``: the last step's output and
        the time the steps took.
        """
        domain = self.guest_domain or self.dom0_domain
        if domain is None:
            raise VStoreError(f"{self.name} has no domain to execute in")
        t0 = self.sim.now
        output_mb = size_mb
        for qs in qualified_services:
            service = self.registry.local[qs]
            result = yield from service.execute(domain, size_mb, ctx=span)
            output_mb = result.output_mb
        return output_mb, self.sim.now - t0

    def fetch_process(self, name: str, qualified_service: str, ctx=None):
        """Process: fetch an object with processing attached.

        "When the node storing the object receives the request, it uses
        the service identifier to first determine if the requesting
        node is capable of executing the service itself" — in which
        case the object is simply fetched and processed in the
        requester's guest domain; otherwise the processing is placed
        like a regular process operation and only the (usually smaller)
        output moves.
        """
        started = self.sim.now
        snapshot = self.snapshot()
        service = self.registry.local.get(qualified_service)
        if (
            service is not None
            and snapshot is not None
            and service.profile.admits(snapshot)
        ):
            fetch = yield from self.fetch_object(name, ctx=ctx)
            domain = self.guest_domain or self.dom0_domain
            svc_result = yield from service.execute(domain, fetch.meta.size_mb, ctx=ctx)
            return ProcessResult(
                object_name=name,
                service=qualified_service,
                executed_on=self.name,
                output_mb=svc_result.output_mb,
                total_s=self.sim.now - started,
                move_s=fetch.total_s,
                execute_s=svc_result.elapsed_s,
            )
        return (yield from self.process(name, qualified_service, ctx=ctx))

    # -- processing-target selection -------------------------------------------

    def _choose_processing_target(
        self,
        meta: ObjectMeta,
        qualified_service: str,
        policy: DecisionPolicy,
        ctx=None,
    ):
        """Pick where to run one service: (target, estimates, snapshots).

        "The destination of the service execution is chosen ... by
        selecting the most suitable of all possible locations that
        support the service" (Section III-B): every node advertising
        the service in the registry (plus EC2 when configured) gets a
        completion-time estimate — locate + argument movement +
        execution — and the minimum wins.  ``"@ec2"`` is the marker for
        the configured EC2 instance.
        """
        service = self.registry.local.get(qualified_service)
        ec2_has_it = self.ec2 is not None and qualified_service in self.ec2.services
        try:
            entry = yield from self.registry.lookup(qualified_service, ctx=ctx)
            hosts = list(entry["nodes"])
            profile = self.registry.profile_of(entry)
            admits = self.registry.admitter(entry)
        except KeyNotFoundError:
            # Never registered in the home cloud; EC2 (or a local
            # deployment) may still carry it.
            if not ec2_has_it:
                if service is not None:
                    return self.name, [], {}
                raise ServiceUnavailableError(qualified_service) from None
            hosts = []
            profile = service.profile if service is not None else None
            if profile is None:
                from repro.services import ServiceProfile

                profile = ServiceProfile()
            admits = service.admits if service is not None else profile.admits

        estimates: list[PlacementEstimate] = []
        snapshots: dict[str, ResourceSnapshot] = {}
        reference = self._service_for_estimation(qualified_service, profile)
        candidates = yield from self.decision.decide(
            policy, require=admits, among=hosts, ctx=ctx
        )
        # Movement rides the same network we have been observing: cap
        # every candidate's advertised bandwidth by our own recent
        # experience, so the decision adapts to degraded conditions
        # even before the candidates republish (future work iv).
        own = self.snapshot()
        observed_mbps = own.bandwidth_mbps if own is not None else None
        for candidate in candidates:
            snapshot = candidate.snapshot
            if (
                observed_mbps is not None
                and snapshot.bandwidth_mbps > observed_mbps
            ):
                from dataclasses import replace

                snapshot = replace(snapshot, bandwidth_mbps=observed_mbps)
            estimates.append(
                estimate_completion(
                    reference,
                    meta.size_mb,
                    snapshot,
                    meta.location,
                    setup_s=self._setup_estimate_s(
                        reference, candidate.node, qualified_service
                    ),
                )
            )
            snapshots[candidate.node] = snapshot
        if ec2_has_it:
            ec2_snapshot = ResourceSnapshot(
                node="@ec2",
                cpu_cores=self.ec2.profile.cpu_cores,
                cpu_ghz=self.ec2.profile.cpu_ghz,
                cpu_load=self.ec2.hypervisor.instantaneous_load(),
                mem_total_mb=self.ec2.profile.mem_mb,
                mem_free_mb=self.ec2.profile.mem_mb,
                bandwidth_mbps=self._uplink_mbps(),
                taken_at=self.sim.now,
            )
            ec2_service = self.ec2.services[qualified_service]
            ec2_setup = (
                0.0
                if ec2_service.is_warm(self.ec2.domain)
                else ec2_service.setup_mb / self.ec2.profile.disk_mb_s
            )
            estimates.append(
                estimate_completion(
                    reference,
                    meta.size_mb,
                    ec2_snapshot,
                    meta.location,
                    setup_s=ec2_setup,
                )
            )
            snapshots["@ec2"] = ec2_snapshot
        if not estimates:
            if service is not None:
                # Last resort: run it here even if resources are tight.
                return self.name, [], {}
            raise ServiceUnavailableError(qualified_service)
        best = min(
            estimates,
            key=lambda e: self._policy_rank(policy, snapshots[e.node], e.total_s),
        )
        return best.node, estimates, snapshots

    @staticmethod
    def _policy_rank(
        policy: DecisionPolicy, snapshot: ResourceSnapshot, total_s: float
    ) -> tuple:
        """Final-selection ordering under a decision policy.

        PERFORMANCE minimizes estimated completion time; BALANCED
        prefers lightly loaded nodes; BATTERY refuses to drain portable
        devices before considering speed.
        """
        if policy is DecisionPolicy.BALANCED:
            return (round(snapshot.cpu_load, 2), total_s)
        if policy is DecisionPolicy.BATTERY:
            return (0 if snapshot.on_mains else 1, total_s)
        return (0, total_s)

    def _setup_estimate_s(
        self, reference: Service, candidate: str, qualified_service: str
    ) -> float:
        """Cold-start cost expected at a candidate.

        We know our own warmth exactly; for remote candidates the
        conservative assumption is a cold model load (the surveillance
        node that runs the pipeline continuously is the one that
        benefits — Figure 7's S1).
        """
        if reference.setup_mb <= 0:
            return 0.0
        if candidate == self.name:
            service = self.registry.local.get(qualified_service)
            domain = self.guest_domain or self.dom0_domain
            if service is not None and domain is not None and service.is_warm(domain):
                return 0.0
        return reference.setup_mb / self.disk_mb_s

    def _service_for_estimation(self, qualified_service, profile) -> Service:
        local = self.registry.local.get(qualified_service)
        if local is not None:
            return local
        # Estimate with a generic model scaled by the profile when the
        # service is not deployed locally; candidates that host it will
        # execute the real model.
        from repro.services import ComputeModel

        return Service(
            qualified_service.split("#")[0],
            ComputeModel(cycles_per_mb=2e9),
            profile=profile,
            service_id=qualified_service.split("#")[-1],
        )

    def _snapshot_of(self, node_name: str):
        from repro.monitoring import resource_key

        try:
            value = yield from self.kv.get(resource_key(node_name))
        except (KeyNotFoundError, HostDownError, RpcTimeoutError, RemoteError):
            return None
        return ResourceSnapshot.from_wire(value)

    def _uplink_mbps(self) -> float:
        """Rough uplink estimate used for EC2 placement estimates."""
        snapshot = self.snapshot()
        if snapshot is not None:
            return min(snapshot.bandwidth_mbps, 4.5)
        return 1.5

    # -- RPC handlers ---------------------------------------------------------------

    def _register_handlers(self) -> None:
        ep = self.endpoint
        ep.register(MSG_STORE_VOLUNTARY, self._handle_store_voluntary)
        ep.register(MSG_FETCH, self._handle_fetch)
        ep.register(MSG_PROCESS_REMOTE, self._handle_process_remote)
        ep.register(MSG_DELETE, self._handle_delete)
        ep.register(MSG_PING, self._handle_ping)

    def _handle_store_voluntary(self, request: Request):
        body = request.body
        tel, span = self._span(
            "vstore.serve_store", body.get("span"), src=body["src"]
        )
        try:
            yield from self._receive(body["name"], body["size_mb"], body["src"], span)
        except (NetworkError, VStoreError) as exc:
            if span is not None:
                tel.fail(span, exc)
            raise
        if span is not None:
            tel.end(span)
        return {"stored": True, "bin": "voluntary"}

    def _handle_fetch(self, request: Request):
        body = request.body
        name = body["name"]
        tel, span = self._span("vstore.serve_fetch", body.get("span"), object=name)
        if name in self.mandatory:
            size_mb = self.mandatory.size_of(name)
        elif name in self.voluntary:
            size_mb = self.voluntary.size_of(name)
        else:
            exc = ObjectNotFoundError(name)
            if span is not None:
                tel.fail(span, exc)
            raise exc
        # Disk read, then the zero-copy push to the requester.
        yield self.sim.timeout(size_mb / self.disk_mb_s)
        yield from self.transfer.send(
            self.name, body["to"], size_mb * 1024 * 1024, ctx=span
        )
        if span is not None:
            tel.end(span)
        return {"size_mb": size_mb}

    def _handle_process_remote(self, request: Request):
        body = request.body
        services = body["services"]
        tel, span = self._span(
            "vstore.serve_process", body.get("span"), services="+".join(services)
        )
        for qs in services:
            if qs not in self.registry.local:
                exc = ServiceUnavailableError(qs)
                if span is not None:
                    tel.fail(span, exc)
                raise exc
        meta = ObjectMeta.from_wire(body["meta"])
        move_t0 = self.sim.now
        if not self.holds(meta.name):
            yield from self._pull_payload(meta, span)
        move_s = self.sim.now - move_t0
        output_mb, execute_s = yield from self._execute_steps(
            services, meta.size_mb, span
        )
        reply_to = body.get("reply_to")
        if reply_to and reply_to != self.name and output_mb > 0:
            yield from self.transfer.send(
                self.name, reply_to, output_mb * 1024 * 1024, ctx=span
            )
        if span is not None:
            tel.end(span)
        return {"output_mb": output_mb, "execute_s": execute_s, "move_s": move_s}

    def _handle_delete(self, request: Request) -> dict:
        self._remove_local(request.body["name"])
        return {"deleted": True}

    def _handle_ping(self, request: Request) -> dict:
        """Cheap holdership probe (the repairer's health check): which
        of ``names`` this node holds, in order."""
        return {"holds": [self.holds(name) for name in request.body["names"]]}
