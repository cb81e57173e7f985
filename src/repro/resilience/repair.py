"""Background re-replication of under-replicated object payloads.

Metadata heals itself (the KV store promotes replicas and re-pushes on
churn), but after a holder crashes an object's *payload* copies stay
one short until someone notices.  The :class:`Repairer` is that
someone: each node runs one, and on a fixed period it walks the object
metadata it *owns* (records in its KV primary map named ``object:*`` —
ownership makes the sweep naturally partitioned, each object is
repaired by exactly one live node) and for every object:

1. **probes** the recorded holders (primary + replicas) with a cheap
   ``vstore.ping``, treating breaker-open peers as down without
   touching the network;
2. **promotes** a live replica to primary when the primary is dead
   (or falls back to the object's cloud copy when no home copy
   survives);
3. **re-replicates** from a live holder to freshly chosen peers until
   the object is back to ``1 + data_replicas`` home copies (the holder
   reads the payload from disk once and pushes each copy), spilling to
   nothing — never to the cloud — because the cloud copy, when present,
   already provides the durability backstop;
4. **republishes** the updated metadata.

Every action lands in the ``repairs`` log (and on
``resilience.repair.*`` counters when metrics are attached), which the
chaos proofs assert on: after a crash schedule, the log must be
non-empty and the final metadata fully replicated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.kvstore.errors import KvError
from repro.monitoring import DecisionPolicy
from repro.net import HostDownError, NetworkError, RemoteError, RpcTimeoutError
from repro.resilience.retry import ResilientCaller
from repro.sim import Interrupt
from repro.vstore.errors import VStoreError
from repro.vstore.node import MSG_PING, MSG_REPLICATE, object_key
from repro.vstore.objects import LOCATION_REMOTE, ObjectMeta
from repro.vstore.striping import StripingPolicy, chunk_name, plan_chunk_placement

__all__ = ["Repairer", "RepairAction"]

PING_TIMEOUT_S = 10.0
REPLICATE_TIMEOUT_S = 600.0


@dataclass
class RepairAction:
    """One repair the sweeper performed (post-mortem log entry)."""

    at: float
    object: str
    #: "replicate" | "promote" | "promote-cloud" | "lost" | "rebuild"
    #: | "reattach" (a pruned holder returned with its payload intact)
    action: str
    detail: str = ""
    nodes: list[str] = field(default_factory=list)


class Repairer:
    """Periodic payload-redundancy sweeper for one node's owned objects."""

    def __init__(
        self,
        vstore,
        data_replicas: int = 2,
        period_s: float = 30.0,
        caller: Optional[ResilientCaller] = None,
        metrics=None,
        track_lost: bool = False,
    ) -> None:
        if data_replicas < 0:
            raise ValueError("data_replicas must be >= 0")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.vstore = vstore
        self.data_replicas = data_replicas
        self.period_s = period_s
        self.caller = caller
        self.metrics = metrics
        #: Remember pruned holders in ``meta.lost_replicas`` and probe
        #: them on later sweeps — on durable-storage deployments a
        #: crashed holder can come back *with its payload*, and
        #: reattaching it costs one ping instead of a full re-copy.
        self.track_lost = track_lost
        self.repairs: list[RepairAction] = []
        self.scans = 0
        self._process = None

    # -- lifecycle (same shape as ResourceMonitor) ---------------------------

    @property
    def sim(self):
        return self.vstore.sim

    @property
    def name(self) -> str:
        return self.vstore.name

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.is_alive

    def start(self) -> None:
        if not self.running:
            self._process = self.sim.process(self._run())

    def stop(self) -> None:
        if self.running:
            self._process.interrupt("repairer stopped")
        self._process = None

    def _run(self):
        try:
            while True:
                yield self.sim.timeout(self.period_s)
                try:
                    yield from self.scan_once()
                except (NetworkError, KvError, VStoreError):
                    # Transient churn mid-sweep; next period retries.
                    pass
        except Interrupt:
            return

    def _count(self, metric: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(metric, node=self.name).inc()

    def _log(self, action: str, obj: str, detail: str, nodes: list[str]) -> None:
        self.repairs.append(
            RepairAction(self.sim.now, obj, action, detail, nodes)
        )
        self._count(f"resilience.repair.{action.replace('-', '_')}")

    # -- the sweep -----------------------------------------------------------

    def scan_once(self):
        """Process: check and repair every object this node owns.

        Returns the number of repair actions performed.
        """
        self.scans += 1
        self._count("resilience.repair.scans")
        before = len(self.repairs)
        # Sorted for a deterministic sweep order regardless of how the
        # primary map was populated.
        records = sorted(
            (
                r
                for r in self.vstore.kv.primary.values()
                if r.name.startswith("object:")
            ),
            key=lambda r: r.name,
        )
        for record in records:
            try:
                meta = ObjectMeta.from_wire(record.latest.value)
            except (TypeError, ValueError, AttributeError):
                continue  # not object metadata after all
            try:
                yield from self.repair_object(meta)
            except (NetworkError, KvError, VStoreError):
                continue  # this object again next sweep
        return len(self.repairs) - before

    def repair_object(self, meta: ObjectMeta):
        """Process: restore one object to full payload redundancy."""
        if meta.is_remote and not meta.replicas:
            return False  # cloud-resident: the cloud is the redundancy
        tel = self.sim.telemetry
        span = (
            tel.begin(
                "resilience.repair",
                layer="resilience",
                node=self.name,
                object=meta.name,
            )
            if tel is not None
            else None
        )
        try:
            changed = yield from self._repair(meta, span)
        except BaseException as exc:
            if span is not None:
                tel.fail(span, exc)
            raise
        if span is not None:
            tel.end(span, changed=changed)
        return changed

    def _repair(self, meta: ObjectMeta, span):
        if meta.is_striped:
            return (yield from self._repair_striped(meta, span))
        holders = []
        if not meta.is_remote and meta.location:
            holders.append(meta.location)
        holders.extend(n for n in meta.replicas if n not in holders)
        live = []
        for holder in holders:
            alive = yield from self._holds_object(holder, meta.name, span)
            if alive:
                live.append(holder)

        changed = False
        if self.track_lost and meta.lost_replicas:
            returned: list[str] = []
            for holder in list(meta.lost_replicas):
                if holder in live:
                    meta.lost_replicas.remove(holder)
                    changed = True
                    continue
                alive = yield from self._holds_object(holder, meta.name, span)
                if alive:
                    returned.append(holder)
            if returned:
                # The cheap recovery path: the holder replayed its WAL
                # and still has the payload — reattach, zero bytes moved.
                for holder in returned:
                    meta.lost_replicas.remove(holder)
                    live.append(holder)
                self._log(
                    "reattach",
                    meta.name,
                    f"{len(returned)} recovered holder(s) rejoined with data",
                    returned,
                )
                changed = True
        if not meta.is_remote and meta.location not in live:
            # The primary is gone: promote a surviving replica, or fall
            # back to the cloud copy when one exists.
            if live:
                old = meta.location
                meta.location = live[0]
                meta.bin_name = self._bin_of(live[0], meta.name)
                self._note_lost(meta, [old])
                self._log(
                    "promote", meta.name, f"{old} -> {live[0]}", [live[0]]
                )
                changed = True
            elif meta.url:
                old = meta.location
                self._note_lost(meta, [old, *meta.replicas])
                meta.location = LOCATION_REMOTE
                meta.bin_name = ""
                meta.replicas = []
                self._log("promote-cloud", meta.name, f"{old} -> cloud", [])
                yield from self._republish(meta, span)
                return True
            else:
                self._log("lost", meta.name, "no live copy anywhere", [])
                return False
        if meta.replicas != [n for n in live if n != meta.location]:
            dead = [
                n for n in meta.replicas if n not in live and n != meta.location
            ]
            self._note_lost(meta, dead)
            meta.replicas = [n for n in live if n != meta.location]
            changed = True

        missing = self.data_replicas - len(meta.replicas)
        if missing > 0 and not meta.is_remote:
            added = yield from self._replicate(meta, missing, span)
            if added:
                meta.replicas.extend(added)
                self._log(
                    "replicate",
                    meta.name,
                    f"restored {len(added)}/{missing} missing copies",
                    added,
                )
                changed = True

        if changed:
            yield from self._republish(meta, span)
        return changed

    def _repair_striped(self, meta: ObjectMeta, span):
        """Process: rebuild a stripe's missing chunks from any k survivors.

        The erasure code makes repair cheap: instead of re-copying the
        whole payload, this node pulls any ``k`` live chunks (k/n of
        the object's bytes), re-encodes the lost ones, and pushes each
        rebuilt chunk to a fresh decision-engine-chosen holder.  Chunks
        in the remote cloud count as live — the cloud is the
        durability backstop, not a failure domain we probe.  When fewer
        than ``k`` chunks survive, the full-object cloud copy (if any)
        takes over as the object's location; otherwise the stripe is
        logged lost and left for a later sweep in case holders return.
        """
        live: list[int] = []
        for index, holder in enumerate(meta.chunk_nodes):
            if holder == LOCATION_REMOTE:
                live.append(index)
                continue
            alive = yield from self._holds_object(
                holder, chunk_name(meta.name, index), span
            )
            if alive:
                live.append(index)

        n = meta.stripe_k + meta.stripe_m
        if len(live) == n:
            return False  # full stripe width; nothing to do
        if len(live) < meta.stripe_k:
            if meta.url:
                meta.location = LOCATION_REMOTE
                meta.bin_name = ""
                meta.stripe_k = 0
                meta.stripe_m = 0
                meta.chunk_nodes = []
                self._log(
                    "promote-cloud",
                    meta.name,
                    f"only {len(live)}/{n} chunks live -> cloud copy",
                    [],
                )
                yield from self._republish(meta, span)
                return True
            self._log(
                "lost",
                meta.name,
                f"only {len(live)}/{n} chunks live, need {meta.stripe_k}",
                [],
            )
            return False

        missing = [i for i in range(n) if i not in live]
        chunk_mb = meta.size_mb / meta.stripe_k
        # Pull the k fastest live chunks here and re-encode the lost
        # ones.  The stragglers' pulls keep draining in the background;
        # only k chunks' worth of bytes cross the network.
        pulls = [self.vstore._pull_chunk(meta, i, span) for i in live]
        outcomes = yield self.sim.gather(
            pulls, count=meta.stripe_k, return_exceptions=True
        )
        pulled = sum(1 for outcome in outcomes if isinstance(outcome, int))
        if pulled < meta.stripe_k:
            # A holder died between probe and pull; next sweep retries.
            return False
        policy = self.vstore.striping
        mb_s = policy.codec_mb_s if policy is not None else StripingPolicy().codec_mb_s
        yield self.sim.timeout(meta.size_mb / mb_s)

        exclude = {meta.chunk_nodes[i] for i in live}
        exclude.discard(LOCATION_REMOTE)
        try:
            candidates = yield from self.vstore.decision.decide(
                DecisionPolicy.BALANCED,
                require=lambda s: s.voluntary_free_mb >= chunk_mb,
                ctx=span,
            )
        except (HostDownError, RpcTimeoutError, RemoteError):
            candidates = []
        plan = plan_chunk_placement(
            [c.node for c in candidates], len(missing), exclude=sorted(exclude)
        )
        rebuilt: list[str] = []
        for index, target in zip(missing, plan):
            if target is None:
                # Every live home node already holds a chunk of this
                # stripe; the cloud is the one distinct holder left.
                if self.vstore.cloud is None:
                    continue  # retry next sweep (a node may revive)
                yield from self.vstore.cloud.store_remote(
                    chunk_name(meta.name, index),
                    chunk_mb * 1024 * 1024,
                    ctx=span,
                )
                meta.chunk_nodes[index] = LOCATION_REMOTE
                rebuilt.append(LOCATION_REMOTE)
                continue
            try:
                yield from self.vstore._push_chunk(
                    meta.name, index, chunk_mb, target, span
                )
            except (HostDownError, RpcTimeoutError, RemoteError, VStoreError):
                continue
            meta.chunk_nodes[index] = target
            rebuilt.append(target)
        if not rebuilt:
            return False
        self._log(
            "rebuild",
            meta.name,
            f"re-encoded {len(rebuilt)}/{len(missing)} missing chunks",
            rebuilt,
        )
        self._count("stripe.repair.rebuilt")
        yield from self._republish(meta, span)
        return True

    def _note_lost(self, meta: ObjectMeta, nodes) -> None:
        """Remember dead holders (durable deployments only) so a later
        sweep can reattach them if they return with their data."""
        if not self.track_lost:
            return
        for node in nodes:
            if node and node != LOCATION_REMOTE and node not in meta.lost_replicas:
                meta.lost_replicas.append(node)
        # Bounded memory: only the most recent departures matter.
        del meta.lost_replicas[:-8]

    def _replicate(self, meta: ObjectMeta, missing: int, span):
        """Process: pick targets and command a live holder to push copies."""
        exclude = {meta.location, *meta.replicas}
        candidates = yield from self.vstore.decision.decide(
            DecisionPolicy.BALANCED,
            require=lambda s: s.voluntary_free_mb >= meta.size_mb,
            ctx=span,
        )
        targets = [c.node for c in candidates if c.node not in exclude]
        targets = targets[:missing]
        if not targets:
            return []
        body = {"name": meta.name, "size_mb": meta.size_mb, "targets": targets}
        if span is not None:
            body["span"] = span.ctx_wire()
        try:
            if meta.location == self.name:
                reply = yield from self.vstore.replicate_local(
                    meta.name, meta.size_mb, targets, ctx=span
                )
            else:
                reply = yield from self._call(
                    meta.location,
                    MSG_REPLICATE,
                    body,
                    timeout=REPLICATE_TIMEOUT_S,
                )
        except (HostDownError, RpcTimeoutError, RemoteError):
            return []
        return list(reply.get("stored", []))

    def _holds_object(self, holder: str, name: str, span):
        """Process: does ``holder`` answer and physically hold ``name``?"""
        if holder == self.name:
            return self.vstore.holds(name)
        breakers = self.caller.breakers if self.caller is not None else None
        if breakers is not None and breakers.is_open(holder, self.sim.now):
            return False  # recently failing; don't burn a probe on it
        body = {"name": name}
        if span is not None:
            body["span"] = span.ctx_wire()
        try:
            # A deliberate bare call: failure of the probe *is* the
            # signal, so retrying it would only slow the sweep down.
            reply = yield self.vstore.endpoint.call(
                holder, MSG_PING, body, timeout=PING_TIMEOUT_S
            )
        except (HostDownError, RpcTimeoutError, RemoteError):
            if breakers is not None:
                breakers.record_failure(holder, self.sim.now)
            return False
        if breakers is not None:
            breakers.record_success(holder, self.sim.now)
        return bool(reply.get("holds"))

    def _call(self, dst, msg_type, body, timeout):
        if self.caller is not None:
            return (
                yield from self.caller.call(dst, msg_type, body, timeout=timeout)
            )
        return (
            yield self.vstore.endpoint.call(dst, msg_type, body, timeout=timeout)
        )

    def _republish(self, meta: ObjectMeta, span):
        yield from self.vstore.kv.put(object_key(meta.name), meta.wire(), ctx=span)

    def _bin_of(self, holder: str, name: str) -> str:
        if holder == self.name:
            return "mandatory" if name in self.vstore.mandatory else "voluntary"
        # Peers store received copies in voluntary space.
        return "voluntary"
