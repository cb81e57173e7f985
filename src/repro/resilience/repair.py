"""Background re-replication of under-replicated object payloads.

Metadata heals itself (the KV store promotes replicas and re-pushes on
churn), but after a holder crashes an object's *payload* copies stay
one short until someone notices.  The :class:`Repairer` is that
someone: each node runs one, and when it has a reason to it walks the
object metadata it *owns* (records in its KV primary map named
``object:*`` — ownership makes the sweep naturally partitioned, each
object is repaired by exactly one live node).  The reasons
(:meth:`Repairer.trigger`) are the signs of a peer that failed or came
back: the failure detector finds a peer crashed
(:class:`~repro.resilience.detector.FailureDetector`), the overlay
forgets or learns a peer (``on_node_left`` / ``on_node_joined``), a
peer's circuit breaker opens, a fetch fails over, or this node revives
after its anti-entropy round.  Triggers that arrive while a sweep is
pending or running add at most one follow-up sweep.  With a durable
storage backend a triggered sweep restores at once only what is one
failure from loss (:meth:`Repairer.scan_once`).  A
slow periodic backstop sweep (``period_s`` after the last one ended;
triggered sweeps do not postpone it) catches loss that no signal
reports, such as a disk crash that drops unsynced appends.  A sweep

1. **probes** each distinct holder once: one ``vstore.ping`` per peer
   carries the names of every share (full copy or stripe chunk) the
   sweep's objects place there, plus pruned holders' names when
   ``track_lost`` is on, and the peer answers which of them it holds.
   Breaker-open peers count as down without touching the network;
   cloud holders count as live.  An object whose n holders all hold
   their share, with no pruned holder to check, is healthy and needs
   nothing more.  For every other object the sweep
2. **promotes** a live replica to primary when the primary is dead
   (or falls back to the object's cloud copy when fewer than k
   holders survive);
3. **restores** the missing holders from any k live ones, in one
   scatter: a live full copy streams each missing copy itself, and a
   stripe's missing chunks are re-encoded here from k pulled chunks;
   shares no home node takes spill to the cloud, as for a store;
4. **republishes** the metadata when it changed.

A sweep parses an owned record's metadata only when the record's
``(version, updated_at)`` stamp changed since the last sweep.  It
forgets records it no longer owns, and parses afresh any object that
went to repair, because the repair edits that metadata in place.

A sweep works from the metadata it read at its start, so before it
logs an object lost or moved to the cloud, and before it republishes,
it re-reads its own ``kv.primary`` record.  When a delete or a new
store got there first, the sweep leaves the metadata alone and drops
the shares it placed that the current metadata does not name.

Every action lands in the ``repairs`` log (and on
``resilience.repair.*`` counters when metrics are attached), which the
chaos proofs assert on: after a crash schedule, the log must be
non-empty and the final metadata fully replicated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Optional

from repro.kvstore.errors import KvError
from repro.net import HostDownError, NetworkError, RemoteError, RpcTimeoutError
from repro.resilience.retry import ResilientCaller
from repro.sim import Interrupt
from repro.vstore.errors import ObjectNotFoundError, VStoreError
from repro.vstore.node import MSG_PING, object_key
from repro.vstore.objects import LOCATION_REMOTE, ObjectMeta
from repro.vstore.striping import object_of

__all__ = ["Repairer", "RepairAction"]

PING_TIMEOUT_S = 10.0


def _stamp(record) -> Optional[tuple]:
    """What identifies one write of a metadata record (None: no record)."""
    return None if record is None else (record.version, record.latest.updated_at)


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
    """Payload-redundancy sweeper for one node's owned objects: sweeps on
    suspicion of a failed or returned peer, and every ``period_s`` as a
    backstop."""

    def __init__(
        self,
        vstore,
        data_replicas: int = 2,
        period_s: float = 300.0,
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
        #: reattaching it costs no copy: the sweep's probe answers it.
        self.track_lost = track_lost
        self.repairs: list[RepairAction] = []
        self.scans = 0
        #: Record name -> (stamp, parsed meta or None) for every owned
        #: ``object:*`` record the last sweep read: an unchanged record
        #: is not parsed again.
        self._metas: dict[str, tuple] = {}
        self._process = None
        #: The event the idle loop waits on (None while it is not
        #: waiting), whether a trigger arrived since the last sweep
        #: began, and the pending backstop timer and whether it fired.
        self._wake = None
        self._again = False
        self._timer = None
        self._backstop_due = False
        #: Holder -> stored names this node's deletes could not drop
        #: there (the holder was down); each sweep retries them first.
        self._missed: dict[str, set[str]] = {}
        vstore.chimera.on_node_left.append(self.trigger)
        vstore.chimera.on_node_joined.append(self._on_joined)
        vstore.on_failover = [*vstore.on_failover, self.trigger]
        vstore.on_missed_drop = [*vstore.on_missed_drop, self._on_missed_drop]
        if caller is not None and caller.breakers is not None:
            caller.breakers.on_open.append(self.trigger)

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
            self._again = self._backstop_due = False
            self._arm_backstop()
            self._process = self.sim.process(self._run())

    def stop(self) -> None:
        if self.running:
            self._process.interrupt("repairer stopped")
        self._process = None
        self._wake = None
        if self._timer is not None:
            self._timer.callbacks.clear()  # the pending backstop goes inert
            self._timer = None

    def trigger(self, *_reason) -> None:
        """Sweep now: a peer may have failed or come back.

        Takes (and ignores) what the signal passes, e.g. the peer.  A
        trigger while a sweep is pending changes nothing, and any while
        one runs add a single follow-up sweep.  A stopped repairer
        ignores triggers.
        """
        if self.running:
            self._again = True
            self._wake_up()

    def _on_joined(self, peer) -> None:
        """A peer joined or came back: sweep.  Its announcement is
        evidence of life, so a breaker its outage opened here closes
        first; the sweep then probes it and reattaches what it kept."""
        breakers = self.caller.breakers if self.caller is not None else None
        if breakers is not None and breakers.is_open(peer.name, self.sim.now):
            breakers.record_success(peer.name, self.sim.now)
        self.trigger()

    def _on_missed_drop(self, holder: str, stored: str) -> None:
        """A delete could not reach ``holder``: drop its copy of
        ``stored`` at a later sweep.  No trigger: the holder is down,
        and its return triggers one."""
        self._missed.setdefault(holder, set()).add(stored)

    def _redrop_missed(self):
        """Process: drop the copies this node's deletes missed on
        holders that were down.

        A copy stays when its object has metadata again: it was stored
        anew under the same name, and that copy is no orphan.  A holder
        still unreachable keeps its names for the next sweep.
        """
        vstore = self.vstore
        for holder in sorted(self._missed):
            names = self._missed[holder]
            for stored in sorted(names):
                try:
                    yield from vstore._lookup_meta(object_of(stored))
                except ObjectNotFoundError:
                    try:
                        yield from vstore._drop(holder, stored, None)
                    except NetworkError:
                        break  # still down: the rest wait too
                except (NetworkError, KvError):
                    continue
                names.discard(stored)
            if not names:
                del self._missed[holder]

    def _arm_backstop(self) -> None:
        """Schedule the backstop sweep a period from now: once per
        backstop sweep, so triggered sweeps never postpone it."""
        self._timer = self.sim._call_at(self.sim.now + self.period_s, self._on_backstop)

    def _on_backstop(self, _timer) -> None:
        self._timer = None
        self._backstop_due = True
        self._wake_up()

    def _wake_up(self) -> None:
        """Resume the idle loop, if it is waiting."""
        wake, self._wake = self._wake, None
        if wake is not None:
            wake.succeed()

    def _run(self):
        try:
            while True:
                if not (self._again or self._backstop_due):
                    self._wake = self.sim.event()
                    yield self._wake
                backstop = self._backstop_due
                self._again = self._backstop_due = False
                try:
                    if self._missed:
                        yield from self._redrop_missed()
                    yield from self.scan_once(triggered=not backstop)
                except (NetworkError, KvError, VStoreError):
                    # Transient churn mid-sweep; the next trigger or the
                    # backstop retries.
                    pass
                if backstop:
                    self._arm_backstop()
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

    def scan_once(self, triggered: bool = False):
        """Process: check and repair every object this node owns.

        A ``triggered`` sweep on a deployment with a durable storage
        backend leaves an object with a dead holder but more than k live ones
        for the backstop sweep: the dead holders may come back with
        their shares, and restoring them now would copy what a revive
        brings back for free.  An object one failure from loss is
        repaired at once, and a returned holder is reattached at once
        (that copies nothing).  Returns the number of repair actions
        performed.
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
        cached, self._metas = self._metas, {}
        metas = []
        for record in records:
            stamp = _stamp(record)
            hit = cached.get(record.name)
            if hit is not None and hit[0] == stamp:
                meta = hit[1]
            else:
                try:
                    meta = ObjectMeta.from_wire(record.latest.value)
                except (TypeError, ValueError, AttributeError):
                    meta = None  # not object metadata after all
            self._metas[record.name] = (stamp, meta)
            if meta is not None:
                metas.append((record.name, meta, stamp))
        held = yield from self._probe([meta for _, meta, _ in metas])
        storage = self.vstore.storage
        spare_waits = triggered and storage is not None and storage.durable
        for name, meta, stamp in metas:
            if self._healthy(meta, held):
                continue
            if spare_waits:
                dead = self._live(meta, held).count(None)
                if dead and len(meta.holders) - dead > meta.k:
                    continue
            # The repair edits ``meta`` in place: parse it afresh next time.
            self._metas.pop(name, None)
            try:
                yield from self.repair_object(meta, held, stamp)
            except (NetworkError, KvError, VStoreError):
                continue  # this object again next sweep
        return len(self.repairs) - before

    def repair_object(
        self, meta: ObjectMeta, held: Optional[set] = None, stamp: Optional[tuple] = None
    ):
        """Process: restore one object to full payload redundancy.

        ``held`` is a sweep's probe answers (see :meth:`_probe`); without
        it the object's holders are probed first.  ``stamp`` identifies
        the metadata write ``meta`` came from (default: this node's
        record now); the repair backs off if that write is superseded.
        """
        if meta.is_remote and not meta.replicas:
            return False  # cloud-resident: the cloud is the redundancy
        if stamp is None:
            stamp = _stamp(self._record(meta.name))
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
            if held is None:
                held = yield from self._probe([meta], span)
            changed = yield from self._repair(meta, held, stamp, span)
        except BaseException as exc:
            if span is not None:
                tel.fail(span, exc)
            raise
        if span is not None:
            tel.end(span, changed=changed)
        return changed

    def _repair(self, meta: ObjectMeta, held: set, stamp: Optional[tuple], span):
        """Process: restore the object's n holders from any k live ones.

        Holders are live as ``held`` answered; cloud holders always are.
        Full copies are interchangeable: the first live one becomes the
        primary and streams every missing copy itself.  A stripe's
        chunks are not: this node pulls any k live ones, re-encodes the
        lost ones, and streams those.  Either way the missing shares go out in one
        scatter (:meth:`VStoreNode.replicate_local`).  With fewer than k
        live holders the ``url`` cloud copy, if any, becomes the object;
        otherwise the object is logged lost and left for a later sweep
        in case holders return.  Returns whether the metadata changed.
        """
        before = meta.wire()
        placed_before = set(meta.copies())
        holders = meta.holders
        live = self._live(meta, held)
        if meta.k == 1 and self.track_lost and meta.lost_replicas:
            self._reattach(meta, live, held)
        alive = [node for node in live if node is not None]
        dead = [node for node in holders if node not in alive]
        if meta.k == 1:
            self._note_lost(meta, dead)

        if len(alive) < meta.k:
            if self._superseded(meta, stamp):
                return False
            if not meta.url:
                self._log(
                    "lost",
                    meta.name,
                    f"only {len(alive)}/{len(holders)} holders live, need {meta.k}",
                    [],
                )
                return False
            meta.location, meta.bin_name, meta.replicas = LOCATION_REMOTE, "", []
            meta.stripe_k, meta.stripe_m, meta.chunk_nodes = 0, 0, []
            self._log(
                "promote-cloud",
                meta.name,
                f"only {len(alive)}/{len(holders)} holders live -> cloud copy",
                [],
            )
            yield from self._republish(meta, span)
            return True

        if meta.k == 1:
            if alive[0] != meta.location:
                self._log(
                    "promote", meta.name, f"{meta.location} -> {alive[0]}", [alive[0]]
                )
                meta.bin_name = self._bin_of(alive[0], meta.name)
            slots = alive + [None] * (1 + self.data_replicas - len(alive))
            src = alive[0]
        else:
            slots = live
            src = self.name
        empty = [slot for slot, node in enumerate(slots) if node is None]
        if empty and meta.k > 1:
            # Pull the k fastest live chunks here and re-encode the lost
            # ones.  The stragglers' pulls keep draining in the
            # background; only k chunks' worth of bytes cross the network.
            pulls = [
                self.vstore._pull_chunk(meta, slot, span)
                for slot, node in enumerate(live)
                if node is not None
            ]
            outcomes = yield self.sim.gather(
                pulls, count=meta.k, return_exceptions=True
            )
            if sum(isinstance(outcome, int) for outcome in outcomes) < meta.k:
                return False  # a holder died between probe and pull
            yield from self.vstore.decode(meta)
        if empty:
            slots = yield from self.vstore.replicate_local(
                meta, slots, src, avoid=dead, ctx=span
            )
            restored = [slots[slot] for slot in empty if slots[slot] is not None]
            if restored:
                self._log(
                    "replicate" if meta.k == 1 else "rebuild",
                    meta.name,
                    f"restored {len(restored)}/{len(empty)} missing shares",
                    restored,
                )
                if meta.k > 1:
                    self._count("stripe.repair.rebuilt")
        if meta.k == 1:
            meta.location = slots[0]
            meta.replicas = [node for node in slots[1:] if node is not None]
        else:
            # A chunk nothing could take keeps its old holder for a
            # later sweep to retry.
            meta.chunk_nodes = [new or old for new, old in zip(slots, holders)]
        if meta.wire() == before:
            return False
        if self._superseded(meta, stamp):
            yield from self._drop_unnamed(meta, placed_before, span)
            return False
        yield from self._republish(meta, span)
        return True

    def _record(self, name: str):
        """This node's own ``kv.primary`` metadata record of ``name``."""
        kv = self.vstore.kv
        return kv.primary.get(kv.key_for(object_key(name)).hex)

    def _superseded(self, meta: ObjectMeta, stamp: Optional[tuple]) -> bool:
        """Was the metadata write ``stamp`` deleted or overwritten since
        it was read?  A local read: it costs no simulated time."""
        return _stamp(self._record(meta.name)) != stamp

    def _drop_unnamed(self, meta: ObjectMeta, kept: set, span):
        """Process: drop the shares of ``meta`` this repair placed that
        the current metadata, if any, does not name."""
        record = self._record(meta.name)
        if record is not None:
            kept = kept | set(ObjectMeta.from_wire(record.latest.value).copies())
        yield from self.vstore._scatter(
            [
                self.vstore._drop(node, stored, span)
                for node, stored in meta.copies()
                if (node, stored) not in kept
            ]
        )

    def _reattach(self, meta: ObjectMeta, live: list, held: set) -> None:
        """Add pruned holders that came back with the payload to
        ``live``.  The cheap recovery path: the holder replayed its WAL,
        so reattaching it moves zero bytes."""
        returned: list[str] = []
        for holder in list(meta.lost_replicas):
            if holder in live:
                meta.lost_replicas.remove(holder)
            elif self._holds(held, holder, meta.name):
                meta.lost_replicas.remove(holder)
                returned.append(holder)
        if returned:
            live.extend(returned)
            self._log(
                "reattach",
                meta.name,
                f"{len(returned)} recovered holder(s) rejoined with data",
                returned,
            )

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

    def _live(self, meta: ObjectMeta, held: set) -> list[Optional[str]]:
        """Each slot's holder if it held its share at the probe, else None."""
        return [
            holder if self._holds(held, holder, meta.slot_name(slot)) else None
            for slot, holder in enumerate(meta.holders)
        ]

    def _healthy(self, meta: ObjectMeta, held: set) -> bool:
        """Are all n holders live, with no pruned holder to check?  A
        full-copy object is whole only with 1 + ``data_replicas``
        holders."""
        if meta.k == 1 and (
            len(meta.holders) < 1 + self.data_replicas
            or (self.track_lost and meta.lost_replicas)
        ):
            return False
        return None not in self._live(meta, held)

    def _holds(self, held: set, holder: str, name: str) -> bool:
        """Did ``holder`` hold ``name`` at the probe?"""
        if holder == LOCATION_REMOTE:
            return True
        if holder == self.name:
            return self.vstore.holds(name)
        return (holder, name) in held

    def _probe(self, metas: list, span=None):
        """Process: ask each remote holder of ``metas`` once which of
        its shares it holds; returns the (holder, name) pairs it does.

        Holders are probed one after another in name order.  A holder
        that fails to answer holds nothing, and each probe is one
        breaker observation.
        """
        wanted = set()
        for meta in metas:
            wanted.update(
                (holder, meta.slot_name(slot)) for slot, holder in enumerate(meta.holders)
            )
            if meta.k == 1 and self.track_lost:
                wanted.update((holder, meta.name) for holder in meta.lost_replicas)
        pairs = sorted(
            pair for pair in wanted if pair[0] not in (LOCATION_REMOTE, self.name)
        )
        breakers = self.caller.breakers if self.caller is not None else None
        held: set = set()
        for holder, group in groupby(pairs, key=lambda pair: pair[0]):
            if breakers is not None and breakers.is_open(holder, self.sim.now):
                continue  # recently failing; don't burn a probe on it
            names = [name for _, name in group]
            body = {"names": names}
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
                continue
            if breakers is not None:
                breakers.record_success(holder, self.sim.now)
            held.update(
                (holder, name) for name, holds in zip(names, reply["holds"]) if holds
            )
        return held

    def _republish(self, meta: ObjectMeta, span):
        yield from self.vstore.kv.put(object_key(meta.name), meta.wire(), ctx=span)

    def _bin_of(self, holder: str, name: str) -> str:
        if holder == self.name:
            return "mandatory" if name in self.vstore.mandatory else "voluntary"
        # Peers store received copies in voluntary space.
        return "voluntary"
