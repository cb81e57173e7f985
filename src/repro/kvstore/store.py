"""The DHT-based key-value store (VStore++ metadata layer).

One :class:`DhtKeyValueStore` runs on every overlay node.  Keys are
40-bit hashes of object/service names and node addresses; values are
serialized metadata.  The store implements the paper's Section III-A
mechanisms:

* **Prefix-routed put/get/delete** — requests travel hop by hop through
  the Chimera overlay to the key's root node.
* **Overwrite policies** — overwrite, version chaining, or error.
* **Intermediate-hop caching** — "key-value entries are cached onto
  intermediate hops on each request's path through the DHT overlay";
  the owner remembers which nodes hold cached copies and pushes updates
  to them when the entry is modified.
* **Replication** — "state can be replicated using a fixed replication
  factor"; the owner pushes copies to its clockwise leaf neighbours, and
  a new owner promotes a replica when the previous owner crashed.
* **Key redistribution** — records move to a joining node that becomes
  their root, and a gracefully departing node hands all its records to
  their new owners before leaving.
* **Durability & anti-entropy** (``storage`` backend attached) — every
  primary/replica mutation is journaled through a
  :class:`repro.storage.IStore` backend, deletes leave tombstones, and
  a recovered node replays its WAL (:meth:`DhtKeyValueStore.recover`)
  then reconciles with its ring neighbours
  (:meth:`DhtKeyValueStore.sync_with_peers`): pull what was missed
  during the outage, push what peers lost, drop what was deleted.
  Soft state (:func:`~repro.kvstore.records.is_soft_state`: resource
  snapshots) is neither journaled nor reconciled; a crash drops it and
  the next publish restores it.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.net import HostDownError, RemoteError, Request, RpcTimeoutError
from repro.overlay import ChimeraNode, NodeId, PeerInfo
from repro.kvstore.errors import KeyExistsError, KeyNotFoundError, KvError
from repro.kvstore.records import (
    OverwritePolicy,
    Record,
    is_soft_state,
    payload_size,
)
from repro.kvstore.sync import (
    digest_beats,
    record_beats_digest,
    record_digest,
    tombstone_covers,
    tombstone_digest,
)

__all__ = ["DhtKeyValueStore", "KvStats"]

MSG_PUT = "kv.put"
MSG_GET = "kv.get"
MSG_DELETE = "kv.delete"
MSG_REPLICA = "kv.replica"
MSG_REPLICA_DELETE = "kv.replica-delete"
MSG_CACHE_UPDATE = "kv.cache-update"
MSG_CACHE_INVALIDATE = "kv.cache-invalidate"
MSG_TRANSFER = "kv.transfer"
#: Anti-entropy: digest exchange and the follow-up record push.
MSG_SYNC = "kv.sync"
MSG_SYNC_PUSH = "kv.sync-push"


#: How many recent lookup samples :class:`KvStats` keeps for inspection.
LOOKUP_WINDOW = 256


@dataclass
class KvStats:
    """Operation counters for one node's store.

    ``lookup_times`` holds only the most recent :data:`LOOKUP_WINDOW`
    samples (bounded memory under heavy traffic); the exact mean over
    *all* lookups comes from the running ``lookup_count`` /
    ``lookup_time_total`` pair.  The window is allocated by the first
    sample: until then it is the shared empty tuple, so a node that
    never looks anything up holds no window.
    """

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    cache_hits: int = 0
    #: Cache entries dropped by failure-triggered coherence (a reader
    #: saw evidence its cached record was stale, e.g. a fetch failover).
    cache_invalidated: int = 0
    served_primary: int = 0
    served_replica: int = 0
    forwards: int = 0
    records_received: int = 0
    #: Records silently lost because every transfer target was
    #: unreachable during a graceful leave.
    leave_stranded: int = 0
    lookup_times: deque | tuple = ()
    lookup_count: int = 0
    lookup_time_total: float = 0.0

    def record_lookup(self, elapsed: float) -> None:
        times = self.lookup_times
        if not times:
            times = self.lookup_times = deque(maxlen=LOOKUP_WINDOW)
        times.append(elapsed)
        self.lookup_count += 1
        self.lookup_time_total += elapsed

    @property
    def mean_lookup_time(self) -> float:
        if self.lookup_count == 0:
            return 0.0
        return self.lookup_time_total / self.lookup_count

    def snapshot(self) -> dict:
        """JSON-ready export consumed by the telemetry metrics plane.

        Counters and the lookup mean are exact over the node's whole
        lifetime (the mean comes from the running count/total pair, not
        the bounded sample window); the quantiles are nearest-rank over
        the most recent :data:`LOOKUP_WINDOW` samples.
        """
        window = sorted(self.lookup_times)

        def _q(q: float) -> float:
            if not window:
                return 0.0
            rank = min(len(window) - 1, max(0, math.ceil(q * len(window)) - 1))
            return window[rank]

        return {
            "counters": {
                "puts": self.puts,
                "gets": self.gets,
                "deletes": self.deletes,
                "cache_hits": self.cache_hits,
                "cache_invalidated": self.cache_invalidated,
                "served_primary": self.served_primary,
                "served_replica": self.served_replica,
                "forwards": self.forwards,
                "records_received": self.records_received,
                "leave_stranded": self.leave_stranded,
            },
            "lookup_count": self.lookup_count,
            "lookup_mean_s": self.mean_lookup_time,
            "lookup_window": {
                "n": len(window),
                "p50": _q(0.50),
                "p95": _q(0.95),
                "p99": _q(0.99),
                "p999": _q(0.999),
            },
        }


class DhtKeyValueStore:
    """Key-value store instance bound to one overlay node.

    Parameters
    ----------
    chimera:
        The overlay node providing routing and membership.
    replication_factor:
        Number of clockwise neighbours that receive replica copies
        (0 disables replication).
    cache_enabled / cache_capacity:
        Intermediate-hop caching switch and per-node LRU capacity.
    processing_s:
        Local store processing cost per handled request.
    storage:
        Optional :class:`repro.storage.IStore` backend.  When set, the
        primary/replica tables are bound through it (so every mutation
        of a record that is not soft state is journaled by durable
        backends) and deletes leave tombstones
        for anti-entropy; when None (the default) the tables are plain
        dictionaries and behaviour is byte-identical to before the
        storage layer existed.
    """

    def __init__(
        self,
        chimera: ChimeraNode,
        replication_factor: int = 2,
        cache_enabled: bool = True,
        cache_capacity: int = 512,
        processing_s: float = 0.004,
        storage=None,
    ) -> None:
        if replication_factor < 0:
            raise ValueError("replication_factor must be >= 0")
        if cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive")
        self.chimera = chimera
        self.replication_factor = replication_factor
        self.cache_enabled = cache_enabled
        self.cache_capacity = cache_capacity
        self.processing_s = processing_s
        self.storage = storage
        if storage is None:
            self.primary: dict[str, Record] = {}
            self.replicas: dict[str, Record] = {}
            #: key -> {"version": v, "at": t}; deletes leave tombstones
            #: so a recovered node cannot resurrect a deleted key.
            #: None when no backend is attached (feature off).
            self.tombstones: Optional[dict] = None
        else:
            self.primary = storage.table(
                "kv.primary", decode=Record.from_wire, volatile=is_soft_state
            )
            self.replicas = storage.table(
                "kv.replicas", decode=Record.from_wire, volatile=is_soft_state
            )
            self.tombstones = storage.table("kv.tombstones")
        self.cache: "OrderedDict[str, Record]" = OrderedDict()
        #: Owner-side map: key -> names of nodes holding cached copies.
        self.cache_holders: dict[str, set[str]] = {}
        self.stats = KvStats()
        self._register_handlers()
        chimera.on_node_joined.append(self._on_node_joined)
        chimera.on_node_left.append(self._on_node_left)

    # -- naming helpers ------------------------------------------------------

    @property
    def name(self) -> str:
        return self.chimera.name

    @property
    def sim(self):
        return self.chimera.sim

    @property
    def endpoint(self):
        return self.chimera.endpoint

    @staticmethod
    def key_for(name_or_key: "str | NodeId") -> NodeId:
        """Hash a name into the key space (NodeIds pass through)."""
        if isinstance(name_or_key, NodeId):
            return name_or_key
        return NodeId.from_name(name_or_key)

    def is_owner(self, key: NodeId) -> bool:
        """True if this node is currently the root for ``key``."""
        return self.chimera.next_hop(key) is None

    # -- public client API (generators; run under sim.process / yield from) --

    def put(
        self,
        name: str,
        value: Any,
        policy: OverwritePolicy = OverwritePolicy.OVERWRITE,
        ctx=None,
    ):
        """Process: store ``value`` under ``name``; returns the Record."""
        key = self.key_for(name)
        body = {
            "key": key.hex,
            "name": name if isinstance(name, str) else "",
            "value": value,
            "policy": policy.value,
            "path": [],
        }
        self.stats.puts += 1
        tel = self.chimera.sim.telemetry
        span = (
            tel.begin(
                "kv.put", layer="kvstore", node=self.name, parent=ctx, key=key.hex
            )
            if tel is not None
            else None
        )
        try:
            reply = yield from self._put_local(body, span)
        except BaseException as exc:
            if span is not None:
                tel.fail(span, exc)
            raise
        if span is not None:
            tel.end(span, owner=reply.get("owner", ""))
        return Record.from_wire(reply["record"])

    def get(self, name: str, ctx=None):
        """Process: return the latest value stored under ``name``."""
        record = yield from self.get_record(name, ctx=ctx)
        return record.latest.value

    def invalidate_cached(self, name: "str | NodeId") -> bool:
        """Drop this node's cached copy of ``name``'s record, if any.

        Failure-triggered coherence: update pushes come from the owner
        that registered us as a cache holder, so when that owner
        crashes nobody will ever refresh the entry.  Callers that see
        evidence of staleness — e.g. a fetch that had to fail over
        because the recorded primary is unreachable — drop the entry
        so the next read re-routes to the live owner.  Returns True
        when an entry was actually dropped.
        """
        dropped = self.cache.pop(self.key_for(name).hex, None) is not None
        if dropped:
            self.stats.cache_invalidated += 1
        return dropped

    def get_record(self, name: str, ctx=None):
        """Process: return the full :class:`Record` (with version chain)."""
        key = self.key_for(name)
        sim = self.chimera.sim
        started = sim.now
        self.stats.gets += 1
        tel = sim.telemetry
        span = (
            tel.begin(
                "kv.get", layer="kvstore", node=self.name, parent=ctx, key=key.hex
            )
            if tel is not None
            else None
        )
        try:
            reply = yield from self._get_local({"key": key.hex, "path": []}, span)
        except BaseException as exc:
            if span is not None:
                tel.fail(span, exc)
            raise
        self.stats.record_lookup(sim.now - started)
        if span is not None:
            tel.end(span, source=reply.get("source", ""))
        return Record.from_wire(reply["record"])

    def get_chain(self, name: str, ctx=None):
        """Process: all chained versions (oldest first) for ``name``."""
        record = yield from self.get_record(name, ctx=ctx)
        return [v.value for v in record.versions]

    def delete(self, name: str, ctx=None):
        """Process: remove ``name``; raises KeyNotFoundError if absent."""
        key = self.key_for(name)
        self.stats.deletes += 1
        tel = self.sim.telemetry
        span = (
            tel.begin(
                "kv.delete", layer="kvstore", node=self.name, parent=ctx, key=key.hex
            )
            if tel is not None
            else None
        )
        try:
            yield from self._delete_local({"key": key.hex, "path": []}, span)
        except BaseException as exc:
            if span is not None:
                tel.fail(span, exc)
            raise
        if span is not None:
            tel.end(span)

    def leave(self):
        """Process: hand every primary record to its new owner, then
        leave the overlay gracefully.

        Records whose transfer target is unreachable leave the overlay
        with us; that loss is counted (``stats.leave_stranded``, the
        ``kv.leave.stranded`` counter) and surfaced as an error span
        event instead of disappearing silently.
        """
        outgoing: dict[str, list[dict]] = {}
        for key_hex, record in list(self.primary.items()):
            key = NodeId.from_hex(key_hex)
            target = self._owner_excluding_self(key)
            if target is None:
                continue  # last node standing keeps its records
            outgoing.setdefault(target.name, []).append(record.wire())
        stranded = 0
        for target_name, records in outgoing.items():
            try:
                yield self.endpoint.call(
                    target_name,
                    MSG_TRANSFER,
                    {"records": records},
                    size=payload_size(records),
                )
            except (HostDownError, RpcTimeoutError, RemoteError):
                stranded += len(records)
                continue
        if stranded:
            self.stats.leave_stranded += stranded
            tel = self.sim.telemetry
            if tel is not None:
                tel.metrics.counter("kv.leave.stranded", node=self.name).inc(
                    stranded
                )
                tel.event(
                    "kv.leave.stranded",
                    layer="kvstore",
                    node=self.name,
                    status="error:RecordsStranded",
                    count=stranded,
                )
        # Our replica copies vanish with us: re-home them so keys whose
        # owner later crashes still have the promised redundancy.
        for key_hex, replica in list(self.replicas.items()):
            wire = replica.wire()
            size = replica.wire_size(wire)
            for peer in self._replica_targets(key_hex):
                self._safe_notify(peer.name, MSG_REPLICA, {"record": wire}, size=size)
        yield from self.chimera.leave()

    # -- local entry points shared with the RPC handlers ---------------------

    def _put_local(self, body: dict, span=None, size: Optional[int] = None):
        """``size`` is the forwarded message's: the value's
        :func:`payload_size`, reused from the incoming hop when known."""
        chimera = self.chimera
        sim = chimera.sim
        key = NodeId.from_hex(body["key"])
        yield sim.timeout(self.processing_s)
        tel = sim.telemetry
        hop = chimera.next_hop(key)
        while hop is not None:
            self.stats.forwards += 1
            fwd = (
                tel.begin(
                    "kv.forward",
                    layer="kvstore",
                    node=chimera.name,
                    parent=span,
                    to=hop.name,
                    op="put",
                )
                if tel is not None
                else None
            )
            next_body = {**body, "path": body["path"] + [chimera.name]}
            if fwd is not None:
                next_body["span"] = fwd.ctx_wire()
            if size is None:
                size = payload_size(body["value"])
            try:
                reply = yield chimera.endpoint.call(hop.name, MSG_PUT, next_body, size=size)
            except (HostDownError, RpcTimeoutError) as exc:
                if fwd is not None:
                    tel.fail(fwd, exc)
                chimera._forget(hop.id)
                hop = chimera.next_hop(key)
                continue
            except RemoteError as exc:
                if fwd is not None:
                    tel.fail(fwd, exc)
                raise self._translate(exc) from exc
            if fwd is not None:
                tel.end(fwd)
            # Keep any cached copy coherent with the accepted write.
            if body["key"] in self.cache:
                self.cache[body["key"]] = Record.from_wire(reply["record"])
            return reply
        return self._apply_put(body)

    def _apply_put(self, body: dict) -> dict:
        key_hex = body["key"]
        policy = OverwritePolicy(body["policy"])
        record = self.primary.get(key_hex)
        if record is None:
            record = Record(key_hex=key_hex, name=body.get("name", ""))
        elif policy is OverwritePolicy.ERROR:
            raise KeyExistsError(body.get("name") or key_hex)
        record.apply(body["value"], policy, self.sim.now)
        # Inserted *after* the version is applied so a durable backend
        # journals the post-write state, not an empty shell.
        self.primary[key_hex] = record
        if self.tombstones is not None:
            self.tombstones.pop(key_hex, None)
        # One wire form and one size (the journal's, when there is one)
        # serve the reply and both pushes.
        wire = record.wire()
        self._push_replicas(record, wire)
        self._push_cache_updates(key_hex, wire, record.wire_size(wire))
        return {"record": wire, "owner": self.name}

    def _get_local(self, body: dict, span=None):
        chimera = self.chimera
        sim = chimera.sim
        key_hex = body["key"]
        key = NodeId.from_hex(key_hex)
        yield sim.timeout(self.processing_s)
        hop = chimera.next_hop(key)
        if hop is None:
            return self._serve_as_owner(key_hex, body["path"])
        if self.cache_enabled and key_hex in self.cache:
            self.cache.move_to_end(key_hex)
            self.stats.cache_hits += 1
            return {
                "record": self.cache[key_hex].wire(),
                "owner": self.name,
                "source": "cache",
            }
        tel = sim.telemetry
        while hop is not None:
            self.stats.forwards += 1
            fwd = (
                tel.begin(
                    "kv.forward",
                    layer="kvstore",
                    node=chimera.name,
                    parent=span,
                    to=hop.name,
                    op="get",
                )
                if tel is not None
                else None
            )
            next_body = {**body, "path": body["path"] + [chimera.name]}
            if fwd is not None:
                next_body["span"] = fwd.ctx_wire()
            try:
                reply = yield chimera.endpoint.call(hop.name, MSG_GET, next_body)
            except (HostDownError, RpcTimeoutError) as exc:
                if fwd is not None:
                    tel.fail(fwd, exc)
                chimera._forget(hop.id)
                hop = chimera.next_hop(key)
                continue
            except RemoteError as exc:
                if fwd is not None:
                    tel.fail(fwd, exc)
                raise self._translate(exc) from exc
            if fwd is not None:
                tel.end(fwd, source=reply.get("source", ""))
            if self.cache_enabled and reply.get("source") != "cache":
                self._cache_insert(Record.from_wire(reply["record"]))
            return reply
        return self._serve_as_owner(key_hex, body["path"])

    def _serve_as_owner(self, key_hex: str, path: list[str]) -> dict:
        record = self.primary.get(key_hex)
        source = "primary"
        if record is None:
            replica = self.replicas.get(key_hex)
            if replica is not None:
                # The previous owner crashed; promote our replica.
                record = replica.copy()
                self.primary[key_hex] = record
                del self.replicas[key_hex]
                self._push_replicas(record)
                source = "replica"
                self.stats.served_replica += 1
        if record is None:
            raise KeyNotFoundError(key_hex)
        if source == "primary":
            self.stats.served_primary += 1
        if self.cache_enabled and path:
            holders = self.cache_holders.setdefault(key_hex, set())
            holders.update(path)
        return {"record": record.wire(), "owner": self.name, "source": source}

    def _delete_local(self, body: dict, span=None):
        key = NodeId.from_hex(body["key"])
        key_hex = body["key"]
        yield self.sim.timeout(self.processing_s)
        tel = self.sim.telemetry
        hop = self.chimera.next_hop(key)
        while hop is not None:
            self.stats.forwards += 1
            fwd = (
                tel.begin(
                    "kv.forward",
                    layer="kvstore",
                    node=self.name,
                    parent=span,
                    to=hop.name,
                    op="delete",
                )
                if tel is not None
                else None
            )
            next_body = {**body, "path": body["path"] + [self.name]}
            if fwd is not None:
                next_body["span"] = fwd.ctx_wire()
            try:
                reply = yield self.endpoint.call(hop.name, MSG_DELETE, next_body)
            except (HostDownError, RpcTimeoutError) as exc:
                if fwd is not None:
                    tel.fail(fwd, exc)
                self.chimera._forget(hop.id)
                hop = self.chimera.next_hop(key)
                continue
            except RemoteError as exc:
                if fwd is not None:
                    tel.fail(fwd, exc)
                raise self._translate(exc) from exc
            if fwd is not None:
                tel.end(fwd)
            self.cache.pop(key_hex, None)
            return reply
        record = self.primary.get(key_hex)
        if record is None:
            raise KeyNotFoundError(key_hex)
        del self.primary[key_hex]
        if self.tombstones is not None:
            self.tombstones[key_hex] = {
                "version": record.version,
                "at": self.sim.now,
            }
        self.cache.pop(key_hex, None)
        for peer in self._replica_targets(key_hex):
            self._safe_notify(peer.name, MSG_REPLICA_DELETE, {"key": key_hex})
        for holder in self.cache_holders.pop(key_hex, set()):
            self._safe_notify(holder, MSG_CACHE_INVALIDATE, {"key": key_hex})
        return {"deleted": True, "owner": self.name}

    # -- replication / caching plumbing ------------------------------------

    def _replica_targets(self, key_hex: str) -> list[PeerInfo]:
        """The peers that hold copies of a key: the nodes next-closest
        to the key after the owner.

        Ownership is "numerically closest on the ring" (either side),
        so replicas must sit with the nodes that would *become* owner
        if we crashed — not merely clockwise successors.
        """
        if self.replication_factor == 0:
            return []
        key = NodeId.from_hex(key_hex)
        return self.chimera.nearest_peers(key, self.replication_factor)

    def _push_replicas(self, record: Record, wire: Optional[dict] = None) -> None:
        """Push ``record`` to its replica targets; ``wire``, when given,
        is the record's wire form already built."""
        targets = self._replica_targets(record.key_hex)
        if not targets:
            return
        if wire is None:
            wire = record.wire()
        size = record.wire_size(wire)
        for peer in targets:
            self._safe_notify(peer.name, MSG_REPLICA, {"record": wire}, size=size)

    def _push_cache_updates(self, key_hex: str, wire: dict, size: int) -> None:
        holders = self.cache_holders.get(key_hex)
        if not holders:
            return
        for holder in list(holders):
            self._safe_notify(holder, MSG_CACHE_UPDATE, {"record": wire}, size=size)

    def _cache_insert(self, record: Record) -> None:
        self.cache[record.key_hex] = record
        self.cache.move_to_end(record.key_hex)
        while len(self.cache) > self.cache_capacity:
            self.cache.popitem(last=False)

    def _safe_notify(self, dst: str, msg_type: str, body: dict, size: int = 64) -> None:
        try:
            self.endpoint.notify(dst, msg_type, body, size=size)
        except HostDownError:
            pass

    def _owner_excluding_self(self, key: NodeId) -> Optional[PeerInfo]:
        nearest = self.chimera.nearest_peers(key, 1)
        return nearest[0] if nearest else None

    def _translate(self, exc: RemoteError) -> KvError:
        """Map remote handler failures back to typed client errors."""
        if "KeyNotFoundError" in exc.detail:
            return KeyNotFoundError(exc.detail.split(":", 1)[-1].strip())
        if "KeyExistsError" in exc.detail:
            return KeyExistsError(exc.detail.split(":", 1)[-1].strip())
        return KvError(exc.detail)

    # -- membership-change reactions -----------------------------------------

    def _on_node_joined(self, peer: PeerInfo) -> None:
        self.sim.process(self._redistribute_to(peer))

    def _on_node_left(self, peer: PeerInfo) -> None:
        """Repair redundancy after a departure/crash.

        Replicas we now own get promoted; and since the departed node
        may have held replica copies of our primaries, every primary is
        re-replicated to the current target set.
        """
        for key_hex, replica in list(self.replicas.items()):
            key = NodeId.from_hex(key_hex)
            if self.chimera.closest_known(key).id == self.chimera.id:
                if key_hex not in self.primary:
                    self.primary[key_hex] = replica.copy()
                del self.replicas[key_hex]
        for record in self.primary.values():
            self._push_replicas(record)

    def _redistribute_to(self, peer: PeerInfo):
        """Hand records whose root the joiner has become over to it."""
        moving = []
        for key_hex, record in list(self.primary.items()):
            key = NodeId.from_hex(key_hex)
            if self.chimera.closest_known(key).id == peer.id:
                moving.append(record.wire())
                del self.primary[key_hex]
                # Keep a replica locally: we are very likely one of the
                # new owner's neighbours.
                self.replicas[key_hex] = record
        if not moving:
            return
        try:
            yield self.endpoint.call(
                peer.name,
                MSG_TRANSFER,
                {"records": moving},
                size=payload_size(moving),
            )
        except (HostDownError, RpcTimeoutError, RemoteError):
            # The joiner vanished again; reclaim the records.
            for wire in moving:
                record = Record.from_wire(wire)
                self.primary[record.key_hex] = record
                self.replicas.pop(record.key_hex, None)

    # -- RPC handlers ---------------------------------------------------------

    def _register_handlers(self) -> None:
        ep = self.endpoint
        ep.register(MSG_PUT, self._handle_put)
        ep.register(MSG_GET, self._handle_get)
        ep.register(MSG_DELETE, self._handle_delete)
        ep.register(MSG_REPLICA, self._handle_replica)
        ep.register(MSG_REPLICA_DELETE, self._handle_replica_delete)
        ep.register(MSG_CACHE_UPDATE, self._handle_cache_update)
        ep.register(MSG_CACHE_INVALIDATE, self._handle_cache_invalidate)
        ep.register(MSG_TRANSFER, self._handle_transfer)
        ep.register(MSG_SYNC, self._handle_sync)
        ep.register(MSG_SYNC_PUSH, self._handle_sync_push)

    def _handled(
        self, name: str, request: Request, inner, source_key: str = "", **kwargs
    ):
        """Process: run a local entry point under a ``kv.handle_*`` span.

        The span parents from the forwarding hop's wire context (the
        ``"span"`` key carried in the request body when telemetry is
        on), keeping the cross-node span tree connected.  ``kwargs``
        go to ``inner``.
        """
        tel = self.chimera.sim.telemetry
        if tel is None:
            reply = yield from inner(request.body, None, **kwargs)
            return reply
        span = tel.begin(
            name,
            layer="kvstore",
            node=self.name,
            parent=request.body.get("span"),
            src=request.src,
        )
        try:
            reply = yield from inner(request.body, span, **kwargs)
        except BaseException as exc:
            tel.fail(span, exc)
            raise
        attrs = {}
        if source_key and isinstance(reply, dict) and source_key in reply:
            attrs[source_key] = reply[source_key]
        tel.end(span, **attrs)
        return reply

    def _handle_put(self, request: Request):
        reply = yield from self._handled(
            "kv.handle_put", request, self._put_local, size=request.size
        )
        return reply

    def _handle_get(self, request: Request):
        reply = yield from self._handled(
            "kv.handle_get", request, self._get_local, source_key="source"
        )
        return reply

    def _handle_delete(self, request: Request):
        reply = yield from self._handled(
            "kv.handle_delete", request, self._delete_local
        )
        return reply

    def _handle_replica(self, request: Request) -> None:
        # The sender's size and wire form are the record's: a journal
        # takes both as they came, without building or encoding again.
        storage = self.storage
        record = Record.from_wire(
            request.body["record"],
            request.size,
            keep=storage is not None and storage.durable,
        )
        if self.tombstones is not None:
            tomb = self.tombstones.get(record.key_hex)
            if tomb is not None:
                if tomb["at"] >= record.latest.updated_at:
                    return  # replica of a write our tombstone deleted
                self.tombstones.pop(record.key_hex, None)
        self.replicas[record.key_hex] = record

    def _handle_replica_delete(self, request: Request) -> None:
        removed = self.replicas.pop(request.body["key"], None)
        if self.tombstones is not None:
            self.tombstones[request.body["key"]] = {
                "version": removed.version if removed is not None else 0,
                "at": self.sim.now,
            }

    def _handle_cache_update(self, request: Request) -> None:
        wire = request.body["record"]
        if wire["key"] in self.cache:
            self.cache[wire["key"]] = Record.from_wire(wire)

    def _handle_cache_invalidate(self, request: Request) -> None:
        self.cache.pop(request.body["key"], None)

    def _handle_transfer(self, request: Request) -> dict:
        count = 0
        for wire in request.body["records"]:
            record = Record.from_wire(wire)
            absorb = True
            if self.tombstones is not None:
                tomb = self.tombstones.get(record.key_hex)
                if tomb is not None:
                    if tomb["at"] >= record.latest.updated_at:
                        absorb = False  # transferred copy is pre-delete
                    else:
                        self.tombstones.pop(record.key_hex, None)
            if absorb:
                existing = self.primary.get(record.key_hex)
                if existing is None or existing.version <= record.version:
                    self.primary[record.key_hex] = record
                self.replicas.pop(record.key_hex, None)
            count += 1
        self.stats.records_received += count
        return {"accepted": count}

    # -- durability: crash recovery and anti-entropy -------------------------

    def lose_memory(self) -> None:
        """RAM loss on crash: wipe the volatile views of every table.

        The backend's :meth:`~repro.storage.IStore.crash` wipes the
        journaled tables without re-journaling the wipes; the caches
        are plain volatile state and are cleared directly.
        """
        if self.storage is None:
            self.primary.clear()
            self.replicas.clear()
        self.cache.clear()
        self.cache_holders.clear()

    def recover(self, ctx=None):
        """Process: replay the durable backend into the live tables.

        Charges the backend's replay cost through the event kernel and
        returns the :class:`repro.storage.RecoveryReport`.  Replays
        *every* table on the shared backend (vstore bin manifests
        included), so call it once per device, before rejoining the
        overlay; follow with :meth:`sync_with_peers` once joined.
        """
        if self.storage is None:
            raise KvError("recover() requires a storage backend")
        tel = self.sim.telemetry
        span = (
            tel.begin("kv.wal.replay", layer="kvstore", node=self.name, parent=ctx)
            if tel is not None
            else None
        )
        report = self.storage.replay()
        cost = self.storage.replay_cost_s(report)
        if cost > 0:
            yield self.sim.timeout(cost)
        if span is not None:
            tel.end(
                span,
                records=report.records,
                ops=report.ops_replayed,
                bytes=round(report.bytes_replayed, 1),
                cost_s=round(cost, 6),
            )
        return report

    def sync_with_peers(self, fanout: Optional[int] = None, ctx=None):
        """Process: one anti-entropy round with our ring neighbours.

        Exchanges per-key digests with the ``fanout`` nodes nearest our
        own id (the peers that replicate for us and that we replicate
        for): pulls records written while we were down, pushes records
        only we still hold, and applies tombstones for keys deleted in
        our absence.  Winners are deterministic (see
        :mod:`repro.kvstore.sync`).  Returns a summary dict.
        """
        summary = {"peers": 0, "pulled": 0, "pushed": 0, "deleted": 0}
        if self.storage is None:
            return summary
        if fanout is None:
            fanout = max(1, self.replication_factor + 1)
        tel = self.sim.telemetry
        span = (
            tel.begin(
                "kv.antientropy",
                layer="kvstore",
                node=self.name,
                parent=ctx,
                fanout=fanout,
            )
            if tel is not None
            else None
        )
        digests: dict[str, dict] = {}
        for key_hex in sorted(set(self.primary) | set(self.replicas)):
            record = self.primary.get(key_hex) or self.replicas.get(key_hex)
            if not is_soft_state(record):
                digests[key_hex] = record_digest(record)
        if self.tombstones is not None:
            for key_hex in sorted(self.tombstones):
                digests[key_hex] = tombstone_digest(self.tombstones[key_hex])
        peers = self.chimera.nearest_peers(self.chimera.id, fanout)
        for peer in peers:
            body = {"requester": self.name, "digests": digests}
            if span is not None:
                body["span"] = span.ctx_wire()
            try:
                reply = yield self.endpoint.call(
                    peer.name, MSG_SYNC, body, size=payload_size(digests)
                )
            except (HostDownError, RpcTimeoutError, RemoteError):
                continue
            summary["peers"] += 1
            for wire in reply.get("records", ()):
                if self._absorb_sync_record(Record.from_wire(wire)):
                    summary["pulled"] += 1
            for key_hex, tomb in sorted(reply.get("tombstoned", {}).items()):
                if self._absorb_tombstone(key_hex, tomb):
                    summary["deleted"] += 1
            push_records: list[dict] = []
            push_tombs: dict[str, dict] = {}
            for key_hex in reply.get("want", ()):
                record = self.primary.get(key_hex) or self.replicas.get(key_hex)
                if record is not None:
                    push_records.append(record.wire())
                elif self.tombstones is not None and key_hex in self.tombstones:
                    push_tombs[key_hex] = dict(self.tombstones[key_hex])
            if push_records or push_tombs:
                push_body = {
                    "records": push_records,
                    "tombstones": push_tombs,
                }
                if span is not None:
                    push_body["span"] = span.ctx_wire()
                try:
                    yield self.endpoint.call(
                        peer.name,
                        MSG_SYNC_PUSH,
                        push_body,
                        size=payload_size(push_records),
                    )
                    summary["pushed"] += len(push_records) + len(push_tombs)
                except (HostDownError, RpcTimeoutError, RemoteError):
                    continue
        if tel is not None:
            for metric in ("pulled", "pushed", "deleted"):
                if summary[metric]:
                    tel.metrics.counter(f"kv.sync.{metric}", node=self.name).inc(
                        summary[metric]
                    )
        if span is not None:
            tel.end(span, **summary)
        return summary

    def _handle_sync(self, request: Request) -> dict:
        """Peer side of a digest exchange (synchronous — no timing
        impact on existing traffic).

        Replies with records the requester is missing or holds stale,
        a ``want`` list of keys where the requester's copy wins, and
        tombstones for keys it should drop.  Also volunteers primaries
        the requester *should* replicate but did not even mention —
        the writes it missed entirely while down.
        """
        body = request.body
        requester = body["requester"]
        digests = body["digests"]
        records_out: list[dict] = []
        want: list[str] = []
        tombstoned: dict[str, dict] = {}
        for key_hex in sorted(digests):
            remote = digests[key_hex]
            local = self.primary.get(key_hex) or self.replicas.get(key_hex)
            local_tomb = (
                self.tombstones.get(key_hex) if self.tombstones is not None else None
            )
            if remote.get("t"):
                # The requester holds a tombstone for this key.
                if local is not None and tombstone_covers(
                    remote, record_digest(local)
                ):
                    self._drop_local(key_hex)
                    local = None
                if local is not None:
                    records_out.append(local.wire())  # write post-dates delete
                elif self.tombstones is not None and (
                    local_tomb is None or local_tomb["at"] < remote["u"]
                ):
                    self.tombstones[key_hex] = {
                        "version": remote.get("v", 0),
                        "at": remote["u"],
                    }
                continue
            if local_tomb is not None and tombstone_covers(
                tombstone_digest(local_tomb), remote
            ):
                tombstoned[key_hex] = dict(local_tomb)
                continue
            if local is None:
                want.append(key_hex)
            elif record_beats_digest(local, remote):
                records_out.append(local.wire())
            elif digest_beats(remote, record_digest(local)):
                want.append(key_hex)
        # Primaries the requester should replicate but did not mention
        # (soft state is never mentioned, and never handed over).
        for key_hex in sorted(self.primary):
            if key_hex in digests or is_soft_state(self.primary[key_hex]):
                continue
            if any(p.name == requester for p in self._replica_targets(key_hex)):
                records_out.append(self.primary[key_hex].wire())
        # Replicas whose *owner* is the requester: after an owner
        # crashes and rejoins empty-handed, its records survive only as
        # replica copies on nodes like us — hand them back, or they
        # stay orphaned where no lookup will ever route.
        for key_hex in sorted(self.replicas):
            if key_hex in digests or is_soft_state(self.replicas[key_hex]):
                continue
            owner = self.chimera.closest_known(NodeId.from_hex(key_hex))
            if owner.name == requester:
                records_out.append(self.replicas[key_hex].wire())
        return {"records": records_out, "want": want, "tombstoned": tombstoned}

    def _handle_sync_push(self, request: Request) -> dict:
        absorbed = 0
        for wire in request.body.get("records", ()):
            if self._absorb_sync_record(Record.from_wire(wire)):
                absorbed += 1
        for key_hex, tomb in sorted(request.body.get("tombstones", {}).items()):
            if self._absorb_tombstone(key_hex, tomb):
                absorbed += 1
        return {"absorbed": absorbed}

    def _absorb_sync_record(self, record: Record) -> bool:
        """Accept a peer's record if it beats what we hold; file it as
        primary or replica according to our current ring position."""
        key_hex = record.key_hex
        if self.tombstones is not None:
            tomb = self.tombstones.get(key_hex)
            if tomb is not None:
                if tomb["at"] >= record.latest.updated_at:
                    return False
                self.tombstones.pop(key_hex, None)
        local = self.primary.get(key_hex) or self.replicas.get(key_hex)
        if local is not None and not record_beats_digest(
            record, record_digest(local)
        ):
            return False
        if self.is_owner(NodeId.from_hex(key_hex)):
            self.primary[key_hex] = record
            self.replicas.pop(key_hex, None)
        else:
            self.replicas[key_hex] = record
            # Demote any stale primary copy: the ring says someone
            # else owns this key now.
            self.primary.pop(key_hex, None)
        return True

    def _absorb_tombstone(self, key_hex: str, tomb: dict) -> bool:
        """Apply a peer's tombstone; returns True if a live copy died."""
        local = self.primary.get(key_hex) or self.replicas.get(key_hex)
        if local is not None and tomb["at"] < local.latest.updated_at:
            return False  # our copy post-dates the delete
        dropped = local is not None
        self._drop_local(key_hex)
        if self.tombstones is not None:
            existing = self.tombstones.get(key_hex)
            if existing is None or existing["at"] < tomb["at"]:
                self.tombstones[key_hex] = {
                    "version": tomb.get("version", 0),
                    "at": tomb["at"],
                }
        return dropped

    def _drop_local(self, key_hex: str) -> None:
        self.primary.pop(key_hex, None)
        self.replicas.pop(key_hex, None)
        self.cache.pop(key_hex, None)
