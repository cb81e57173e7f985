"""The Chimera-like structured overlay node.

Implements the peer-to-peer layer the paper builds its metadata
key-value store on: prefix routing (Tapestry/Pastry-style), node join
with state transfer from the join path, graceful leave with
left/right-neighbour notification, failure-driven state repair, and the
"logical tree view" of known nodes that ``chimeraGetDecision`` reads
(Figure 2).

The paper keeps that view in a red-black tree; here it is an ordered
view: ``known``, a dict from peer id to host name, plus the sorted-id
tuple that :meth:`ChimeraNode.sorted_ids` caches per ``view_version``.
Queries that need id order read the tuple, so the ordered semantics
are unchanged.

A node owns the keys for which it is the numerically closest live
identifier.  Upper layers (the key-value store) subscribe to
``on_node_joined`` / ``on_node_left`` to redistribute keys when
membership changes — "a departing node's keys are always redistributed
among the available set of nodes" (Section III-A).
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from operator import attrgetter
from typing import Callable, Iterable, Optional

from repro.net import (
    HostDownError,
    Network,
    RemoteError,
    Request,
    RpcEndpoint,
    RpcTimeoutError,
)
from repro.net.topology import Host
from repro.overlay.errors import NotJoinedError, RoutingFailure
from repro.overlay.ids import ID_DIGITS, NodeId
from repro.overlay.state import LeafSet, RoutingTable

__all__ = ["ChimeraNode", "PeerInfo"]

#: Message types (namespaced to keep VStore++ traffic distinct).
MSG_JOIN = "chimera.join"
MSG_ROUTE = "chimera.route"
MSG_NODE_JOINED = "chimera.node-joined"
MSG_NODE_LEFT = "chimera.node-left"
MSG_PING = "chimera.ping"

#: Sentinel distinguishing "not cached" from a cached ``None`` (we are
#: the root for the key).
_ROUTE_MISS = object()

#: Sort key for ids: the plain int, so sorting never calls ``NodeId.__lt__``.
_ID_VALUE = attrgetter("value")


class PeerInfo:
    """(name, id) pair for a known overlay member."""

    __slots__ = ("name", "id")

    def __init__(self, name: str, node_id: NodeId) -> None:
        self.name = name
        self.id = node_id

    def wire(self) -> dict:
        return {"name": self.name, "id": self.id.hex}

    @classmethod
    def from_wire(cls, data: dict) -> "PeerInfo":
        return cls(data["name"], NodeId.from_hex(data["id"]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PeerInfo({self.name!r}, {self.id})"


class ChimeraNode:
    """One overlay participant, bound to a network host and endpoint.

    Parameters
    ----------
    network, host:
        Where the node lives.
    endpoint:
        Shared :class:`RpcEndpoint`; created (and started) if omitted.
        Sharing lets VStore++ and Chimera traffic ride one transport,
        mirroring the paper's single control-domain process.
    leaf_size:
        Leaf-set entries per side.
    hop_processing_s:
        Per-hop processing cost added by each node when forwarding a
        route (user-level Chimera work plus the VStore++↔Chimera IPC the
        paper describes).  This is what makes the DHT-lookup column of
        Table I a few milliseconds rather than pure wire time.
    route_cache_max:
        Entry cap for the destination → next-hop cache.  Routing
        decisions are pure functions of the node's membership view, so
        results are cached per key and the whole cache is invalidated
        on any join/leave/stabilizer-driven view change.  The cache is
        a bounded LRU: the least recently used key is evicted when the
        cap is reached, so hot keys survive and per-node memory stays
        bounded.  Caching only affects wall-clock time, never simulated
        results.
    """

    #: Default route-cache entry cap (LRU eviction past this size).
    ROUTE_CACHE_MAX = 4096

    RPC_HANDLERS = {
        MSG_JOIN: "_handle_join",
        MSG_ROUTE: "_handle_route",
        MSG_NODE_JOINED: "_handle_node_joined",
        MSG_NODE_LEFT: "_handle_node_left",
        MSG_PING: "_handle_ping",
    }

    def __init__(
        self,
        network: Network,
        host: Host,
        endpoint: Optional[RpcEndpoint] = None,
        leaf_size: int = 4,
        hop_processing_s: float = 0.002,
        route_cache_max: Optional[int] = None,
    ) -> None:
        self.network = network
        self.host = host
        self.endpoint = endpoint or RpcEndpoint(network, host)
        self.id = NodeId.from_name(host.name)
        self.leaf = LeafSet(self.id, per_side=leaf_size)
        self.table = RoutingTable(self.id)
        #: id -> peer name; ``sorted_ids()`` gives its id order
        #: ("logical tree view", Fig. 2).
        self.known: dict[NodeId, str] = {}
        self.hop_processing_s = hop_processing_s
        self.joined = False
        self.on_node_joined: list[Callable[[PeerInfo], None]] = []
        self.on_node_left: list[Callable[[PeerInfo], None]] = []
        #: Diagnostics: total hops taken by route requests we initiated.
        self.routes_resolved = 0
        self.route_cache_max = (
            route_cache_max if route_cache_max is not None else self.ROUTE_CACHE_MAX
        )
        #: key -> next hop (PeerInfo, or None when we are the root),
        #: in LRU order (oldest first).
        self._route_cache: OrderedDict[NodeId, Optional[PeerInfo]] = OrderedDict()
        self.route_cache_hits = 0
        #: Bumped on every membership-view change; consumers (sorted-id
        #: snapshot below, the stabilizer's probe cursor) use it to
        #: detect staleness without rescanning the view.
        self.view_version = 0
        self._ids_cache: tuple[NodeId, ...] = ()
        self._ids_cache_version = -1
        self.endpoint.serve(self)

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def sim(self):
        return self.network.sim

    # -- membership views ---------------------------------------------------

    def peers(self) -> list[PeerInfo]:
        """All known peers in id order."""
        known = self.known
        return [PeerInfo(known[nid], nid) for nid in self.sorted_ids()]

    def name_of(self, node_id: NodeId) -> Optional[str]:
        """The host name for a known overlay id (None if unknown)."""
        if node_id == self.id:
            return self.name
        return self.known.get(node_id)

    def sorted_ids(self) -> tuple[NodeId, ...]:
        """Known peer ids in ascending order, cached per view version.

        This is the view's only ordered copy.  It is re-sorted lazily
        after a membership change, so steady-state callers (ring-window
        queries, the stabilizer's probe cursor, :meth:`peers`) pay O(1).
        """
        if self._ids_cache_version != self.view_version:
            self._ids_cache = tuple(sorted(self.known, key=_ID_VALUE))
            self._ids_cache_version = self.view_version
        return self._ids_cache

    def nearest_peers(self, key: NodeId, count: int) -> list[PeerInfo]:
        """The ``count`` known peers closest to ``key``.

        Ordered by ``(circular distance, id value)`` — the same total
        order the key-value layer's replica selection has always used.

        The ``k`` nearest ids form a contiguous arc around ``key`` on
        the ring, so this bisects the sorted-id snapshot and ranks only
        the ``2*count`` ids flanking the insertion point — O(k log k +
        log N) instead of a full sort's O(N log N).
        """
        if count <= 0 or not self.known:
            return []
        ids = self.sorted_ids()
        n = len(ids)
        if n <= 2 * count:
            window = ids
        else:
            i = bisect.bisect_left(ids, key)
            window = [ids[(i + j) % n] for j in range(-count, count)]
        ranked = sorted((nid.distance(key), nid.value, nid) for nid in window)[:count]
        return [PeerInfo(self._peer_name(nid), nid) for _d, _v, nid in ranked]

    def closest_known(self, key: NodeId) -> PeerInfo:
        """The member of our view (including ourselves) closest to ``key``.

        Used by the key-value layer to decide which records must move
        when membership changes.  Ties break toward the smaller id, the
        same rule the leaf set uses, so all nodes agree.
        """
        nearest = self.nearest_peers(key, 1)
        if nearest:
            peer = nearest[0]
            if (peer.id.distance(key), peer.id.value) < (
                self.id.distance(key),
                self.id.value,
            ):
                return peer
        return PeerInfo(self.name, self.id)

    def successors(self, count: int) -> list[PeerInfo]:
        """Up to ``count`` clockwise neighbours (replica targets)."""
        out = []
        for nid in self.leaf.rights()[:count]:
            out.append(PeerInfo(self._peer_name(nid), nid))
        return out

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start serving overlay traffic as a single-node overlay."""
        self.endpoint.start()
        self.joined = True

    def join(self, bootstrap: Optional[str] = None):
        """Process: join via ``bootstrap`` (or start a new overlay).

        The join request is routed toward our own identifier; every node
        on the path contributes the routing-table row matching its
        shared prefix with us, and the root contributes its leaf set and
        full known view.  We then announce ourselves so existing members
        (and their key-value stores) can react.
        """
        self.start()
        if bootstrap is None:
            return
            yield  # pragma: no cover - makes this a generator
        reply = yield self.endpoint.call(
            bootstrap, MSG_JOIN, {"joiner": PeerInfo(self.name, self.id).wire()}
        )
        for wire in reply["peers"]:
            self._add_peer(PeerInfo.from_wire(wire))
        self.announce()

    def leave(self):
        """Process: gracefully leave the overlay.

        Notifies known peers (the paper's left/right neighbours plus the
        rest of our view — cheap at home scale) so they drop us and
        redistribute; the key-value layer transfers its keys *before*
        calling this.
        """
        me = PeerInfo(self.name, self.id).wire()
        for peer in self.peers():
            try:
                self.endpoint.notify(peer.name, MSG_NODE_LEFT, {"peer": me})
            except HostDownError:
                continue
        self.joined = False
        self.endpoint.stop()
        return
        yield  # pragma: no cover - makes this a generator

    def fail_abruptly(self) -> None:
        """Crash without notifying anyone (for churn experiments)."""
        self.joined = False
        self.endpoint.stop()
        self.host.set_online(False)

    # -- routing ---------------------------------------------------------------

    def next_hop(self, key: NodeId) -> Optional[PeerInfo]:
        """The peer to forward ``key`` to, or None if we are the root.

        Pastry rules: leaf set if it covers the key; otherwise the
        routing-table entry for the key's next digit; otherwise any
        known node strictly closer to the key with at least as long a
        shared prefix (the rare-case fallback that guarantees progress).

        Results are memoized per key while the membership view is
        stable; any view change (join, leave, failure eviction,
        stabilizer merge) flushes the cache.
        """
        if not self.joined:
            raise NotJoinedError(f"{self.name} has not joined the overlay")
        cache = self._route_cache
        hit = cache.get(key, _ROUTE_MISS)
        if hit is not _ROUTE_MISS:
            self.route_cache_hits += 1
            cache.move_to_end(key)
            return hit
        result = self._next_hop_uncached(key)
        if len(cache) >= self.route_cache_max:
            cache.popitem(last=False)
        cache[key] = result
        return result

    def _next_hop_uncached(self, key: NodeId) -> Optional[PeerInfo]:
        if key == self.id or not self.known:
            return None
        if self.leaf.covers(key):
            closest = self.leaf.closest(key)
            if closest == self.id:
                return None
            return PeerInfo(self._peer_name(closest), closest)
        entry = self.table.lookup(key)
        if entry is not None:
            return PeerInfo(self._peer_name(entry), entry)
        # Fallback: strictly closer node with >= shared prefix length,
        # ranked by (distance, id value) so ties go to the smaller id.
        own_prefix = self.id.shared_prefix_len(key)
        own_distance = self.id.distance(key)
        best = min(
            (
                (nid.distance(key), nid.value, nid)
                for nid in self.known
                if nid.shared_prefix_len(key) >= own_prefix
            ),
            default=None,
        )
        if best is None or best[0] >= own_distance:
            return None
        nid = best[2]
        return PeerInfo(self.known[nid], nid)

    def resolve(self, key: NodeId, ctx=None):
        """Process: find the overlay root for ``key``.

        Returns a :class:`PeerInfo` for the owner.  Failed next hops are
        forgotten and routing retries alternatives; if every candidate
        fails, :class:`RoutingFailure` is raised.
        """
        hop = self.next_hop(key)
        if hop is None:
            self.routes_resolved += 1
            return PeerInfo(self.name, self.id)
        tel = self.sim.telemetry
        span = (
            tel.begin(
                "overlay.resolve",
                layer="overlay",
                node=self.name,
                parent=ctx,
                key=key.hex,
            )
            if tel is not None
            else None
        )
        yield self.sim.timeout(self.hop_processing_s)
        while True:
            body = {"key": key.hex, "hops": 1}
            try:
                reply = yield self.endpoint.call(hop.name, MSG_ROUTE, body, ctx=span)
                self.routes_resolved += 1
                if span is not None:
                    tel.end(span, owner=reply["owner"]["name"])
                return PeerInfo.from_wire(reply["owner"])
            except (HostDownError, RpcTimeoutError, RemoteError):
                self._forget(hop.id)
                hop = self.next_hop(key)
                if hop is None:
                    self.routes_resolved += 1
                    if span is not None:
                        tel.end(span, owner=self.name)
                    return PeerInfo(self.name, self.id)

    # -- handlers -----------------------------------------------------------------

    def _handle_ping(self, request: Request) -> str:
        return "pong"

    def _handle_join(self, request: Request):
        joiner = PeerInfo.from_wire(request.body["joiner"])
        yield self.sim.timeout(self.hop_processing_s)
        contribution = self._state_for(joiner)
        hop = self.next_hop(joiner.id)
        self._add_peer(joiner)
        while True:
            if hop is None or hop.id == joiner.id:
                return {"peers": contribution}
            try:
                reply = yield self.endpoint.call(hop.name, MSG_JOIN, request.body)
                break
            except (HostDownError, RpcTimeoutError):
                # A crashed hop nobody has noticed yet: forget it and
                # route on, as _handle_route does.
                self._forget(hop.id)
                hop = self.next_hop(joiner.id)
        merged = {entry["id"]: entry for entry in reply["peers"]}
        for entry in contribution:
            merged.setdefault(entry["id"], entry)
        return {"peers": list(merged.values())}

    def _handle_route(self, request: Request):
        key = NodeId.from_hex(request.body["key"])
        hops = request.body["hops"]
        tel = self.sim.telemetry
        span = (
            tel.begin(
                "overlay.hop",
                layer="overlay",
                node=self.name,
                parent=request.ctx,
                hops=hops,
            )
            if tel is not None
            else None
        )
        yield self.sim.timeout(self.hop_processing_s)
        hop = self.next_hop(key)
        while hop is not None:
            body = {"key": key.hex, "hops": hops + 1}
            try:
                reply = yield self.endpoint.call(hop.name, MSG_ROUTE, body, ctx=span)
                if span is not None:
                    tel.end(span)
                return reply
            except (HostDownError, RpcTimeoutError):
                self._forget(hop.id)
                hop = self.next_hop(key)
        if span is not None:
            tel.end(span, root=True)
        return {"owner": PeerInfo(self.name, self.id).wire(), "hops": hops}

    def _handle_node_joined(self, request: Request) -> None:
        self._add_peer(PeerInfo.from_wire(request.body["peer"]))

    def _handle_node_left(self, request: Request) -> None:
        peer = PeerInfo.from_wire(request.body["peer"])
        self._forget(peer.id, notify=True)

    # -- state maintenance ----------------------------------------------------------

    def _state_for(self, joiner: PeerInfo) -> list[dict]:
        """Our contribution to a joiner's state: ourselves, the routing
        row for our shared prefix with it, and our leaf set."""
        row_index = self.id.shared_prefix_len(joiner.id)
        entries = {self.id}
        if row_index < ID_DIGITS:
            entries.update(e for e in self.table.row(row_index) if e is not None)
        entries.update(self.leaf.members())
        out = []
        for nid in entries:
            name = self._peer_name(nid) if nid != self.id else self.name
            out.append(PeerInfo(name, nid).wire())
        return out

    def seed_view(self, peers: "Iterable[PeerInfo]") -> None:
        """Bulk-install a pre-computed membership view.

        Used by the cluster builder's ``fast_join`` path: inserts every
        peer into the known view, leaf set, and routing table without
        firing per-peer join callbacks or announcements — the caller is
        constructing the whole overlay at once, so there is no stored
        data to redistribute and no protocol traffic to emit.

        On an empty view the sorted-id tuple is set straight from the
        sorted peers, so the first :meth:`sorted_ids` does not re-sort.
        The routing table is filled in the given peer order (its slots
        are first-writer-wins), and the leaf set is pruned once: pruning
        after every add and pruning at the end keep the same closest
        members.
        """
        fresh: dict[int, PeerInfo] = {}
        own = self.id.value
        for peer in peers:
            if peer.id.value != own:
                fresh.setdefault(peer.id.value, peer)
        bulk = not self.known
        for peer in fresh.values():
            self.known[peer.id] = peer.name
            self.table.add(peer.id)
        self.leaf.update(peer.id for peer in fresh.values())
        self._route_cache.clear()
        self.view_version += 1
        if bulk:
            self._ids_cache = tuple(fresh[value].id for value in sorted(fresh))
            self._ids_cache_version = self.view_version

    def _add_peer(self, peer: PeerInfo) -> None:
        if peer.id == self.id:
            return
        is_new = peer.id not in self.known
        self.known[peer.id] = peer.name
        self.leaf.add(peer.id)
        self.table.add(peer.id)
        if is_new:
            self._route_cache.clear()
            self.view_version += 1
            for callback in self.on_node_joined:
                callback(peer)

    def _forget(self, node_id: NodeId, notify: bool = True) -> None:
        name = self.known.pop(node_id, None)
        if name is None:
            return
        self.leaf.remove(node_id)
        self.table.remove(node_id)
        # Backfill the leaf set from the remaining known view so the
        # ring stays connected after departures.
        self.leaf.update(self.known)
        self._route_cache.clear()
        self.view_version += 1
        if notify:
            peer = PeerInfo(name, node_id)
            for callback in self.on_node_left:
                callback(peer)

    def evict(self, name: str) -> None:
        """Forget the peer ``name`` after a failure detector found it
        crashed, as a failed route forgets its hop."""
        self._forget(NodeId.from_name(name))

    def announce(self) -> None:
        """Tell every known peer that we are here (on join, or after
        being wrongly evicted)."""
        me = PeerInfo(self.name, self.id).wire()
        for peer in self.peers():
            try:
                self.endpoint.notify(peer.name, MSG_NODE_JOINED, {"peer": me})
            except HostDownError:
                self._forget(peer.id)

    def _peer_name(self, node_id: NodeId) -> str:
        name = self.known.get(node_id)
        if name is None:
            raise RoutingFailure(f"{self.name}: no name known for {node_id}")
        return name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChimeraNode {self.name!r} id={self.id} peers={len(self.known)}>"
