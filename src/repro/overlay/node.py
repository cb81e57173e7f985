"""The Chimera-like structured overlay node.

Implements the peer-to-peer layer the paper builds its metadata
key-value store on: prefix routing (Tapestry/Pastry-style), node join
with state transfer from the join path, graceful leave with
left/right-neighbour notification, failure-driven state repair, and the
"logical tree view" of known nodes that ``chimeraGetDecision`` reads
(Figure 2).

The paper keeps that view in a red-black tree; here it is
``ChimeraNode.view``, one immutable tuple of :class:`PeerInfo` sorted by
id value.  Lookups by id bisect it, a membership change rebuilds it at
the bisected index, and every query hands out the view's own
``PeerInfo`` objects, so a peer known to many nodes (every node of a
``fast_join`` overlay) is one object shared by all their views and
route caches.

A node owns the keys for which it is the numerically closest live
identifier.  Upper layers (the key-value store) subscribe to
``on_node_joined`` / ``on_node_left`` to redistribute keys when
membership changes — "a departing node's keys are always redistributed
among the available set of nodes" (Section III-A).
"""

from __future__ import annotations

from bisect import bisect_left
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

#: Bisection key of the view: a peer's id as a plain int.
_PEER_VALUE = attrgetter("id.value")


class PeerInfo:
    """(name, id) pair for a known overlay member.

    Immutable, like :class:`NodeId`: one object is shared by every view
    and route cache that holds the member.
    """

    __slots__ = ("name", "id")

    def __init__(self, name: str, node_id: NodeId) -> None:
        _set_name(self, name)
        _set_id(self, node_id)

    def __setattr__(self, name: str, val) -> None:
        raise AttributeError("PeerInfo is immutable")

    def __reduce__(self):
        return (PeerInfo, (self.name, self.id))

    def wire(self) -> dict:
        return {"name": self.name, "id": self.id.hex}

    @classmethod
    def from_wire(cls, data: dict) -> "PeerInfo":
        return cls(data["name"], NodeId.from_hex(data["id"]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PeerInfo({self.name!r}, {self.id})"


# Slot setters: they bypass ``__setattr__`` faster than ``object.__setattr__``.
_set_name = PeerInfo.name.__set__
_set_id = PeerInfo.id.__set__


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
        Entry cap for the destination → next-hop cache; 0 caches
        nothing.  Routing decisions are pure functions of the node's
        membership view, so results are cached per key and the whole
        cache is invalidated on any join/leave/stabilizer-driven view
        change.  The cache is a plain dict whose values are the view's
        own ``PeerInfo`` objects (or None when we are the root), kept
        in LRU order by re-inserting a key on every hit: the least
        recently used key is evicted when the cap is reached, so hot
        keys survive and per-node memory stays bounded.  Caching only
        affects wall-clock time, never simulated results.
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
        #: Known peers sorted by id value ("logical tree view", Fig. 2).
        #: Immutable: every membership change installs a new tuple.
        self.view: tuple[PeerInfo, ...] = ()
        self.hop_processing_s = hop_processing_s
        self.joined = False
        self.on_node_joined: list[Callable[[PeerInfo], None]] = []
        self.on_node_left: list[Callable[[PeerInfo], None]] = []
        #: Diagnostics: total hops taken by route requests we initiated.
        self.routes_resolved = 0
        if route_cache_max is None:
            route_cache_max = self.ROUTE_CACHE_MAX
        if route_cache_max < 0:
            raise ValueError(f"route_cache_max must be >= 0, got {route_cache_max}")
        self.route_cache_max = route_cache_max
        #: key -> next hop (PeerInfo, or None when we are the root),
        #: in LRU order (oldest first).
        self._route_cache: dict[NodeId, Optional[PeerInfo]] = {}
        self.route_cache_hits = 0
        self.endpoint.serve(self)

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def sim(self):
        return self.network.sim

    # -- membership views ---------------------------------------------------

    def peers(self) -> tuple[PeerInfo, ...]:
        """All known peers in id order (the view itself)."""
        return self.view

    def knows(self, node_id: NodeId) -> bool:
        """True if ``node_id`` is in our view (never for our own id)."""
        return self._locate(node_id)[1] is not None

    def name_of(self, node_id: NodeId) -> Optional[str]:
        """The host name for a known overlay id (None if unknown)."""
        if node_id == self.id:
            return self.name
        peer = self._locate(node_id)[1]
        return None if peer is None else peer.name

    def nearest_peers(self, key: NodeId, count: int) -> list[PeerInfo]:
        """The ``count`` known peers closest to ``key``.

        Ordered by ``(circular distance, id value)`` — the same total
        order the key-value layer's replica selection has always used.

        The ``k`` nearest ids form a contiguous arc around ``key`` on
        the ring, so this bisects the view and ranks only the
        ``2*count`` peers flanking the insertion point — O(k log k +
        log N) instead of a full sort's O(N log N).
        """
        view = self.view
        if count <= 0 or not view:
            return []
        n = len(view)
        if n <= 2 * count:
            window = view
        else:
            i = bisect_left(view, key.value, key=_PEER_VALUE)
            window = [view[(i + j) % n] for j in range(-count, count)]
        return sorted(window, key=lambda p: (p.id.distance(key), p.id.value))[:count]

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
        return [self._peer(nid) for nid in self.leaf.rights()[:count]]

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
        hit = cache.pop(key, _ROUTE_MISS)
        if hit is not _ROUTE_MISS:
            self.route_cache_hits += 1
            cache[key] = hit  # re-inserted: now the most recently used
            return hit
        result = self._next_hop_uncached(key)
        if self.route_cache_max:
            if len(cache) >= self.route_cache_max:
                del cache[next(iter(cache))]
            cache[key] = result
        return result

    def _next_hop_uncached(self, key: NodeId) -> Optional[PeerInfo]:
        if key == self.id or not self.view:
            return None
        if self.leaf.covers(key):
            closest = self.leaf.closest(key)
            return None if closest == self.id else self._peer(closest)
        entry = self.table.lookup(key)
        if entry is not None:
            return self._peer(entry)
        # Fallback: strictly closer node with >= shared prefix length,
        # ranked by (distance, id value) so ties go to the smaller id.
        own_prefix = self.id.shared_prefix_len(key)
        best = min(
            (p for p in self.view if p.id.shared_prefix_len(key) >= own_prefix),
            key=lambda p: (p.id.distance(key), p.id.value),
            default=None,
        )
        if best is None or best.id.distance(key) >= self.id.distance(key):
            return None
        return best

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
            peer = self._peer(nid) if nid != self.id else PeerInfo(self.name, self.id)
            out.append(peer.wire())
        return out

    def seed_view(self, peers: "Iterable[PeerInfo]") -> None:
        """Bulk-install a pre-computed membership view.

        Used by the cluster builder's ``fast_join`` path: inserts every
        peer into the view, leaf set, and routing table without firing
        per-peer join callbacks or announcements — the caller is
        constructing the whole overlay at once, so there is no stored
        data to redistribute and no protocol traffic to emit.

        The given ``PeerInfo`` objects go into the view as they are, so
        a builder that passes one object per member shares it across
        every view.  The routing table is filled in the given peer
        order (its slots are first-writer-wins, so that order decides
        which peer a slot keeps), and the leaf set is pruned once:
        pruning after every add and pruning at the end keep the same
        closest members.  A given peer replaces a known one with the
        same id.
        """
        fresh: dict[int, PeerInfo] = {}
        own = self.id.value
        for peer in peers:
            if peer.id.value != own:
                fresh.setdefault(peer.id.value, peer)
        for peer in fresh.values():
            self.table.add(peer.id)
        self.leaf.update(peer.id for peer in fresh.values())
        merged = {peer.id.value: peer for peer in self.view} | fresh
        self.view = tuple(merged[value] for value in sorted(merged))
        self._route_cache.clear()

    def _add_peer(self, peer: PeerInfo) -> None:
        """Add ``peer`` to the view; a known id keeps its object unless
        the peer comes back under another name."""
        if peer.id == self.id:
            return
        index, known = self._locate(peer.id)
        if known is None or known.name != peer.name:
            rest = index if known is None else index + 1
            self.view = self.view[:index] + (peer,) + self.view[rest:]
            self._route_cache.clear()
        self.leaf.add(peer.id)
        self.table.add(peer.id)
        if known is None:
            for callback in self.on_node_joined:
                callback(peer)

    def _forget(self, node_id: NodeId, notify: bool = True) -> None:
        index, peer = self._locate(node_id)
        if peer is None:
            return
        view = self.view[:index] + self.view[index + 1 :]
        self.view = view
        self.leaf.remove(node_id)
        self.table.remove(node_id)
        # Backfill the leaf set from the remaining view so the ring
        # stays connected after departures.
        self.leaf.update(p.id for p in view)
        self._route_cache.clear()
        if notify:
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

    def _locate(self, node_id: NodeId) -> tuple[int, Optional[PeerInfo]]:
        """``node_id``'s index in the view, and its peer if it is there."""
        view = self.view
        value = node_id.value
        index = bisect_left(view, value, key=_PEER_VALUE)
        if index < len(view) and view[index].id.value == value:
            return index, view[index]
        return index, None

    def _peer(self, node_id: NodeId) -> PeerInfo:
        """The view's ``PeerInfo`` for a routing-state entry."""
        peer = self._locate(node_id)[1]
        if peer is None:
            raise RoutingFailure(f"{self.name}: no name known for {node_id}")
        return peer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChimeraNode {self.name!r} id={self.id} peers={len(self.view)}>"
