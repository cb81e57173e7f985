"""Periodic overlay stabilization.

The paper's overlay layer supports "dynamic overlay reconfiguration"
(Section III-A); join/leave notifications and failure-driven repair
handle most of it, but silent failures (a crashed node nobody has
talked to since) leave stale entries until some request stumbles over
them.  The :class:`Stabilizer` closes that gap the way Pastry-family
systems do: each node periodically pings its leaf-set neighbours and
exchanges membership views with one of them, evicting dead entries and
merging fresh ones.
"""

from __future__ import annotations

from typing import Optional

from repro.net import HostDownError, RemoteError, Request, RpcTimeoutError
from repro.overlay.ids import NodeId
from repro.overlay.node import ChimeraNode, PeerInfo
from repro.sim import Interrupt

__all__ = ["Stabilizer"]

MSG_EXCHANGE = "chimera.stabilize"


class Stabilizer:
    """Periodic liveness checking and view exchange for one node."""

    RPC_HANDLERS = {MSG_EXCHANGE: "_handle_exchange"}

    def __init__(
        self,
        node: ChimeraNode,
        period_s: float = 10.0,
        ping_timeout_s: float = 2.0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.node = node
        self.period_s = period_s
        self.ping_timeout_s = ping_timeout_s
        self.rounds = 0
        self.evictions = 0
        self.discoveries = 0
        #: Recently evicted ids -> (expiry, buried_at).  View exchanges
        #: must not resurrect a node we just found dead.
        self._tombstones: dict[NodeId, tuple[float, float]] = {}
        #: Last time we had direct evidence a peer was alive (ping
        #: success, exchange from it, or its join announcement) — what
        #: lets a *revived* node beat stale gossiped tombstones.
        self._last_alive: dict[NodeId, float] = {}
        self._process = None
        node.endpoint.serve(self)
        node.on_node_joined.append(self._on_peer_joined)

    def _on_peer_joined(self, peer: PeerInfo) -> None:
        """A join announcement is authoritative evidence of life."""
        self._last_alive[peer.id] = self.sim.now
        self._tombstones.pop(peer.id, None)

    @property
    def tombstone_ttl_s(self) -> float:
        return 3.0 * self.period_s

    def _bury(self, node_id: NodeId, buried_at: float | None = None) -> None:
        when = self.sim.now if buried_at is None else buried_at
        self._tombstones[node_id] = (self.sim.now + self.tombstone_ttl_s, when)

    def _is_buried(self, node_id: NodeId) -> bool:
        entry = self._tombstones.get(node_id)
        if entry is None:
            return False
        expiry, _ = entry
        if expiry <= self.sim.now:
            del self._tombstones[node_id]
            return False
        return True

    def _mark_alive(self, node_id: NodeId) -> None:
        self._last_alive[node_id] = self.sim.now
        self._tombstones.pop(node_id, None)

    def _live_tombstones(self) -> list[dict]:
        """Unexpired tombstones (id + burial time), for gossiping."""
        return [
            {"id": nid.hex, "at": self._tombstones[nid][1]}
            for nid in list(self._tombstones)
            if self._is_buried(nid)
        ]

    def _absorb_tombstones(self, items: list[dict]) -> None:
        """Adopt a peer's tombstones: forget and bury those nodes too.

        This is what propagates a silent failure beyond the dead node's
        immediate ring neighbours.  A tombstone is ignored when we have
        direct evidence the node was alive *after* it was buried — that
        is what lets a crashed-and-revived node rejoin cleanly while
        stale death gossip is still circulating.
        """
        for item in items:
            nid = NodeId.from_hex(item["id"])
            buried_at = float(item.get("at", self.sim.now))
            if nid == self.node.id:
                continue
            if self._last_alive.get(nid, float("-inf")) >= buried_at:
                continue
            if self.node.knows(nid):
                self.node._forget(nid)
                self.evictions += 1
            self._bury(nid, buried_at=buried_at)

    @property
    def sim(self):
        return self.node.sim

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.is_alive

    def start(self) -> None:
        if not self.running:
            self._process = self.sim.process(self._run())

    def stop(self) -> None:
        if self.running:
            self._process.interrupt("stabilizer stopped")
        self._process = None

    def stabilize_once(self):
        """Process: one stabilization round.

        Pings the immediate leaf neighbours (evicting the dead), then
        swaps views with the closest live neighbour (merging anything
        new).  Returns (evicted, discovered) counts for this round.
        """
        evicted = 0
        discovered = 0
        neighbours = list(self.node.leaf.neighbours())
        # SWIM-style sweep: besides the ring neighbours, probe one
        # further known peer per round (round-robin), so stale entries
        # about distant nodes are eventually caught too.
        probe = self._round_robin_probe(neighbours)
        if probe is not None:
            neighbours.append(probe)
        live: list[NodeId] = []
        for nid in neighbours:
            name = self.node.name_of(nid)
            if name is None:
                continue
            try:
                yield self.node.endpoint.call(
                    name, "chimera.ping", timeout=self.ping_timeout_s
                )
                live.append(nid)
                self._mark_alive(nid)
            except (HostDownError, RpcTimeoutError, RemoteError):
                self.node._forget(nid)
                self._bury(nid)
                evicted += 1
        if live:
            partner = self.node.name_of(live[0])
            my_view = [p.wire() for p in self.node.peers()]
            my_view.append(PeerInfo(self.node.name, self.node.id).wire())
            try:
                reply = yield self.node.endpoint.call(
                    partner,
                    MSG_EXCHANGE,
                    {"view": my_view, "tombstones": self._live_tombstones()},
                    timeout=self.ping_timeout_s,
                )
            except (HostDownError, RpcTimeoutError, RemoteError):
                self.node._forget(live[0])
                self._bury(live[0])
                evicted += 1
            else:
                self._mark_alive(live[0])
                self._absorb_tombstones(reply.get("tombstones", []))
                for wire in reply["view"]:
                    peer = PeerInfo.from_wire(wire)
                    if (
                        peer.id != self.node.id
                        and not self.node.knows(peer.id)
                        and not self._is_buried(peer.id)
                    ):
                        self.node._add_peer(peer)
                        discovered += 1
        self.rounds += 1
        self.evictions += evicted
        self.discoveries += discovered
        return evicted, discovered

    def _round_robin_probe(self, neighbours: list[NodeId]) -> Optional[NodeId]:
        """This round's extra probe target.

        Semantics: the in-order known view minus the leaf neighbours,
        indexed at ``rounds % len``.  Rather than materialize that
        filtered list (O(N) per round), the element is picked from the
        node's sorted view with index arithmetic: bisect the (at most
        two) neighbour positions out, then shift the round-robin index
        past them.
        """
        view = self.node.view
        if not view:
            return None
        skip: set[int] = set()
        for nb in neighbours:
            pos, peer = self.node._locate(nb)
            if peer is not None:
                skip.add(pos)
        remaining = len(view) - len(skip)
        if remaining <= 0:
            return None
        j = self.rounds % remaining
        for pos in sorted(skip):
            if pos <= j:
                j += 1
        return view[j].id

    def _run(self):
        try:
            while True:
                yield self.sim.timeout(self.period_s)
                yield from self.stabilize_once()
        except Interrupt:
            return

    def _handle_exchange(self, request: Request) -> dict:
        # The sender itself is demonstrably alive right now.
        for wire in request.body["view"]:
            peer = PeerInfo.from_wire(wire)
            if peer.name == request.src:
                self._mark_alive(peer.id)
        self._absorb_tombstones(request.body.get("tombstones", []))
        for wire in request.body["view"]:
            peer = PeerInfo.from_wire(wire)
            if (
                peer.id != self.node.id
                and not self.node.knows(peer.id)
                and not self._is_buried(peer.id)
            ):
                self.node._add_peer(peer)
        view = [p.wire() for p in self.node.peers()]
        view.append(PeerInfo(self.node.name, self.node.id).wire())
        return {"view": view, "tombstones": self._live_tombstones()}
