"""Crash detection from the resource snapshots a node already holds.

Every node republishes its resource snapshot each monitor period
(``resource:<node>`` in the KV store, Sections III-A and IV), so the
snapshots double as heartbeats.  After each of this node's own
publishes (``ResourceMonitor.on_tick``) the :class:`FailureDetector`
looks at the snapshots this node holds as owner or replica holder.  When one has gone :data:`MISSED_PUBLISHES`
periods without an update, the detector pings that node once.  If the ping fails, the
node is taken as crashed: the detector evicts it from this node's
overlay view and tells every device with one ``resilience.suspect``
notice, on which they evict it too.  The overlay then reports
``on_node_left`` where the node was in the view, and the KV store
promotes the replicas of the keys it owned.  Every device also runs
its ``on_suspect`` callbacks (the repairer's trigger), since a node may
own objects on a holder its partial overlay view does not list.  A
crash is so acted on within ``MISSED_PUBLISHES + 1`` monitor periods.

The check reads local tables only and rides on the monitor's tick, so
a healthy home pays no message and no event for it, and a node whose
monitor is stopped checks nothing.  A stale snapshot is looked at once, and again only after it
has turned fresh in between: a node that answers the ping (its monitor
stopped, or this node holds a replica its owner no longer refreshes)
costs one ping.  Every holder of a crashed node's snapshot finds it
stale, but a device acts on one eviction of a peer per
``stale_after_s``: later reports of the same crash change nothing.  A
live node that is evicted anyway (its ping was lost) hears its own
notice and announces itself again.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.monitoring.monitor import resource_key
from repro.net import HostDownError, RemoteError, Request, RpcTimeoutError
from repro.overlay.node import MSG_PING

__all__ = ["FailureDetector", "MSG_SUSPECT"]

MSG_SUSPECT = "resilience.suspect"

PING_TIMEOUT_S = 2.0

#: Publishes a peer may miss before this node pings it.
MISSED_PUBLISHES = 3


class FailureDetector:
    """Evicts the peers whose held resource snapshot went stale and who
    do not answer a ping.  ``period_s`` is the monitor period."""

    def __init__(self, kv, peers: Iterable[str], period_s: float) -> None:
        self.kv = kv
        #: A snapshot this much older than now is stale.
        self.stale_after_s = MISSED_PUBLISHES * period_s
        #: Every other device -> the key of its snapshot record.
        self._keys = {
            peer: kv.key_for(resource_key(peer)).hex for peer in peers if peer != kv.name
        }
        #: Peers whose held snapshot was stale at the last check.
        self.stale: set[str] = set()
        #: Peers this node found crashed, in the order it did.
        self.reports: list[str] = []
        #: Peer -> when this node last evicted it.
        self._evicted_at: dict[str, float] = {}
        #: Called with each evicted peer's name, whether this node or
        #: another one found it crashed.
        self.on_suspect: list[Callable[[str], None]] = []
        kv.endpoint.register(MSG_SUSPECT, self._handle_suspect)

    @property
    def sim(self):
        return self.kv.sim

    def check_once(self) -> list[str]:
        """Ping every peer whose held snapshot turned stale since the
        last check (each in its own process); returns them in name
        order."""
        now = self.sim.now
        primary, replicas = self.kv.primary, self.kv.replicas
        stale = set()
        for peer, key in self._keys.items():
            record = primary.get(key)
            if record is None:
                record = replicas.get(key)
            if record is not None and now - record.latest.updated_at > self.stale_after_s:
                stale.add(peer)
        new = sorted(stale - self.stale)
        self.stale = stale
        for peer in new:
            self.sim.process(self._confirm(peer))
        return new

    def _confirm(self, peer: str):
        try:
            yield self.kv.endpoint.call(peer, MSG_PING, timeout=PING_TIMEOUT_S)
            return
        except (HostDownError, RpcTimeoutError, RemoteError):
            pass
        # Nothing to do if this node crashed meanwhile, or another
        # holder's report got here first.
        if not self.kv.chimera.joined or not self._evict(peer):
            return
        self.reports.append(peer)
        for name in self._keys:
            try:
                self.kv.endpoint.notify(name, MSG_SUSPECT, {"node": peer})
            except HostDownError:
                pass  # down devices learn membership when they rejoin

    def _evict(self, peer: str) -> bool:
        """Evict ``peer`` unless this node did within ``stale_after_s``;
        returns whether it did now."""
        now = self.sim.now
        last = self._evicted_at.get(peer)
        if last is not None and now - last < self.stale_after_s:
            return False
        self._evicted_at[peer] = now
        self.kv.chimera.evict(peer)
        for callback in self.on_suspect:
            callback(peer)
        return True

    def _handle_suspect(self, request: Request) -> None:
        peer = request.body["node"]
        if peer == self.kv.name:
            self.kv.chimera.announce()  # wrongly evicted: still here
        else:
            self._evict(peer)
