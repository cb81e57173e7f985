"""Periodic resource publication into the key-value store.

"Nodes periodically update their current resource usage in the
key-value store using their node ID as key and serialized resource
information structure as value.  The updates are performed through a
resource monitoring utility module ... after a configurable time period
(to contain messaging overheads)." — Sections III-A and IV.
"""

from __future__ import annotations

from typing import Callable

from repro.kvstore import DhtKeyValueStore
from repro.kvstore.errors import KvError
from repro.kvstore.records import SOFT_STATE_PREFIX
from repro.monitoring.snapshot import ResourceSnapshot
from repro.net import NetworkError
from repro.sim import Interrupt

__all__ = ["ResourceMonitor", "resource_key"]


def resource_key(node_name: str) -> str:
    """KV-store key under which a node's resources are published.

    Snapshots are soft state: durable backends keep them in RAM only.
    """
    return f"{SOFT_STATE_PREFIX}{node_name}"


class ResourceMonitor:
    """Publishes a node's :class:`ResourceSnapshot` on a fixed period.

    ``sampler`` is called at each tick to produce the snapshot — the
    device model supplies it (CPU load from the simulated scheduler, bin
    space from the file-system watcher, etc.).
    """

    #: Called after each periodic publish, successful or not.  A
    #: class-level empty tuple until something subscribes (by assigning
    #: a list), so the monitors of a large overlay allocate nothing.
    on_tick: "tuple | list[Callable[[], None]]" = ()

    def __init__(
        self,
        store: DhtKeyValueStore,
        sampler: Callable[[], ResourceSnapshot],
        period_s: float = 5.0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.store = store
        self.sampler = sampler
        self.period_s = period_s
        self.updates_published = 0
        #: Simulated time of the last successful publish (None before
        #: the first one) — the health scoreboard's staleness input.
        self.last_published_at: float | None = None
        self._process = None

    @property
    def sim(self):
        return self.store.sim

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.is_alive

    def start(self, publish_immediately: bool = True) -> None:
        if not self.running:
            self._process = self.sim.process(self._run(publish_immediately))

    def stop(self) -> None:
        if self.running:
            self._process.interrupt("monitor stopped")
        self._process = None

    def publish_once(self):
        """Process: take one sample and publish it (also used by ticks)."""
        snapshot = self.sampler()
        yield from self.store.put(
            resource_key(self.store.name), snapshot.wire()
        )
        self.updates_published += 1
        self.last_published_at = self.sim.now
        return snapshot

    def fetch(self, node_name: str):
        """Process: the latest snapshot another node published.

        Raises :class:`KeyNotFoundError` if the node never published.
        """
        value = yield from self.store.get(resource_key(node_name))
        return ResourceSnapshot.from_wire(value)

    def _run(self, publish_immediately: bool):
        try:
            if publish_immediately:
                yield from self._publish_guarded()
            while True:
                yield self.sim.timeout(self.period_s)
                yield from self._publish_guarded()
                for callback in self.on_tick:
                    callback()
        except Interrupt:
            return

    def _publish_guarded(self):
        try:
            yield from self.publish_once()
        except (NetworkError, KvError):
            # Transient routing trouble (churn); the next tick retries.
            pass
