"""The WAL with a seeded simulated-disk cost model.

:class:`SimDiskStore` keeps :class:`~repro.storage.WalStore`'s journal
semantics but makes durability cost something: appends land in an OS
buffer (``pending_bytes``) and only become durable when a flush charges
``pending / write_mb_s + fsync_s`` simulated seconds through the event
kernel.  The :class:`StorageFlusher` is that background fsync process —
one per device, started/stopped with the monitors, interrupted by a
crash mid-flush exactly like a real box losing power with dirty pages.
It flushes on a fixed period while the store is dirty and parks while
it is clean: an idle device schedules no kernel events, and the first
append wakes it at the period tick it would have reached anyway.

Consequences the durability tests pin down:

* entries appended since the last completed flush are **lost** on
  crash (``crash()`` reports them as ``lost_ops``);
* replay charges ``bytes_replayed / replay_mb_s + fsync_s``;
* all latencies take seeded multiplicative jitter from a forked
  :class:`repro.sim.RandomSource`, so runs stay bit-for-bit
  repeatable.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim import Interrupt
from repro.storage.interface import RecoveryReport
from repro.storage.wal import WalStore

__all__ = ["SimDiskStore", "StorageFlusher"]

MB = 1024 * 1024


class SimDiskStore(WalStore):
    """WAL whose durability is charged by a disk cost model."""

    kind = "disk"

    def __init__(
        self,
        node: str = "",
        metrics=None,
        snapshot_every: int = 256,
        write_mb_s: float = 40.0,
        fsync_s: float = 0.005,
        replay_mb_s: float = 80.0,
        jitter: float = 0.10,
        rng=None,
    ) -> None:
        if write_mb_s <= 0 or replay_mb_s <= 0:
            raise ValueError("disk bandwidths must be positive")
        if fsync_s < 0:
            raise ValueError("fsync_s must be non-negative")
        super().__init__(node=node, metrics=metrics, snapshot_every=snapshot_every)
        self.write_mb_s = write_mb_s
        self.fsync_s = fsync_s
        self.replay_mb_s = replay_mb_s
        self.jitter = jitter
        self.rng = rng
        #: Appended-but-unsynced bytes (the dirty OS buffer).
        self.pending_bytes = 0.0
        self.fsyncs = 0
        #: Set by a parked :class:`StorageFlusher`; the next append
        #: clears and calls it.
        self._on_dirty: Optional[Callable[[], None]] = None

    def _on_append(self, size: int) -> None:
        # Unlike the idealized WAL, an append is only buffered; the
        # flusher advances ``synced`` once the charged flush completes.
        self.pending_bytes += size
        on_dirty = self._on_dirty
        if on_dirty is not None:
            self._on_dirty = None
            on_dirty()

    @property
    def dirty(self) -> bool:
        """Is anything appended but not yet durable?"""
        return self.pending_bytes > 0 or self.synced < len(self.log)

    # -- flush protocol (driven by StorageFlusher) --------------------------

    def begin_flush(self) -> tuple[int, float]:
        """Capture what this flush covers: (log mark, dirty bytes).

        Entries appended while the flush is in flight stay pending and
        are picked up by the next one.  The mark counts folded entries
        too, so a compaction during the flush cannot make it stale.
        """
        return self.folded + len(self.log), self.pending_bytes

    def flush_cost_s(self, nbytes: float) -> float:
        """Simulated seconds to write ``nbytes`` and fsync."""
        base = nbytes / (self.write_mb_s * MB) + self.fsync_s
        return self._jittered(base)

    def commit_flush(self, mark: int, nbytes: float) -> None:
        """Mark the captured prefix durable (flush completed)."""
        self.synced = max(self.synced, mark - self.folded)
        self.pending_bytes = max(0.0, self.pending_bytes - nbytes)
        self.fsyncs += 1
        self._count("storage.disk.fsyncs")

    # -- crash / recovery ---------------------------------------------------

    def crash(self) -> dict:
        report = super().crash()
        self.pending_bytes = 0.0
        return report

    def replay_cost_s(self, report: RecoveryReport) -> float:
        base = report.bytes_replayed / (self.replay_mb_s * MB) + self.fsync_s
        return self._jittered(base)

    def _jittered(self, base: float) -> float:
        if self.rng is None or self.jitter <= 0:
            return base
        return self.rng.jittered(base, self.jitter)

    def stats(self) -> dict:
        data = super().stats()
        data.update(
            {"fsyncs": self.fsyncs, "pending_bytes": round(self.pending_bytes, 1)}
        )
        return data


class StorageFlusher:
    """Per-device background fsync process for a :class:`SimDiskStore`.

    Same lifecycle shape as the monitors and the Repairer: ``start()``
    spawns the loop, ``stop()`` interrupts it.  A crash stops the
    flusher *before* the store's ``crash()`` runs, so a flush that was
    mid-charge never commits — its entries are part of the lost tail.

    It ticks every ``period_s`` while the store is dirty.  While it is
    clean the flusher parks on one event instead, and the first append
    schedules that event at the tick the periodic loop would have
    reached: the same commits at the same times, with no kernel event
    per idle period.
    """

    def __init__(self, sim, store: SimDiskStore, period_s: float = 0.25) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.sim = sim
        self.store = store
        self.period_s = period_s
        self.flushes = 0
        self._process = None

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.is_alive

    def start(self) -> None:
        if not self.running:
            self._process = self.sim.process(self._run())

    def stop(self) -> None:
        if self.running:
            self._process.interrupt("flusher stopped")
        self._process = None
        self.store._on_dirty = None

    def _run(self):
        store, sim = self.store, self.sim
        try:
            while True:
                if store.dirty:
                    yield sim.timeout(self.period_s)
                else:
                    yield self._park()
                if not store.dirty:
                    continue
                mark, nbytes = store.begin_flush()
                cost = store.flush_cost_s(nbytes)
                if cost > 0:
                    yield sim.timeout(cost)
                store.commit_flush(mark, nbytes)
                self.flushes += 1
        except Interrupt:
            return

    def _park(self):
        """The event to wait on while the store is clean.

        The next append schedules it at the first period tick at or
        after the append, counted ``t += period_s`` from now: the float
        sums the kernel's ``now + delay`` would have made tick by tick.
        """
        sim, period = self.sim, self.period_s
        wake = sim.event()
        last = sim.now

        def on_dirty() -> None:
            now = sim.now
            tick = last + period
            while tick < now:
                tick += period
            sim._succeed_at(wake, tick)

        self.store._on_dirty = on_dirty
        return wake
