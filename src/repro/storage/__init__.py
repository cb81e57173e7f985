"""Pluggable per-device storage backends (the durability layer).

A backend decides what a device keeps across a crash.  A volatile
device (the default, ``"mem"``) has none: its KV tables and bins are
plain dictionaries that a crash clears, and it rejoins empty-handed.
With a backend, every KV record and object-bin manifest the device
holds lives in one :class:`IStore`.  Two implementations:

* :class:`WalStore` — an append-only *simulated* write-ahead log with
  snapshot+compaction; appends are idealized (durable instantly, no
  latency), so recovery semantics can be studied in isolation;
* :class:`SimDiskStore` — the WAL plus a seeded disk cost model:
  appends accumulate until a background fsync flushes them (charging
  write-bandwidth + fsync latency through the event kernel), and
  replay charges read bandwidth.  Unsynced tail entries are lost on
  crash, exactly like a real interval-fsync'd log.

The WAL is simulated state, never a real file — simlint rule SIM108
forbids real filesystem I/O in this package.  Backends are selected by
``ClusterConfig(storage=...)`` ("mem" | "wal" | "disk") and
tuned via :class:`repro.cluster.StorageConfig`.
"""

from repro.storage.interface import IStore, RecoveryReport, entry_bytes
from repro.storage.wal import WalEntry, WalStore, WalTable
from repro.storage.disk import SimDiskStore, StorageFlusher

__all__ = [
    "IStore",
    "WalStore",
    "WalTable",
    "WalEntry",
    "SimDiskStore",
    "StorageFlusher",
    "RecoveryReport",
    "entry_bytes",
    "make_store",
]


def make_store(
    kind: str,
    node: str = "",
    metrics=None,
    snapshot_every: int = 256,
    write_mb_s: float = 40.0,
    fsync_s: float = 0.005,
    replay_mb_s: float = 80.0,
    jitter: float = 0.10,
    rng=None,
) -> IStore:
    """Build a durable backend by name ("wal" or "disk")."""
    if kind == "wal":
        return WalStore(node=node, metrics=metrics, snapshot_every=snapshot_every)
    if kind == "disk":
        return SimDiskStore(
            node=node,
            metrics=metrics,
            snapshot_every=snapshot_every,
            write_mb_s=write_mb_s,
            fsync_s=fsync_s,
            replay_mb_s=replay_mb_s,
            jitter=jitter,
            rng=rng,
        )
    raise ValueError(
        f"unknown storage backend {kind!r} (expected 'wal' or 'disk')"
    )
