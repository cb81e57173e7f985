"""Append-only simulated write-ahead log with snapshot+compaction.

Every mutation of a :class:`WalTable` appends a :class:`WalEntry` to
the backend's log (except for values the table names volatile); when
the log reaches ``snapshot_every`` entries the *synced* prefix is
folded into a compacted per-table snapshot and truncated.  Replay
rebuilds every table from snapshot + log in order.

The log is plain Python state — a *model* of a disk journal, never a
real file (SIM108 enforces this).  What makes it "durable" is the
crash contract: :meth:`WalStore.crash` wipes the tables' live dicts
but keeps snapshot and synced log entries, exactly the state a machine
finds on its platter after a power cycle.

``WalStore`` itself idealizes appends as instantly durable and free —
``synced`` always tracks the log tip — so recovery behaviour can be
studied without a latency model.  :class:`repro.storage.SimDiskStore`
subclasses this with interval fsync and real (simulated) costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.storage.interface import ENTRY_OVERHEAD, IStore, RecoveryReport, entry_bytes

__all__ = ["WalStore", "WalTable", "WalEntry"]


@dataclass
class WalEntry:
    """One journaled mutation."""

    op: str  # "put" | "del"
    table: str
    key: str
    value: Any  # encoded payload for puts, None for deletes
    size: int  # approximate serialized bytes


class WalTable(dict):
    """A dict that journals every mutation to its backend.

    Reads are plain dict reads (no overhead); writes go through
    ``__setitem__`` / ``__delitem__`` / ``pop`` / ``clear`` /
    ``update`` / ``setdefault``, all of which append to the WAL unless
    the value is volatile (``volatile(value)`` is true): those live in
    the dict alone.  Recovery repopulates via ``dict.__setitem__``
    directly so replay never re-journals what it reads back.
    """

    __slots__ = ("_store", "_name", "_volatile")

    def __init__(self, store: "WalStore", name: str, volatile=None) -> None:
        super().__init__()
        self._store = store
        self._name = name
        self._volatile = volatile

    def _durable(self, value) -> bool:
        return self._volatile is None or not self._volatile(value)

    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self, key, value)
        if self._durable(value):
            self._store.append("put", self._name, key, value)

    def __delitem__(self, key) -> None:
        value = dict.pop(self, key)
        if self._durable(value):
            self._store.append("del", self._name, key, None)

    def pop(self, key, *default):
        if key in self:
            value = dict.pop(self, key)
            if self._durable(value):
                self._store.append("del", self._name, key, None)
            return value
        if default:
            return default[0]
        raise KeyError(key)

    def popitem(self):
        key, value = dict.popitem(self)
        if self._durable(value):
            self._store.append("del", self._name, key, None)
        return key, value

    def clear(self) -> None:
        # A *logical* clear: journaled deletes.  RAM loss at crash time
        # goes through dict.clear(table) instead and journals nothing.
        for key in list(self):
            del self[key]

    def update(self, *args, **kwargs) -> None:
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = default
        return dict.__getitem__(self, key)


class WalStore(IStore):
    """Durable backend: tables journaled to an append-only log."""

    kind = "wal"
    durable = True

    def __init__(
        self, node: str = "", metrics=None, snapshot_every: int = 256
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        super().__init__(node=node, metrics=metrics)
        self.snapshot_every = snapshot_every
        self.log: list[WalEntry] = []
        #: Compacted durable state: table -> key -> encoded payload.
        self.snapshot: dict[str, dict[str, Any]] = {}
        #: Log entries guaranteed durable (== tip for the idealized WAL).
        self.synced = 0
        #: Entries ever folded out of the log by compaction, so
        #: ``folded + i`` names log entry ``i`` across compactions.
        self.folded = 0
        self.appends = 0
        self.compactions = 0
        #: Serialized bytes of the snapshot: each live key's journaled
        #: size, and their running total.  The sizes stay exact because
        #: a journaled payload is never edited after append: a record's
        #: kept wire form is dropped, not edited, when the record
        #: changes, and callers copy a value fetched from the KV store
        #: before editing it (``ObjectMeta.from_wire``,
        #: ``ServiceRegistry``).
        self._snapshot_sizes: dict[tuple[str, str], int] = {}
        self._snapshot_bytes = 0

    def _make_table(self, name: str, volatile=None) -> dict:
        return WalTable(self, name, volatile)

    # -- journaling ---------------------------------------------------------

    def append(self, op: str, table: str, key: str, value: Any) -> None:
        """Journal one mutation (called by the tables)."""
        if hasattr(value, "keep_wire"):
            # The record keeps the wire form the log holds, so its
            # replies and pushes do not build it again.
            encoded = value.keep_wire()
        else:
            encoded = value.wire() if hasattr(value, "wire") else value
        if op != "put":
            size = 24
        elif hasattr(value, "encoded_len"):
            # A record that knows its encoding's length is not encoded
            # a second time just to be measured.
            size = value.encoded_len(encoded) + ENTRY_OVERHEAD
        else:
            size = entry_bytes(encoded)
        self.log.append(WalEntry(op, table, key, encoded, size))
        self.appends += 1
        self._count("storage.wal.appends")
        self._on_append(size)
        if len(self.log) >= self.snapshot_every:
            self.compact()

    def _on_append(self, size: int) -> None:
        """Durability policy hook: the idealized WAL syncs every append."""
        self.synced = len(self.log)

    def compact(self) -> int:
        """Fold the synced log prefix into the snapshot; return entries
        folded.  Unsynced tail entries stay in the log — they are not
        durable yet, so they must not contaminate the durable snapshot.
        """
        n = self.synced
        if n == 0:
            return 0
        sizes = self._snapshot_sizes
        for entry in self.log[:n]:
            tbl = self.snapshot.setdefault(entry.table, {})
            slot = (entry.table, entry.key)
            self._snapshot_bytes -= sizes.pop(slot, 0)
            if entry.op == "put":
                tbl[entry.key] = entry.value
                sizes[slot] = entry.size
                self._snapshot_bytes += entry.size
            else:
                tbl.pop(entry.key, None)
        del self.log[:n]
        self.synced = 0
        self.folded += n
        self.compactions += 1
        self._count("storage.wal.compactions")
        return n

    # -- crash / recovery ---------------------------------------------------

    def crash(self) -> dict:
        dropped = len(self.log) - self.synced
        if dropped > 0:
            del self.log[self.synced :]
        report = super().crash()
        report["lost_ops"] = dropped
        if dropped:
            self._count("storage.wal.lost_ops", dropped)
        return report

    def replay(self) -> RecoveryReport:
        """Rebuild every table from snapshot + synced log, in order.

        Restored keys land in each table via ``dict.__setitem__`` (no
        re-journaling) in sorted-key order, so the rebuilt dicts have
        a deterministic iteration order regardless of write history.
        """
        report = RecoveryReport()
        staged: dict[str, dict[str, Any]] = {
            name: dict(values) for name, values in self.snapshot.items()
        }
        report.snapshot_records = sum(len(v) for v in staged.values())
        for entry in self.log[: self.synced]:
            tbl = staged.setdefault(entry.table, {})
            if entry.op == "put":
                tbl[entry.key] = entry.value
            else:
                tbl.pop(entry.key, None)
            report.ops_replayed += 1
            report.bytes_replayed += entry.size
        report.bytes_replayed += self._snapshot_bytes
        for name in sorted(staged):
            values = staged[name]
            table = self.table(name)
            dict.clear(table)
            decode = self._decoders.get(name)
            for key in sorted(values):
                value = values[key]
                dict.__setitem__(
                    table, key, decode(value) if decode is not None else value
                )
            report.tables[name] = len(values)
            report.records += len(values)
        if report.records:
            self._count("storage.replay.records", report.records)
        if report.ops_replayed:
            self._count("storage.replay.ops", report.ops_replayed)
        return report

    # -- observability ------------------------------------------------------

    def stats(self) -> dict:
        data = super().stats()
        data.update(
            {
                "appends": self.appends,
                "compactions": self.compactions,
                "log_entries": len(self.log),
                "synced": self.synced,
                "snapshot_records": sum(len(v) for v in self.snapshot.values()),
            }
        )
        return data
