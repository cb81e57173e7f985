"""The IStore interface of the durable storage backends.

A backend owns a set of named *tables* — dict-like key spaces the
consuming layers mutate directly (``table[key] = value``, ``del
table[key]``, ``table.pop(key)``).  The KV store binds
``kv.primary`` / ``kv.replicas`` / ``kv.tombstones``; the vstore node
binds ``bin.mandatory`` / ``bin.voluntary`` manifests.  Backends
intercept every mutation and journal it.  A volatile node (the default
``ClusterConfig(storage="mem")``) has no backend at all: its layers keep
plain dictionaries and a crash clears them.  A table may name
*volatile* values (soft state the program rebuilds on its own):
backends keep those in RAM only, so a crash drops them and replay does
not restore them.

The crash/recovery lifecycle is three calls:

* :meth:`IStore.crash` — power loss: every table's live dict is wiped
  (without journaling the wipes — this is RAM vanishing, not deletes),
  and any unsynced log tail is dropped;
* :meth:`IStore.replay` — rebuild every table from the durable state,
  returning a :class:`RecoveryReport`;
* :meth:`IStore.replay_cost_s` — the simulated seconds that replay
  should charge (zero except for the disk cost model).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["IStore", "RecoveryReport", "ENTRY_OVERHEAD", "encoded_len", "entry_bytes"]


#: One shared encoder: ``encode`` gives exactly ``json.dumps(value,
#: default=str)`` without building a new encoder per call.
_ENCODER = json.JSONEncoder(default=str)

#: Bytes a journal entry adds to its payload's encoding.
ENTRY_OVERHEAD = 32


def encoded_len(value: Any) -> int:
    """Length of ``value``'s JSON encoding (256 if it does not encode).

    The one size estimate every layer uses: journal entries here
    (:func:`entry_bytes`), KV wire payloads (``repro.kvstore.payload_size``)
    with their own overhead.
    """
    try:
        return len(_ENCODER.encode(value))
    except (TypeError, ValueError):
        return 256


def entry_bytes(value: Any, overhead: int = ENTRY_OVERHEAD) -> int:
    """Approximate serialized size of ``value`` plus ``overhead``, bytes."""
    return encoded_len(value) + overhead


@dataclass
class RecoveryReport:
    """What :meth:`IStore.replay` restored."""

    #: Live records restored across all tables.
    records: int = 0
    #: Records that came straight from the compacted snapshot.
    snapshot_records: int = 0
    #: Log entries applied on top of the snapshot.
    ops_replayed: int = 0
    #: Serialized bytes read back (snapshot + log), for the cost model.
    bytes_replayed: float = 0.0
    #: Per-table restored record counts.
    tables: dict = field(default_factory=dict)


class IStore:
    """Base backend: named tables plus the crash/recovery lifecycle."""

    #: Backend name as selected by ``ClusterConfig.storage``.
    kind = "abstract"

    def __init__(self, node: str = "", metrics=None) -> None:
        self.node = node
        self.metrics = metrics
        self._tables: dict[str, dict] = {}
        self._decoders: dict[str, Callable[[Any], Any]] = {}
        #: Lifetime crash count (observability).
        self.crashes = 0

    def table(
        self,
        name: str,
        decode: Optional[Callable[[Any], Any]] = None,
        volatile: Optional[Callable[[Any], bool]] = None,
    ) -> dict:
        """Get-or-create the named table.

        ``decode`` maps a journaled wire payload back to the live
        object on replay (e.g. ``Record.from_wire``); values that are
        already JSON-shaped need none.  ``volatile``, given when the
        table is created, is true of the values that stay out of the
        journal (e.g. ``is_soft_state``).  A key's values must all be
        volatile or all durable.
        """
        tbl = self._tables.get(name)
        if tbl is None:
            tbl = self._tables[name] = self._make_table(name, volatile)
        if decode is not None:
            self._decoders[name] = decode
        return tbl

    def _make_table(self, name: str, volatile=None) -> dict:
        return {}

    # -- crash / recovery lifecycle ----------------------------------------

    def crash(self) -> dict:
        """Power loss: drop every volatile structure.

        Returns ``{"lost_records": n, "lost_ops": m}`` — live entries
        wiped from the tables and journal appends that never reached
        durable state (zero here: the base class has no journal).
        """
        lost = sum(len(tbl) for tbl in self._tables.values())
        for tbl in self._tables.values():
            dict.clear(tbl)
        self.crashes += 1
        self._count("storage.crashes")
        return {"lost_records": lost, "lost_ops": 0}

    def replay(self) -> RecoveryReport:
        """Rebuild the tables from durable state (nothing, here)."""
        return RecoveryReport()

    def replay_cost_s(self, report: RecoveryReport) -> float:
        """Simulated seconds a replay of ``report`` should charge."""
        return 0.0

    # -- observability ------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready backend summary."""
        return {
            "kind": self.kind,
            "tables": {name: len(tbl) for name, tbl in sorted(self._tables.items())},
            "crashes": self.crashes,
        }

    def _count(self, metric: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(metric, node=self.node).inc(amount)
