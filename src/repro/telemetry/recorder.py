"""Bounded per-node flight recorders: the post-incident black box.

Each node's dump carries a small ring of its most recent telemetry —
finished spans (including instant events), SLO alerts, and per-dump
metric deltas — so that when something goes wrong there is a bounded
record of *what the node was doing right before*.

The span portion costs **nothing per span**: the telemetry plane
already retains every span (:attr:`Telemetry.spans`), so the hub reads
each node's tail of that list at dump time instead of subscribing to
the finished-span stream and copying spans into rings as they happen.
Dumps are rare (a firing alert, an assert-clean failure, scenario
end); the hot path is every span, so the pass-over-retained-spans cost
lands on the right side.  When ``Telemetry.max_spans`` bounds
retention, recorder coverage is bounded by the same horizon: a cluster
with SLOs on retains ``recorder_capacity`` spans per device, so a
node's tail can be shorter than its ring when other nodes were busier,
and ``recorded`` counts only the spans still retained.  Alerts
and metric deltas *are* pushed into per-node rings eagerly — they are
rare and would otherwise be lost.

A :class:`RecorderHub` owns one :class:`FlightRecorder` per node and
can be wired as an :meth:`SloEngine.on_alert` hook so a firing alert
snapshots every ring to a JSON artifact automatically.  The ``chaos
--assert-clean`` CLI does the same on failure.

Dumps follow the versioned ``c4h.flightrec/1`` schema validated by
:func:`validate_recorder_dump` — the same pattern as
:func:`~repro.telemetry.export.validate_chrome_trace` — so CI can
assert artifacts stay loadable.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Optional

__all__ = [
    "FlightRecorder",
    "RecorderHub",
    "validate_recorder_dump",
    "RECORDER_SCHEMA",
]

#: Dump schema identifier; bump on breaking layout changes.
RECORDER_SCHEMA = "c4h.flightrec/1"

#: Entry kinds a ring may hold.
_KINDS = ("span", "alert", "metric")


class FlightRecorder:
    """One node's bounded ring of recent telemetry entries."""

    def __init__(self, node: str, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.node = node
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self.recorded = 0
        self.dropped = 0

    def record(self, kind: str, at: float, data) -> None:
        """Append one entry.  ``data`` is a dict, or any object with an
        ``as_dict()`` — materialized lazily at read time so the per-span
        hot path never allocates a dict for an entry that the ring may
        evict unread."""
        if kind not in _KINDS:
            raise ValueError(f"unknown recorder entry kind: {kind!r}")
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append((kind, at, data))
        self.recorded += 1

    def record_span(self, span) -> None:
        at = span.end if span.end is not None else span.start
        self.record("span", at, span)

    def record_alert(self, alert) -> None:
        self.record("alert", alert.at, alert)

    def entries(self) -> list[dict]:
        return [
            {
                "kind": kind,
                "at": at,
                "data": data if isinstance(data, dict) else data.as_dict(),
            }
            for kind, at, data in self._ring
        ]

    def as_dict(self, span_tail=(), spans_seen: int = 0) -> dict:
        """Ring snapshot, JSON-ready.

        ``span_tail`` is this node's newest-last finished spans, read
        from the telemetry plane at dump time (see the module
        docstring); they merge with the explicitly recorded entries in
        time order and the result is truncated to ``capacity``.
        ``spans_seen`` is the node's total finished-span count, feeding
        the recorded/dropped accounting the dump schema requires.
        """
        merged = [("span", span.end, span) for span in span_tail]
        merged.extend(self._ring)
        merged.sort(key=lambda entry: entry[1])
        overflow = len(merged) - self.capacity
        if overflow > 0:
            merged = merged[overflow:]
        else:
            overflow = 0
        return {
            "node": self.node,
            "capacity": self.capacity,
            "recorded": self.recorded + spans_seen,
            "dropped": self.dropped + (spans_seen - len(span_tail)) + overflow,
            "entries": [
                {
                    "kind": kind,
                    "at": at,
                    "data": data if isinstance(data, dict) else data.as_dict(),
                }
                for kind, at, data in merged
            ],
        }

    def clear(self) -> None:
        self._ring.clear()
        self.recorded = 0
        self.dropped = 0


class RecorderHub:
    """All nodes' flight recorders plus the dump machinery.

    Parameters
    ----------
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; when given, each
        dump includes every node's tail of the plane's retained span
        list — read at dump time, never copied per span.
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry`; when given,
        each dump embeds the counter *deltas* since the previous dump
        (what changed, not the run-long totals).
    capacity:
        Ring size per node.
    dump_dir:
        When set, a firing alert delivered via :meth:`alert_hook`
        writes a dump artifact here automatically.
    """

    def __init__(
        self,
        telemetry=None,
        metrics=None,
        capacity: int = 256,
        dump_dir: Optional[str] = None,
    ) -> None:
        self.telemetry = telemetry
        self.metrics = metrics
        self.capacity = capacity
        self.dump_dir = dump_dir
        self.dumps: list[dict] = []
        self.dump_paths: list[str] = []
        self._recorders: dict[str, FlightRecorder] = {}
        self._last_counters: dict[tuple[str, str], float] = {}

    # -- recording ---------------------------------------------------------

    def recorder(self, node: str) -> FlightRecorder:
        rec = self._recorders.get(node)
        if rec is None:
            rec = self._recorders[node] = FlightRecorder(node, self.capacity)
        return rec

    def nodes(self) -> list[str]:
        return sorted(self._recorders)

    def record_alert(self, alert) -> None:
        self.recorder(alert.node).record_alert(alert)

    def alert_hook(self, alert) -> None:
        """An :meth:`SloEngine.on_alert` hook: record, and dump on firing."""
        self.record_alert(alert)
        if alert.state == "firing" and self.dump_dir is not None:
            self.dump(
                now=alert.at,
                reason=f"alert:{alert.slo_id}",
                directory=self.dump_dir,
            )

    # -- dumping -----------------------------------------------------------

    def _span_tails(self) -> tuple[dict, dict]:
        """Per-node span tails from the telemetry plane's retained list.

        Returns ``(tails, seen)``: each node's newest ``capacity``
        finished spans (oldest first) and its total finished-span
        count.  One pass over the retained spans, paid only when a
        dump actually happens.
        """
        tails: dict[str, deque] = {}
        seen: dict[str, int] = {}
        if self.telemetry is None:
            return tails, seen
        capacity = self.capacity
        for span in self.telemetry.spans:
            if span.end is None:
                continue
            node = span.node
            tail = tails.get(node)
            if tail is None:
                tail = tails[node] = deque(maxlen=capacity)
                seen[node] = 0
            tail.append(span)
            seen[node] += 1
        return tails, seen

    def _counter_deltas(self) -> dict:
        """name -> node -> counter increase since the previous dump."""
        if self.metrics is None:
            return {}
        deltas: dict[str, dict] = {}
        for (name, node), counter in self.metrics.counter_items():
            prev = self._last_counters.get((name, node), 0.0)
            delta = counter.value - prev
            self._last_counters[(name, node)] = counter.value
            if delta:
                deltas.setdefault(name, {})[node] = delta
        return deltas

    def dump(
        self,
        now: float,
        reason: str,
        directory: Optional[str] = None,
    ) -> dict:
        """Snapshot every ring (plus metric deltas) into one dump dict.

        When ``directory`` is given (or the hub was built with
        ``dump_dir``) the dump is also written to
        ``flightrec-<seq>.json`` there and the path recorded in
        :attr:`dump_paths`.
        """
        if directory is None:
            directory = self.dump_dir
        deltas = self._counter_deltas()
        # Each node's ring gets its own slice of the deltas — the ring
        # stays self-contained when a single node's dump is inspected.
        per_node: dict[str, dict] = {}
        for name, nodes in deltas.items():
            for node, value in nodes.items():
                per_node.setdefault(node, {})[name] = value
        for node, node_deltas in sorted(per_node.items()):
            self.recorder(node).record("metric", now, {"deltas": node_deltas})
        tails, seen = self._span_tails()
        data = {
            "schema": RECORDER_SCHEMA,
            "at": now,
            "reason": reason,
            "counter_deltas": deltas,
            "nodes": {
                node: self.recorder(node).as_dict(
                    span_tail=tails.get(node, ()), spans_seen=seen.get(node, 0)
                )
                for node in sorted(set(self._recorders) | set(tails))
            },
        }
        self.dumps.append(data)
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(
                directory, f"flightrec-{len(self.dumps) - 1:03d}.json"
            )
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=1, sort_keys=True)
            self.dump_paths.append(path)
        return data


def validate_recorder_dump(data: dict) -> int:
    """Validate one flight-recorder dump; returns its total entry count.

    Raises :class:`ValueError` on any structural problem — CI runs this
    over every artifact a chaos failure or firing alert produces.
    """
    if not isinstance(data, dict):
        raise ValueError("dump must be a JSON object")
    if data.get("schema") != RECORDER_SCHEMA:
        raise ValueError(f"unknown dump schema: {data.get('schema')!r}")
    for key in ("at", "reason", "counter_deltas", "nodes"):
        if key not in data:
            raise ValueError(f"dump missing key: {key!r}")
    if not isinstance(data["nodes"], dict):
        raise ValueError("dump 'nodes' must be an object")
    total = 0
    for node, rec in data["nodes"].items():
        for key in ("node", "capacity", "recorded", "dropped", "entries"):
            if key not in rec:
                raise ValueError(f"recorder for {node!r} missing key: {key!r}")
        if rec["node"] != node:
            raise ValueError(f"recorder node mismatch: {rec['node']!r} under {node!r}")
        entries = rec["entries"]
        if len(entries) > rec["capacity"]:
            raise ValueError(f"recorder for {node!r} overflows its capacity")
        if rec["recorded"] < len(entries) or rec["dropped"] < 0:
            raise ValueError(f"recorder for {node!r} has inconsistent accounting")
        last_at = None
        for entry in entries:
            if entry.get("kind") not in _KINDS:
                raise ValueError(f"bad entry kind in {node!r}: {entry.get('kind')!r}")
            at = entry.get("at")
            if not isinstance(at, (int, float)):
                raise ValueError(f"entry in {node!r} missing numeric 'at'")
            if last_at is not None and at < last_at:
                raise ValueError(f"entries in {node!r} are not time-ordered")
            last_at = at
            if not isinstance(entry.get("data"), dict):
                raise ValueError(f"entry in {node!r} missing 'data' object")
            total += 1
    return total
