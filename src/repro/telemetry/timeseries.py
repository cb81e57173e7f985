"""The sliding-window instrument, keyed by simulated time.

The cumulative instruments in :mod:`repro.telemetry.metrics` answer
"what happened over the whole run"; :class:`WindowedHistogram` answers
"what happened over the last *W* seconds of simulated time" — the view
an SLO engine or an adaptive placement policy actually needs.  Its
per-observation ``ok`` flag makes the same ring a success ratio, so it
is the plane's only windowed instrument.

It is a ring of ``sub_windows`` fixed-size sub-windows of
``window_s / sub_windows`` simulated seconds each.  Sub-window edges
are aligned to the simulation epoch (t = 0.0): the sub-window covering
time ``t`` has absolute index ``int(t // sub_window_s)``, so rotation
is pure arithmetic on the simulated clock — no wall time, no ambient
state — and two runs that produce the same simulated timestamps rotate
bit-identically, fast path or reference kernel alike.

Rotation is *lazy*: nothing ticks in the background.  Each slot is
tagged with the absolute sub-window index it holds data for; expired
slots are simply excluded from reads by tag comparison and reset only
when the ring next writes into them.  Advancing the ring is therefore
O(1) regardless of how much simulated time passed since the last
touch.  Every observe / read call carries an explicit ``now``
(or falls back to the newest time the instrument has seen).  A window
summary is the merge of all live sub-windows, so a reading covers at
most ``window_s`` and at least ``window_s - sub_window_s`` seconds of
history — the usual ring-buffer resolution trade.  A write stamped
before the live window (possible only if a caller passes a stale
``now``) is dropped rather than polluting a newer sub-window.

:class:`WindowedHistogram` reuses the fixed-bucket layout and
interpolated quantiles of :class:`~repro.telemetry.metrics.Histogram`
(the merge of the ring *is* a ``Histogram``), so windowed p99s are
computed by exactly the same estimator as the cumulative ones.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.telemetry.metrics import DEFAULT_BUCKETS, Histogram

__all__ = [
    "WindowPolicy",
    "WindowedHistogram",
    "merge_window_histograms",
]


@dataclass(frozen=True)
class WindowPolicy:
    """How a telemetry plane shapes its windowed instruments.

    ``window_s`` is the sliding-window span; ``sub_windows`` the ring
    granularity (rotation happens every ``window_s / sub_windows``
    simulated seconds).  ``names`` scopes the per-span feed: ``None``
    mints a rollup for every finished span name, a frozenset restricts
    the feed to those names — spans outside the set cost one membership
    test instead of a ring write, which is what keeps ``slo=True``
    (whose engine only reads a handful of judged metrics) cheap on
    span-dense workloads.
    """

    window_s: float = 60.0
    sub_windows: int = 6
    names: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.sub_windows < 1:
            raise ValueError("sub_windows must be >= 1")
        if self.names is not None and not isinstance(self.names, frozenset):
            object.__setattr__(self, "names", frozenset(self.names))


class WindowedHistogram:
    """A ring of fixed-bucket histograms; the window merge is a Histogram.

    ``observe(value, now, ok=...)`` lands the value in the sub-window
    covering ``now``; :meth:`window` merges the live ring into a plain
    :class:`~repro.telemetry.metrics.Histogram` so quantiles use the
    exact same interpolation as the cumulative plane.

    Each observation also carries an ``ok`` flag, so the instrument
    doubles as a success-ratio window (:meth:`window_totals`): one ring
    write per finished span (or per hand-fed signal, such as the chaos
    scenario's clean-fetch mark) covers both the latency SLO and the
    availability SLO.  An empty window reads as ratio 1.0 ("no
    evidence of failure") in :meth:`summary`, which also exports the
    sample count so the SLO engine can require a minimum population
    before judging it.
    """

    __slots__ = (
        "name",
        "node",
        "window_s",
        "sub_windows",
        "sub_window_s",
        "bounds",
        "_head",
        "_seen",
        "_tags",
        "_width",
        "_counts",
        "_count",
        "_ok",
        "_total",
        "_vmin",
        "_vmax",
    )

    def __init__(
        self,
        name: str,
        node: str = "",
        window_s: float = 60.0,
        sub_windows: int = 6,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if sub_windows < 1:
            raise ValueError("sub_windows must be >= 1")
        if buckets is None:
            bounds = DEFAULT_BUCKETS  # known-good; skip re-validation
        else:
            bounds = tuple(buckets)
            if not bounds or list(bounds) != sorted(bounds):
                raise ValueError("bucket bounds must be non-empty and ascending")
        self.name = name
        self.node = node
        self.window_s = float(window_s)
        self.sub_windows = n = int(sub_windows)
        self.sub_window_s = self.window_s / n
        self.bounds = bounds
        #: Absolute index of the newest sub-window the ring has advanced
        #: to; slot ``i % sub_windows`` holds absolute sub-window ``i``.
        self._head = 0
        #: Newest simulated time this instrument has been touched with —
        #: the fallback clock for reads that pass ``now=None``.
        self._seen = 0.0
        #: Per-slot absolute sub-window index the slot's data belongs
        #: to (-1 = never written).  A slot is *live* iff its tag is
        #: within ``sub_windows`` of the head; anything older is dead
        #: weight that the next write into the slot resets.
        self._tags = [-1] * n
        self._width = len(bounds) + 1  # +1 overflow bucket
        #: Bucket-count rows are allocated on first write to a slot —
        #: instruments are minted per (span name, node), and most of a
        #: short run's instruments never fill the whole ring.
        self._counts: list = [None] * n
        self._count = [0] * n
        self._ok = [0] * n
        self._total = [0.0] * n
        self._vmin = [float("inf")] * n
        self._vmax = [float("-inf")] * n

    def _advance(self, now: Optional[float]) -> int:
        """Rotate the ring forward to ``now``; return the live floor.

        O(1): only the head index moves; expired slots stay untouched
        (their stale tags exclude them from reads).  The floor is the
        oldest absolute sub-window index still inside the window.
        """
        if now is None:
            now = self._seen
        elif now > self._seen:
            self._seen = now
        target = int(now // self.sub_window_s)
        if target > self._head:
            self._head = target
        return self._head - self.sub_windows + 1

    def observe(self, value: float, now: float, ok: bool = True) -> None:
        """Land ``value`` in the sub-window covering ``now``.

        A write stamped before the live window is dropped; a write into
        a slot still holding an older sub-window resets the slot first.
        """
        # Rotation inlined: this runs once per finished span.
        if now > self._seen:
            self._seen = now
        index = int(now // self.sub_window_s)
        head = self._head
        if index > head:
            self._head = index
        elif index <= head - self.sub_windows:
            return
        slot = index % self.sub_windows
        if self._tags[slot] != index:
            self._tags[slot] = index
            counts = self._counts[slot]
            if counts is None:
                self._counts[slot] = [0] * self._width
            else:
                for i in range(len(counts)):
                    counts[i] = 0
            self._count[slot] = 0
            self._ok[slot] = 0
            self._total[slot] = 0.0
            self._vmin[slot] = float("inf")
            self._vmax[slot] = float("-inf")
        self._counts[slot][bisect.bisect_left(self.bounds, value)] += 1
        self._count[slot] += 1
        if ok:
            self._ok[slot] += 1
        self._total[slot] += value
        if value < self._vmin[slot]:
            self._vmin[slot] = value
        if value > self._vmax[slot]:
            self._vmax[slot] = value

    def window_totals(self, now: Optional[float] = None) -> tuple[int, int]:
        """(ok, total) observations over the live window."""
        floor = self._advance(now)
        ok = n = 0
        for slot in range(self.sub_windows):
            if self._tags[slot] >= floor:
                ok += self._ok[slot]
                n += self._count[slot]
        return ok, n

    def _merge_into(self, merged: Histogram, now: Optional[float]) -> None:
        """Add every live sub-window into ``merged``."""
        floor = self._advance(now)
        counts = merged.counts
        for slot in range(self.sub_windows):
            if self._tags[slot] < floor or not self._count[slot]:
                continue
            for i, n in enumerate(self._counts[slot]):
                counts[i] += n
            merged.count += self._count[slot]
            merged.total += self._total[slot]
            if self._vmin[slot] < merged.vmin:
                merged.vmin = self._vmin[slot]
            if self._vmax[slot] > merged.vmax:
                merged.vmax = self._vmax[slot]

    def window(self, now: Optional[float] = None) -> Histogram:
        """The live window merged into one plain :class:`Histogram`."""
        merged = Histogram(self.name, self.node, self.bounds)
        self._merge_into(merged, now)
        return merged

    def summary(self, now: Optional[float] = None) -> dict:
        out = self.window(now).summary()
        ok, n = self.window_totals(now)
        out["type"] = "windowed_histogram"
        out["window_s"] = self.window_s
        out["sub_windows"] = self.sub_windows
        out["ok"] = ok
        out["ratio"] = ok / n if n else 1.0
        return out

    def as_dict(self) -> dict:
        return self.summary()


def merge_window_histograms(
    instruments: Sequence[WindowedHistogram], now: Optional[float] = None
) -> Histogram:
    """Merge several nodes' windowed histograms into one Histogram.

    All instruments must share a bucket layout (they do when minted by
    one :class:`~repro.telemetry.metrics.MetricsRegistry`).  This is how
    a cluster-wide windowed p99 is computed from per-node rollups.
    """
    if not instruments:
        return Histogram("merged")
    merged = Histogram(instruments[0].name, "", instruments[0].bounds)
    for wh in instruments:
        if wh.bounds != merged.bounds:
            raise ValueError("cannot merge windowed histograms with different buckets")
        wh._merge_into(merged, now)
    return merged
