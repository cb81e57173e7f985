"""The metrics plane: named counters, gauges, and histograms.

Every instrument is registered under a ``(name, node)`` pair in one
:class:`MetricsRegistry` — ``name`` follows the ``layer.operation``
scheme the span plane uses (``kv.get``, ``xensocket.transfer``,
``cloud.fetch``), ``node`` is the device it happened on (empty for
cluster-wide instruments).  Histograms use fixed bucket boundaries and
report p50/p95/p99 by bucket interpolation, so memory stays constant no
matter how many observations arrive.

`KvStats` stays the KV layer's hot-path counter struct (no per-node
registry instruments on a 10,000-node overlay);
:meth:`MetricsRegistry.ingest_kvstats` is its read view, mapping a
:meth:`repro.kvstore.KvStats.snapshot` export onto registry instruments.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

#: Default latency buckets (seconds): 100 µs .. ~40 min, roughly 3 per
#: decade, matching the simulated operation range (ms XenSocket pushes
#: up to multi-minute 100 MB cloud transfers).  The top decade
#: (500/1000/2500 s) covers the queueing tail seen when driving
#: 10k-node overlays past saturation — without it, everything past
#: 250 s lands in the overflow bucket and the p99/p999 estimates
#: degrade to the observed max.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "node", "value")

    def __init__(self, name: str, node: str = "") -> None:
        self.name = name
        self.node = node
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (queue depth, free MB, load)."""

    __slots__ = ("name", "node", "value")

    def __init__(self, name: str, node: str = "") -> None:
        self.name = name
        self.node = node
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with interpolated quantile summaries.

    ``bounds`` are upper bucket edges (ascending); one overflow bucket
    catches everything above the last edge.  Count, sum, min, and max
    are exact; quantiles interpolate linearly inside the containing
    bucket (the standard Prometheus-style estimate).
    """

    __slots__ = ("name", "node", "bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(
        self,
        name: str,
        node: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be non-empty and ascending")
        self.name = name
        self.node = node
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated q-quantile (0 <= q <= 1); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if seen + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else min(self.vmin, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self.vmax
                lo = max(lo, self.vmin)
                hi = min(hi, self.vmax)
                if hi <= lo or n == 0:
                    return hi
                # Linear interpolation within the containing bucket.
                fraction = (rank - seen) / n
                return lo + fraction * (hi - lo)
            seen += n
        return self.vmax

    @property
    def overflow(self) -> int:
        """Observations above the last bucket edge.

        These are counted explicitly (and exported by :meth:`summary`)
        rather than silently clamped: a nonzero overflow count means
        the bucket layout no longer covers the observed range and the
        upper quantiles are interpolating against the raw max.
        """
        return self.counts[-1]

    def summary(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
            "overflow": self.overflow,
        }

    def as_dict(self) -> dict:
        return self.summary()


class MetricsRegistry:
    """All instruments for one deployment, keyed by (name, node)."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, str], Counter] = {}
        self._gauges: dict[tuple[str, str], Gauge] = {}
        self._histograms: dict[tuple[str, str], Histogram] = {}
        # Windowed rollups (see repro.telemetry.timeseries), keyed the
        # same way; created on demand so runs without SLOs pay nothing.
        self._windowed_histograms: dict = {}

    # -- instrument accessors (get-or-create) ------------------------------

    def counter(self, name: str, node: str = "") -> Counter:
        key = (name, node)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, node)
        return instrument

    def gauge(self, name: str, node: str = "") -> Gauge:
        key = (name, node)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, node)
        return instrument

    def histogram(
        self, name: str, node: str = "", buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        key = (name, node)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, node, buckets)
        return instrument

    # -- windowed rollups (get-or-create) ----------------------------------

    def windowed_histogram(
        self,
        name: str,
        node: str = "",
        window_s: float = 60.0,
        sub_windows: int = 6,
        buckets: Optional[Sequence[float]] = None,
    ):
        """Get-or-create a sliding-window latency histogram rollup."""
        from repro.telemetry.timeseries import WindowedHistogram

        key = (name, node)
        instrument = self._windowed_histograms.get(key)
        if instrument is None:
            instrument = self._windowed_histograms[key] = WindowedHistogram(
                name, node, window_s=window_s, sub_windows=sub_windows, buckets=buckets
            )
        return instrument

    def windowed_histograms_for(self, name: str) -> list:
        """Every node's windowed histogram under ``name`` (sorted by node)."""
        return [
            inst
            for (n, _node), inst in sorted(self._windowed_histograms.items())
            if n == name
        ]

    def counter_items(self) -> list:
        """Every counter as ((name, node), Counter), sorted by key."""
        return sorted(self._counters.items())

    def peek_windowed_histogram(self, name: str, node: str = ""):
        """The windowed histogram under (name, node), or None (no create)."""
        return self._windowed_histograms.get((name, node))

    def windowed_histograms_on(self, node: str) -> list:
        """Every windowed histogram living on ``node`` (sorted by name)."""
        return [
            inst
            for (_name, inode), inst in sorted(self._windowed_histograms.items())
            if inode == node
        ]

    # -- KvStats read view -------------------------------------------------

    def ingest_kvstats(self, node: str, stats) -> None:
        """Map one node's ``KvStats.snapshot()`` onto registry instruments.

        Counters become registry counters (set to the current running
        totals), the exact lookup mean becomes a gauge, and the windowed
        lookup quantiles become gauges under ``kv.lookup.*`` — so the
        :class:`~repro.kvstore.DhtKeyValueStore` hot-path counters show
        up in the unified metrics plane.
        """
        snapshot = stats.snapshot()
        for key, value in snapshot["counters"].items():
            counter = self.counter(f"kv.{key}", node=node)
            counter.value = float(value)
        self.gauge("kv.lookup.mean_s", node=node).set(snapshot["lookup_mean_s"])
        window = snapshot["lookup_window"]
        self.gauge("kv.lookup.window_n", node=node).set(window["n"])
        for q in ("p50", "p95", "p99", "p999"):
            if q in window:
                self.gauge(f"kv.lookup.window_{q}_s", node=node).set(window[q])

    # -- export ------------------------------------------------------------

    def _stores(self):
        # Windowed rollups share names with their cumulative twins
        # (``kv.get`` the run-long histogram vs ``kv.get`` the last 60 s),
        # so they export under a ``.window`` suffix.
        return (
            (self._counters, ""),
            (self._gauges, ""),
            (self._histograms, ""),
            (self._windowed_histograms, ".window"),
        )

    def snapshot(self) -> dict:
        """JSON-ready nested export: name -> node -> instrument dict."""
        out: dict[str, dict] = {}
        for store, suffix in self._stores():
            for (name, node), instrument in sorted(store.items()):
                out.setdefault(name + suffix, {})[node] = instrument.as_dict()
        return out

    def names(self) -> list[str]:
        return sorted(
            {name + suffix for store, suffix in self._stores() for name, _node in store}
        )
