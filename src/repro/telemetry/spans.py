"""Causal spans: the per-request trace tree.

A *span* is one timed piece of work in one layer on one node — a
XenSocket command push, a DHT forward hop, a service execution, an S3
download.  Spans carry a trace id (one per top-level operation), their
own span id, and their parent's span id, so a whole `StoreObject` /
`FetchObject` / `Process` request reconstructs as a tree: which layer
was on the critical path, and for how much simulated time.

Design constraints (see docs/OBSERVABILITY.md):

* **Off by default, guarded emit.**  Layers hold no telemetry state;
  they read ``sim.telemetry`` (``None`` unless a :class:`Telemetry` was
  attached) and skip all span work behind a single ``is not None``
  check.  Disabled runs execute byte-identical simulated behaviour —
  instrumentation adds *no* simulated time and never touches RPC
  bodies or declared message sizes.
* **Explicit context propagation.**  The simulator interleaves many
  generator processes, so there is no ambient "current span"; parent
  context travels as an explicit ``ctx`` argument through ``yield
  from`` chains and, when a request hops to another node, as the
  caller's span in the RPC envelope (``call(..., ctx=span)``, read
  back as ``Request.ctx``).
* **Deterministic ids.**  Span ids come from a private counter in
  operation order; the simulation itself is deterministic, so two runs
  of the same scenario produce identical span trees (the fast path
  included).  Per-worker traces from :mod:`repro.parallel` merge with
  :func:`repro.telemetry.export.merge_span_dumps`.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.telemetry.metrics import MetricsRegistry

__all__ = ["Span", "SpanContext", "Telemetry"]


@dataclass(frozen=True)
class SpanContext:
    """The (trace id, span id) pair a child span attaches under."""

    trace_id: int
    span_id: int


@dataclass
class Span:
    """One timed, attributed piece of work in the span tree."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    layer: str
    node: str
    start: float
    end: Optional[float] = None
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration_s(self) -> float:
        """Simulated duration (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "layer": self.layer,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            layer=data["layer"],
            node=data.get("node", ""),
            start=data["start"],
            end=data.get("end"),
            status=data.get("status", "ok"),
            attrs=dict(data.get("attrs", {})),
        )


class Telemetry:
    """The per-simulation telemetry plane: spans plus a metrics registry.

    Attach one to a simulator (``Telemetry(sim).attach()`` or
    ``ClusterConfig(telemetry=True)``) and every instrumented layer
    starts emitting spans; leave it off and the layers' guards make the
    whole plane a no-op.  Every finished span feeds a latency histogram
    named after the span under node ``span.node`` in :attr:`metrics`
    (plus a ``<name>.errors`` counter when it fails): the bridge between
    the trace plane and the metrics plane.

    Parameters
    ----------
    sim:
        The simulator whose clock timestamps spans.
    max_spans:
        Optional bound on retained spans; the oldest are dropped (and
        counted in ``dropped``) once exceeded, in O(1) per span.
        Unbounded by default — report runs are short; long soak runs
        should bound this (a cluster with SLOs on bounds it to its
        flight recorders' horizon).
    windowed:
        Optional :class:`~repro.telemetry.timeseries.WindowPolicy`.
        When set, every finished span *also* feeds a per-``(name,
        node)`` sliding-window histogram (which carries latency *and*
        success counts — see ``WindowedHistogram.window_totals``) in
        :attr:`metrics` — the live view the SLO engine and health
        scoreboard read.  A policy with ``names`` set scopes the feed
        to those span names.  ``None`` (default) keeps the windowed
        plane entirely unallocated.
    """

    def __init__(
        self,
        sim,
        max_spans: Optional[int] = None,
        windowed=None,
    ) -> None:
        if max_spans is not None and max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self.sim = sim
        self.max_spans = max_spans
        self.windowed = windowed
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self.dropped = 0
        self.metrics = MetricsRegistry()
        self._ids = itertools.count(1)

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> "Telemetry":
        """Make this the simulator's telemetry plane; returns self."""
        self.sim.telemetry = self
        return self

    def detach(self) -> None:
        if getattr(self.sim, "telemetry", None) is self:
            self.sim.telemetry = None

    # -- span emission -----------------------------------------------------

    def begin(
        self,
        name: str,
        layer: str,
        node: str,
        parent: "Span | SpanContext | None" = None,
        **attrs: Any,
    ) -> Span:
        """Open a span at the current simulated time.

        ``parent`` may be another :class:`Span` (an RPC handler's is
        the caller's, from ``Request.ctx``), a :class:`SpanContext`, or
        ``None`` — in which case this span roots a brand-new trace.
        """
        span_id = next(self._ids)
        trace_id, parent_id = self._resolve_parent(parent, span_id)
        span = Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            layer=layer,
            node=node,
            start=self.sim.now,
            attrs=attrs,
        )
        self._retain(span)
        return span

    def event(
        self,
        name: str,
        layer: str,
        node: str,
        parent: "Span | SpanContext | None" = None,
        status: str = "ok",
        **attrs: Any,
    ) -> Span:
        """Emit an instant span: zero duration, already closed.

        Used for point-in-time facts (an SLO alert firing, a breaker
        tripping) that belong in the trace stream but are not timed
        work — so they do *not* feed the latency histograms or the
        windowed rollups.
        """
        span_id = next(self._ids)
        trace_id, parent_id = self._resolve_parent(parent, span_id)
        now = self.sim.now
        span = Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            layer=layer,
            node=node,
            start=now,
            end=now,
            status=status,
            attrs=attrs,
        )
        self._retain(span)
        return span

    @staticmethod
    def _resolve_parent(parent, span_id: int) -> tuple[int, Optional[int]]:
        if parent is None:
            return span_id, None
        return parent.trace_id, parent.span_id

    @property
    def spans(self) -> list[Span]:
        """The retained spans, oldest first (a list copy)."""
        return list(self._spans)

    def _retain(self, span: Span) -> None:
        if len(self._spans) == self.max_spans:
            self.dropped += 1  # the bounded deque evicts the oldest
        self._spans.append(span)

    def end(self, span: Span, status: str = "ok", **attrs: Any) -> Span:
        """Close a span at the current simulated time."""
        span.end = self.sim.now
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        metrics = self.metrics
        metrics.histogram(span.name, node=span.node).observe(span.end - span.start)
        if status != "ok":
            metrics.counter(f"{span.name}.errors", node=span.node).inc()
        policy = self.windowed
        if policy is not None and (policy.names is None or span.name in policy.names):
            # The registry's own map, read directly: get-or-create costs
            # a call and an import on this per-span path.
            rollup = metrics._windowed_histograms.get((span.name, span.node))
            if rollup is None:
                rollup = metrics.windowed_histogram(
                    span.name,
                    node=span.node,
                    window_s=policy.window_s,
                    sub_windows=policy.sub_windows,
                )
            rollup.observe(span.end - span.start, now=span.end, ok=(status == "ok"))
        return span

    def fail(self, span: Span, exc: BaseException, **attrs: Any) -> Span:
        """Close a span with an error status derived from ``exc``."""
        return self.end(span, status=f"error:{type(exc).__name__}", **attrs)

    def wrap(self, span: Span, generator):
        """Run a process generator under ``span``, ending it either way.

        Usage (inside a simulation process)::

            result = yield from tel.wrap(span, node.fetch_object(name, ctx=span))
        """
        try:
            result = yield from generator
        except BaseException as exc:
            self.fail(span, exc)
            raise
        self.end(span)
        return result

    # -- querying ----------------------------------------------------------

    def traces(self) -> dict[int, list[Span]]:
        """Spans grouped by trace id, in emission order."""
        out: dict[int, list[Span]] = {}
        for span in self._spans:
            out.setdefault(span.trace_id, []).append(span)
        return out

    def roots(self) -> list[Span]:
        """Top-level spans (one per traced operation)."""
        return [s for s in self._spans if s.parent_id is None]

    def children_of(self, span: Span) -> list[Span]:
        return [
            s
            for s in self._spans
            if s.trace_id == span.trace_id and s.parent_id == span.span_id
        ]

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0
