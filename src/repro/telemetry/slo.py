"""Declarative SLOs evaluated over the windowed metrics plane.

An :class:`SloSpec` states an objective over a windowed instrument —
"``kv.get`` p99 ≤ 2.0 s over 60 s windows", "``client.fetch`` success
ratio ≥ 0.99" — and the :class:`SloEngine` checks every spec each time it is
asked to ``evaluate(now)``, typically once per sub-window rotation (the
:class:`SloEvaluator` process) and at the end of an
:class:`~repro.load.OpenLoopDriver` run.

Alerts carry firing/resolved **hysteresis**: a spec must breach for
``breach_windows`` consecutive evaluations before a ``firing``
:class:`AlertEvent` is emitted, and must then pass for
``clear_windows`` consecutive evaluations before the matching
``resolved`` event — so a single noisy window neither pages nor
un-pages.  Evaluations with fewer than ``min_samples`` observations in
the window are skipped entirely (no evidence either way), which keeps
idle clusters from flapping.

Every emitted alert is appended to :attr:`SloEngine.alerts`, counted
under ``slo.alerts.firing`` / ``slo.alerts.resolved``, mirrored into
the span stream as an instant ``slo.alert`` event when a telemetry
plane is attached, and fanned out to ``on_alert`` subscribers (the
flight-recorder dump hook).  Everything is keyed by simulated time:
two runs of the same seeded scenario produce identical alert
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.telemetry.timeseries import merge_window_histograms

__all__ = ["SloSpec", "AlertEvent", "SloEngine", "SloEvaluator", "default_slo_specs"]

#: Objectives a latency spec may target on the merged window histogram.
_QUANTILES = {"p50": 0.50, "p95": 0.95, "p99": 0.99, "p999": 0.999}
_LATENCY_OBJECTIVES = ("p50", "p95", "p99", "p999", "mean", "max")


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over a windowed instrument.

    ``metric`` names the windowed rollups judged (a span name such as
    ``kv.get``, or a hand-fed signal such as ``fetch.clean``); both
    kinds read the same
    :class:`~repro.telemetry.timeseries.WindowedHistogram` rollups:

    * ``latency`` — ``objective`` (a quantile or ``mean``/``max``) of
      the merged window histogram must satisfy ``op threshold``
      (threshold in seconds).
    * ``ratio`` — the ok/total success ratio of the rollups'
      per-observation ok flags must satisfy ``op threshold``.

    ``per_node=True`` evaluates (and alerts) each node's rollup
    separately instead of the cluster-wide merge.
    """

    id: str
    metric: str
    kind: str = "latency"  # latency | ratio
    objective: str = "p99"  # for kind="latency"
    op: str = "<="  # <= | >=
    threshold: float = 1.0
    min_samples: int = 1
    breach_windows: int = 1
    clear_windows: int = 1
    per_node: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "ratio"):
            raise ValueError(f"unknown SLO kind: {self.kind!r}")
        if self.op not in ("<=", ">="):
            raise ValueError(f"unknown SLO op: {self.op!r} (use '<=' or '>=')")
        if self.kind == "latency" and self.objective not in _LATENCY_OBJECTIVES:
            raise ValueError(
                f"unknown latency objective: {self.objective!r} "
                f"(one of {_LATENCY_OBJECTIVES})"
            )
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.breach_windows < 1 or self.clear_windows < 1:
            raise ValueError("breach_windows and clear_windows must be >= 1")

    def satisfied(self, value: float) -> bool:
        return value <= self.threshold if self.op == "<=" else value >= self.threshold

    def describe(self) -> str:
        if self.description:
            return self.description
        what = self.objective if self.kind == "latency" else "success ratio"
        return f"{self.metric} {what} {self.op} {self.threshold}"


@dataclass(frozen=True)
class AlertEvent:
    """One firing or resolved edge of one SLO (possibly per node)."""

    at: float
    slo_id: str
    metric: str
    node: str  # "" for cluster-wide specs
    state: str  # firing | resolved
    value: float
    threshold: float
    description: str = ""

    def as_dict(self) -> dict:
        return {
            "at": self.at,
            "slo_id": self.slo_id,
            "metric": self.metric,
            "node": self.node,
            "state": self.state,
            "value": self.value,
            "threshold": self.threshold,
            "description": self.description,
        }


class _SloState:
    """Hysteresis counters for one (spec, node) pair."""

    __slots__ = ("firing", "breach_streak", "ok_streak")

    def __init__(self) -> None:
        self.firing = False
        self.breach_streak = 0
        self.ok_streak = 0


class SloEngine:
    """Evaluates a set of :class:`SloSpec` against a metrics registry.

    The engine holds no simulated state of its own — it reads the
    windowed rollups in ``metrics`` at whatever ``now`` the caller
    passes, so it can be driven by a :class:`SloEvaluator` process, a
    load driver, or a test poking times in by hand.
    """

    def __init__(self, metrics, specs, telemetry=None, node: str = "") -> None:
        self.metrics = metrics
        self.specs = list(specs)
        seen = set()
        for spec in self.specs:
            if spec.id in seen:
                raise ValueError(f"duplicate SLO id: {spec.id!r}")
            seen.add(spec.id)
        self.telemetry = telemetry
        self.node = node
        self.alerts: list[AlertEvent] = []
        self.evaluations = 0
        self._states: dict[tuple[str, str], _SloState] = {}
        #: Callables invoked with each emitted AlertEvent (guarded).
        self._on_alert: list = []

    # -- subscriptions -----------------------------------------------------

    def on_alert(self, fn) -> None:
        """Call ``fn(alert)`` for every alert emitted from now on."""
        self._on_alert.append(fn)

    # -- queries -----------------------------------------------------------

    def firing(self) -> list[tuple[str, str]]:
        """Currently-firing (slo_id, node) pairs, sorted."""
        return sorted(key for key, st in self._states.items() if st.firing)

    def alerts_for(self, slo_id: str) -> list[AlertEvent]:
        return [a for a in self.alerts if a.slo_id == slo_id]

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: float) -> list[AlertEvent]:
        """Judge every spec at simulated time ``now``.

        Returns the alerts emitted *by this evaluation* (also appended
        to :attr:`alerts`).
        """
        self.evaluations += 1
        emitted: list[AlertEvent] = []
        for spec in self.specs:
            for node, value in self._readings(spec, now):
                event = self._judge(spec, node, value, now)
                if event is not None:
                    emitted.append(event)
        return emitted

    def _readings(self, spec: SloSpec, now: float):
        """(node, value) pairs to judge — none for a group under min_samples."""
        instruments = self.metrics.windowed_histograms_for(spec.metric)
        groups = (
            [(wh.node, [wh]) for wh in instruments]
            if spec.per_node
            else [("", instruments)]
        )
        for node, group in groups:
            if spec.kind == "ratio":
                ok = n = 0
                for wh in group:
                    part_ok, part_n = wh.window_totals(now)
                    ok += part_ok
                    n += part_n
                if n >= spec.min_samples:
                    yield node, ok / n
                continue
            merged = merge_window_histograms(group, now)
            if merged.count < spec.min_samples:
                continue
            if spec.objective == "mean":
                yield node, merged.mean
            elif spec.objective == "max":
                yield node, merged.vmax
            else:
                yield node, merged.quantile(_QUANTILES[spec.objective])

    def _judge(self, spec: SloSpec, node: str, value: float, now: float):
        state = self._states.setdefault((spec.id, node), _SloState())
        if spec.satisfied(value):
            state.ok_streak += 1
            state.breach_streak = 0
            if state.firing and state.ok_streak >= spec.clear_windows:
                state.firing = False
                return self._emit(spec, node, "resolved", value, now)
        else:
            state.breach_streak += 1
            state.ok_streak = 0
            if not state.firing and state.breach_streak >= spec.breach_windows:
                state.firing = True
                return self._emit(spec, node, "firing", value, now)
        return None

    def _emit(self, spec: SloSpec, node: str, state: str, value: float, now: float) -> AlertEvent:
        alert = AlertEvent(
            at=now,
            slo_id=spec.id,
            metric=spec.metric,
            node=node,
            state=state,
            value=value,
            threshold=spec.threshold,
            description=spec.describe(),
        )
        self.alerts.append(alert)
        self.metrics.counter(f"slo.alerts.{state}", node=self.node).inc()
        if self.telemetry is not None:
            self.telemetry.event(
                "slo.alert",
                layer="slo",
                node=node or self.node,
                status=state,
                slo=spec.id,
                metric=spec.metric,
                value=value,
                threshold=spec.threshold,
            )
        for fn in list(self._on_alert):
            try:
                fn(alert)
            except Exception:
                # A broken alert hook must never break evaluation.
                self._on_alert.remove(fn)
        return alert


class SloEvaluator:
    """A simulation process ticking :meth:`SloEngine.evaluate` periodically.

    The tick is pure observation — it touches no shared randomness and
    no simulated resources, so enabling it leaves the workload's
    simulated results unchanged (asserted in
    ``benchmarks/perf/slo_bench.py``).
    """

    def __init__(self, sim, engine: SloEngine, period_s: float = 10.0) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.sim = sim
        self.engine = engine
        self.period_s = period_s
        self._process = None

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.is_alive

    def start(self) -> None:
        if not self.running:
            self._process = self.sim.process(self._run())

    def stop(self) -> None:
        if self.running:
            self._process.interrupt("slo evaluator stopped")
        self._process = None

    def _run(self):
        from repro.sim import Interrupt

        try:
            while True:
                yield self.sim.timeout(self.period_s)
                self.engine.evaluate(self.sim.now)
        except Interrupt:
            return


def default_slo_specs(
    window_s: float = 60.0,
    kv_get_p99_s: float = 2.0,
    fetch_success_ratio: float = 0.99,
) -> list[SloSpec]:
    """The stock objectives: KV latency and fetch availability.

    ``fetch-availability`` judges the ``client.fetch`` span rollups
    (every observation carries an ok flag, so the windowed histogram
    doubles as the success ratio).  The chaos scenario
    (:func:`repro.cluster.availability_chaos_scenario`) uses a
    stricter variant on its hand-fed ``fetch.clean`` signal: killing
    2 of 8 nodes drives the clean-fetch ratio under target (firing)
    until the :class:`~repro.resilience.Repairer` restores replication
    (resolved).
    """
    return [
        SloSpec(
            id="kv-get-p99",
            metric="kv.get",
            kind="latency",
            objective="p99",
            op="<=",
            threshold=kv_get_p99_s,
            min_samples=5,
            breach_windows=1,
            clear_windows=2,
            description=f"kv.get p99 <= {kv_get_p99_s}s over {window_s:.0f}s windows",
        ),
        SloSpec(
            id="fetch-availability",
            metric="client.fetch",
            kind="ratio",
            op=">=",
            threshold=fetch_success_ratio,
            min_samples=5,
            breach_windows=1,
            clear_windows=1,
            description=f"fetch success ratio >= {fetch_success_ratio} over {window_s:.0f}s windows",
        ),
    ]
