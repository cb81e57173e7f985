"""Per-node health scores fused from the live observability planes.

The :class:`HealthBoard` answers the question adaptive placement needs
answered: "how healthy is node X *right now*, on a single [0, 1]
scale?"  It fuses five independent signals, each normalised to [0, 1]
(1.0 = perfectly healthy, components with no evidence read 1.0):

* ``latency`` — the node's windowed p99 for a reference metric
  (default ``kv.get``) against a target; degrades smoothly as the p99
  exceeds the target.
* ``success`` — the node's windowed ok/total ratio across *all* of its
  windowed rollups (span-fed and hand-fed alike).
* ``breakers`` — the fraction of the node's per-peer circuit breakers
  currently open (peers it cannot reach).
* ``repairs`` — recent repair actions logged by the node's
  :class:`~repro.resilience.Repairer` (re-replication pressure means
  the data the node is responsible for was found under-protected).
* ``staleness`` — age of the node's last
  :class:`~repro.monitoring.ResourceSnapshot` publication against the
  freshness TTL; a silent monitor is a suspect node.

The composite score is the weighted mean of the available components.

Everything is read-side only and keyed by simulated time: scoring a
node mutates nothing but lazy window rotation, so two runs of the same
scenario report identical scoreboards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["HealthScore", "HealthBoard"]


@dataclass(frozen=True)
class HealthScore:
    """One node's fused health at one simulated instant."""

    node: str
    at: float
    score: float
    components: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "node": self.node,
            "at": self.at,
            "score": self.score,
            "components": dict(self.components),
        }


#: Relative weight of each component in the composite score.
DEFAULT_WEIGHTS = {
    "latency": 2.0,
    "success": 3.0,
    "breakers": 2.0,
    "repairs": 1.0,
    "staleness": 1.0,
}


class HealthBoard:
    """Queryable per-node health scoreboard.

    Construct with the shared :class:`~repro.telemetry.MetricsRegistry`
    (whose windowed rollups supply latency/success), then
    :meth:`attach_node` each device's breaker registry, repairer, and
    resource monitor as they exist — every source is optional, and a
    missing source simply contributes no component.
    """

    def __init__(
        self,
        metrics,
        latency_metric: str = "kv.get",
        latency_target_s: float = 2.0,
        repair_window_s: float = 60.0,
        freshness_ttl_s: float = 30.0,
        weights: Optional[dict] = None,
    ) -> None:
        if latency_target_s <= 0:
            raise ValueError("latency_target_s must be positive")
        if repair_window_s <= 0 or freshness_ttl_s <= 0:
            raise ValueError("windows and TTLs must be positive")
        self.metrics = metrics
        self.latency_metric = latency_metric
        self.latency_target_s = latency_target_s
        self.repair_window_s = repair_window_s
        self.freshness_ttl_s = freshness_ttl_s
        self.weights = dict(DEFAULT_WEIGHTS if weights is None else weights)
        self._breakers: dict[str, object] = {}
        self._repairers: dict[str, object] = {}
        self._monitors: dict[str, object] = {}
        self._known: list[str] = []

    # -- wiring ------------------------------------------------------------

    def attach_node(self, node: str, breakers=None, repairer=None, monitor=None) -> None:
        """Register a node's health sources (any subset may be None)."""
        if node not in self._known:
            self._known.append(node)
        if breakers is not None:
            self._breakers[node] = breakers
        if repairer is not None:
            self._repairers[node] = repairer
        if monitor is not None:
            self._monitors[node] = monitor

    def nodes(self) -> list[str]:
        return sorted(self._known)

    # -- components --------------------------------------------------------

    def _latency_component(self, node: str, now: float) -> Optional[float]:
        wh = self.metrics.peek_windowed_histogram(self.latency_metric, node)
        if wh is None:
            return None
        merged = wh.window(now)
        if merged.count == 0:
            return None
        p99 = merged.quantile(0.99)
        if p99 <= self.latency_target_s:
            return 1.0
        # Degrade smoothly: 2x the target scores 0.5, 4x scores 0.25.
        return self.latency_target_s / p99

    def _success_component(self, node: str, now: float) -> Optional[float]:
        ok = n = 0
        for wh in self.metrics.windowed_histograms_on(node):
            part_ok, part_n = wh.window_totals(now)
            ok += part_ok
            n += part_n
        if n == 0:
            return None
        return ok / n

    def _breaker_component(self, node: str, now: float) -> Optional[float]:
        breakers = self._breakers.get(node)
        if breakers is None:
            return None
        total = len(breakers.known_peers())
        if total == 0:
            return None
        return 1.0 - len(breakers.open_peers(now)) / total

    def _repair_component(self, node: str, now: float) -> Optional[float]:
        repairer = self._repairers.get(node)
        if repairer is None:
            return None
        cutoff = now - self.repair_window_s
        recent = sum(1 for action in repairer.repairs if action.at >= cutoff)
        # 0 recent repairs -> 1.0; each one halves the remaining credit.
        return 1.0 / (1.0 + recent)

    def _staleness_component(self, node: str, now: float) -> Optional[float]:
        monitor = self._monitors.get(node)
        if monitor is None:
            return None
        last = monitor.last_published_at
        if last is None:
            return None
        age = now - last
        if age <= self.freshness_ttl_s:
            return 1.0
        return self.freshness_ttl_s / age

    # -- scoring -----------------------------------------------------------

    def score_detail(self, node: str, now: float) -> HealthScore:
        """The fused score plus each contributing component."""
        components = {}
        for key, fn in (
            ("latency", self._latency_component),
            ("success", self._success_component),
            ("breakers", self._breaker_component),
            ("repairs", self._repair_component),
            ("staleness", self._staleness_component),
        ):
            value = fn(node, now)
            if value is not None:
                components[key] = value
        if not components:
            fused = 1.0  # no evidence of trouble
        else:
            weight_sum = sum(self.weights.get(k, 1.0) for k in components)
            fused = (
                sum(self.weights.get(k, 1.0) * v for k, v in components.items())
                / weight_sum
            )
        return HealthScore(node=node, at=now, score=fused, components=components)

    def score(self, node: str, now: float) -> float:
        return self.score_detail(node, now).score

    def healthy(self, node: str, now: float, threshold: float = 0.5) -> bool:
        return self.score(node, now) >= threshold

    def scoreboard(self, now: float) -> dict[str, HealthScore]:
        """Every known node's :class:`HealthScore`, keyed by node."""
        return {node: self.score_detail(node, now) for node in self.nodes()}

    def report(self, now: float) -> str:
        """Plain-text scoreboard for CLI output."""
        lines = [f"health scoreboard @ t={now:.1f}s"]
        board = self.scoreboard(now)
        for node in sorted(board):
            hs = board[node]
            parts = " ".join(f"{k}={v:.2f}" for k, v in sorted(hs.components.items()))
            lines.append(f"  {node:<12} {hs.score:.3f}  {parts}")
        return "\n".join(lines)
