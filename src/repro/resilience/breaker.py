"""Per-peer circuit breakers.

A breaker watches the outcome of calls to one peer and short-circuits
further calls once the peer looks dead, so operations stop burning
their deadline budgets on a host that fails instantly-or-slowly every
time.  The state machine is the classic three-state one:

* **closed** — calls flow normally; consecutive failures are counted.
* **open** — entered after ``failure_threshold`` consecutive failures.
  Calls are refused locally (:class:`CircuitOpenError`) until
  ``cooldown_s`` of simulated time has passed.
* **half-open** — after the cooldown, the next call is allowed through
  as a probe.  Success closes the breaker; failure re-opens it (and
  restarts the cooldown).

State only ever advances when asked (``allow`` / ``record_*``) — there
are no background processes, so an idle breaker costs nothing and the
whole registry is deterministic.  Transitions are appended to
``transitions`` for post-mortems and mapped onto
``resilience.breaker.*`` counters when a metrics registry is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.resilience.errors import CircuitOpenError

__all__ = ["CircuitBreaker", "BreakerRegistry", "BreakerTransition"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class BreakerTransition:
    """One state change, for the post-mortem log."""

    at: float
    peer: str
    old: str
    new: str


@dataclass
class CircuitBreaker:
    """Failure-tracking state for one peer."""

    peer: str
    failure_threshold: int = 3
    cooldown_s: float = 15.0
    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0

    def retry_at(self) -> float:
        """When an open breaker will next let a probe through."""
        return self.opened_at + self.cooldown_s

    def allow(self, now: float) -> bool:
        """May a call to this peer proceed right now?

        An open breaker whose cooldown has elapsed transitions to
        half-open and admits the call as a probe.
        """
        if self.state == OPEN:
            if now >= self.retry_at():
                self.state = HALF_OPEN
                return True
            return False
        return True

    def is_open(self, now: float) -> bool:
        """Open and still cooling down (read-only; no transition)."""
        return self.state == OPEN and now < self.retry_at()

    def record_success(self) -> bool:
        """Note a successful call; returns True if the breaker closed."""
        reopened = self.state != CLOSED
        self.state = CLOSED
        self.consecutive_failures = 0
        return reopened

    def record_failure(self, now: float) -> bool:
        """Note a failed call; returns True if the breaker opened."""
        self.consecutive_failures += 1
        tripped = (
            self.state == HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        )
        if tripped and self.state != OPEN:
            self.state = OPEN
            self.opened_at = now
            return True
        if tripped:
            # Already open (e.g. a racing in-flight call failed late);
            # restart the cooldown.
            self.opened_at = now
        return False


class BreakerRegistry:
    """All of one node's per-peer breakers.

    ``metrics`` (a :class:`repro.telemetry.MetricsRegistry`) is optional;
    when present, transitions increment ``resilience.breaker.opened`` /
    ``resilience.breaker.closed`` and refusals increment
    ``resilience.breaker.short_circuit`` for the owning node.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 15.0,
        metrics=None,
        node: str = "",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.metrics = metrics
        self.node = node
        self._breakers: dict[str, CircuitBreaker] = {}
        self.transitions: list[BreakerTransition] = []
        self.short_circuits = 0
        #: Called with the peer's name when its breaker opens.
        self.on_open: list[Callable[[str], None]] = []

    def breaker(self, peer: str) -> CircuitBreaker:
        b = self._breakers.get(peer)
        if b is None:
            b = self._breakers[peer] = CircuitBreaker(
                peer, self.failure_threshold, self.cooldown_s
            )
        return b

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, node=self.node).inc()

    def allow(self, peer: str, now: float) -> bool:
        """May a call to ``peer`` proceed?  Counts refusals."""
        b = self.breaker(peer)
        old = b.state
        allowed = b.allow(now)
        if b.state != old:
            self.transitions.append(BreakerTransition(now, peer, old, b.state))
            self._count("resilience.breaker.half_open")
        if not allowed:
            self.short_circuits += 1
            self._count("resilience.breaker.short_circuit")
        return allowed

    def check(self, peer: str, now: float) -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed."""
        if not self.allow(peer, now):
            raise CircuitOpenError(peer, self.breaker(peer).retry_at())

    def is_open(self, peer: str, now: float) -> bool:
        """Read-only open check (used by health-aware decisions)."""
        b = self._breakers.get(peer)
        return b is not None and b.is_open(now)

    def record_success(self, peer: str, now: float) -> None:
        b = self.breaker(peer)
        old = b.state
        if b.record_success() or old != b.state:
            self.transitions.append(BreakerTransition(now, peer, old, b.state))
            self._count("resilience.breaker.closed")

    def record_failure(self, peer: str, now: float) -> None:
        b = self.breaker(peer)
        old = b.state
        opened = b.record_failure(now)
        if opened or old != b.state:
            self.transitions.append(BreakerTransition(now, peer, old, b.state))
            self._count("resilience.breaker.opened")
        if opened:
            for callback in self.on_open:
                callback(peer)

    def open_peers(self, now: float) -> list[str]:
        """Peers currently refused (for diagnostics)."""
        return sorted(
            peer for peer, b in self._breakers.items() if b.is_open(now)
        )

    def known_peers(self) -> list[str]:
        """Every peer this node has a breaker for (open or not)."""
        return sorted(self._breakers)
