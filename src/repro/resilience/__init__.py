"""Resilience layer: surviving churn in the home cloud.

The paper's defining constraint is that home devices "may periodically
go off-line and become unavailable" (Section III), and its future work
asks for "mechanisms that adapt to the changing network conditions"
(Section VII).  This package supplies those mechanisms, threaded
through the store/fetch/process path and **off by default** —
``ClusterConfig(resilience=True)`` switches everything on at once:

* :class:`RetryPolicy` / :class:`ResilientCaller` — capped exponential
  backoff with deterministic seeded jitter and per-operation deadline
  budgets around every peer RPC.
* :class:`CircuitBreaker` / :class:`BreakerRegistry` — per-peer
  closed/open/half-open breakers that short-circuit calls to
  repeatedly failing peers (:class:`CircuitOpenError`) until a
  cooldown elapses.
* :class:`Repairer` — the background sweep that detects
  under-replicated object payloads after a crash and restores the
  configured ``data_replicas`` copy count, promoting surviving
  replicas (or the cloud copy) when the primary holder died.
* :class:`FailureDetector` — suspects a peer whose resource snapshot
  went stale and tells every device, so the repairers sweep at once.

See ``docs/RESILIENCE.md`` for the full model.
"""

from repro.resilience.breaker import (
    BreakerRegistry,
    BreakerTransition,
    CircuitBreaker,
)
from repro.resilience.detector import FailureDetector
from repro.resilience.errors import CircuitOpenError, DeadlineExceededError
from repro.resilience.repair import RepairAction, Repairer
from repro.resilience.retry import ResilientCaller, RetryPolicy

__all__ = [
    "BreakerRegistry",
    "BreakerTransition",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "FailureDetector",
    "RepairAction",
    "Repairer",
    "ResilientCaller",
    "RetryPolicy",
]
