"""Retry/deadline policies wrapping :meth:`RpcEndpoint.call`.

Home devices flap: a call that fails with a connection refusal or a
timeout very often succeeds moments later, once the overlay has routed
around the hole or the device has come back.  :class:`ResilientCaller`
gives every peer call three things the bare endpoint lacks:

* **Capped exponential backoff with deterministic jitter.**  Retry
  ``n`` waits ``min(max_delay, base * multiplier**(n-1))`` seconds,
  perturbed by a seeded :class:`~repro.sim.random.RandomSource` fork so
  colliding retries de-synchronize *and* two runs of the same scenario
  produce bit-for-bit identical delays.
* **A per-operation deadline budget.**  All attempts plus all backoff
  sleeps must fit inside ``deadline_s`` of simulated time; the budget
  also caps each attempt's RPC timeout, so one slow attempt cannot eat
  the whole budget.  Exhaustion raises :class:`DeadlineExceededError`
  (a :class:`~repro.net.RpcTimeoutError`).
* **Circuit breaking.**  When a :class:`BreakerRegistry` is attached,
  calls to a peer whose breaker is open fail locally and instantly
  (:class:`CircuitOpenError`, a :class:`~repro.net.HostDownError`)
  instead of burning an attempt on the network.

Only *transport* failures (host down, timeout) are retried.  A
:class:`~repro.net.RemoteError` means the peer is alive and its handler
raised — an application error that a retry would simply repeat — so it
propagates immediately (and counts as breaker success: the peer
answered).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.net import HostDownError, RemoteError, RpcEndpoint, RpcTimeoutError
from repro.resilience.breaker import BreakerRegistry
from repro.resilience.errors import DeadlineExceededError
from repro.sim import RandomSource

__all__ = ["RetryPolicy", "ResilientCaller"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, how long apart, and within what total budget."""

    #: Total tries (first attempt included).
    max_attempts: int = 4
    #: Backoff before retry 1, seconds.
    base_delay_s: float = 0.05
    #: Growth factor per retry.
    multiplier: float = 2.0
    #: Backoff ceiling, seconds.
    max_delay_s: float = 2.0
    #: Multiplicative jitter fraction: each delay is scaled by a
    #: uniform draw from ``[1 - jitter/2, 1 + jitter/2]``.
    jitter: float = 0.5
    #: Total simulated-time budget per operation (attempts + backoffs);
    #: None disables the deadline.
    deadline_s: Optional[float] = 120.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= max_delay_s")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")

    def backoff_s(self, retry: int, rng: Optional[RandomSource] = None) -> float:
        """Delay before retry number ``retry`` (1-based), jittered.

        With the same ``rng`` state the sequence is fully deterministic.
        """
        if retry < 1:
            raise ValueError("retry is 1-based")
        delay = min(
            self.max_delay_s, self.base_delay_s * self.multiplier ** (retry - 1)
        )
        if rng is not None and self.jitter > 0 and delay > 0:
            delay *= 1.0 + self.jitter * (rng.random() - 0.5)
        return delay


class ResilientCaller:
    """A retrying, breaker-aware façade over one node's RPC endpoint."""

    def __init__(
        self,
        endpoint: RpcEndpoint,
        policy: Optional[RetryPolicy] = None,
        rng: Optional[RandomSource] = None,
        breakers: Optional[BreakerRegistry] = None,
        metrics=None,
        node: str = "",
    ) -> None:
        self.endpoint = endpoint
        self.policy = policy or RetryPolicy()
        self.rng = rng
        self.breakers = breakers
        self.metrics = metrics
        self.node = node or endpoint.name
        #: Lifetime counters (also mirrored into ``metrics`` when set).
        self.attempts = 0
        self.retries = 0
        self.giveups = 0

    @property
    def sim(self):
        return self.endpoint.sim

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, node=self.node).inc()

    def call(
        self,
        dst: str,
        msg_type: str,
        body: Any = None,
        timeout: Optional[float] = None,
        size: int = 64,
        ctx: Any = None,
    ):
        """Process: :meth:`RpcEndpoint.call` with retries and deadlines.

        Raises the last transport error after ``max_attempts`` tries,
        :class:`DeadlineExceededError` when the budget runs out first,
        or :class:`CircuitOpenError` when the peer's breaker refuses
        every attempt.
        """
        sim = self.sim
        policy = self.policy
        deadline = (
            sim.now + policy.deadline_s if policy.deadline_s is not None else None
        )
        base_timeout = (
            RpcEndpoint.DEFAULT_TIMEOUT if timeout is None else timeout
        )
        last_exc: Optional[Exception] = None
        for attempt in range(1, policy.max_attempts + 1):
            if self.breakers is not None:
                # Raises CircuitOpenError when the breaker is open.
                self.breakers.check(dst, sim.now)
            per_call = base_timeout
            if deadline is not None:
                remaining = deadline - sim.now
                if remaining <= 0:
                    self.giveups += 1
                    self._count("resilience.retry.deadline_exceeded")
                    raise DeadlineExceededError(dst, msg_type, policy.deadline_s)
                per_call = min(per_call, remaining)
            self.attempts += 1
            self._count("resilience.retry.attempts")
            try:
                reply = yield self.endpoint.call(
                    dst, msg_type, body, timeout=per_call, size=size, ctx=ctx
                )
            except (HostDownError, RpcTimeoutError) as exc:
                last_exc = exc
                if self.breakers is not None:
                    self.breakers.record_failure(dst, sim.now)
                self._count("resilience.retry.failures")
                if attempt == policy.max_attempts:
                    break
                delay = policy.backoff_s(attempt, self.rng)
                if deadline is not None:
                    headroom = deadline - sim.now
                    if headroom <= 0:
                        break
                    delay = min(delay, headroom)
                self.retries += 1
                self._count("resilience.retry.retries")
                if delay > 0:
                    yield sim.timeout(delay)
                continue
            except RemoteError:
                # The peer is up and its handler raised: an application
                # error, not a transport one.  Don't retry, don't trip.
                if self.breakers is not None:
                    self.breakers.record_success(dst, sim.now)
                raise
            if self.breakers is not None:
                self.breakers.record_success(dst, sim.now)
            return reply
        self.giveups += 1
        self._count("resilience.retry.giveups")
        if deadline is not None and sim.now >= deadline:
            raise DeadlineExceededError(
                dst, msg_type, policy.deadline_s
            ) from last_exc
        raise last_exc
