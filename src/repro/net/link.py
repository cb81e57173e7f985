"""Fluid fair-share link model with per-flow rate caps.

A :class:`Link` carries *flows* (bulk transfers).  At any instant the
link's bandwidth is divided among active flows by progressive filling
(max-min fair sharing): flows whose own rate cap is below their fair
share get their cap, and the leftover bandwidth is redistributed among
the rest.  Per-flow caps come from two sources:

* the flow's :class:`~repro.net.tcp.TcpProfile` phase schedule (slow
  start, provider window cap, ISP shaping), and
* an optional constant ``extra_cap`` (e.g. a sampled wireless-bandwidth
  ceiling for this particular transfer, which produces the
  transfer-to-transfer variability of the paper's Figure 4).

Rates only change at *boundaries*: a flow arriving, finishing, or moving
to its next TCP phase.  The link advances all flows' progress lazily at
each boundary, so the model is exact for piecewise-constant rates.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from repro.sim import Event, Simulator
from repro.net.tcp import RatePhase, TcpProfile, UNCAPPED

__all__ = ["Flow", "Link"]

#: Remaining-byte threshold below which a flow counts as finished.
_EPS_BYTES = 1e-6
#: Time threshold below which a phase boundary counts as "now".
_EPS_TIME = 1e-12


def _lands_now(now: float, delay: float) -> bool:
    """Would a boundary ``delay`` seconds out fall on ``now`` itself?

    Past t = 2048 s a delay below half the float spacing of ``now``
    rounds away (``now + delay == now``).  Such a boundary must count
    as reached, or its timer re-fires at the same instant forever.
    """
    return now + delay == now


class Flow:
    """One bulk transfer in progress on a :class:`Link`.

    The ``done`` event triggers with the flow itself once all bytes have
    been delivered.  ``abort()`` cancels the flow and fails ``done``.
    """

    __slots__ = (
        "link",
        "nbytes",
        "remaining",
        "extra_cap",
        "label",
        "started_at",
        "finished_at",
        "done",
        "rate",
        "_phases",
        "_phase_cap",
        "_phase_end",
    )

    def __init__(
        self,
        link: "Link",
        nbytes: float,
        profile: Optional[TcpProfile],
        extra_cap: float,
        label: str,
    ) -> None:
        self.link = link
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.extra_cap = extra_cap
        self.label = label
        self.started_at = link.sim.now
        self.finished_at: Optional[float] = None
        self.done: Event = link.sim.event()
        #: Rate currently assigned by the link's fair-share computation.
        self.rate = 0.0
        self._phases: Optional[Iterator[RatePhase]] = (
            profile.phases() if profile is not None else None
        )
        self._phase_cap = UNCAPPED
        self._phase_end: Optional[float] = None
        self._enter_next_phase()

    @property
    def cap(self) -> float:
        """The flow's current overall rate cap, bytes/second."""
        return min(self._phase_cap, self.extra_cap)

    @property
    def elapsed(self) -> float:
        """Seconds since the flow started (to completion if finished)."""
        end = self.finished_at if self.finished_at is not None else self.link.sim.now
        return end - self.started_at

    def throughput(self) -> float:
        """Average delivered throughput so far, bytes/second."""
        elapsed = self.elapsed
        delivered = self.nbytes - self.remaining
        return delivered / elapsed if elapsed > 0 else 0.0

    def abort(self, reason: Exception) -> None:
        """Cancel the transfer; ``done`` fails with ``reason``."""
        self.link._abort_flow(self, reason)

    # -- internal ----------------------------------------------------------

    def _enter_next_phase(self) -> None:
        """Advance to the next TCP phase (or stay uncapped)."""
        if self._phases is None:
            self._phase_cap = UNCAPPED
            self._phase_end = None
            return
        phase = next(self._phases)
        self._phase_cap = phase.cap
        if phase.duration is None:
            self._phase_end = None
        else:
            self._phase_end = self.link.sim.now + phase.duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow {self.label!r} {self.nbytes - self.remaining:.0f}"
            f"/{self.nbytes:.0f}B rate={self.rate:.0f}B/s>"
        )


class Link:
    """A directional link carrying concurrent flows with fair sharing."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        name: str = "link",
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.name = name
        self._flows: list[Flow] = []
        self._labels = itertools.count()
        self._last_update = sim.now
        #: Generation counter invalidating stale boundary timer events:
        #: each boundary is one scheduled callback event (one heap entry).
        self._timer_gen = 0
        #: Total payload bytes this link has delivered (for utilization stats).
        self.bytes_delivered = 0.0
        #: Time of the last boundary, and how many boundaries in a row
        #: have since fired there without finishing a flow or entering
        #: a phase (the livelock guard in :meth:`_on_boundary`).
        self._boundary_at: Optional[float] = None
        self._stalls = 0

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def set_bandwidth(self, bandwidth: float) -> None:
        """Change the link's capacity at runtime.

        In-flight flows are re-shared immediately (their progress up to
        now is accounted at the old rates).  This is the hook the fault
        injector uses to model degrading network conditions.
        """
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
        self._advance()
        self.bandwidth = float(bandwidth)
        self._recompute_rates()
        self._reschedule()

    def open_flow(
        self,
        nbytes: float,
        profile: Optional[TcpProfile] = None,
        extra_cap: float = UNCAPPED,
        label: Optional[str] = None,
    ) -> Flow:
        """Start transferring ``nbytes`` over this link.

        Returns the new :class:`Flow`; wait on ``flow.done`` for
        completion.  ``extra_cap`` additionally bounds the flow's rate
        (bytes/second) for its whole lifetime.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if extra_cap <= 0:
            raise ValueError("extra_cap must be positive")
        flow = Flow(
            self,
            nbytes,
            profile,
            extra_cap,
            label or f"{self.name}#{next(self._labels)}",
        )
        if flow.remaining <= _EPS_BYTES:
            flow.finished_at = self.sim.now
            flow.done.succeed(flow)
            return flow
        self._advance()
        self._flows.append(flow)
        self._recompute_rates()
        self._reschedule()
        return flow

    # -- fluid machinery ---------------------------------------------------

    def _advance(self) -> None:
        """Account all flows' progress since the last boundary."""
        dt = self.sim.now - self._last_update
        if dt > 0:
            for flow in self._flows:
                delivered = flow.rate * dt
                flow.remaining -= delivered
                self.bytes_delivered += delivered
        self._last_update = self.sim.now

    def _recompute_rates(self) -> None:
        """Max-min fair allocation of bandwidth under per-flow caps."""
        if not self._flows:
            return
        pending = sorted(self._flows, key=lambda f: f.cap)
        budget = self.bandwidth
        count = len(pending)
        for flow in pending:
            share = budget / count
            rate = min(flow.cap, share)
            flow.rate = rate
            budget -= rate
            count -= 1

    def _next_boundary(self) -> float:
        """Seconds until the next completion or phase change (inf if none)."""
        horizon = float("inf")
        now = self.sim.now
        for flow in self._flows:
            if flow.rate > 0:
                horizon = min(horizon, flow.remaining / flow.rate)
            if flow._phase_end is not None:
                horizon = min(horizon, flow._phase_end - now)
        return max(horizon, 0.0)

    def _reschedule(self) -> None:
        self._timer_gen += 1
        if not self._flows:
            return
        delay = self._next_boundary()
        if delay == float("inf"):
            raise RuntimeError(
                f"link {self.name!r}: active flows but no progress possible "
                "(all rates zero with no future phase change)"
            )
        # One pre-succeeded event on the heap; superseded timers are
        # ignored via the generation counter instead of interrupted.
        self.sim._call_at(self.sim._now + delay, self._on_timer, self._timer_gen)

    def _on_timer(self, timer: Event) -> None:
        if timer._value != self._timer_gen:
            return  # superseded by a newer boundary computation
        self._on_boundary()

    def _on_boundary(self) -> None:
        self._advance()
        now = self.sim.now
        finished = [
            f
            for f in self._flows
            if f.remaining <= _EPS_BYTES
            or (f.rate > 0 and _lands_now(now, f.remaining / f.rate))
        ]
        for flow in finished:
            self._flows.remove(flow)
            flow.remaining = 0.0
            flow.finished_at = now
        entered = False
        for flow in self._flows:
            while flow._phase_end is not None and (
                flow._phase_end - now <= _EPS_TIME
                or _lands_now(now, flow._phase_end - now)
            ):
                flow._enter_next_phase()
                entered = True
        if finished or entered or now != self._boundary_at:
            self._stalls = 0
        else:
            self._stalls += 1
            if self._stalls == 2:
                raise RuntimeError(
                    f"link {self.name!r}: boundaries at t={now!r} advance no "
                    f"time, finish no flow and enter no phase: {self._flows!r}"
                )
        self._boundary_at = now
        self._recompute_rates()
        self._reschedule()
        # Trigger completions after rates are consistent again.
        for flow in finished:
            flow.done.succeed(flow)

    def _abort_flow(self, flow: Flow, reason: Exception) -> None:
        if flow not in self._flows:
            return
        self._advance()
        self._flows.remove(flow)
        flow.finished_at = self.sim.now
        self._recompute_rates()
        self._reschedule()
        flow.done.fail(reason)
