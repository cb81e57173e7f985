"""The stall watchdog turns a zero-time event loop into a reported stop."""

import threading
import time

import pytest

from repro.sim import Simulator
from watchdog import StallWatchdog
from worker import _guarded


def _zero_time_loop(sim: Simulator) -> None:
    """After 5 s of simulated time, re-arm a zero-delay event forever."""

    def rearm(_event):
        sim.timeout(0).callbacks.append(rearm)

    sim.timeout(5.0).callbacks.append(rearm)


def test_watchdog_fires_on_zero_time_event_loop():
    sim = Simulator()
    _zero_time_loop(sim)
    watchdog = StallWatchdog(lambda: sim.now, stall_s=0.3, poll_s=0.05)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        with watchdog:
            sim.run()
    assert watchdog.fired
    assert watchdog.fired_at == 5.0
    assert "livelock at sim t=5.0" in watchdog.cause()
    assert time.monotonic() - started < 5.0
    assert threading.active_count() == 1


def test_guarded_run_reports_livelock_as_cause(monkeypatch):
    monkeypatch.setattr("worker.STALL_S", 0.3)
    sim = Simulator()
    _zero_time_loop(sim)
    assert _guarded(sim, sim.run).startswith("livelock at sim t=5.0")


def test_guarded_run_reports_escaping_exception():
    sim = Simulator()

    def orphan():
        yield sim.timeout(1)
        raise RuntimeError("abandoned rpc")

    sim.process(orphan())
    assert _guarded(sim, sim.run) == "RuntimeError('abandoned rpc')"


def test_watchdog_stays_quiet_while_the_clock_advances():
    watchdog = StallWatchdog(time.monotonic, stall_s=0.2, poll_s=0.05)
    with watchdog:
        time.sleep(0.6)
    assert not watchdog.fired
