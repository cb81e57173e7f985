"""XenSocket transfers: wall time and kernel events of ``transfer()``.

A transfer is one closed-form timeout, so its kernel event count must
not grow with the payload.  That count is exact, which makes
:data:`EVENT_BUDGET` a gate that is safe on any runner: per-page events
coming back (26,404 events for 100 MB) fail it at once.
"""

from __future__ import annotations

import time

from repro.sim import Simulator
from repro.virt import XenSocketChannel

MB = 1024 * 1024

#: Kernel events one ``transfer()`` may schedule, at any size.
EVENT_BUDGET = 8

#: Payload sizes the event gate covers, 0 B to 100 MB.
GATE_SIZES = (0, 1, 4096, 5000, 128 * 1024, MB, 10 * MB, 100 * MB)


def _run(nbytes: int) -> tuple[float, float, int]:
    """Returns (wall seconds, simulated elapsed seconds, kernel events)."""
    sim = Simulator()
    chan = XenSocketChannel(sim)  # 4 KB pages, 32-page ring (paper config)
    t0 = time.perf_counter()
    elapsed = sim.run(until=sim.process(chan.transfer(nbytes)))
    wall = time.perf_counter() - t0
    expected = chan.transfer_time(nbytes)
    assert abs(elapsed - expected) <= 1e-9 * max(expected, 1e-30), (
        f"transfer({nbytes}) took {elapsed} simulated s, closed form {expected}"
    )
    return wall, elapsed, sim._event_seq


def bench_xensocket(nbytes: int = 100 * MB) -> dict:
    """The paper's largest Table I object, plus the event-count sweep."""
    wall, simulated, events = _run(nbytes)
    events_by_size = {str(size): _run(size)[2] for size in GATE_SIZES}
    return {
        "nbytes": nbytes,
        "simulated_transfer_s": simulated,
        "wall_s": wall,
        "events": events,
        "events_by_size": events_by_size,
        "max_events": max(events_by_size.values()),
        "event_budget": EVENT_BUDGET,
    }
