"""The disk flusher's kernel events: per dirty flush and per idle period.

Both counts are exact, so :data:`EVENT_COUNTS` is a gate that holds on
any runner: a flusher that wakes every period again, idle or not, or a
flush that grows a second wake-up, changes a count at once.
"""

from __future__ import annotations

from repro.sim import Simulator
from repro.storage import SimDiskStore, StorageFlusher

#: Exact kernel events per case: ``dirty_flush`` — an append to a clean
#: store until its flush commits (the flusher's tick and the flush's
#: charge); ``idle_period`` — one flush period of a clean store (the
#: flusher is parked).
EVENT_COUNTS = {"dirty_flush": 2, "idle_period": 0}

PERIOD_S = 0.25
#: Idle periods measured; the count per period is their total over this.
IDLE_PERIODS = 100


def _events(sim: Simulator, periods: int, action=None) -> int:
    """Kernel events ``action`` and then ``periods`` flush periods of
    simulated time schedule, less the run's own horizon marker."""
    before = sim._event_seq
    if action is not None:
        action()
    sim.run(until=sim.now + periods * PERIOD_S)
    return sim._event_seq - before - 1


def bench_flusher() -> dict:
    """The exact event counts of one parked flusher."""
    sim = Simulator()
    store = SimDiskStore(jitter=0.0)
    StorageFlusher(sim, store, period_s=PERIOD_S).start()
    sim.run(until=0.0)  # the process starts and parks
    table = store.table("t")
    # Two periods: the tick, then the flush's charge.
    dirty = _events(sim, 2, lambda: table.__setitem__("k", 1))
    assert not store.dirty
    idle = _events(sim, IDLE_PERIODS)
    return {
        "events": {"dirty_flush": dirty, "idle_period": idle / IDLE_PERIODS},
        "event_counts": EVENT_COUNTS,
    }
