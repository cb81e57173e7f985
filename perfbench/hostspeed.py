"""Host-speed samples taken while set-up and timed regions run.

The benchmark shares a host whose speed wanders: on a 2-vCPU x86-64
container the same region of one seed ran at 1,190-1,800 ops/s on
``home_edonkey``, and a slow or fast spell lasts for minutes, longer
than a whole invocation, so no amount of work inside one run averages
it out.  The guest's CPU time follows its wall time through those
spells, so CPU time does not hide them either.

A fixed pure-Python loop that shares no code with the program, timed
every few tens of milliseconds between operations, follows the same
spells: region throughput times the median sample time stayed within
about +-8% while the throughput itself moved by +-20%.  ``ops_per_ref_s``
is that product over :data:`REFERENCE_S`, the throughput the region
would show on the host at its reference speed; ``setup_s`` is divided
by the same slowdown, sampled during set-up.  The loop does not touch
the program, so a change that makes the program faster raises it as
much as it raises ``ops_per_wall_s``.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter

__all__ = ["REFERENCE_S", "HostSampler", "TickSampler", "sample"]

#: Median :func:`sample` time on a 2-vCPU x86-64 Xeon container (CPython
#: 3.11) in its fast spells.  Only scales the figure; any fixed value
#: would do.
REFERENCE_S = 0.0003


def sample() -> float:
    """Wall seconds one fixed integer-and-dict loop takes (~0.3 ms)."""
    start = perf_counter()
    acc = 0
    table = {}
    for i in range(3000):
        acc += i * i % 7
        table[i & 255] = acc
    return perf_counter() - start


class _Samples:
    """(wall clock at a sample's start, its duration), in order."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def take(self) -> None:
        start = perf_counter()
        self.samples.append((start, sample()))

    def spent_before(self, wall: float) -> float:
        """Wall time the samples that started before ``wall`` took."""
        return sum(took for start, took in self.samples if start < wall)

    def slowdown(self) -> float:
        """Median sample time over :data:`REFERENCE_S` (1.0 = reference speed)."""
        times = [took for _, took in self.samples] or [sample()]
        return statistics.median(times) / REFERENCE_S


class TickSampler(_Samples):
    """Samples in the calling thread, at most once per ``every_s`` wall
    seconds: call :meth:`tick` between operations.  Used in timed
    regions, where the harness sees every completion."""

    def __init__(self, every_s: float, now: float) -> None:
        super().__init__()
        self.every_s = every_s
        self._next = now + every_s

    def tick(self, now: float) -> None:
        if now >= self._next:
            self.take()
            self._next = perf_counter() + self.every_s


class HostSampler(_Samples):
    """Samples every ``every_s`` wall seconds from a daemon thread while
    the ``with`` block runs.  Used in set-up, which runs inside program
    calls the harness cannot step between.  A sample holds the
    interpreter lock for its ~0.3 ms, which the main thread loses."""

    def __init__(self, every_s: float) -> None:
        super().__init__()
        self.every_s = every_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "HostSampler":
        self._thread = threading.Thread(target=self._run, name="host-sampler", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.every_s):
            self.take()
