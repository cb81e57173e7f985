"""Stall watchdog: turns a simulated-time livelock into a bounded stop.

The simulator is single-threaded; a kernel that keeps dispatching
zero-delay events never returns from ``Simulator.run``.  The watchdog
is a daemon thread that samples a clock (``lambda: sim.now``) and, if
the reading has not changed for ``stall_s`` wall seconds, records the
stall and interrupts the main thread with ``KeyboardInterrupt``.  The
harness catches that interrupt, asks :attr:`StallWatchdog.fired` whether
it was a stall, and reports ``livelock at sim t=...`` with every
unfinished operation counted as failed.
"""

from __future__ import annotations

import _thread
import threading
import time
from typing import Callable, Optional

__all__ = ["StallWatchdog"]


class StallWatchdog:
    """Interrupt the main thread when ``clock()`` stops advancing.

    Use as a context manager around the region to guard; the thread is
    stopped and joined on exit.  ``clock`` must return a float that the
    main thread keeps advancing while it makes progress.
    """

    def __init__(
        self, clock: Callable[[], float], stall_s: float = 5.0, poll_s: float = 0.1
    ) -> None:
        if stall_s <= 0 or poll_s <= 0:
            raise ValueError("stall_s and poll_s must be positive")
        self.clock = clock
        self.stall_s = stall_s
        self.poll_s = poll_s
        #: The frozen clock reading when the watchdog fired, else None.
        self.fired_at: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def fired(self) -> bool:
        return self.fired_at is not None

    def cause(self) -> str:
        return f"livelock at sim t={self.fired_at!r} (no simulated progress for {self.stall_s:g} s wall)"

    def __enter__(self) -> "StallWatchdog":
        self._thread = threading.Thread(
            target=self._watch, name="stall-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            if self._thread.is_alive():  # pragma: no cover - defensive
                raise RuntimeError("stall watchdog thread did not stop")
        self._thread = None

    def _watch(self) -> None:
        last = self.clock()
        changed = time.monotonic()
        while not self._stop.wait(self.poll_s):
            now = self.clock()
            if now != last:
                last = now
                changed = time.monotonic()
            elif time.monotonic() - changed >= self.stall_s:
                self.fired_at = now
                _thread.interrupt_main()
                return
