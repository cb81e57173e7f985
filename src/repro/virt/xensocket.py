"""XenSocket: the shared-memory inter-domain transport.

"For data transfers between the host dom0 and guest VM, we utilize
XenSocket, a high throughput shared memory kernel module ...  Before
every transfer, the data receiver creates a shared descriptor page and
grant table reference which is sent to the sender before communication
begins.  The receiver allocates thirty two 4 KB pages.  For better
performance, the page size can be increased up to 2 MB if the devices
have larger memory." (Section IV.)

Cost model: a per-transfer setup (descriptor page + grant reference
exchange), then the payload moves page by page — each page pays a fixed
grant/notification overhead plus ``page_size / memory_bandwidth`` of
copy time.  Pages within one window of ``page_count`` shared pages
pipeline; a window-turnaround cost applies when the ring wraps.  The
defaults reproduce the inter-domain column of Table I (≈25 ms for 1 MB
up to ≈1.6 s for 100 MB with the 32×4 KB configuration).
"""

from __future__ import annotations

import math

from repro.sim import Resource, Simulator

__all__ = ["XenSocketChannel"]


class XenSocketChannel:
    """A shared-memory channel between two domains on one device."""

    def __init__(
        self,
        sim: Simulator,
        page_size: int = 4 * 1024,
        page_count: int = 32,
        setup_s: float = 0.007,
        page_overhead_s: float = 52e-6,
        memory_bandwidth: float = 400e6,
        window_turnaround_s: float = 20e-6,
    ) -> None:
        if page_size <= 0 or page_count <= 0:
            raise ValueError("page_size and page_count must be positive")
        if page_size > 2 * 1024 * 1024:
            raise ValueError("page size is limited to 2 MB")
        self.sim = sim
        self.page_size = page_size
        self.page_count = page_count
        self.setup_s = setup_s
        self.page_overhead_s = page_overhead_s
        self.memory_bandwidth = memory_bandwidth
        self.window_turnaround_s = window_turnaround_s
        #: Transfers serialize on the shared page ring.
        self._ring = Resource(sim, capacity=1)
        self.bytes_moved = 0.0
        self.transfers = 0
        #: Device name for telemetry attribution (set by the builder).
        self.owner = ""

    def transfer_time(self, nbytes: float) -> float:
        """Closed-form time for one transfer of ``nbytes`` (idle ring)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return self.setup_s
        pages = math.ceil(nbytes / self.page_size)
        windows = math.ceil(pages / self.page_count)
        per_page = self.page_overhead_s + self.page_size / self.memory_bandwidth
        return self.setup_s + pages * per_page + windows * self.window_turnaround_s

    def effective_bandwidth(self, nbytes: float) -> float:
        """Average bytes/second achieved for a transfer of ``nbytes``."""
        t = self.transfer_time(nbytes)
        return nbytes / t if t > 0 else float("inf")

    def transfer(self, nbytes: float, ctx=None):
        """Process: move ``nbytes`` across the channel.

        Concurrent transfers queue on the shared page ring (one
        descriptor ring per channel, as in the prototype).  Returns the
        queued-plus-transfer elapsed time.

        The whole transfer is a single closed-form timeout (see
        :meth:`transfer_time`) rather than one simulated event per 4 KB
        page, so its kernel event count does not grow with ``nbytes``.
        """
        started = self.sim.now
        duration = self.transfer_time(nbytes)
        tel = self.sim.telemetry
        span = (
            tel.begin(
                "xensocket.transfer",
                layer="xensocket",
                node=self.owner,
                parent=ctx,
                bytes=nbytes,
            )
            if tel is not None
            else None
        )
        request = self._ring.request()
        yield request
        try:
            yield self.sim.timeout(duration)
        finally:
            request.release()
        self.bytes_moved += nbytes
        self.transfers += 1
        if span is not None:
            tel.end(span)
        return self.sim.now - started
