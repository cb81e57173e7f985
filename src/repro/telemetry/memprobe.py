"""Process-memory probe for benchmarks (stdlib only, no psutil).

Reads current and peak RSS from ``/proc/self/status`` (VmRSS/VmHWM)
with a ``resource.getrusage`` fallback for platforms without procfs,
plus the live GC object count.  Every BENCH json records one of these
snapshots so memory regressions surface next to time regressions.
"""

from __future__ import annotations

import gc
import resource
import sys

__all__ = ["memory_probe"]

_KB = 1024.0


def _proc_status_kb(field: str) -> float | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return float(line.split()[1])  # value is in kB
    except OSError:
        return None
    return None


def memory_probe(count_objects: bool = True) -> dict:
    """A JSON-ready snapshot of this process's memory footprint.

    ``rss_mb`` is the current resident set, ``peak_rss_mb`` the
    process-lifetime high-water mark (``VmHWM``).  A pooled
    :func:`repro.parallel.run_jobs` job runs in a worker forked for it
    alone, so there the peak is the job's own (it starts from the
    parent's resident set at fork time).
    ``gc_objects`` is the number of live collector-tracked objects —
    the leak signal RSS alone can hide behind allocator caching.  Set
    ``count_objects=False`` to skip the object walk (it is O(heap)).
    """
    rss_kb = _proc_status_kb("VmRSS")
    peak_kb = _proc_status_kb("VmHWM")
    if peak_kb is None:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        peak_kb = ru.ru_maxrss / (1.0 if sys.platform != "darwin" else _KB)
    return {
        "rss_mb": round(rss_kb / _KB, 2) if rss_kb is not None else None,
        "peak_rss_mb": round(peak_kb / _KB, 2) if peak_kb is not None else None,
        "gc_objects": len(gc.get_objects()) if count_objects else None,
    }
