"""Resume-timed span recorder for the traced benchmark run.

The program under test is not modified: :class:`Tracer` patches each
layer's public entry points (plus the RPC handlers and kernel callbacks
that serve as a layer's inbound entry) on their classes *before* the
cluster is built, so handlers bound at registration time are the
wrapped ones.

Most entry points are generators that the kernel resumes between other
processes, so a span's wall time is the sum of its ``send``/``throw``
segments, never start-to-end.  Every segment runs nested inside the
segment of whatever resumed it, so one stack of child-time accumulators
gives each layer's *self* time: segment time minus the time its child
spans' segments took.

Wrappers are transparent: a generator function is replaced by a
generator function (the RPC layer inspects ``co_flags`` to choose its
dispatch path), return values, exceptions and ``Interrupt`` pass
through unchanged, and nothing is scheduled on the simulator, so a
traced run's simulated outputs equal the untraced run's.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from time import perf_counter
from typing import Any, Callable, Iterable, Optional

__all__ = ["Tracer", "LayerStats"]


class LayerStats:
    """Per-layer accumulator: wall seconds of self time."""

    __slots__ = ("self_s",)

    def __init__(self) -> None:
        self.self_s = 0.0


class Tracer:
    """Patch entry points, time their resumes, keep spans in memory.

    ``recording`` gates span retention (the harness records only the
    timed region); call counts and self times accumulate whenever the
    wrappers run and are reset by :meth:`reset`.
    """

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        #: (name -> calls) for every wrapped entry point.
        self.calls: dict[str, int] = {}
        #: Retained spans: (span_id, parent_id, request_id, name, start, end, self_s).
        self.spans: list[tuple] = []
        self.recording = False
        # Per-segment child-time accumulators, and per active segment its
        # span id and the request id that spans opened inside it carry.
        self._child: list[float] = []
        self._active: list[list[int]] = []
        self._next_id = 1
        self._patched: list[tuple[type, str, Any]] = []
        self._hooks: dict[str, Callable] = {}

    # -- patching ----------------------------------------------------------

    def instrument(
        self,
        cls: type,
        names: Iterable[str],
        layer: str,
        hook: Optional[Callable] = None,
    ) -> None:
        """Wrap ``cls.<name>`` for each name, attributing time to ``layer``.

        ``hook(result, args, kwargs)`` runs on every successful return
        (inside the span) and is how the harness reads result fields.
        """
        stats = self.layers.setdefault(layer, LayerStats())
        for name in names:
            original = cls.__dict__[name]
            label = f"{cls.__name__}.{name}"
            self.calls.setdefault(label, 0)
            if hook is not None:
                self._hooks[label] = hook
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator_function(original, label, stats)
            else:
                wrapper = self._wrap_function(original, label, stats)
            self._patched.append((cls, name, original))
            setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse patch order)."""
        while self._patched:
            cls, name, original = self._patched.pop()
            setattr(cls, name, original)

    def reset(self) -> None:
        """Zero all counts and times and drop retained spans."""
        for stats in self.layers.values():
            stats.self_s = 0.0
        for label in self.calls:
            self.calls[label] = 0
        self.spans.clear()

    def set_request(self, request_id: int) -> None:
        """Tag the running span's later children with ``request_id``.

        The harness calls this when one of its loops starts an
        operation; spans opened from then on inside the calling span
        (in this resume or a later one) carry the id.  The calling span
        keeps its own id.  A span opened with no span running (an RPC
        the kernel delivers, a timer, a background loop) carries 0:
        which request caused it is not known at that point.
        """
        if self._active:
            self._active[-1][1] = request_id

    # -- span bookkeeping ----------------------------------------------------

    def _open(self) -> tuple[int, int, int]:
        """A new span id, its parent id and its request id."""
        span_id = self._next_id
        self._next_id += 1
        if self._active:
            parent_id, request_id = self._active[-1]
        else:
            parent_id, request_id = 0, 0
        return span_id, parent_id, request_id

    def _begin_segment(self, span_id: int, request_id: int) -> float:
        self._child.append(0.0)
        self._active.append([span_id, request_id])
        return perf_counter()

    def _end_segment(self, stats: LayerStats, t0: float) -> tuple[float, int]:
        """Close the innermost segment; returns its self time and the
        request id its children carried at the end."""
        elapsed = perf_counter() - t0
        _, child_request = self._active.pop()
        own = elapsed - self._child.pop()
        if self._child:
            self._child[-1] += elapsed
        stats.self_s += own
        return own, child_request

    def _record(self, span_id, parent_id, request_id, label, start, self_s) -> None:
        if self.recording:
            self.spans.append(
                (span_id, parent_id, request_id, label, start, perf_counter(), self_s)
            )

    # -- wrappers ------------------------------------------------------------

    def _wrap_function(self, original, label: str, stats: LayerStats):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.calls[label] += 1
            span_id, parent_id, request_id = tracer._open()
            t0 = tracer._begin_segment(span_id, request_id)
            try:
                result = original(*args, **kwargs)
            finally:
                own = tracer._end_segment(stats, t0)[0]
                tracer._record(span_id, parent_id, request_id, label, t0, own)
            hook = tracer._hooks.get(label)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        return traced

    def _wrap_generator_function(self, original, label: str, stats: LayerStats):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.calls[label] += 1
            span_id, parent_id, request_id = tracer._open()
            inner = original(*args, **kwargs)
            start = None
            own = 0.0
            child_request = request_id
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                t0 = tracer._begin_segment(span_id, child_request)
                if start is None:
                    start = t0
                try:
                    event = inner.send(value) if error is None else inner.throw(error)
                except StopIteration as stop:
                    own += tracer._end_segment(stats, t0)[0]
                    tracer._record(span_id, parent_id, request_id, label, start, own)
                    hook = tracer._hooks.get(label)
                    if hook is not None:
                        hook(stop.value, args, kwargs)
                    return stop.value
                except BaseException:
                    own += tracer._end_segment(stats, t0)[0]
                    tracer._record(span_id, parent_id, request_id, label, start, own)
                    raise
                segment_s, child_request = tracer._end_segment(stats, t0)
                own += segment_s
                try:
                    value, error = (yield event), None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # Interrupt and failed events
                    value, error = None, exc

        return traced

    # -- export ----------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write retained spans as gzip'd tab-separated lines; returns the count.

        Columns: id, parent id, request id, name, start, end, self seconds
        (start/end are ``perf_counter`` readings).
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\trequest\tname\tstart\tend\tself_s\n")
            fh.writelines(
                f"{i}\t{p}\t{r}\t{n}\t{s!r}\t{e!r}\t{own!r}\n"
                for i, p, r, n, s, e, own in self.spans
            )
        return len(self.spans)
