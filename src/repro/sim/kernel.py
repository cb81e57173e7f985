"""Discrete-event simulation kernel.

The kernel follows the classic process-interaction style: simulation
*processes* are Python generators that ``yield`` :class:`Event` objects
and are resumed when those events trigger.  A central :class:`Simulator`
owns the event heap and the notion of *virtual time* (seconds, as a
float).

The kernel is intentionally small but complete: events with success and
failure, timeouts, processes (which are themselves events and therefore
composable), interrupts, and ``AnyOf`` / ``AllOf`` condition events.  It
is the substrate on which the network, virtualization, overlay, and
VStore++ layers of this reproduction are built.

Performance notes
-----------------
The event classes use ``__slots__`` (events are by far the most
allocated objects in a run), and :meth:`Simulator.run` drives an
inlined loop that pops events straight off the heap without re-entering
:meth:`Simulator.step`'s guard logic per event.  ``step()`` is kept for
tests and debugging; both produce identical simulated behaviour.

Heap entries are compact ``(when, order, event)`` triples: ``order``
packs the same-timestamp priority and the monotonically increasing
event sequence number into one integer (``priority << ORDER_SHIFT |
seq``), so entries allocate one fewer tuple slot and same-time
comparisons settle on a single integer compare.  The ordering is
provably identical to the previous ``(when, priority, seq, event)``
form: for equal ``when``, the packed integer sorts by priority first
(its high bits) and by sequence number within a priority.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(3.0)
...     return "done at %.1f" % sim.now
>>> proc = sim.process(hello(sim))
>>> sim.run()
>>> proc.value
'done at 3.0'
"""

from __future__ import annotations

import heapq
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.errors import (
    EventAlreadyTriggered,
    Interrupt,
    SimulationError,
    StopSimulation,
)

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Simulator",
    "GATHER_PENDING",
]


class _GatherPending:
    """Sentinel for branches still running when a counted gather fires."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "GATHER_PENDING"


#: Placeholder in a ``gather(..., count=n)`` result for branches that had
#: not finished when the n-th success triggered the join.  The branches
#: themselves keep running in the background.
GATHER_PENDING = _GatherPending()

#: Ordering priorities for events scheduled at the same timestamp.
#: Urgent events (process resumptions caused by interrupts) run before
#: normal events so that interrupts take effect deterministically.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

#: Bits reserved for the per-simulator event sequence number inside the
#: packed heap-order integer.  62 bits of sequence space (~4.6e18
#: events) keeps the packed value inside CPython's fast small-int
#: comparison path while leaving room for the priority in the top bits.
ORDER_SHIFT = 62


class Event:
    """A happening in simulated time that processes can wait for.

    An event starts *pending*, and is later *triggered* exactly once,
    either successfully (with a ``value``) or as a failure (with an
    exception).  Callbacks attached before the trigger run when the
    simulator pops the event from its queue.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    _PENDING = object()

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok: Optional[bool] = None
        #: True once the event has been scheduled onto the event heap.
        self._scheduled = False
        #: A failed event nobody consumed is a programming error; the
        #: flag flips to True when the failure is delivered somewhere.
        self._defused = True

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been given a value or an exception."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once the simulator has run the event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception instance, if it failed)."""
        if self._value is Event._PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not Event._PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        The exception is re-raised inside every process waiting on the
        event, unless it marked itself ``defused``.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not Event._PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self._defused = False
        self.sim._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if event._value is Event._PENDING:
            raise SimulationError(
                "cannot chain from an event that has not been triggered yet"
            )
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- internal --------------------------------------------------------

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after ``delay`` units of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay=delay)

    @property
    def triggered(self) -> bool:
        # A Timeout carries its value from construction; it counts as
        # triggered only once its scheduled time has been reached.
        return self.processed


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        super().__init__(sim)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        sim._schedule(self, priority=PRIORITY_URGENT)


class _Started:
    """The outcome a process's first step resumes with: success, None."""

    __slots__ = ()
    _ok = True
    _value = None


_STARTED = _Started()


class Process(Event):
    """A running simulation process wrapping a generator.

    The generator yields :class:`Event` objects; the process suspends on
    each and resumes with the event's value when it triggers.  A process
    is itself an event that succeeds with the generator's return value,
    so processes compose (a process can ``yield`` another process).

    A process that returns while nobody waits on it is processed at
    once: it costs no done event.  A failure always goes through the
    heap, so an unconsumed one still raises out of :meth:`Simulator.run`.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, sim: "Simulator", generator: Generator) -> None:
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (if any)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a dead process")
        if self._target is self:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._deliver_interrupt)
        self.sim._schedule(event, priority=PRIORITY_URGENT)

    def _deliver_interrupt(self, event: Event) -> None:
        """Deliver a scheduled interrupt, detaching from the current wait.

        Detaching happens at delivery time (not when the interrupt was
        requested) because the victim may not even have started running
        yet, or may have moved to a different wait target in between.
        If the victim died in the meantime the interrupt is dropped.
        """
        if self.triggered:
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        if self._value is not Event._PENDING:
            # A stale wake-up (e.g. an event we detached from when an
            # interrupt arrived, or a wake-up racing with process death).
            return
        sim = self.sim
        generator = self._generator
        sim._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # Mark the failure as handled: it is being delivered.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._target = None
                sim._active_process = None
                if self.callbacks:
                    self.succeed(stop.value)
                else:
                    # Nobody waits: the process is processed at once
                    # and puts no done event on the heap.  A later
                    # waiter finds it processed and resumes at once.
                    self._ok = True
                    self._value = stop.value
                    self.callbacks = None
                return
            except BaseException as exc:
                self._target = None
                sim._active_process = None
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                # Deliver the error exactly once, through the normal
                # failed-event path: the generator may catch it and
                # continue; if it does not, the process fails with it
                # (and the failure surfaces like any unconsumed one).
                error = SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
                event = Event(sim)
                event._ok = False
                event._value = error
                continue

            if next_event.callbacks is not None:
                # Event still pending or scheduled: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: loop and deliver immediately.
            event = next_event

        sim._active_process = None


class _Condition(Event):
    """Base class for ``AnyOf`` / ``AllOf`` composite events."""

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._done = 0
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self.events and not self.triggered:
            self.succeed({})

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._satisfied():
            self.succeed(
                {e: e._value for e in self.events if e.triggered and e._ok}
            )


class AnyOf(_Condition):
    """Succeeds as soon as any one of ``events`` succeeds.

    The value is a dict mapping each already-succeeded event to its
    value (there may be more than one if several trigger at the same
    instant).
    """

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= 1


class AllOf(_Condition):
    """Succeeds once all of ``events`` have succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= len(self.events)


class Simulator:
    """The event loop: owns virtual time and the pending-event heap."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._event_seq = 0
        self._active_process: Optional[Process] = None
        #: The attached :class:`repro.telemetry.Telemetry` plane, or
        #: None (the default — instrumented layers guard every span
        #: emit behind a single ``is not None`` check).
        self.telemetry = None

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between events)."""
        return self._active_process

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event owned by this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that succeeds when any of ``events`` succeeds."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that succeeds when every one of ``events`` succeeds."""
        return AllOf(self, events)

    def gather(
        self,
        generators: Iterable["Generator | Process"],
        count: Optional[int] = None,
        return_exceptions: bool = False,
    ) -> Event:
        """Scatter-gather: run ``generators`` concurrently, join them.

        Each element is spawned as a :class:`Process` (existing processes
        pass through) at the current instant, so their simulated costs
        overlap instead of accumulating — the total is the max of the
        branches, not the sum.  The returned event succeeds with the list
        of results *in submission order*, regardless of the order in
        which the branches finish.

        By default, if any branch fails, the gather fails with that
        exception (the first one, in trigger order).  The remaining
        branches keep running, and any further failures among them are
        defused so they do not take the whole simulation down.

        ``return_exceptions=True`` switches to per-branch outcomes: a
        failed branch contributes its exception *instance* to the result
        list instead of poisoning the join, so one dead source cannot
        sink the other pulls — the caller inspects each slot.

        ``count=n`` requests first-n-of-k early completion: the join
        triggers as soon as ``n`` branches have *succeeded* (erasure-
        decode style — any k of k+m chunks suffice), with still-running
        branches reported as :data:`GATHER_PENDING`.  Those branches keep
        running in the background and their late failures are defused.
        When fewer than ``n`` successes remain possible the join triggers
        once every branch has finished (with ``return_exceptions=False``
        the first failure still fails the join immediately), so a counted
        gather always completes.
        """
        if count is not None and count < 0:
            raise ValueError(f"count must be non-negative, got {count!r}")
        procs = [
            gen if isinstance(gen, Process) else self.process(gen)
            for gen in generators
        ]
        if count is not None or return_exceptions:
            return self._gather_partial(procs, count, return_exceptions)
        result = Event(self)
        joined = AllOf(self, procs)

        def _finish(event: Event) -> None:
            if event._ok:
                result.succeed([proc.value for proc in procs])
            else:
                event._defused = True
                result.fail(event.value)

        joined.callbacks.append(_finish)

        def _absorb_late_failure(event: Event) -> None:
            # A branch that fails after the gather already failed has
            # nobody left to consume its exception.
            if not event._ok and result.triggered:
                event._defused = True

        for proc in procs:
            if proc.callbacks is not None:
                proc.callbacks.append(_absorb_late_failure)
        return result

    def _gather_partial(
        self,
        procs: list["Process"],
        count: Optional[int],
        return_exceptions: bool,
    ) -> Event:
        """Join machinery behind gather's per-branch / counted modes.

        Kept separate from the default path so the legacy all-or-fail
        join keeps its exact event sequence (the parallel-decision
        goldens pin it).
        """
        result = Event(self)
        values: list[Any] = [GATHER_PENDING] * len(procs)
        # Mutable counters shared by the per-branch closures.
        state = {"successes": 0, "done": 0}
        needed = count if count is not None else len(procs)

        def _maybe_finish() -> None:
            if result.triggered:
                return
            if state["successes"] >= needed or state["done"] == len(procs):
                result.succeed(list(values))

        def _on_branch(index: int, proc: "Process"):
            def _cb(event: Event) -> None:
                if not event._ok:
                    # Consumed here either way: as a recorded outcome,
                    # as the join's failure, or as a late straggler.
                    event._defused = True
                if result.triggered:
                    return
                state["done"] += 1
                if event._ok:
                    state["successes"] += 1
                    values[index] = event._value
                elif return_exceptions:
                    values[index] = event._value
                else:
                    result.fail(event._value)
                    return
                _maybe_finish()

            return _cb

        for i, proc in enumerate(procs):
            if proc.callbacks is None:
                _on_branch(i, proc)(proc)
            else:
                proc.callbacks.append(_on_branch(i, proc))
        if not result.triggered and (not procs or needed == 0):
            result.succeed(list(values))
        return result

    # -- scheduling --------------------------------------------------------

    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        if event._scheduled:
            raise EventAlreadyTriggered(f"{event!r} already scheduled")
        event._scheduled = True
        seq = self._event_seq
        self._event_seq = seq + 1
        heapq.heappush(
            self._queue, (self._now + delay, (priority << ORDER_SHIFT) | seq, event)
        )

    def _call_at(
        self, when: float, callback: Callable[[Event], None], value: Any = None
    ) -> Event:
        """Run ``callback`` at absolute time ``when`` as one heap event.

        The event is pre-succeeded with ``value``.  Taking an absolute
        time keeps a deadline computed earlier exact, where a delay
        re-derived from a later ``now`` could round differently.
        """
        event = Event(self)
        event._ok = True
        event._value = value
        event.callbacks.append(callback)
        event._scheduled = True
        seq = self._event_seq
        self._event_seq = seq + 1
        heapq.heappush(self._queue, (when, (PRIORITY_NORMAL << ORDER_SHIFT) | seq, event))
        return event

    def _succeed_at(self, event: Event, when: float) -> None:
        """Trigger the pending ``event`` at absolute time ``when``, as one
        heap event: :meth:`_call_at` for an event a process already
        waits on."""
        if event._value is not Event._PENDING:
            raise EventAlreadyTriggered(f"{event!r} already triggered")
        event._ok = True
        event._value = None
        event._scheduled = True
        seq = self._event_seq
        self._event_seq = seq + 1
        heapq.heappush(self._queue, (when, (PRIORITY_NORMAL << ORDER_SHIFT) | seq, event))

    def _start_now(self, generator: Generator) -> Process:
        """Start a process from ``generator`` and run its first step
        inline, without an :class:`Initialize` event.

        The order is the one :meth:`process` gives whenever the caller
        is the last thing a normal-priority event's callback does: no
        urgent event at this instant is left on the heap then, so the
        urgent ``Initialize`` would have popped next anyway.
        """
        proc = Process.__new__(Process)
        Event.__init__(proc, self)
        proc._generator = generator
        proc._target = None
        active = self._active_process
        proc._resume(_STARTED)
        self._active_process = active
        return proc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        event._run_callbacks()
        # A failed event nobody consumed is a programming error; surface
        # it instead of silently dropping the exception.
        if event._ok is False and not event._defused:
            raise event._value

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a time
        (run until the clock reaches it), or an :class:`Event` (run until
        it triggers, returning its value).
        """
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                if stop_event.ok:
                    return stop_event.value
                raise stop_event.value

            def _stop(event: Event) -> None:
                if event._ok:
                    raise StopSimulation(event.value)
                # Propagate the failure to the run() caller.
                event._defused = True
                raise event._value

            stop_event.callbacks.append(_stop)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon!r} is in the past (now={self._now!r})"
                )
            marker = Event(self)
            marker._ok = True
            marker._value = None

            def _stop_at_horizon(event: Event) -> None:
                raise StopSimulation(None)

            marker.callbacks.append(_stop_at_horizon)
            self._schedule(marker, delay=horizon - self._now, priority=PRIORITY_URGENT)

        # Inlined loop: equivalent to `while queue: self.step()` but
        # without the per-event method-call and guard overhead.
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                when, _, event = pop(queue)
                self._now = when
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.value

        if stop_event is not None and not stop_event.triggered:
            raise SimulationError(
                "run(until=event) finished without the event triggering"
            )
        return None
