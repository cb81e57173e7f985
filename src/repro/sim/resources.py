"""Shared-resource primitives for the simulation kernel.

Three primitives cover everything the upper layers need:

* :class:`Resource` — a counted resource (e.g. CPU cores, a link's
  transfer slots).  Processes ``yield resource.request()`` and must
  ``release()`` when done; ``resource.use(duration)`` wraps both.
* :class:`Container` — a continuous quantity (e.g. bytes of disk in a
  storage bin) with ``put`` / ``get`` amounts.
* :class:`Store` — a FIFO queue of arbitrary items (used as message
  channels between simulated nodes and domains).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.sim.errors import SimulationError
from repro.sim.kernel import Event, Simulator

__all__ = ["Request", "Resource", "Container", "Store"]

#: The queue of a :class:`Resource` or :class:`Store` that has never
#: held anything: empty, falsy and zero-length like a deque, but shared,
#: so an idle instance allocates no queue.  The first append replaces
#: it with the instance's own deque.
_IDLE: tuple = ()


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource
        resource._do_request(self)

    def release(self) -> None:
        """Give the slot back (or withdraw a not-yet-granted claim)."""
        self.resource._do_release(self)


class Resource:
    """A resource with ``capacity`` identical slots, granted FIFO.

    The wait queue is allocated by the first request that has to wait;
    most resources (a device's CPUs, its XenSocket ring) never queue.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self._users: list[Request] = []
        self._waiting: deque[Request] | tuple = _IDLE

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event triggers when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Release a previously granted slot."""
        request.release()

    def use(self, duration: float) -> Generator:
        """Process helper: hold one slot for ``duration`` seconds."""
        req = self.request()
        yield req
        try:
            yield self.sim.timeout(duration)
        finally:
            req.release()

    # -- internal ----------------------------------------------------------

    def _do_request(self, request: Request) -> None:
        if len(self._users) < self.capacity:
            self._users.append(request)
            request.succeed(request)
        else:
            waiting = self._waiting
            if waiting is _IDLE:
                waiting = self._waiting = deque()
            waiting.append(request)

    def _do_release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        elif request in self._waiting:
            self._waiting.remove(request)
        else:
            raise SimulationError("releasing a request unknown to this resource")

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed(nxt)


class Container:
    """A continuous quantity with a maximum level.

    ``put``/``get`` are immediate bookkeeping operations (storage bins do
    not need blocking semantics in this system); attempting to exceed
    capacity or go below zero raises :class:`SimulationError`.
    """

    def __init__(
        self, sim: Simulator, capacity: float = float("inf"), init: float = 0.0
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init {init!r} outside [0, {capacity!r}]")
        self.sim = sim
        self.capacity = capacity
        self._level = float(init)

    @property
    def level(self) -> float:
        return self._level

    @property
    def free(self) -> float:
        return self.capacity - self._level

    def put(self, amount: float) -> None:
        if amount < 0:
            raise ValueError("put amount must be non-negative")
        if self._level + amount > self.capacity + 1e-9:
            raise SimulationError(
                f"container overflow: level {self._level} + {amount} "
                f"> capacity {self.capacity}"
            )
        self._level += amount

    def get(self, amount: float) -> None:
        if amount < 0:
            raise ValueError("get amount must be non-negative")
        if amount > self._level + 1e-9:
            raise SimulationError(
                f"container underflow: level {self._level} - {amount} < 0"
            )
        self._level -= amount


class Store:
    """An unbounded FIFO queue of items with blocking ``get``.

    ``put(item)`` never blocks.  ``get()`` returns an event that triggers
    with the next item (immediately if one is queued).  This is the
    message-channel primitive used between simulated domains and nodes.
    The item and getter queues are allocated on first use: a host inbox
    drained by a push-mode consumer never queues either.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: deque[Any] | tuple = _IDLE
        self._getters: deque[Event] | tuple = _IDLE
        self._consumer: Optional[Any] = None

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any.

        With a consumer installed (see :meth:`set_consumer`) and no
        waiting getters, the item is handed to the consumer callback
        synchronously instead of being queued.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self._consumer is not None:
            self._consumer(item)
        else:
            items = self._items
            if items is _IDLE:
                items = self._items = deque()
            items.append(item)

    def set_consumer(self, consumer: Optional[Any]) -> None:
        """Install (or clear, with ``None``) a push-mode consumer.

        The consumer is called synchronously with each item as it is
        put; items already queued are drained into it immediately.
        This is how always-on message dispatchers consume — it saves
        the get-event round trip per item that the pull interface
        costs.  Getters created while a consumer is installed still
        take priority for subsequently put items.
        """
        self._consumer = consumer
        if consumer is not None:
            while self._items:
                consumer(self._items.popleft())

    def get(self) -> Event:
        """Event that triggers with the next queued item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            getters = self._getters
            if getters is _IDLE:
                getters = self._getters = deque()
            getters.append(event)
        return event

    def peek(self) -> Optional[Any]:
        """The next item without removing it, or None if empty."""
        return self._items[0] if self._items else None
