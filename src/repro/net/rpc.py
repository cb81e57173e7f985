"""Request/response messaging on top of the network control plane.

The paper's VStore++ uses a *command-based interface* — small (<50 byte)
command packets over TCP sockets and IPC — between guest VMs, the
VStore++ control domain, the Chimera overlay, and remote nodes.  This
module provides the equivalent: an :class:`RpcEndpoint` bound to a
:class:`~repro.net.topology.Host` that dispatches typed requests to
registered handlers and correlates responses, with timeouts and remote
error propagation.

Handlers may be plain functions (fast, synchronous with respect to
simulated time) or generator functions (full simulation processes that
can themselves wait on transfers, other RPCs, etc.).

Registration
------------
There are two forms:

* A protocol class declares its handlers once, at class level, as
  ``RPC_HANDLERS = {MSG_X: "_handle_x", ...}`` and calls
  :meth:`RpcEndpoint.serve` with the instance.  Endpoints that serve
  the same classes in the same order share one ``{msg_type: (slot,
  method name)}`` table, so a node holds only a tuple of its protocol
  objects, whatever the number of message types.  The method is looked
  up by name at dispatch, so a handler replaced on the class or on the
  instance after ``serve`` is the one that runs.
* :meth:`RpcEndpoint.register` binds one message type to any callable
  (a closure, a lambda in a test).  Its dict is allocated on first use.

Whichever form bound a message type last wins.

Event budget
------------
A round trip costs three kernel events, whatever the handler: the
request's arrival, the response's arrival, and the caller's result.
The arrival serves the request inline and the response settles the
caller's result directly.  A generator handler's serving process runs
its first step inside the arrival and ends without a done event, as
nobody waits on it; only the events the handler itself waits on add to
the three.  One :class:`Request` object per message carries the call
there and its answer back.

Deadlines are lazy.  Each endpoint keeps a ``(deadline_at, req_id)``
heap and one kernel timer armed for its earliest deadline; the timer
fails every expired call still pending, skips settled ones and re-arms
for the next live deadline.  A call that settles in time leaves nothing
on the kernel heap, and a timeout fires at exactly ``call time +
timeout``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Optional

from repro.sim import Event, Simulator
from repro.net.errors import HostDownError, NetworkError
from repro.net.topology import Host, Network

__all__ = [
    "RpcError",
    "RpcTimeoutError",
    "RemoteError",
    "RpcEndpoint",
    "Request",
]


class RpcError(NetworkError):
    """Base class for RPC-layer errors."""


class RpcTimeoutError(RpcError):
    """No response arrived within the caller's deadline."""

    def __init__(self, dst: str, msg_type: str, timeout: float) -> None:
        super().__init__(
            f"rpc {msg_type!r} to {dst!r} timed out after {timeout:g}s"
        )
        self.dst = dst
        self.msg_type = msg_type
        self.timeout = timeout


class RemoteError(RpcError):
    """The remote handler raised; carries the remote exception text."""

    def __init__(self, dst: str, msg_type: str, detail: str) -> None:
        super().__init__(f"rpc {msg_type!r} failed on {dst!r}: {detail}")
        self.dst = dst
        self.msg_type = msg_type
        self.detail = detail


@dataclass(slots=True)
class Request:
    """One RPC message on the wire; a handler receives the request itself.

    A call or a notify travels as a request; its answer travels back
    in the same shape, with ``kind`` ``"response"`` and ``error`` set
    when the handler raised.
    """

    src: str
    msg_type: str
    body: Any
    req_id: int = 0
    #: The size the sender declared for the message, bytes.
    size: int = 64
    kind: str = "request"  # "request" | "notify" | "response"
    error: Optional[str] = None
    #: The caller's telemetry span, by reference (None when telemetry
    #: is off): a handler parents its own span from ``request.ctx``.
    #: Like ``src`` and ``req_id`` it is header, not declared size.
    ctx: Any = None


def _fail_call(result: Event, exc: Exception) -> None:
    """Fail a call's result event, dropping it if nobody waits any more.

    A crash interrupts background processes mid-call, which detaches
    them from the result; its later failure has no consumer and must
    not abort the run.  Every other unconsumed failure still does.
    """
    result.fail(exc)
    if not result.callbacks:
        result._defused = True


class RpcEndpoint:
    """Typed request/response messaging for one host.

    Usage::

        ep = RpcEndpoint(network, host)
        ep.register("ping", lambda req: "pong")
        ep.start()
        ...
        reply = yield ep.call("other-host", "ping", None)
    """

    #: Default per-call deadline, seconds.  Generous relative to home
    #: LAN latencies; callers on slow paths pass their own.
    DEFAULT_TIMEOUT = 30.0

    #: Classes served, in serve order -> {msg_type: (slot, method name)},
    #: shared by every endpoint serving those classes in that order.
    _tables: dict[tuple[type, ...], dict[str, tuple[int, str]]] = {(): {}}

    def __init__(self, network: Network, host: Host) -> None:
        self.network = network
        self.host = host
        #: The host's name; hosts are never renamed, so snapshot it
        #: (this is read twice per message on the send path).
        self.name = host.name
        self.sim: Simulator = network.sim
        #: Protocol objects given to :meth:`serve`, in serve order, and
        #: the shared dispatch table for their classes.
        self._owners: tuple = ()
        self._table: dict[str, tuple[int, str]] = self._tables[()]
        #: msg_type -> callable from :meth:`register`; None until used.
        self._adhoc: Optional[dict[str, Callable[[Request], Any]]] = None
        #: req_id -> (result, dst, msg_type, timeout) per call in flight.
        self._pending: dict[int, tuple[Event, str, str, float]] = {}
        #: (deadline_at, req_id) of calls in flight, settled ones
        #: dropped lazily; one kernel timer waits for the earliest.
        self._deadlines: list[tuple[float, int]] = []
        self._sweep_timer: Optional[Event] = None
        self._sweep_at = float("inf")
        self._req_ids = itertools.count(1)
        #: Messages are handled synchronously at delivery time via the
        #: inbox consumer hook while the endpoint runs.
        self._running = False
        #: Count of requests served, for tests/diagnostics.
        self.requests_served = 0

    def register(self, msg_type: str, handler: Callable[[Request], Any]) -> None:
        """Register ``handler`` for ``msg_type`` requests.

        A handler that returns a generator (a generator function, say)
        runs as a simulation process; its return value becomes the
        response body.  Re-registering a type replaces the previous
        handler, whichever form bound it.
        """
        if self._adhoc is None:
            self._adhoc = {}
        self._adhoc[msg_type] = handler

    def serve(self, owner: Any) -> None:
        """Serve every message type in ``type(owner).RPC_HANDLERS``.

        ``RPC_HANDLERS`` maps a message type to the name of an
        ``owner`` method; the method is looked up by name per request.
        A type served here replaces any earlier binding of it.
        """
        owners = self._owners + (owner,)
        key = tuple(type(o) for o in owners)
        table = self._tables.get(key)
        if table is None:
            cls = key[-1]
            table = dict(self._table)
            for msg_type, method in cls.RPC_HANDLERS.items():
                if not callable(getattr(cls, method, None)):
                    raise TypeError(f"{cls.__name__}.{method} is not a method")
                table[msg_type] = (len(owners) - 1, method)
            self._tables[key] = table
        self._owners = owners
        self._table = table
        if self._adhoc:
            for msg_type in type(owner).RPC_HANDLERS:
                self._adhoc.pop(msg_type, None)

    def start(self) -> None:
        """Start dispatching inbound messages (idempotent)."""
        if not self._running:
            self._running = True
            self.host.inbox.set_consumer(self._on_message)

    def stop(self) -> None:
        """Stop dispatching (e.g. when the node leaves the overlay)."""
        if self._running:
            self.host.inbox.set_consumer(None)
            self._running = False

    # -- client side -------------------------------------------------------

    def call(
        self,
        dst: str,
        msg_type: str,
        body: Any = None,
        timeout: Optional[float] = None,
        size: int = 64,
        ctx: Any = None,
    ) -> Event:
        """Send a request; the returned event yields the response body.

        ``ctx`` is the caller's span, carried in the request's header
        (:attr:`Request.ctx`) so the handler's span parents from it.
        Fails with :class:`HostDownError` (destination offline at send
        time), :class:`RpcTimeoutError`, or :class:`RemoteError`.
        """
        if timeout is None:
            timeout = self.DEFAULT_TIMEOUT
        result = Event(self.sim)
        req_id = next(self._req_ids)
        name = self.name
        try:
            request = Request(name, msg_type, body, req_id, size, "request", None, ctx)
            self.network.send(name, dst, request, size)
        except HostDownError as exc:
            result.fail(exc)
            return result
        self._pending[req_id] = (result, dst, msg_type, timeout)
        deadline_at = self.sim._now + timeout
        heapq.heappush(self._deadlines, (deadline_at, req_id))
        if deadline_at < self._sweep_at:
            self._arm_sweep(deadline_at)
        return result

    def notify(self, dst: str, msg_type: str, body: Any = None, size: int = 64) -> None:
        """Fire-and-forget one-way message; errors at send time propagate."""
        name = self.name
        request = Request(name, msg_type, body, 0, size, "notify")
        self.network.send(name, dst, request, size)

    def _arm_sweep(self, when: float) -> None:
        """Arm the deadline timer for ``when``; a later one goes inert."""
        if self._sweep_timer is not None:
            self._sweep_timer.callbacks.clear()
        self._sweep_at = when
        self._sweep_timer = self.sim._call_at(when, self._sweep)

    def _sweep(self, _timer: Event) -> None:
        """Time out every expired call still pending, then re-arm."""
        self._sweep_timer = None
        self._sweep_at = float("inf")
        now = self.sim._now
        deadlines = self._deadlines
        pending = self._pending
        while deadlines and (deadlines[0][0] <= now or deadlines[0][1] not in pending):
            call = pending.pop(heapq.heappop(deadlines)[1], None)
            if call is not None:
                result, dst, msg_type, timeout = call
                _fail_call(result, RpcTimeoutError(dst, msg_type, timeout))
        if deadlines:
            self._arm_sweep(deadlines[0][0])

    # -- server side -------------------------------------------------------

    def _on_message(self, message) -> None:
        """Dispatch one inbound message, synchronously at delivery.

        A response settles its pending call's result directly.  A
        request whose handler returns a plain value is answered inline;
        one whose handler returns a generator is served by one process,
        whose first step runs here (the arrival's last act, so the
        order is the one a kernel-started process would get).
        """
        request = message.payload
        if type(request) is not Request:
            return  # stray traffic from another protocol
        if request.kind == "response":
            pending = self._pending
            call = pending.pop(request.req_id, None)
            if call is None:
                return  # late: the call already timed out
            result, dst, msg_type, _timeout = call
            if request.error is None:
                result.succeed(request.body)
            else:
                _fail_call(result, RemoteError(dst, msg_type, request.error))
            deadlines = self._deadlines
            while deadlines and deadlines[0][1] not in pending:
                heapq.heappop(deadlines)
            return
        msg_type = request.msg_type
        adhoc = self._adhoc
        handler = None if adhoc is None else adhoc.get(msg_type)
        if handler is None:
            entry = self._table.get(msg_type)
            if entry is None:
                self._respond(request, None, f"no handler for {msg_type!r}")
                return
            slot, method = entry
            handler = getattr(self._owners[slot], method)
        try:
            value = handler(request)
        except Exception as exc:  # noqa: BLE001 - forwarded to caller
            self._respond(request, None, f"{type(exc).__name__}: {exc}")
            return
        if type(value) is GeneratorType:
            self.sim._start_now(self._serve(request, value))
            return
        self._respond(request, value, None)

    def _serve(self, request: Request, gen):
        """Run a generator handler to completion and answer with its result."""
        error: Optional[str] = None
        value: Any = None
        try:
            value = yield from gen
        except Exception as exc:  # noqa: BLE001 - forwarded to caller
            error = f"{type(exc).__name__}: {exc}"
        self._respond(request, value, error)

    def _respond(self, request: Request, value: Any, error: Optional[str]) -> None:
        self.requests_served += 1
        if request.kind == "notify":
            return
        name = self.name
        response = Request(name, request.msg_type, value, request.req_id, 64, "response", error)
        try:
            self.network.send(name, request.src, response, 64)
        except HostDownError:
            pass  # caller vanished; its timeout handles it
