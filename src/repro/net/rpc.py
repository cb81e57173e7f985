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

Event budget
------------
A round trip with a plain-function handler costs three kernel events:
the request's arrival, the response's arrival, and the caller's result.
The arrival handler serves the request inline and the response settles
the caller's result directly.  A generator handler adds two: the one
process that serves the request starts and finishes.

Deadlines are lazy.  Each endpoint keeps a ``(deadline_at, req_id)``
heap and one kernel timer armed for its earliest deadline; the timer
fails every expired call still pending, skips settled ones and re-arms
for the next live deadline.  A call that settles in time leaves nothing
on the kernel heap, and a timeout fires at exactly ``call time +
timeout``.
"""

from __future__ import annotations

import heapq
import inspect
import itertools
from dataclasses import dataclass
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


@dataclass
class Request:
    """An inbound request as seen by a handler."""

    src: str
    msg_type: str
    body: Any
    req_id: int
    #: The size the sender declared for the message, bytes.
    size: int = 64


@dataclass
class _Envelope:
    kind: str  # "request" | "response" | "notify"
    msg_type: str
    body: Any
    req_id: int = 0
    error: Optional[str] = None


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

    def __init__(self, network: Network, host: Host) -> None:
        self.network = network
        self.host = host
        #: The host's name; hosts are never renamed, so snapshot it
        #: (this is read twice per message on the send path).
        self.name = host.name
        self.sim: Simulator = network.sim
        self._handlers: dict[str, Callable[[Request], Any]] = {}
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
        handler.
        """
        self._handlers[msg_type] = handler

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
    ) -> Event:
        """Send a request; the returned event yields the response body.

        Fails with :class:`HostDownError` (destination offline at send
        time), :class:`RpcTimeoutError`, or :class:`RemoteError`.
        """
        if timeout is None:
            timeout = self.DEFAULT_TIMEOUT
        result = Event(self.sim)
        req_id = next(self._req_ids)
        envelope = _Envelope("request", msg_type, body, req_id)
        try:
            self.network.send(self.name, dst, envelope, size=size)
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
        envelope = _Envelope("notify", msg_type, body)
        self.network.send(self.name, dst, envelope, size=size)

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
        one whose handler returns a generator is served by one process.
        """
        envelope = message.payload
        if not isinstance(envelope, _Envelope):
            return  # stray traffic from another protocol
        if envelope.kind == "response":
            pending = self._pending
            call = pending.pop(envelope.req_id, None)
            if call is None:
                return  # late: the call already timed out
            result, dst, msg_type, _timeout = call
            if envelope.error is None:
                result.succeed(envelope.body)
            else:
                _fail_call(result, RemoteError(dst, msg_type, envelope.error))
            deadlines = self._deadlines
            while deadlines and deadlines[0][1] not in pending:
                heapq.heappop(deadlines)
            return
        handler = self._handlers.get(envelope.msg_type)
        if handler is None:
            self._respond(
                message.src, envelope, None, f"no handler for {envelope.msg_type!r}"
            )
            return
        request = Request(
            message.src, envelope.msg_type, envelope.body, envelope.req_id, message.size
        )
        error: Optional[str] = None
        value: Any = None
        try:
            value = handler(request)
        except Exception as exc:  # noqa: BLE001 - forwarded to caller
            error = f"{type(exc).__name__}: {exc}"
        if error is None and inspect.isgenerator(value):
            self.sim.process(self._serve(message.src, envelope, value))
            return
        self._respond(message.src, envelope, value, error)

    def _serve(self, src: str, envelope: _Envelope, gen):
        """Run a generator handler to completion and answer with its result."""
        error: Optional[str] = None
        value: Any = None
        try:
            value = yield from gen
        except Exception as exc:  # noqa: BLE001 - forwarded to caller
            error = f"{type(exc).__name__}: {exc}"
        self._respond(src, envelope, value, error)

    def _respond(
        self, src: str, envelope: _Envelope, value: Any, error: Optional[str]
    ) -> None:
        self.requests_served += 1
        if envelope.kind == "notify":
            return
        response = _Envelope("response", envelope.msg_type, value, envelope.req_id, error)
        try:
            self.network.send(self.name, src, response, size=64)
        except HostDownError:
            pass  # caller vanished; its timeout handles it
