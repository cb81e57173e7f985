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
"""

from __future__ import annotations

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
        #: msg_type -> True when the handler is a generator function
        #: (precomputed so dispatch can pick the synchronous fast path).
        self._genfunc: dict[str, bool] = {}
        self._pending: dict[int, Event] = {}
        self._req_ids = itertools.count(1)
        #: Messages are handled synchronously at delivery time via the
        #: inbox consumer hook while the endpoint runs.
        self._running = False
        #: Count of requests served, for tests/diagnostics.
        self.requests_served = 0

    def register(self, msg_type: str, handler: Callable[[Request], Any]) -> None:
        """Register ``handler`` for ``msg_type`` requests.

        A generator-function handler runs as a simulation process; its
        return value becomes the response body.  Re-registering a type
        replaces the previous handler.
        """
        self._handlers[msg_type] = handler
        # inspect.isgeneratorfunction without the inspect overhead —
        # endpoints register a dozen handlers per device, at cluster
        # construction time.  CO_GENERATOR == 0x20.
        func = getattr(handler, "__func__", handler)
        code = getattr(func, "__code__", None)
        if code is not None:
            self._genfunc[msg_type] = bool(code.co_flags & 0x20)
        else:
            self._genfunc[msg_type] = inspect.isgeneratorfunction(handler)

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
        deadline = self.DEFAULT_TIMEOUT if timeout is None else timeout
        result = self.sim.event()
        req_id = next(self._req_ids)
        envelope = _Envelope("request", msg_type, body, req_id)
        try:
            self.network.send(self.name, dst, envelope, size=size)
        except HostDownError as exc:
            result.fail(exc)
            return result

        reply = self.sim.event()
        self._pending[req_id] = reply
        timer = self.sim.timeout(deadline)

        # First of {reply, deadline} settles the call.  Plain callbacks
        # instead of a waiter process + AnyOf: an RPC in flight costs a
        # single extra timer event, nothing else.
        settled = False

        def on_reply(event: Event) -> None:
            nonlocal settled
            if settled:
                return
            settled = True
            self._pending.pop(req_id, None)
            response: _Envelope = event._value
            if response.error is not None:
                _fail_call(result, RemoteError(dst, msg_type, response.error))
            else:
                result.succeed(response.body)

        def on_deadline(event: Event) -> None:
            nonlocal settled
            if settled:
                return
            settled = True
            self._pending.pop(req_id, None)
            _fail_call(result, RpcTimeoutError(dst, msg_type, deadline))

        reply.callbacks.append(on_reply)
        timer.callbacks.append(on_deadline)
        return result

    def notify(self, dst: str, msg_type: str, body: Any = None, size: int = 64) -> None:
        """Fire-and-forget one-way message; errors at send time propagate."""
        envelope = _Envelope("notify", msg_type, body)
        self.network.send(self.name, dst, envelope, size=size)

    # -- server side -------------------------------------------------------

    def _on_message(self, message) -> None:
        """Dispatch one inbound message, synchronously at delivery.

        Responses settle the pending call directly; requests with a
        plain-function handler are served inline — no dispatcher resume
        and no per-request process, which is the bulk of the control-
        plane event traffic.  Generator handlers (and sync handlers
        that return a generator) still get a process.
        """
        envelope = message.payload
        if not isinstance(envelope, _Envelope):
            return  # stray traffic from another protocol
        if envelope.kind == "response":
            pending = self._pending.pop(envelope.req_id, None)
            if pending is not None:
                pending.succeed(envelope)
            return
        handler = self._handlers.get(envelope.msg_type)
        if handler is None or self._genfunc.get(envelope.msg_type, False):
            self.sim.process(self._serve(message.src, envelope))
            return
        request = Request(message.src, envelope.msg_type, envelope.body, envelope.req_id)
        error: Optional[str] = None
        value: Any = None
        try:
            value = handler(request)
        except Exception as exc:  # noqa: BLE001 - forwarded to caller
            error = f"{type(exc).__name__}: {exc}"
        if error is None and inspect.isgenerator(value):
            self.sim.process(self._finish_async(message.src, envelope, value))
            return
        self._respond(message.src, envelope, value, error)

    def _finish_async(self, src: str, envelope: _Envelope, gen):
        """Await a generator returned by a nominally-sync handler."""
        error: Optional[str] = None
        value: Any = None
        try:
            value = yield self.sim.process(gen)
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

    def _serve(self, src: str, envelope: _Envelope):
        request = Request(src, envelope.msg_type, envelope.body, envelope.req_id)
        handler = self._handlers.get(envelope.msg_type)
        error: Optional[str] = None
        value: Any = None
        if handler is None:
            error = f"no handler for {envelope.msg_type!r}"
        else:
            try:
                outcome = handler(request)
                if inspect.isgenerator(outcome):
                    value = yield self.sim.process(outcome)
                else:
                    value = outcome
            except Exception as exc:  # noqa: BLE001 - forwarded to caller
                error = f"{type(exc).__name__}: {exc}"
        self._respond(src, envelope, value, error)
