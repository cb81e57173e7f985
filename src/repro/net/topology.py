"""Hosts, routes, and the Network façade.

The topology layer turns the raw link model into something the overlay
and VStore++ layers can use:

* :class:`Host` — a named endpoint with an inbox for control messages
  and an online/offline switch (for churn experiments).
* :class:`Route` — how traffic between a pair of hosts behaves: a
  bottleneck :class:`~repro.net.link.Link` for bulk data, a base latency
  with jitter for control messages, an optional
  :class:`~repro.net.tcp.TcpProfile`, and an optional per-transfer
  bandwidth sampler (modelling wireless variability).
* :class:`Network` — resolves routes (exact host pair first, then
  location-group pair), delivers control messages into host inboxes,
  and runs bulk transfers through the fluid link model.

Routes are resolved directionally, so asymmetric up/down bandwidth to
the remote cloud (the paper's 4.5 Mbps up / 6.5 Mbps down wireless
uplink) is expressed as two group routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.sim import Event, RandomSource, Simulator, Store
from repro.net.errors import HostDownError, NoRouteError, TransferAborted
from repro.net.link import Link
from repro.net.tcp import TcpProfile, UNCAPPED

__all__ = ["Host", "Message", "Route", "TransferReport", "Network"]

#: Approximate control-message rate; small command packets (<50 bytes in
#: the paper) are latency-dominated, so precision here is irrelevant.
_CONTROL_BYTES_PER_SEC = 10e6


@dataclass(slots=True)
class Message:
    """A control-plane message delivered into a host inbox."""

    src: str
    dst: str
    payload: Any
    size: int = 64
    sent_at: float = 0.0
    delivered_at: float = 0.0


@dataclass
class Route:
    """Behaviour of traffic in one direction between two endpoints."""

    link: Link
    base_latency: float = 0.001
    jitter: float = 0.0
    tcp: Optional[TcpProfile] = None
    #: Optional sampler for a per-transfer bandwidth ceiling (bytes/s);
    #: models e.g. fluctuating wireless throughput to the remote cloud.
    cap_sampler: Optional[Callable[[RandomSource], float]] = None

    def sample_latency(self, rng: RandomSource) -> float:
        if self.jitter <= 0:
            return self.base_latency
        return rng.jittered(self.base_latency, self.jitter)

    def sample_cap(self, rng: RandomSource) -> float:
        if self.cap_sampler is None:
            return UNCAPPED
        cap = self.cap_sampler(rng)
        if cap <= 0:
            raise ValueError("cap_sampler returned a non-positive rate")
        return cap


@dataclass
class TransferReport:
    """Outcome of a completed bulk transfer."""

    src: str
    dst: str
    nbytes: float
    started_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def throughput(self) -> float:
        """Average throughput in bytes/second (0 for empty transfers)."""
        return self.nbytes / self.duration if self.duration > 0 else 0.0


class Host:
    """A named network endpoint."""

    def __init__(self, network: "Network", name: str, group: str) -> None:
        self.network = network
        self.name = name
        self.group = group
        self.inbox: Store = Store(network.sim)
        self.online = True

    def receive(self) -> Event:
        """Event yielding the next inbound :class:`Message`."""
        return self.inbox.get()

    def set_online(self, online: bool) -> None:
        self.online = online

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.online else "down"
        return f"<Host {self.name!r} group={self.group!r} {state}>"


class Network:
    """The network fabric connecting home devices and the remote cloud."""

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[RandomSource] = None,
    ) -> None:
        self.sim = sim
        self.rng = (rng or RandomSource(0)).fork("network")
        self.hosts: dict[str, Host] = {}
        self._host_routes: dict[tuple[str, str], Route] = {}
        self._group_routes: dict[tuple[str, str], Route] = {}
        #: Delivered control messages, for diagnostics/tests.
        self.messages_delivered = 0
        #: Active network partitions: pairs of host-name sets that
        #: cannot reach each other (chaos injection).
        self._partitions: list[tuple[frozenset, frozenset]] = []
        #: Probability that a control message is silently lost in
        #: flight (chaos injection).  Loss draws come from a dedicated
        #: RNG fork so toggling loss never perturbs the latency-jitter
        #: stream — a loss-free run is bit-identical with the feature
        #: compiled in or out.
        self.loss_rate = 0.0
        self._loss_rng = self.rng.fork("loss")
        #: Messages dropped by loss injection, for diagnostics.
        self.messages_lost = 0

    # -- construction ------------------------------------------------------

    def add_host(self, name: str, group: str = "home") -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(self, name, group)
        self.hosts[name] = host
        return host

    def connect_hosts(self, src: str, dst: str, route: Route) -> None:
        """Register a directional route for one exact host pair."""
        self._require_host(src)
        self._require_host(dst)
        self._host_routes[(src, dst)] = route

    def connect_groups(self, src_group: str, dst_group: str, route: Route) -> None:
        """Register a directional route between two location groups."""
        self._group_routes[(src_group, dst_group)] = route

    # -- lookup --------------------------------------------------------------

    def _require_host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise NoRouteError(name, name) from None

    def route(self, src: str, dst: str) -> Route:
        """Resolve the route from ``src`` to ``dst`` (host pair wins)."""
        return self._route(self._require_host(src), self._require_host(dst))

    def _route(self, src_host: Host, dst_host: Host) -> Route:
        route = self._host_routes.get((src_host.name, dst_host.name))
        if route is None:
            route = self._group_routes.get((src_host.group, dst_host.group))
            if route is None:
                raise NoRouteError(src_host.name, dst_host.name)
        return route

    def _open_hosts(self, src: str, dst: str) -> tuple[Host, Host]:
        """Both endpoints of a send or transfer, each resolved once.

        Raises :class:`NoRouteError` for an unknown host and
        :class:`HostDownError` for an offline or partitioned one.
        """
        hosts = self.hosts
        src_host = hosts.get(src)
        if src_host is None:
            raise NoRouteError(src, src)
        dst_host = hosts.get(dst)
        if dst_host is None:
            raise NoRouteError(dst, dst)
        if not src_host.online:
            raise HostDownError(src)
        if not dst_host.online:
            raise HostDownError(dst)
        if self._partitions and self.partitioned(src, dst):
            # Same failure mode as a dead host: the connection attempt
            # is refused at once, which is what lets callers (and the
            # overlay) react instead of hanging.
            raise HostDownError(dst)
        return src_host, dst_host

    # -- partitions (chaos) ------------------------------------------------

    def partition(self, side_a, side_b) -> None:
        """Split the fabric: hosts in ``side_a`` and ``side_b`` can no
        longer exchange messages or transfers (in either direction).
        Connectivity within each side is untouched."""
        self._partitions.append((frozenset(side_a), frozenset(side_b)))

    def heal_partition(self, side_a=None, side_b=None) -> None:
        """Remove one partition (both orientations), or every partition
        when called with no arguments."""
        if side_a is None and side_b is None:
            self._partitions.clear()
            return
        pair = (frozenset(side_a or ()), frozenset(side_b or ()))
        flipped = (pair[1], pair[0])
        self._partitions = [
            p for p in self._partitions if p != pair and p != flipped
        ]

    def partitioned(self, src: str, dst: str) -> bool:
        """Does an active partition separate these two hosts?"""
        for a, b in self._partitions:
            if (src in a and dst in b) or (src in b and dst in a):
                return True
        return False

    # -- control plane ---------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, size: int = 64) -> None:
        """Deliver a control message into ``dst``'s inbox; returns nothing.

        The message arrives after the route's latency as one kernel
        event.  Raises :class:`HostDownError` immediately if either
        endpoint is offline — modelling the fast "connection refused" a
        LAN gives, which is what lets the overlay detect departed
        neighbours.  A message lost in flight, or reaching a host that
        went down meanwhile, is dropped silently: a waiting RPC caller
        sees its deadline pass.
        """
        src_host, dst_host = self._open_hosts(src, dst)
        if self.loss_rate > 0 and self._loss_rng.random() < self.loss_rate:
            # Silent in-flight loss: the sender cannot tell loss from
            # slowness, unlike a partition.
            self.messages_lost += 1
            return
        route = self._route(src_host, dst_host)
        delay = route.sample_latency(self.rng) + size / _CONTROL_BYTES_PER_SEC
        sim = self.sim
        now = sim._now
        sim._call_at(now + delay, self._deliver, Message(src, dst, payload, size, now))

    def _deliver(self, arrival: Event) -> None:
        message: Message = arrival._value
        dst_host = self.hosts[message.dst]
        if dst_host.online:
            message.delivered_at = self.sim._now
            self.messages_delivered += 1
            # Last: an RPC consumer may start a serving process inline.
            dst_host.inbox.put(message)

    # -- data plane --------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: float) -> Event:
        """Run a bulk transfer; the event yields a :class:`TransferReport`.

        The transfer pays the route's (jittered) latency once, then
        moves through the route's bottleneck link under the fluid
        fair-share model, bounded by the route's TCP profile and the
        sampled per-transfer cap.
        """
        route = self._route(*self._open_hosts(src, dst))
        latency = route.sample_latency(self.rng)
        cap = route.sample_cap(self.rng)
        started = self.sim.now

        def run():
            yield self.sim.timeout(latency)
            flow = route.link.open_flow(
                nbytes,
                profile=route.tcp,
                extra_cap=cap,
                label=f"{src}->{dst}",
            )
            try:
                yield flow.done
            except TransferAborted:
                raise
            return TransferReport(
                src=src,
                dst=dst,
                nbytes=float(nbytes),
                started_at=started,
                finished_at=self.sim.now,
            )

        return self.sim.process(run())

    def take_offline(self, name: str) -> None:
        """Mark a host offline (future sends/transfers to it fail)."""
        self._require_host(name).set_online(False)

    def bring_online(self, name: str) -> None:
        self._require_host(name).set_online(True)
