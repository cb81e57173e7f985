"""Unit tests for hosts, routes, and the Network façade."""

import pytest

from repro.net import (
    HostDownError,
    Link,
    Network,
    NoRouteError,
    Route,
    RpcEndpoint,
    RpcTimeoutError,
    TcpProfile,
)
from repro.sim import RandomSource, Simulator


def make_net(sim=None):
    sim = sim or Simulator()
    net = Network(sim, RandomSource(7))
    return sim, net


def build_two_hosts(latency=0.001, jitter=0.0, bandwidth=1e6, **route_kw):
    sim, net = make_net()
    net.add_host("a", group="home")
    net.add_host("b", group="home")
    link = Link(sim, bandwidth=bandwidth, name="lan")
    net.connect_groups(
        "home", "home", Route(link, base_latency=latency, jitter=jitter, **route_kw)
    )
    return sim, net


class TestConstruction:
    def test_duplicate_host_rejected(self):
        _, net = make_net()
        net.add_host("a")
        with pytest.raises(ValueError):
            net.add_host("a")

    def test_connect_unknown_host_rejected(self):
        sim, net = make_net()
        net.add_host("a")
        link = Link(sim, 1e6)
        with pytest.raises(NoRouteError):
            net.connect_hosts("a", "ghost", Route(link))

    def test_route_resolution_prefers_host_pair(self):
        sim, net = build_two_hosts()
        special = Route(Link(sim, 5e6), base_latency=0.5)
        net.connect_hosts("a", "b", special)
        assert net.route("a", "b") is special
        # Reverse direction still falls back to the group route.
        assert net.route("b", "a") is not special

    def test_missing_route_raises(self):
        _, net = make_net()
        net.add_host("a", group="home")
        net.add_host("c", group="cloud")
        with pytest.raises(NoRouteError):
            net.route("a", "c")


class TestControlMessages:
    def test_message_delivery(self):
        sim, net = build_two_hosts(latency=0.01)
        got = []

        def receiver(sim, host):
            msg = yield host.receive()
            got.append((msg.payload, sim.now))

        sim.process(receiver(sim, net.hosts["b"]))
        net.send("a", "b", {"op": "ping"})
        sim.run()
        assert len(got) == 1
        payload, when = got[0]
        assert payload == {"op": "ping"}
        assert when >= 0.01

    def test_send_to_offline_host_raises(self):
        sim, net = build_two_hosts()
        net.take_offline("b")
        with pytest.raises(HostDownError):
            net.send("a", "b", "hello")

    def test_send_from_offline_host_raises(self):
        sim, net = build_two_hosts()
        net.take_offline("a")
        with pytest.raises(HostDownError):
            net.send("a", "b", "hello")

    def test_host_going_down_mid_flight_fails_delivery(self):
        sim, net = build_two_hosts(latency=1.0)
        assert net.send("a", "b", "hello") is None
        net.take_offline("b")
        sim.run()
        # The message is dropped at arrival: nothing reaches the inbox.
        assert len(net.hosts["b"].inbox) == 0
        assert net.messages_delivered == 0
        # A caller learns of it only through its deadline.
        caller = RpcEndpoint(net, net.hosts["a"])
        net.bring_online("b")
        call = caller.call("b", "ping", timeout=5.0)
        called_at = sim.now
        net.take_offline("b")
        failures = []

        def watch(sim, event):
            try:
                yield event
            except RpcTimeoutError:
                failures.append(sim.now)

        sim.process(watch(sim, call))
        sim.run()
        assert failures == [called_at + 5.0]
        assert len(net.hosts["b"].inbox) == 0
        assert net.messages_delivered == 0

    def test_bring_online_restores_delivery(self):
        sim, net = build_two_hosts()
        net.take_offline("b")
        net.bring_online("b")
        net.send("a", "b", "hi")
        sim.run()
        assert net.messages_delivered == 1

    def test_jitter_varies_latency(self):
        sim, net = build_two_hosts(latency=0.1, jitter=0.5)
        deliveries = []

        def receiver(sim, host, n):
            for _ in range(n):
                msg = yield host.receive()
                deliveries.append(msg.delivered_at - msg.sent_at)

        sim.process(receiver(sim, net.hosts["b"], 20))
        for _ in range(20):
            net.send("a", "b", "x")
        sim.run()
        assert len(set(round(d, 9) for d in deliveries)) > 1


class TestSendErrors:
    """``Network.send`` resolves each host once; its errors stay typed."""

    @pytest.mark.parametrize("src, dst", [("ghost", "b"), ("a", "ghost")])
    def test_unknown_host_raises_no_route(self, src, dst):
        sim, net = build_two_hosts()
        before = sim._event_seq
        with pytest.raises(NoRouteError, match="ghost"):
            net.send(src, dst, "hello")
        with pytest.raises(NoRouteError, match="ghost"):
            net.transfer(src, dst, 1e3)
        assert sim._event_seq == before

    def test_missing_group_route_raises_no_route(self):
        _, net = make_net()
        net.add_host("a", group="home")
        net.add_host("c", group="cloud")
        with pytest.raises(NoRouteError):
            net.send("a", "c", "hello")

    def test_partitioned_peer_raises_host_down_both_ways(self):
        sim, net = build_two_hosts()
        net.partition(["a"], ["b"])
        for src, dst in (("a", "b"), ("b", "a")):
            with pytest.raises(HostDownError) as err:
                net.send(src, dst, "hello")
            assert err.value.host == dst
        net.heal_partition()
        net.send("a", "b", "hello")
        sim.run()
        assert net.messages_delivered == 1

    def test_offline_peer_raises_host_down(self):
        _, net = build_two_hosts()
        net.take_offline("b")
        with pytest.raises(HostDownError) as err:
            net.send("a", "b", "hello")
        assert err.value.host == "b"

    def test_host_pair_route_beats_group_route(self):
        sim, net = build_two_hosts(latency=0.001)
        net.connect_hosts("a", "b", Route(Link(sim, 5e6), base_latency=0.5))
        arrivals = {}

        def receive(host):
            message = yield net.hosts[host].receive()
            arrivals[message.payload] = message.delivered_at - message.sent_at

        sim.process(receive("b"))
        sim.process(receive("a"))
        sim.run(until=0.0)
        net.send("a", "b", "pair")
        net.send("b", "a", "group")
        sim.run()
        assert arrivals["pair"] >= 0.5
        assert arrivals["group"] < 0.01


class TestTransfers:
    def test_transfer_duration_reflects_bandwidth(self):
        sim, net = build_two_hosts(latency=0.0, bandwidth=2e6)
        ev = net.transfer("a", "b", 4e6)
        report = sim.run(until=ev)
        assert report.duration == pytest.approx(2.0)
        assert report.throughput == pytest.approx(2e6)

    def test_transfer_includes_latency(self):
        sim, net = build_two_hosts(latency=0.5, bandwidth=1e6)
        ev = net.transfer("a", "b", 1e6)
        report = sim.run(until=ev)
        assert report.duration == pytest.approx(1.5)

    def test_transfer_to_offline_host_raises(self):
        sim, net = build_two_hosts()
        net.take_offline("b")
        with pytest.raises(HostDownError):
            net.transfer("a", "b", 1e6)

    def test_concurrent_transfers_share_bottleneck(self):
        sim, net = build_two_hosts(latency=0.0, bandwidth=1e6)
        e1 = net.transfer("a", "b", 1e6)
        e2 = net.transfer("a", "b", 1e6)
        r2 = sim.run(until=e2)
        assert r2.duration == pytest.approx(2.0)
        assert e1.triggered

    def test_tcp_route_applies_profile(self):
        profile = TcpProfile(rtt=0.1, init_window=8192, max_window=1024 * 1024)
        sim, net = build_two_hosts(latency=0.0, bandwidth=100e6, tcp=profile)
        ev = net.transfer("a", "b", 2 * 1024 * 1024)
        report = sim.run(until=ev)
        expected = profile.ideal_transfer_time(2 * 1024 * 1024, 100e6)
        assert report.duration == pytest.approx(expected, rel=1e-6)

    def test_cap_sampler_limits_throughput(self):
        sim, net = make_net()
        net.add_host("a", group="home")
        net.add_host("c", group="cloud")
        link = Link(sim, bandwidth=100e6, name="uplink")
        net.connect_groups(
            "home",
            "cloud",
            Route(link, base_latency=0.0, cap_sampler=lambda rng: 1e5),
        )
        ev = net.transfer("a", "c", 1e6)
        report = sim.run(until=ev)
        assert report.duration == pytest.approx(10.0)

    def test_zero_byte_transfer(self):
        sim, net = build_two_hosts(latency=0.25)
        ev = net.transfer("a", "b", 0)
        report = sim.run(until=ev)
        assert report.duration == pytest.approx(0.25)
        assert report.throughput == 0.0
