"""Tests for the fault-injection framework."""

import pytest

from repro.cluster import ChaosSchedule, Cloud4Home, ClusterConfig, DeviceConfig
from repro.cluster.chaos import RandomChaos
from repro.net import HostDownError, Link
from repro.sim import Simulator


def fresh_cluster(seed, **kwargs):
    c4h = Cloud4Home(ClusterConfig(seed=seed, **kwargs))
    c4h.start(monitors=False)
    return c4h


class TestLinkBandwidthChange:
    def test_set_bandwidth_validates(self):
        link = Link(Simulator(), bandwidth=1e6)
        with pytest.raises(ValueError):
            link.set_bandwidth(0)

    def test_inflight_flow_slows_down(self):
        sim = Simulator()
        link = Link(sim, bandwidth=1e6)
        flow = link.open_flow(2e6)

        def degrade(sim, link):
            yield sim.timeout(1.0)
            link.set_bandwidth(0.5e6)

        sim.process(degrade(sim, link))
        sim.run(until=flow.done)
        # 1 MB in the first second, remaining 1 MB at 0.5 MB/s -> 3 s.
        assert sim.now == pytest.approx(3.0)

    def test_inflight_flow_speeds_up(self):
        sim = Simulator()
        link = Link(sim, bandwidth=0.5e6)
        flow = link.open_flow(2e6)

        def upgrade(sim, link):
            yield sim.timeout(1.0)
            link.set_bandwidth(2e6)

        sim.process(upgrade(sim, link))
        sim.run(until=flow.done)
        # 0.5 MB in the first second, 1.5 MB at 2 MB/s -> 1.75 s.
        assert sim.now == pytest.approx(1.75)


class TestChaosSchedule:
    def test_crash_fault(self):
        c4h = fresh_cluster(700)
        t0 = c4h.sim.now
        chaos = ChaosSchedule(c4h).crash(after=5.0, device_name="netbook3")
        chaos.start()
        c4h.sim.run(until=t0 + 10.0)
        assert not c4h.network.hosts["netbook3"].online
        assert chaos.events[0].kind == "crash"
        assert chaos.events[0].at == pytest.approx(t0 + 5.0)

    def test_graceful_leave_fault_hands_off_data(self):
        c4h = fresh_cluster(701)
        writer = c4h.devices[0]
        for i in range(10):
            c4h.run(writer.kv.put(f"k{i}", i))
        chaos = ChaosSchedule(c4h).leave(after=2.0, device_name="netbook4")
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 20.0)
        for i in range(10):
            assert c4h.run(c4h.devices[1].kv.get(f"k{i}")) == i

    def test_crash_then_revive_restores_membership(self):
        c4h = fresh_cluster(702)
        chaos = (
            ChaosSchedule(c4h)
            .crash(after=2.0, device_name="netbook2")
            .revive(after=10.0, device_name="netbook2")
        )
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 30.0)
        kinds = [e.kind for e in chaos.events]
        assert kinds == ["crash", "revive"]
        assert c4h.network.hosts["netbook2"].online
        # The revived node can serve VStore++ operations again.
        c4h.run(c4h.device("netbook2").client.store_file("back.bin", 1.0))
        fetch = c4h.run(c4h.device("netbook0").client.fetch_object("back.bin"))
        assert fetch.served_from == "netbook2"

    def test_degrade_and_restore_uplink(self):
        c4h = fresh_cluster(703)
        original = c4h.downlink.bandwidth
        chaos = ChaosSchedule(c4h).degrade_link(
            after=1.0, link=c4h.downlink, factor=0.25, duration=10.0
        )
        t0 = c4h.sim.now
        chaos.start()
        c4h.sim.run(until=t0 + 5.0)
        assert c4h.downlink.bandwidth == pytest.approx(original * 0.25)
        c4h.sim.run(until=t0 + 15.0)
        assert c4h.downlink.bandwidth == pytest.approx(original)
        assert [e.kind for e in chaos.events] == ["degrade", "restore"]

    def test_degraded_uplink_slows_remote_fetch(self):
        from repro import Placement, PlacementTarget, StorePolicy

        def remote_fetch_time(degrade):
            c4h = fresh_cluster(704)
            d = c4h.devices[0]
            d.vstore.store_policy = StorePolicy(
                default=Placement(PlacementTarget.REMOTE_CLOUD)
            )
            c4h.run(d.client.store_file("r.bin", 10.0))
            if degrade:
                c4h.downlink.set_bandwidth(c4h.downlink.bandwidth * 0.1)
                # Per-flow wireless caps must degrade too: route samplers
                # stay, but the aggregate ceiling now binds.
            t0 = c4h.sim.now
            c4h.run(c4h.devices[1].client.fetch_object("r.bin"))
            return c4h.sim.now - t0

        assert remote_fetch_time(True) > remote_fetch_time(False)

    def test_fault_validation(self):
        c4h = fresh_cluster(705)
        chaos = ChaosSchedule(c4h)
        with pytest.raises(ValueError):
            chaos.degrade_link(after=1.0, link=c4h.uplink, factor=0)
        with pytest.raises(ValueError):
            chaos.crash(after=-1.0, device_name="netbook0")

    def test_faults_added_after_start(self):
        c4h = fresh_cluster(706)
        chaos = ChaosSchedule(c4h)
        chaos.start()
        chaos.crash(after=3.0, device_name="netbook1")
        c4h.sim.run(until=c4h.sim.now + 5.0)
        assert chaos.events and chaos.events[0].kind == "crash"

    def test_start_idempotent(self):
        c4h = fresh_cluster(707)
        chaos = ChaosSchedule(c4h).crash(after=2.0, device_name="netbook1")
        chaos.start()
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 5.0)
        assert len(chaos.events) == 1

    def test_overlapping_degrades_restore_exact_baseline(self):
        """Regression: two overlapping degrades used to restore against
        each other's degraded bandwidth instead of the healthy one."""
        c4h = fresh_cluster(720)
        link = c4h.lan_link
        original = link.bandwidth
        chaos = (
            ChaosSchedule(c4h)
            .degrade_link(after=1.0, link=link, factor=0.5, duration=10.0)
            .degrade_link(after=2.0, link=link, factor=0.25, duration=4.0)
        )
        t0 = c4h.sim.now
        chaos.start()
        c4h.sim.run(until=t0 + 3.0)
        # Overlapping degrades compound multiplicatively.
        assert link.bandwidth == pytest.approx(original * 0.5 * 0.25)
        c4h.sim.run(until=t0 + 8.0)  # inner degrade expired
        assert link.bandwidth == pytest.approx(original * 0.5)
        c4h.sim.run(until=t0 + 12.0)  # outer degrade expired
        assert link.bandwidth == original  # exact — not approx

    def test_revive_without_bootstrap_names_the_problem(self):
        """Regression: with no joined device left, revive used to hit a
        bare next() -> StopIteration -> opaque PEP 479 RuntimeError."""
        config = ClusterConfig(
            devices=[DeviceConfig(name="a"), DeviceConfig(name="b")], seed=730
        )
        c4h = Cloud4Home(config)
        c4h.start(monitors=False)
        for device in c4h.devices:
            device.monitor.stop()
            device.chimera.fail_abruptly()
            c4h.network.take_offline(device.name)
        chaos = ChaosSchedule(c4h)
        gen = chaos._do_revive("b", None)
        with pytest.raises(ValueError, match="no joined device"):
            next(gen)

    def test_revive_falls_back_when_the_named_bootstrap_is_down(self):
        """Regression: a revive whose named bootstrap was down let the
        join's HostDownError escape and abort the whole simulation."""
        c4h = fresh_cluster(731)
        chaos = (
            ChaosSchedule(c4h)
            .crash(after=1.0, device_name="netbook3")
            .crash(after=1.0, device_name="netbook4")
            .revive(after=5.0, device_name="netbook3", bootstrap="netbook4")
        )
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 10.0)
        revive = chaos.events[-1]
        assert (revive.kind, revive.target) == ("revive", "netbook3")
        # The next candidate is the first online member in device order,
        # and the revive ends with its anti-entropy round.
        assert revive.detail == "via netbook0, synced +0/-0 (pushed 0)"
        assert c4h.device("netbook3").chimera.joined
        assert c4h.network.hosts["netbook3"].online

    def test_revive_with_every_bootstrap_down_is_recorded_not_raised(self):
        config = ClusterConfig(
            devices=[DeviceConfig(name="a"), DeviceConfig(name="b")], seed=732
        )
        c4h = Cloud4Home(config)
        c4h.start(monitors=False)
        chaos = (
            ChaosSchedule(c4h)
            .crash(after=1.0, device_name="a")
            .crash(after=1.0, device_name="b")
            .revive(after=5.0, device_name="b", bootstrap="a")
        )
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 10.0)
        assert [(e.kind, e.target) for e in chaos.events] == [
            ("crash", "a"),
            ("crash", "b"),
            ("revive-failed", "b"),
        ]
        assert chaos.events[-1].detail == "tried a"
        # The device stays down, as it was before the attempt.
        assert not c4h.device("b").chimera.joined
        assert not c4h.network.hosts["b"].online

    def test_leave_rehomes_owned_records(self):
        c4h = fresh_cluster(721)
        writer = c4h.devices[0]
        for i in range(12):
            c4h.run(writer.kv.put(f"leave-k{i}", i))
        leaver = c4h.device("netbook3")
        owned = [
            r.name
            for r in leaver.kv.primary.values()
            if r.name.startswith("leave-k")
        ]
        chaos = ChaosSchedule(c4h).leave(after=1.0, device_name="netbook3")
        chaos.start()
        c4h.sim.run(until=c4h.sim.now + 10.0)
        rehomed = {
            r.name
            for d in c4h.devices
            if d.name != "netbook3"
            for r in d.kv.primary.values()
        }
        assert all(name in rehomed for name in owned)
        for i in range(12):
            assert c4h.run(c4h.devices[1].kv.get(f"leave-k{i}")) == i

    def test_partition_blocks_sends_then_heals(self):
        c4h = fresh_cluster(722)
        chaos = ChaosSchedule(c4h).partition(
            after=1.0, side_a=["netbook0"], side_b=["netbook1"], duration=8.0
        )
        t0 = c4h.sim.now
        chaos.start()
        c4h.sim.run(until=t0 + 2.0)
        assert c4h.network.partitioned("netbook0", "netbook1")
        assert not c4h.network.partitioned("netbook0", "netbook2")
        with pytest.raises(HostDownError):
            c4h.network.send("netbook0", "netbook1", "blocked")
        c4h.sim.run(until=t0 + 10.0)
        assert not c4h.network.partitioned("netbook0", "netbook1")
        c4h.network.send("netbook0", "netbook1", "flows-again")
        assert [e.kind for e in chaos.events] == ["partition", "heal"]

    def test_drop_messages_loses_and_restores(self):
        c4h = fresh_cluster(723)
        chaos = ChaosSchedule(c4h).drop_messages(after=1.0, rate=1.0, duration=5.0)
        t0 = c4h.sim.now
        chaos.start()
        c4h.sim.run(until=t0 + 2.0)
        assert c4h.network.loss_rate == 1.0
        before = c4h.network.messages_lost
        c4h.network.send("netbook0", "netbook1", "doomed")
        assert c4h.network.messages_lost == before + 1
        c4h.sim.run(until=t0 + 7.0)
        assert c4h.network.loss_rate == 0.0
        assert [e.kind for e in chaos.events] == ["loss", "loss-end"]

    def test_flap_link_oscillates_and_settles(self):
        c4h = fresh_cluster(724)
        link = c4h.lan_link
        original = link.bandwidth
        chaos = ChaosSchedule(c4h).flap_link(
            after=1.0, link=link, factor=0.5, period=2.0, count=3
        )
        t0 = c4h.sim.now
        chaos.start()
        c4h.sim.run(until=t0 + 1.5)  # inside the first degraded half
        assert link.bandwidth == pytest.approx(original * 0.5)
        c4h.sim.run(until=t0 + 20.0)
        assert link.bandwidth == original
        kinds = [e.kind for e in chaos.events]
        assert kinds.count("degrade") == 3
        assert kinds.count("restore") == 3

    def test_random_chaos_same_seed_same_script(self):
        def script(seed):
            c4h = fresh_cluster(725)
            chaos = RandomChaos(c4h, seed=seed, mean_interval_s=10.0)
            schedule = chaos.script(200.0)
            return [
                (delay, action.__name__)
                for delay, action, _args in schedule._pending
            ]

        first = script(5)
        assert first == script(5)
        assert first != script(6)
        assert first  # the horizon actually produced events

    def test_random_chaos_respects_protection_and_max_down(self):
        c4h = fresh_cluster(726)
        chaos = RandomChaos(
            c4h,
            seed=9,
            mean_interval_s=5.0,
            max_down=1,
            protected=("netbook0",),
        )
        schedule = chaos.script(400.0)
        crashes = [
            (delay, args[0])
            for delay, action, args in schedule._pending
            if action.__name__ == "_do_crash"
        ]
        revives = [
            (delay, args[0])
            for delay, action, args in schedule._pending
            if action.__name__ == "_do_revive"
        ]
        assert all(name != "netbook0" for _, name in crashes)
        # Every crash is paired with a later revive of the same device.
        assert len(crashes) == len(revives)
        for (t_down, name), (t_up, revived) in zip(crashes, revives):
            assert revived == name
            assert t_up > t_down

    def test_workload_survives_chaos(self):
        """Store/fetch keeps working while a node crashes and the LAN
        degrades — the headline resilience scenario."""
        c4h = fresh_cluster(708, replication_factor=2)
        chaos = (
            ChaosSchedule(c4h)
            .crash(after=4.0, device_name="netbook4")
            .degrade_link(after=6.0, link=c4h.lan_link, factor=0.5, duration=10.0)
        )
        chaos.start()
        writer = c4h.devices[0]
        survivors = [d for d in c4h.devices if d.name != "netbook4"]
        stored = []
        for i in range(12):
            name = f"chaos-{i}.bin"
            c4h.run(writer.client.store_file(name, 1.0))
            if writer.vstore.holds(name) or any(
                d.vstore.holds(name) for d in survivors
            ):
                stored.append(name)
        # Everything stored on surviving nodes stays fetchable.
        ok = 0
        for name in stored:
            holder_alive = any(d.vstore.holds(name) for d in survivors)
            if holder_alive:
                c4h.run(survivors[1].client.fetch_object(name))
                ok += 1
        assert ok > 0
