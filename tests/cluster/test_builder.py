"""Tests for cluster assembly."""

import pytest

from repro.cluster import (
    Cloud4Home,
    ClusterConfig,
    DeviceConfig,
    default_devices,
)
from repro.monitoring import DecisionPolicy
from repro.services import MediaConversion


class TestAssembly:
    def test_default_testbed_shape(self):
        c4h = Cloud4Home()
        assert len(c4h.devices) == 6  # 5 netbooks + desktop
        names = [d.name for d in c4h.devices]
        assert "desktop" in names
        assert sum(1 for n in names if n.startswith("netbook")) == 5

    def test_desktop_is_mains_powered(self):
        c4h = Cloud4Home()
        assert c4h.device("desktop").config.battery is None
        assert c4h.device("netbook0").config.battery is not None

    def test_device_lookup_unknown(self):
        c4h = Cloud4Home()
        with pytest.raises(KeyError):
            c4h.device("mainframe")

    def test_domains_laid_out(self):
        c4h = Cloud4Home()
        d = c4h.devices[0]
        assert d.dom0.is_control
        assert not d.guest.is_control
        assert d.guest.mem_mb == d.config.guest_mem_mb

    def test_start_joins_overlay(self):
        c4h = Cloud4Home(ClusterConfig(seed=3))
        c4h.start(monitors=False)
        for device in c4h.devices:
            assert len(device.chimera.view) == len(c4h.devices) - 1

    def test_start_publishes_snapshots(self):
        c4h = Cloud4Home(ClusterConfig(seed=3))
        c4h.start(monitors=False)
        engine = c4h.devices[0].decision
        ranked = c4h.run(engine.decide(DecisionPolicy.PERFORMANCE))
        assert len(ranked) == len(c4h.devices)

    def test_start_is_idempotent(self):
        c4h = Cloud4Home(ClusterConfig(seed=3))
        c4h.start(monitors=False)
        c4h.start(monitors=False)

    def test_performance_policy_ranks_desktop_first(self):
        c4h = Cloud4Home(ClusterConfig(seed=3))
        c4h.start(monitors=False)
        ranked = c4h.run(
            c4h.devices[0].decision.decide(DecisionPolicy.PERFORMANCE)
        )
        assert ranked[0].node == "desktop"

    def test_battery_policy_ranks_desktop_first(self):
        c4h = Cloud4Home(ClusterConfig(seed=3))
        c4h.start(monitors=False)
        ranked = c4h.run(c4h.devices[0].decision.decide(DecisionPolicy.BATTERY))
        assert ranked[0].node == "desktop"  # the only mains-powered device

    def test_deploy_service_registers_everywhere(self):
        c4h = Cloud4Home(ClusterConfig(seed=3))
        c4h.start(monitors=False)
        c4h.deploy_service(lambda: MediaConversion())
        entry = c4h.run(
            c4h.devices[2].registry.lookup("media-convert#v1")
        )
        assert set(entry["nodes"]) == {d.name for d in c4h.devices}
        assert "media-convert#v1" in c4h.ec2[0].services

    def test_no_ec2_configuration(self):
        c4h = Cloud4Home(ClusterConfig(with_ec2=False))
        assert c4h.ec2 == []
        assert c4h.devices[0].vstore.ec2 is None

    def test_custom_devices(self):
        config = ClusterConfig(
            devices=[DeviceConfig(name="solo", profile_name="quad-desktop")]
        )
        c4h = Cloud4Home(config)
        c4h.start(monitors=False)
        assert len(c4h.devices) == 1
        result = c4h.run(c4h.device("solo").client.store_file("x.bin", 1.0))
        assert result.meta.location == "solo"

    def test_seed_reproducibility(self):
        def run_once():
            c4h = Cloud4Home(ClusterConfig(seed=42))
            c4h.start(monitors=False)
            c4h.run(c4h.devices[0].client.store_file("same.avi", 8.0))
            fetch = c4h.run(c4h.devices[1].client.fetch_object("same.avi"))
            return fetch.total_s

        assert run_once() == run_once()

    def test_different_seeds_differ(self):
        def run_once(seed):
            c4h = Cloud4Home(ClusterConfig(seed=seed))
            c4h.start(monitors=False)
            c4h.run(c4h.devices[0].client.store_file("same.avi", 8.0))
            fetch = c4h.run(c4h.devices[1].client.fetch_object("same.avi"))
            return fetch.total_s

        assert run_once(1) != run_once(2)

    def test_monitors_keep_publishing(self):
        c4h = Cloud4Home(ClusterConfig(seed=3, monitor_period_s=5.0))
        c4h.start(monitors=True)
        published_before = c4h.devices[0].monitor.updates_published
        c4h.sim.run(until=c4h.sim.now + 12.0)
        assert c4h.devices[0].monitor.updates_published > published_before
