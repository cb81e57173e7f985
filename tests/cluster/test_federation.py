"""Tests for multi-home federation (paper future-work item (v))."""

import pytest

from repro.cluster import Federation
from repro.net import RemoteError
from repro.vstore.errors import AccessDeniedError


@pytest.fixture(scope="module")
def federation():
    fed = Federation.build(n_homes=3, seed=77, devices_per_home=3)
    fed.start()
    return fed


class TestBuild:
    def test_homes_are_isolated_overlays(self, federation):
        for home in federation.homes:
            n = len(home.devices)
            for device in home.devices:
                # Each device knows only its own home's peers.
                assert len(device.chimera.view) == n - 1

    def test_device_names_are_prefixed(self, federation):
        names = [d.name for home in federation.homes for d in home.devices]
        assert len(set(names)) == len(names)
        assert any(n.startswith("h0-") for n in names)
        assert any(n.startswith("h2-") for n in names)

    def test_homes_share_one_s3(self, federation):
        s3s = {id(home.s3) for home in federation.homes}
        assert len(s3s) == 1

    def test_homes_share_one_clock(self, federation):
        sims = {id(home.sim) for home in federation.homes}
        assert len(sims) == 1

    def test_build_validates(self):
        with pytest.raises(ValueError):
            Federation.build(n_homes=0)

    def test_gateways_subscribed(self, federation):
        assert len(federation.directory.subscribers) == 3


class TestPublishFetch:
    def test_publish_and_fetch_across_homes(self, federation):
        home0 = federation.homes[0]
        device = home0.devices[1]
        home0.run(
            device.client.store_file("street-cam.jpg", 2.0, access="public")
        )
        entry = federation.run(federation.publish(0, "street-cam.jpg"))
        assert entry["home"] == "home0"
        assert entry["url"].startswith("s3://")
        size_mb = federation.run(federation.fetch_published(1, "street-cam.jpg"))
        assert size_mb == pytest.approx(2.0)

    def test_private_objects_cannot_be_published(self, federation):
        home0 = federation.homes[0]
        home0.run(
            home0.devices[0].client.store_file(
                "fed-diary.txt", 0.1, access="private"
            )
        )
        with pytest.raises(AccessDeniedError):
            federation.run(federation.publish(0, "fed-diary.txt"))

    def test_home_objects_cannot_be_published(self, federation):
        home0 = federation.homes[0]
        home0.run(
            home0.devices[0].client.store_file("fed-home.avi", 1.0)
        )
        with pytest.raises(AccessDeniedError):
            federation.run(federation.publish(0, "fed-home.avi"))

    def test_lookup_unknown_object_fails(self, federation):
        with pytest.raises(RemoteError):
            federation.run(federation.fetch_published(1, "never-published"))

    def test_cloud_resident_object_publishes_without_reupload(self, federation):
        from repro import Placement, PlacementTarget, StorePolicy

        home2 = federation.homes[2]
        device = home2.devices[0]
        device.vstore.store_policy = StorePolicy(
            default=Placement(PlacementTarget.REMOTE_CLOUD)
        )
        home2.run(
            device.client.store_file("fed-cloudy.bin", 3.0, access="public")
        )
        entry = federation.run(federation.publish(2, "fed-cloudy.bin"))
        assert entry["url"].startswith("s3://")
        size_mb = federation.run(federation.fetch_published(0, "fed-cloudy.bin"))
        assert size_mb == pytest.approx(3.0)


class TestAlerts:
    def test_alert_reaches_other_homes_not_sender(self):
        fed = Federation.build(n_homes=3, seed=78, devices_per_home=2)
        fed.start()
        received = []
        fed.on_alert.append(lambda idx, body: received.append((idx, body["kind"])))
        fed.run(fed.broadcast_alert(0, {"kind": "intruder", "zone": "backyard"}))
        fed.sim.run()  # drain relays
        indices = {idx for idx, _ in received}
        assert indices == {1, 2}
        assert all(kind == "intruder" for _, kind in received)

    def test_alert_metadata_carries_origin(self):
        fed = Federation.build(n_homes=2, seed=79, devices_per_home=2)
        fed.start()
        bodies = []
        fed.on_alert.append(lambda idx, body: bodies.append(body))
        fed.run(fed.broadcast_alert(1, {"kind": "smoke"}))
        fed.sim.run()
        assert bodies and bodies[0]["from_home"] == "home1"

    def test_alert_counts(self):
        fed = Federation.build(n_homes=2, seed=80, devices_per_home=2)
        fed.start()
        fed.run(fed.broadcast_alert(0, {"kind": "test"}))
        fed.sim.run()
        assert fed.directory.alerts_relayed == 1
