"""Integration tests for VStore++ store/fetch/process on a full cluster."""

import pytest

from repro.cluster import Cloud4Home, ClusterConfig, DeviceConfig
from repro.services import FaceDetection, MediaConversion, surveillance_pipeline
from repro.vstore import (
    ObjectExistsError,
    ObjectNotFoundError,
    Placement,
    PlacementTarget,
    ServiceUnavailableError,
    StorePolicy,
    size_rule,
    type_rule,
)


@pytest.fixture(scope="module")
def cluster():
    c4h = Cloud4Home(ClusterConfig(seed=11))
    c4h.start(monitors=False)
    return c4h


def fresh_cluster(**kwargs):
    c4h = Cloud4Home(ClusterConfig(seed=5, **kwargs))
    c4h.start(monitors=False)
    return c4h


class TestStoreFetch:
    def test_store_defaults_to_local_mandatory(self, cluster):
        d = cluster.devices[0]
        result = cluster.run(d.client.store_file("t1-local.jpg", 2.0))
        assert result.placement.target is PlacementTarget.LOCAL_MANDATORY
        assert "t1-local.jpg" in d.vstore.mandatory
        assert result.meta.location == d.name

    def test_create_duplicate_rejected(self, cluster):
        d = cluster.devices[0]
        cluster.run(d.client.create_object("t1-dup.jpg", 1.0))
        with pytest.raises(ObjectExistsError):
            cluster.run(d.client.create_object("t1-dup.jpg", 1.0))

    def test_store_unknown_object_rejected(self, cluster):
        d = cluster.devices[0]
        with pytest.raises(ObjectNotFoundError):
            cluster.run(d.client.store_object("never-created"))

    def test_fetch_from_peer_reports_costs(self, cluster):
        d0, d2 = cluster.devices[0], cluster.devices[2]
        cluster.run(d0.client.store_file("t1-shared.avi", 10.0))
        fetch = cluster.run(d2.client.fetch_object("t1-shared.avi"))
        assert fetch.served_from == d0.name
        assert fetch.inter_node_s > 0
        assert fetch.inter_domain_s > 0
        assert fetch.dht_lookup_s > 0
        assert fetch.total_s >= (
            fetch.inter_node_s + fetch.inter_domain_s + fetch.dht_lookup_s
        )

    def test_fetch_local_is_fast(self, cluster):
        d0 = cluster.devices[0]
        cluster.run(d0.client.store_file("t1-mine.jpg", 1.0))
        fetch = cluster.run(d0.client.fetch_object("t1-mine.jpg"))
        assert fetch.served_from == "local"
        assert fetch.inter_node_s == 0.0

    def test_fetch_missing_raises(self, cluster):
        with pytest.raises(ObjectNotFoundError):
            cluster.run(cluster.devices[1].client.fetch_object("ghost.bin"))

    def test_nonblocking_store_returns_before_placement(self):
        c4h = fresh_cluster()
        d = c4h.devices[0]
        c4h.run(d.client.create_object("t2-nb.avi", 20.0))
        result = c4h.run(d.client.store_object("t2-nb.avi", blocking=False))
        assert not result.blocking
        c4h.sim.run()  # let the background placement finish
        fetched = c4h.run(d.client.fetch_object("t2-nb.avi"))
        assert fetched.meta.name == "t2-nb.avi"

    def test_blocking_store_slower_than_nonblocking(self):
        c4h = fresh_cluster()
        d = c4h.devices[0]
        t0 = c4h.sim.now
        c4h.run(d.client.store_file("t2-block.avi", 5.0, blocking=True))
        blocking_time = c4h.sim.now - t0
        t0 = c4h.sim.now
        c4h.run(d.client.store_file("t2-noblock.avi", 5.0, blocking=False))
        nonblocking_time = c4h.sim.now - t0
        c4h.sim.run()
        assert nonblocking_time < blocking_time

    def test_delete_object(self, cluster):
        d0, d1 = cluster.devices[0], cluster.devices[1]
        cluster.run(d0.client.store_file("t1-todelete.jpg", 1.0))
        cluster.run(d1.client.delete_object("t1-todelete.jpg"))
        with pytest.raises(ObjectNotFoundError):
            cluster.run(d1.client.fetch_object("t1-todelete.jpg"))
        assert "t1-todelete.jpg" not in d0.vstore.mandatory


class TestPlacementPolicies:
    def test_remote_cloud_policy(self):
        c4h = fresh_cluster()
        d = c4h.devices[0]
        d.vstore.store_policy = StorePolicy(
            [size_rule(Placement(PlacementTarget.REMOTE_CLOUD), min_mb=10.0)]
        )
        result = c4h.run(d.client.store_file("big.iso", 15.0))
        assert result.meta.is_remote
        assert result.meta.url.startswith("s3://")
        assert c4h.s3.contains("big.iso")
        fetch = c4h.run(c4h.devices[3].client.fetch_object("big.iso"))
        assert fetch.served_from == "remote-cloud"
        assert fetch.remote_cloud_s > 0

    def test_privacy_policy_mp3_stays_home(self):
        c4h = fresh_cluster()
        d = c4h.devices[0]
        d.vstore.store_policy = StorePolicy(
            [type_rule(Placement(PlacementTarget.LOCAL_MANDATORY), ["mp3"])],
            default=Placement(PlacementTarget.REMOTE_CLOUD),
        )
        r_song = c4h.run(d.client.store_file("song.mp3", 4.0))
        r_movie = c4h.run(d.client.store_file("movie.avi", 4.0))
        assert r_song.meta.location == d.name
        assert r_movie.meta.is_remote

    def test_mandatory_overflow_spills_to_voluntary_peer(self):
        c4h = Cloud4Home(
            ClusterConfig(
                seed=6,
                devices=[
                    DeviceConfig(name="tiny", mandatory_mb=5.0, voluntary_mb=5.0),
                    DeviceConfig(name="roomy", mandatory_mb=1000.0, voluntary_mb=1000.0),
                ],
            )
        )
        c4h.start(monitors=False)
        tiny = c4h.device("tiny")
        result = c4h.run(tiny.client.store_file("spill.avi", 50.0))
        assert result.meta.location == "roomy"
        assert result.meta.bin_name == "voluntary"
        assert "spill.avi" in c4h.device("roomy").vstore.voluntary

    def test_overflow_falls_back_to_cloud_when_home_is_full(self):
        c4h = Cloud4Home(
            ClusterConfig(
                seed=7,
                devices=[
                    DeviceConfig(name="a", mandatory_mb=5.0, voluntary_mb=5.0),
                    DeviceConfig(name="b", mandatory_mb=5.0, voluntary_mb=5.0),
                ],
            )
        )
        c4h.start(monitors=False)
        result = c4h.run(c4h.device("a").client.store_file("huge.iso", 100.0))
        assert result.meta.is_remote

    def test_named_node_placement(self):
        c4h = fresh_cluster()
        d = c4h.devices[0]
        d.vstore.store_policy = StorePolicy(
            default=Placement(PlacementTarget.NAMED_NODE, node="desktop")
        )
        result = c4h.run(d.client.store_file("pinned.bin", 3.0))
        assert result.meta.location == "desktop"


class TestProcess:
    def test_process_unknown_service_raises(self, cluster):
        d = cluster.devices[0]
        cluster.run(d.client.store_file("t1-img.jpg", 0.5))
        with pytest.raises(ServiceUnavailableError):
            cluster.run(d.client.process("t1-img.jpg", "no-such#v1"))

    def test_process_runs_on_best_node(self):
        c4h = fresh_cluster()
        c4h.deploy_service(lambda: MediaConversion(), nodes=["desktop", "netbook1"])
        owner = c4h.device("netbook1")
        c4h.run(owner.client.store_file("movie.avi", 30.0))
        result = c4h.run(owner.client.process("movie.avi", "media-convert#v1"))
        # The idle desktop beats the Atom owner despite data movement.
        assert result.executed_on == "desktop"
        assert result.move_s > 0
        assert result.estimates  # the decision really compared targets

    def test_process_output_size(self):
        c4h = fresh_cluster()
        c4h.deploy_service(lambda: MediaConversion(), nodes=["desktop"])
        d = c4h.device("netbook0")
        c4h.run(d.client.store_file("clip.avi", 10.0))
        result = c4h.run(d.client.process("clip.avi", "media-convert#v1"))
        assert result.output_mb == pytest.approx(3.5)

    def test_fetch_process_prefers_capable_requester(self):
        c4h = fresh_cluster()
        c4h.deploy_service(lambda: FaceDetection(), nodes=["desktop", "netbook2"])
        owner = c4h.device("netbook0")
        c4h.run(owner.client.store_file("cam.jpg", 0.25))
        requester = c4h.device("desktop")
        result = c4h.run(requester.client.fetch_process("cam.jpg", "face-detect#v1"))
        assert result.executed_on == "desktop"

    def test_fetch_process_falls_back_to_decision(self):
        c4h = fresh_cluster()
        c4h.deploy_service(lambda: FaceDetection(), nodes=["desktop"])
        owner = c4h.device("netbook0")  # does not host the service
        c4h.run(owner.client.store_file("cam2.jpg", 0.25))
        result = c4h.run(owner.client.fetch_process("cam2.jpg", "face-detect#v1"))
        assert result.executed_on == "desktop"

    def test_surveillance_pipeline_runs(self):
        c4h = fresh_cluster()
        for factory in (
            lambda: surveillance_pipeline()[0],
            lambda: surveillance_pipeline()[1],
        ):
            c4h.deploy_service(factory, nodes=["desktop"])
        d = c4h.device("netbook0")
        c4h.run(d.client.store_file("frame.jpg", 1.0))
        fdet = c4h.run(d.client.process("frame.jpg", "face-detect#v1"))
        frec = c4h.run(d.client.process("frame.jpg", "face-recognize#v1"))
        assert fdet.total_s > 0 and frec.total_s > 0

    def test_process_never_runs_on_a_payload_that_is_gone(self):
        # Metadata outlives the payload when a node loses its bins
        # without a durable backend: process must not "serve" the
        # missing bytes locally, exactly like fetch.
        c4h = fresh_cluster()
        c4h.deploy_service(lambda: FaceDetection(), nodes=["netbook0"])
        d = c4h.device("netbook0")
        c4h.run(d.client.store_file("cam.jpg", 0.25))
        d.vstore.lose_memory()
        with pytest.raises(ObjectNotFoundError):
            c4h.run(d.vstore.fetch_object("cam.jpg"))
        with pytest.raises(ObjectNotFoundError):
            c4h.run(d.vstore.process("cam.jpg", "face-detect#v1"))

    def test_process_on_ec2_when_best(self):
        # Make every home node tiny so EC2's big instance wins for a
        # compute-heavy service on a large object.
        devices = [
            DeviceConfig(
                name=f"weak{i}",
                profile_name="atom-s1",
                guest_mem_mb=128.0,
                guest_vcpus=1,
            )
            for i in range(2)
        ]
        c4h = Cloud4Home(ClusterConfig(seed=9, devices=devices))
        c4h.start(monitors=False)
        c4h.deploy_service(lambda: MediaConversion(), nodes=["weak0"])
        d = c4h.device("weak0")
        c4h.run(d.client.store_file("huge.avi", 60.0))
        result = c4h.run(d.client.process("huge.avi", "media-convert#v1"))
        assert result.executed_on == "ec2-xl-0"


def _media_scenario():
    c4h = fresh_cluster()
    c4h.deploy_service(lambda: MediaConversion(), nodes=["desktop", "netbook1"])
    owner = c4h.device("netbook1")
    c4h.run(owner.client.store_file("movie.avi", 30.0))
    return c4h, owner, "movie.avi", "media-convert#v1"


def _fig7_scenario(target):
    from benchmarks.test_fig7_service_placement import build_cluster, deploy_target

    def build():
        c4h = build_cluster(1104)
        deploy_target(c4h, target)
        s1 = c4h.device("S1")
        c4h.run(s1.client.store_file("frame-1.0.jpg", 1.0))
        return c4h, s1, "frame-1.0.jpg", "face-detect#v1"

    return build


#: ``process`` results pinned before it became a one-step pipeline:
#: (target, total_s, move_s, execute_s, estimates as
#: (node, locate_s, move_s, execute_s, setup_s)).
PINNED_PROCESS = {
    "media-conversion": (
        _media_scenario,
        "desktop",
        19.34850171046031,
        4.129819301835511,
        13.877717391304344,
        [
            ("desktop", 0.05, 2.6351648167539268, 13.097826086956522, 0.125),
            ("netbook1", 0.0, 0.0, 72.59036144578313, 0.125),
            ("@ec2", 0.05, 55.92405333333333, 10.387931034482758, 0.125),
        ],
    ),
    "fig7-S1-local": (
        _fig7_scenario("S1"),
        "S1",
        0.6839914350423157,
        0.01249999999999929,
        0.6461538461538474,
        [("S1", 0.0, 0.0, 0.6153846153846154, 0.0)],
    ),
    "fig7-S2-remote": (
        _fig7_scenario("S2"),
        "S2",
        0.40358469297670396,
        0.14053002919917645,
        0.21666666666666856,
        [("S2", 0.05, 0.0878388272251309, 0.2777777777777778, 0.0)],
    ),
    "fig7-S3-ec2": (
        _fig7_scenario("S3"),
        "ec2-xl-0",
        3.0498284507376567,
        2.119516567180444,
        0.17241379310345195,
        [("@ec2", 0.05, 1.864135111111111, 0.6896551724137931, 0.1)],
    ),
}


@pytest.mark.parametrize("scenario", sorted(PINNED_PROCESS))
@pytest.mark.parametrize("entry", ["process", "process_pipeline"])
def test_process_is_a_one_step_pipeline(scenario, entry):
    build, target, total_s, move_s, execute_s, estimates = PINNED_PROCESS[scenario]
    c4h, device, name, service = build()
    if entry == "process":
        result = c4h.run(device.vstore.process(name, service))
    else:
        result = c4h.run(device.vstore.process_pipeline(name, [service]))
    assert result.executed_on == target
    assert result.service == service
    assert (result.total_s, result.move_s, result.execute_s) == (
        total_s,
        move_s,
        execute_s,
    )
    assert [
        (e.node, e.locate_s, e.move_s, e.execute_s, e.setup_s)
        for e in result.estimates
    ] == estimates
