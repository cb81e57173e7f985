"""Integration tests for erasure-coded striping across a deployment.

Covers the striped store (distinct holders, storage accounting, cloud
spill), the first-k-of-(k+m) scatter-gather fetch, FetchRange, delete,
process over a striped argument, and the feature-off guarantee.
"""

import pytest

from repro.cluster import (
    Cloud4Home,
    ClusterConfig,
    DeviceConfig,
    LanConfig,
    StripingConfig,
)
from repro.vstore.node import object_key
from repro.vstore.objects import LOCATION_REMOTE, ObjectMeta
from repro.vstore.striping import chunk_name


def striped_config(seed, nodes=8, **overrides):
    defaults = dict(
        devices=[DeviceConfig(name=f"node{i}") for i in range(nodes)],
        seed=seed,
        striping=True,
        replication_factor=3,
        with_ec2=False,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def get_meta(c4h, device, name):
    value = c4h.run(device.kv.get(object_key(name)))
    return ObjectMeta.from_wire(dict(value))


class TestStripedStore:
    def test_store_scatters_chunks_across_distinct_nodes(self):
        c4h = Cloud4Home(striped_config(901))
        c4h.start()
        writer = c4h.devices[0]
        c4h.run(writer.client.store_file("movie.mp4", 24.0))
        meta = get_meta(c4h, writer, "movie.mp4")
        assert meta.is_striped
        assert meta.stripe_k == 4
        assert meta.stripe_m == 2
        assert len(meta.chunk_nodes) == 6
        # Distinct holders: one failure must cost exactly one chunk.
        assert len(set(meta.chunk_nodes)) == 6
        for index, holder in enumerate(meta.chunk_nodes):
            assert c4h.device(holder).vstore.holds(chunk_name("movie.mp4", index))

    def test_storage_overhead_is_half_of_replication(self):
        c4h = Cloud4Home(striped_config(902))
        c4h.start()
        writer = c4h.devices[0]
        c4h.run(writer.client.store_file("movie.mp4", 24.0))
        stored_mb = sum(
            size
            for d in c4h.devices
            for bin_name in ("mandatory", "voluntary")
            for name, size in d.vstore.inventory()[bin_name].items()
            if name.startswith("movie.mp4")
        )
        # (4+2)/4 = 1.5x the payload; 2-replica replication stores 3.0x.
        assert stored_mb == pytest.approx(24.0 * 1.5)
        # The whole payload is stored nowhere.
        assert not any(d.vstore.holds("movie.mp4") for d in c4h.devices)

    def test_small_objects_keep_the_replication_path(self):
        c4h = Cloud4Home(striped_config(903))
        c4h.start()
        writer = c4h.devices[0]
        c4h.run(writer.client.store_file("note.txt", 0.5))
        meta = get_meta(c4h, writer, "note.txt")
        assert not meta.is_striped
        assert meta.bin_name != ""

    def test_chunks_spill_to_cloud_when_home_is_short(self):
        # 4 nodes cannot give 6 chunks distinct homes: 2 spill to S3.
        c4h = Cloud4Home(striped_config(904, nodes=4))
        c4h.start()
        writer = c4h.devices[0]
        c4h.run(writer.client.store_file("big.bin", 24.0))
        meta = get_meta(c4h, writer, "big.bin")
        assert meta.chunk_nodes.count(LOCATION_REMOTE) == 2
        home = [h for h in meta.chunk_nodes if h != LOCATION_REMOTE]
        assert len(set(home)) == 4
        for index, holder in enumerate(meta.chunk_nodes):
            if holder == LOCATION_REMOTE:
                assert chunk_name("big.bin", index) in c4h.s3.objects

    def test_striping_off_stores_no_chunks(self):
        c4h = Cloud4Home(striped_config(905, striping=False))
        c4h.start()
        writer = c4h.devices[0]
        c4h.run(writer.client.store_file("movie.mp4", 24.0))
        meta = get_meta(c4h, writer, "movie.mp4")
        assert not meta.is_striped
        inventory = c4h.object_inventory()
        assert not any("#~" in name for name in inventory)


class TestStripedFetch:
    def test_fetch_reassembles_from_chunks(self):
        c4h = Cloud4Home(striped_config(911))
        c4h.start()
        writer, reader = c4h.devices[0], c4h.devices[5]
        c4h.run(writer.client.store_file("movie.mp4", 24.0))
        result = c4h.run(reader.client.fetch_object("movie.mp4"))
        assert result.served_from in ("stripe", "stripe-degraded")
        assert result.total_s > 0

    def test_parallel_chunks_beat_whole_payload_on_fast_lan(self):
        # On a GbE LAN the 8 MB/s per-flow cap binds, so k parallel
        # chunk pulls finish well ahead of one whole-payload stream.
        lan = LanConfig(bandwidth_mbps=1000.0)
        base = dict(nodes=8, lan=lan)
        on = Cloud4Home(striped_config(912, **base))
        on.start()
        on.run(on.devices[0].client.store_file("movie.mp4", 32.0))
        striped = on.run(on.devices[5].client.fetch_object("movie.mp4"))

        off = Cloud4Home(striped_config(912, striping=False, **base))
        off.start()
        off.run(off.devices[0].client.store_file("movie.mp4", 32.0))
        whole = off.run(off.devices[5].client.fetch_object("movie.mp4"))

        assert striped.inter_node_s < whole.inter_node_s / 2

    def test_fetch_range_moves_only_covering_chunks(self):
        c4h = Cloud4Home(striped_config(913))
        c4h.start()
        writer, reader = c4h.devices[0], c4h.devices[5]
        c4h.run(writer.client.store_file("movie.mp4", 32.0))
        full = c4h.run(reader.client.fetch_object("movie.mp4"))
        ranged = c4h.run(c4h.devices[6].client.fetch_range("movie.mp4", 24.0, 4.0))
        assert ranged.served_from == "stripe-range"
        assert ranged.total_s < full.total_s
        assert (
            c4h.metrics.counter("stripe.fetch.range", node="node6").value == 1
        )

    def test_fetch_range_validates_bounds(self):
        c4h = Cloud4Home(striped_config(914))
        c4h.start()
        writer = c4h.devices[0]
        c4h.run(writer.client.store_file("movie.mp4", 24.0))

        def attempt():
            with pytest.raises(ValueError):
                yield from c4h.devices[1].client.fetch_range("movie.mp4", 20.0, 8.0)

        c4h.run(attempt())

    def test_fetch_range_on_unstriped_object_falls_back(self, monkeypatch):
        c4h = Cloud4Home(striped_config(915))
        c4h.start()
        writer, reader = c4h.devices[0], c4h.devices[2]
        c4h.run(writer.client.store_file("note.txt", 0.5))
        keys = []
        kv_get = reader.vstore.kv.get

        def counting_get(key, *args, **kwargs):
            keys.append(key)
            return kv_get(key, *args, **kwargs)

        monkeypatch.setattr(reader.vstore.kv, "get", counting_get)
        result = c4h.run(reader.client.fetch_range("note.txt", 0.0, 0.25))
        assert result.served_from not in ("stripe-range", "stripe")
        # One metadata lookup: the whole-object pull reuses it.
        assert keys.count(object_key("note.txt")) == 1


class TestStripedDeleteAndProcess:
    def test_delete_removes_every_chunk(self):
        c4h = Cloud4Home(striped_config(921, nodes=4))
        c4h.start()
        writer = c4h.devices[0]
        c4h.run(writer.client.store_file("movie.mp4", 24.0))
        c4h.run(c4h.devices[2].client.delete_object("movie.mp4"))
        inventory = c4h.object_inventory()
        assert not any("movie.mp4" in name for name in inventory)
        assert not any("movie.mp4" in key for key in c4h.s3.objects)

    def test_process_reassembles_striped_argument(self):
        from repro.services import ComputeModel, Service

        c4h = Cloud4Home(striped_config(922))
        c4h.start()
        c4h.deploy_service(
            lambda: Service("thumb", ComputeModel(cycles_per_mb=1e8), output_ratio=0.05)
        )
        writer = c4h.devices[0]
        c4h.run(writer.client.store_file("movie.mp4", 24.0))
        result = c4h.run(
            c4h.devices[3].client.process("movie.mp4", "thumb#v1")
        )
        assert result.output_mb == pytest.approx(24.0 * 0.05)
