"""Wire-format compatibility tests for striped object metadata.

The chunk/codec fields follow the same rule as ``replicas``: present on
the wire only when the object is striped, so replication-era metadata
(and the message sizes derived from it) are untouched, and a
replication-era peer's records decode unchanged on a striping-aware
node (old <-> new mixed-version exchange).
"""

import pytest

from repro.vstore import ObjectMeta
from repro.vstore.objects import LOCATION_REMOTE


def striped_meta(**overrides):
    fields = dict(
        name="clip.avi",
        size_mb=24.0,
        location="desktop",
        bin_name="",
        stripe_k=4,
        stripe_m=2,
        chunk_nodes=[
            "netbook0",
            "netbook1",
            "netbook2",
            "netbook3",
            "desktop",
            LOCATION_REMOTE,
        ],
    )
    fields.update(overrides)
    return ObjectMeta(**fields)


class TestStripedWireRoundTrip:
    def test_round_trip_preserves_stripe_fields(self):
        meta = striped_meta()
        restored = ObjectMeta.from_wire(meta.wire())
        assert restored == meta
        assert restored.stripe_k == 4
        assert restored.stripe_m == 2
        assert restored.chunk_nodes == meta.chunk_nodes

    def test_round_trip_with_cloud_backstop_url(self):
        meta = striped_meta(url="s3://bucket/clip.avi")
        assert ObjectMeta.from_wire(meta.wire()) == meta

    def test_is_striped(self):
        assert striped_meta().is_striped
        assert not ObjectMeta(name="x", size_mb=1.0).is_striped


class TestMixedVersionExchange:
    def test_legacy_wire_decodes_as_full_replication_metadata(self):
        # A record published by a pre-striping build carries none of the
        # chunk/codec keys; it must decode exactly as before.
        legacy = {
            "name": "old.bin",
            "size_mb": 8.0,
            "object_type": "bin",
            "location": "node1",
            "bin_name": "voluntary",
            "url": None,
            "tags": [],
            "access": "home",
            "created_by": "node0",
            "created_at": 1.0,
            "version": 1,
        }
        meta = ObjectMeta.from_wire(dict(legacy))
        assert not meta.is_striped
        assert meta.stripe_k == 0
        assert meta.stripe_m == 0
        assert meta.chunk_nodes == []

    def test_legacy_wire_with_replicas_still_decodes(self):
        legacy = {
            "name": "old.bin",
            "size_mb": 8.0,
            "location": "node1",
            "bin_name": "voluntary",
            "replicas": ["node2", "node3"],
        }
        meta = ObjectMeta.from_wire(dict(legacy))
        assert meta.replicas == ["node2", "node3"]
        assert not meta.is_striped

    def test_unstriped_meta_puts_no_stripe_keys_on_wire(self):
        # Message sizes derive from the serialized value; always-present
        # stripe keys would change simulated timings for striping-off
        # deployments.
        wire = ObjectMeta(name="x", size_mb=1.0, location="node1").wire()
        assert "stripe_k" not in wire
        assert "stripe_m" not in wire
        assert "chunk_nodes" not in wire

    def test_striped_meta_puts_all_stripe_keys_on_wire(self):
        wire = striped_meta().wire()
        assert wire["stripe_k"] == 4
        assert wire["stripe_m"] == 2
        assert len(wire["chunk_nodes"]) == 6


class TestStripedValidation:
    def test_chunk_nodes_must_cover_full_width(self):
        with pytest.raises(ValueError):
            striped_meta(chunk_nodes=["a", "b", "c"])

    def test_chunk_nodes_without_codec_rejected(self):
        with pytest.raises(ValueError):
            ObjectMeta(name="x", size_mb=8.0, chunk_nodes=["a"])

    def test_codec_without_chunk_nodes_rejected(self):
        with pytest.raises(ValueError):
            ObjectMeta(name="x", size_mb=8.0, stripe_k=4, stripe_m=2)

    def test_negative_codec_params_rejected(self):
        with pytest.raises(ValueError):
            ObjectMeta(name="x", size_mb=8.0, stripe_k=-1)


class TestFromWireOwnsItsLists:
    def test_editing_the_meta_leaves_the_wire_value_alone(self):
        """The wire dict may be the value a KV record and its journal
        hold: editing the decoded meta must not reach back into it."""
        wire = striped_meta(replicas=["n1"], lost_replicas=["n2"]).wire()
        before = {k: list(v) if isinstance(v, list) else v for k, v in wire.items()}
        meta = ObjectMeta.from_wire(wire)
        meta.replicas.append("n3")
        meta.lost_replicas.remove("n2")
        meta.chunk_nodes[0] = "n4"
        meta.tags.append("edited")
        assert wire == before
