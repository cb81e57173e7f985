"""Unit tests for the record/value model."""

import pytest

from repro.kvstore import OverwritePolicy, Record, VersionedValue, payload_size


class TestRecord:
    def test_empty_record_has_no_latest(self):
        record = Record(key_hex="ab" * 5)
        with pytest.raises(LookupError):
            record.latest

    def test_overwrite_replaces(self):
        record = Record(key_hex="ab" * 5)
        record.apply("v1", OverwritePolicy.OVERWRITE, now=1.0)
        record.apply("v2", OverwritePolicy.OVERWRITE, now=2.0)
        assert len(record.versions) == 1
        assert record.latest.value == "v2"
        assert record.version == 2  # version numbers keep increasing

    def test_chain_appends(self):
        record = Record(key_hex="ab" * 5)
        record.apply("v1", OverwritePolicy.CHAIN, now=1.0)
        record.apply("v2", OverwritePolicy.CHAIN, now=2.0)
        assert [v.value for v in record.versions] == ["v1", "v2"]
        assert record.latest.value == "v2"

    def test_wire_round_trip(self):
        record = Record(key_hex="ab" * 5, name="camera.jpg")
        record.apply({"location": "node01"}, OverwritePolicy.OVERWRITE, now=3.5)
        restored = Record.from_wire(record.wire())
        assert restored.key_hex == record.key_hex
        assert restored.name == "camera.jpg"
        assert restored.latest.value == {"location": "node01"}
        assert restored.latest.updated_at == 3.5

    def test_copy_is_independent(self):
        record = Record(key_hex="ab" * 5)
        record.apply("v1", OverwritePolicy.OVERWRITE, now=1.0)
        clone = record.copy()
        clone.apply("v2", OverwritePolicy.OVERWRITE, now=2.0)
        assert record.latest.value == "v1"
        assert clone.latest.value == "v2"


class TestEncodedLength:
    """A record measures its encoding once per version."""

    def make(self, value="v1"):
        record = Record(key_hex="ab" * 5, name="cam.jpg")
        record.apply(value, OverwritePolicy.OVERWRITE, now=1.0)
        return record

    def test_matches_the_wire_payload_size(self):
        record = self.make({"location": "node01", "tags": ["a"]})
        assert record.wire_size() == payload_size(record.wire())
        assert record.encoded_len() == payload_size(record.wire()) - 64

    @pytest.mark.parametrize("policy", list(OverwritePolicy))
    def test_apply_clears_the_cached_length(self, policy):
        record = self.make()
        stale = record.encoded_len()
        record.apply("a much longer second value", policy, now=2.0)
        assert record.encoded_len() != stale
        assert record.wire_size() == payload_size(record.wire())

    def test_copy_never_carries_a_stale_length(self):
        record = self.make()
        record.encoded_len()
        clone = record.copy()
        assert clone.wire_size() == payload_size(clone.wire())
        clone.apply("a much longer second value", OverwritePolicy.OVERWRITE, now=2.0)
        assert clone.wire_size() == payload_size(clone.wire())
        assert record.wire_size() == payload_size(record.wire())

    def test_from_wire_takes_the_senders_size_or_measures(self):
        record = self.make()
        wire = record.wire()
        assert Record.from_wire(wire)._encoded_len is None
        received = Record.from_wire(wire, record.wire_size())
        assert received.wire_size() == payload_size(received.wire())
        received.apply("a much longer second value", OverwritePolicy.CHAIN, now=2.0)
        assert received.wire_size() == payload_size(received.wire())


class TestKeptWire:
    """A journaled record builds its wire form once per version."""

    def make(self):
        record = Record(key_hex="ab" * 5, name="cam.jpg")
        record.apply("v1", OverwritePolicy.OVERWRITE, now=1.0)
        return record

    def test_a_record_keeps_no_wire_form_unless_asked(self):
        record = self.make()
        assert record.wire() is not record.wire()
        assert record.wire() == record.wire()

    def test_kept_wire_is_shared_until_the_next_version(self):
        record = self.make()
        kept = record.keep_wire()
        assert record.wire() is kept and record.keep_wire() is kept
        record.apply("v2", OverwritePolicy.CHAIN, now=2.0)
        assert record.wire() is not kept
        assert [v["value"] for v in record.wire()["versions"]] == ["v1", "v2"]
        assert [v["value"] for v in kept["versions"]] == ["v1"]

    def test_copy_keeps_none(self):
        record = self.make()
        kept = record.keep_wire()
        assert record.copy().wire() is not kept

    def test_from_wire_keeps_the_received_form_when_asked(self):
        wire = self.make().wire()
        assert Record.from_wire(wire).wire() is not wire
        received = Record.from_wire(wire, keep=True)
        assert received.wire() is wire
        received.apply("v2", OverwritePolicy.OVERWRITE, now=2.0)
        assert received.wire()["versions"][0]["value"] == "v2"
        assert wire["versions"][0]["value"] == "v1"


class TestVersionedValue:
    def test_wire_round_trip(self):
        v = VersionedValue({"a": 1}, 3, 7.25)
        assert VersionedValue.from_wire(v.wire()) == v


class TestPayloadSize:
    def test_grows_with_content(self):
        small = payload_size({"a": 1})
        large = payload_size({"a": "x" * 1000})
        assert large > small

    def test_handles_unserializable(self):
        size = payload_size(object())
        assert size > 0
