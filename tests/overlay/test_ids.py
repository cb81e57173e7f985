"""Unit and property tests for 40-bit overlay identifiers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.overlay import ID_DIGITS, ID_SPACE, NodeId

ids = st.integers(min_value=0, max_value=ID_SPACE - 1).map(NodeId)


class TestConstruction:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            NodeId(-1)
        with pytest.raises(ValueError):
            NodeId(ID_SPACE)

    def test_from_name_is_deterministic(self):
        assert NodeId.from_name("camera.jpg") == NodeId.from_name("camera.jpg")

    def test_from_name_spreads(self):
        generated = {NodeId.from_name(f"object-{i}").value for i in range(200)}
        assert len(generated) == 200

    def test_hex_round_trip(self):
        nid = NodeId.from_name("node-a")
        assert NodeId.from_hex(nid.hex) == nid

    @given(st.text(max_size=24))
    def test_name_and_its_hex_share_one_object(self, name):
        nid = NodeId.from_name(name)
        assert NodeId.from_hex(nid.hex) is nid
        assert NodeId.from_name(name) is nid

    def test_from_hex_length_checked(self):
        with pytest.raises(ValueError):
            NodeId.from_hex("abc")

    def test_immutable(self):
        nid = NodeId(5)
        with pytest.raises(AttributeError):
            nid.value = 6


class TestDigits:
    def test_hex_has_ten_digits(self):
        assert len(NodeId(0).hex) == ID_DIGITS
        assert len(NodeId(ID_SPACE - 1).hex) == ID_DIGITS

    def test_digit_matches_hex(self):
        nid = NodeId.from_hex("0123456789")
        assert [nid.digit(i) for i in range(10)] == list(range(10))

    def test_digit_bounds(self):
        nid = NodeId(0)
        with pytest.raises(IndexError):
            nid.digit(10)
        with pytest.raises(IndexError):
            nid.digit(-1)

    @given(ids)
    def test_digits_agree_with_hex(self, a):
        expected = [int(c, 16) for c in a.hex]
        assert [a.digit(i) for i in range(ID_DIGITS)] == expected
        assert list(a.digits()) == expected

    def test_shared_prefix_len(self):
        a = NodeId.from_hex("abcdef0123")
        assert a.shared_prefix_len(NodeId.from_hex("abcdef0123")) == 10
        assert a.shared_prefix_len(NodeId.from_hex("abcdefff23")) == 6
        assert a.shared_prefix_len(NodeId.from_hex("bbcdef0123")) == 0


class TestDistances:
    def test_clockwise_distance_wraps(self):
        a, b = NodeId(ID_SPACE - 1), NodeId(1)
        assert a.clockwise_distance(b) == 2
        assert b.clockwise_distance(a) == ID_SPACE - 2

    def test_distance_is_symmetric_min(self):
        a, b = NodeId(10), NodeId(ID_SPACE - 10)
        assert a.distance(b) == 20
        assert b.distance(a) == 20

    def test_between_arc(self):
        low, high = NodeId(100), NodeId(200)
        assert NodeId(150).between(low, high)
        assert NodeId(200).between(low, high)
        assert not NodeId(100).between(low, high)
        assert not NodeId(250).between(low, high)

    def test_between_wrapping_arc(self):
        low, high = NodeId(ID_SPACE - 100), NodeId(100)
        assert NodeId(0).between(low, high)
        assert not NodeId(500).between(low, high)

    def test_between_degenerate_full_ring(self):
        anchor = NodeId(42)
        assert NodeId(7).between(anchor, anchor)


class TestProperties:
    @given(ids, ids)
    def test_distance_symmetry(self, a, b):
        assert a.distance(b) == b.distance(a)

    @given(ids, ids)
    def test_distance_bounded_by_half_ring(self, a, b):
        assert 0 <= a.distance(b) <= ID_SPACE // 2

    @given(ids)
    def test_distance_to_self_zero(self, a):
        assert a.distance(a) == 0

    @given(ids, ids)
    def test_clockwise_distances_complement(self, a, b):
        if a != b:
            assert a.clockwise_distance(b) + b.clockwise_distance(a) == ID_SPACE

    @given(ids, ids)
    def test_shared_prefix_symmetry(self, a, b):
        assert a.shared_prefix_len(b) == b.shared_prefix_len(a)

    @given(ids)
    def test_hex_round_trip_property(self, a):
        assert NodeId.from_hex(a.hex) == a

    @given(ids, ids, ids)
    def test_between_trichotomy(self, k, low, high):
        # A key is on exactly one of the two arcs (low, high] / (high, low]
        # unless the arc is degenerate.
        if low != high and k != low and k != high:
            assert k.between(low, high) != k.between(high, low)
