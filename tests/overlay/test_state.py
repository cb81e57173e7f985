"""Unit tests for the routing table and leaf set."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import ID_SPACE, LeafSet, NodeId, RoutingTable

ids = st.integers(min_value=0, max_value=ID_SPACE - 1).map(NodeId)


class TestRoutingTable:
    def test_add_places_in_prefix_row(self):
        owner = NodeId.from_hex("a000000000")
        table = RoutingTable(owner)
        peer = NodeId.from_hex("ab00000000")  # shares 1 digit, next digit b
        assert table.add(peer)
        assert table.row(1)[0xB] == peer
        assert peer in table

    def test_add_self_rejected(self):
        owner = NodeId.from_hex("a000000000")
        table = RoutingTable(owner)
        assert not table.add(owner)

    def test_first_writer_wins(self):
        owner = NodeId.from_hex("a000000000")
        table = RoutingTable(owner)
        first = NodeId.from_hex("b000000000")
        second = NodeId.from_hex("b100000000")  # same slot (row 0, col b)
        table.add(first)
        assert not table.add(second)
        assert table.row(0)[0xB] == first

    def test_remove(self):
        owner = NodeId.from_hex("a000000000")
        table = RoutingTable(owner)
        peer = NodeId.from_hex("b000000000")
        table.add(peer)
        assert table.remove(peer)
        assert peer not in table
        assert not table.remove(peer)

    def test_lookup_routes_by_next_digit(self):
        owner = NodeId.from_hex("a000000000")
        table = RoutingTable(owner)
        peer = NodeId.from_hex("ab00000000")
        table.add(peer)
        key = NodeId.from_hex("abcdef0123")
        assert table.lookup(key) == peer

    def test_lookup_own_id_is_none(self):
        owner = NodeId.from_hex("a000000000")
        table = RoutingTable(owner)
        assert table.lookup(owner) is None

    def test_entries_enumerates(self):
        owner = NodeId.from_hex("a000000000")
        table = RoutingTable(owner)
        peers = [NodeId.from_hex(h) for h in ["b000000000", "c000000000"]]
        for p in peers:
            table.add(p)
        assert set(table.entries()) == set(peers)

    @given(ids, st.lists(ids, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_lookup_entry_improves_prefix(self, owner, peers):
        """Any entry returned for a key shares strictly more prefix
        digits with the key than the owner does."""
        table = RoutingTable(owner)
        for p in peers:
            table.add(p)
        for key in peers:
            if key == owner:
                continue
            entry = table.lookup(key)
            if entry is not None:
                assert (
                    entry.shared_prefix_len(key)
                    > owner.shared_prefix_len(key)
                )


class TestLeafSet:
    def test_per_side_validation(self):
        with pytest.raises(ValueError):
            LeafSet(NodeId(0), per_side=0)

    def test_add_self_ignored(self):
        ls = LeafSet(NodeId(100))
        ls.add(NodeId(100))
        assert len(ls) == 0

    def test_bounded_membership(self):
        owner = NodeId(0)
        ls = LeafSet(owner, per_side=2)
        for v in [10, 20, 30, 40, ID_SPACE - 10, ID_SPACE - 20, ID_SPACE - 30]:
            ls.add(NodeId(v))
        assert ls.rights() == [NodeId(10), NodeId(20)]
        assert ls.lefts() == [NodeId(ID_SPACE - 10), NodeId(ID_SPACE - 20)]
        assert len(ls) <= 4

    def test_neighbours(self):
        owner = NodeId(100)
        ls = LeafSet(owner, per_side=2)
        ls.add(NodeId(150))
        ls.add(NodeId(50))
        assert ls.neighbours() == [NodeId(150), NodeId(50)]

    def test_neighbours_single_member(self):
        ls = LeafSet(NodeId(100), per_side=2)
        ls.add(NodeId(150))
        assert ls.neighbours() == [NodeId(150)]

    def test_covers_everything_when_not_full(self):
        ls = LeafSet(NodeId(0), per_side=4)
        ls.add(NodeId(10))
        assert ls.covers(NodeId(ID_SPACE // 2))

    def test_covers_arc_when_full(self):
        owner = NodeId(1000)
        ls = LeafSet(owner, per_side=1)
        ls.add(NodeId(900))
        ls.add(NodeId(1100))
        assert ls.covers(NodeId(1050))
        assert ls.covers(NodeId(950))
        assert not ls.covers(NodeId(2000))

    def test_closest_prefers_nearest(self):
        owner = NodeId(1000)
        ls = LeafSet(owner, per_side=4)
        ls.add(NodeId(900))
        ls.add(NodeId(1100))
        assert ls.closest(NodeId(1090)) == NodeId(1100)
        assert ls.closest(NodeId(1010)) == owner

    def test_closest_tie_breaks_to_smaller_id(self):
        owner = NodeId(1000)
        ls = LeafSet(owner, per_side=4)
        ls.add(NodeId(1200))
        # Key 1100 is equidistant from 1000 and 1200.
        assert ls.closest(NodeId(1100)) == NodeId(1000)

    def test_remove_and_refill(self):
        owner = NodeId(0)
        ls = LeafSet(owner, per_side=2)
        ls.update([NodeId(10), NodeId(20), NodeId(30)])
        assert ls.remove(NodeId(10))
        ls.update([NodeId(30)])
        assert NodeId(30) in ls

    @given(ids, st.sets(ids, min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_closest_never_worse_than_members(self, owner, members):
        ls = LeafSet(owner, per_side=4)
        ls.update(members)
        for probe in list(members)[:5]:
            chosen = ls.closest(probe)
            for m in ls.members() | {owner}:
                assert chosen.distance(probe) <= m.distance(probe)


class _SortOracle:
    """The leaf set rebuilt by full sorts on every call, as reference."""

    def __init__(self, owner, per_side):
        self.owner = owner
        self.per_side = per_side
        self.members = set()

    def add(self, node):
        if node != self.owner:
            self.members.add(node)
        self._prune()

    def update(self, nodes):
        self.members |= {n for n in nodes if n != self.owner}
        self._prune()

    def remove(self, node):
        self.members.discard(node)

    def rights(self):
        return sorted(self.members, key=self.owner.clockwise_distance)[
            : self.per_side
        ]

    def lefts(self):
        return sorted(
            self.members, key=lambda n: n.clockwise_distance(self.owner)
        )[: self.per_side]

    def neighbours(self):
        ring = sorted(self.members, key=self.owner.clockwise_distance)
        return ring[:1] + ring[1:][-1:]

    def covers(self, key):
        if len(self.members) < 2 * self.per_side:
            return True
        return key.between(self.lefts()[-1], self.rights()[-1])

    def closest(self, key):
        return min(
            [self.owner, *self.members], key=lambda n: (n.distance(key), n.value)
        )

    def _prune(self):
        if len(self.members) > 2 * self.per_side:
            self.members = set(self.rights()) | set(self.lefts())


leaf_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ids),
        st.tuples(st.just("update"), st.lists(ids, max_size=12)),
        st.tuples(st.just("remove"), ids),
        st.tuples(st.just("remove-member"), st.integers(0, 64)),
    ),
    max_size=40,
)


class TestLeafSetRingCache:
    """The one clockwise-ordered member list must agree with a set
    model that sorts by clockwise distance and keeps ``per_side`` on
    each side, after every ``add``/``update``/``remove``."""

    @given(ids, st.integers(1, 4), leaf_ops, st.lists(ids, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_views_match_sort_oracle(self, owner, per_side, ops, probes):
        ls = LeafSet(owner, per_side=per_side)
        oracle = _SortOracle(owner, per_side)
        for op, arg in ops:
            if op == "remove-member":
                if not oracle.members:
                    continue
                arg = sorted(oracle.members)[arg % len(oracle.members)]
                op = "remove"
            if op == "add" and arg.value % 5 == 0:
                arg = owner  # adding the owner is a no-op
            if op == "remove":
                assert ls.remove(arg) == (arg in oracle.members)
            getattr(oracle, op)(arg)
            if op != "remove":
                getattr(ls, op)(arg)
            assert ls.members() == oracle.members
            assert len(ls) == len(oracle.members)
            assert ls.rights() == oracle.rights()
            assert ls.lefts() == oracle.lefts()
            assert ls.neighbours() == oracle.neighbours()
            for probe in [*probes, *oracle.members]:
                assert (probe in ls) == (probe in oracle.members)
                assert ls.covers(probe) == oracle.covers(probe)
                assert ls.closest(probe) == oracle.closest(probe)
