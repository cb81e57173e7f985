"""Unit and property tests for the red-black tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import RedBlackTree


class TestBasics:
    def test_empty(self):
        t = RedBlackTree()
        assert len(t) == 0
        assert not t
        assert 5 not in t
        assert t.get(5) is None
        assert t.get(5, "d") == "d"

    def test_insert_and_contains(self):
        t = RedBlackTree()
        t.insert(3, "three")
        t.insert(1, "one")
        t.insert(2, "two")
        assert len(t) == 3
        assert 2 in t
        assert t.get(3) == "three"

    def test_insert_replaces_value(self):
        t = RedBlackTree()
        t.insert(1, "a")
        t.insert(1, "b")
        assert len(t) == 1
        assert t.get(1) == "b"

    def test_delete(self):
        t = RedBlackTree()
        for k in [5, 2, 8, 1, 3]:
            t.insert(k)
        assert t.delete(2)
        assert 2 not in t
        assert len(t) == 4
        assert not t.delete(99)

    def test_iteration_is_sorted(self):
        t = RedBlackTree()
        for k in [9, 4, 7, 1, 8, 2]:
            t.insert(k, str(k))
        assert list(t) == [1, 2, 4, 7, 8, 9]
        assert t.keys() == [1, 2, 4, 7, 8, 9]
        assert list(t.items())[0] == (1, "1")

    def test_min_max(self):
        t = RedBlackTree()
        for k in [5, 2, 8]:
            t.insert(k)
        assert t.min() == 2
        assert t.max() == 8

    def test_min_max_empty_raise(self):
        t = RedBlackTree()
        with pytest.raises(KeyError):
            t.min()
        with pytest.raises(KeyError):
            t.max()


class TestOrderQueries:
    def build(self):
        t = RedBlackTree()
        for k in [10, 20, 30, 40, 50]:
            t.insert(k)
        return t

    def test_successor(self):
        t = self.build()
        assert t.successor(10) == 20
        assert t.successor(25) == 30
        assert t.successor(50) is None
        assert t.successor(0) == 10

    def test_predecessor(self):
        t = self.build()
        assert t.predecessor(50) == 40
        assert t.predecessor(25) == 20
        assert t.predecessor(10) is None

    def test_floor(self):
        t = self.build()
        assert t.floor(25) == 20
        assert t.floor(20) == 20
        assert t.floor(5) is None
        assert t.floor(99) == 50

    def test_ceiling(self):
        t = self.build()
        assert t.ceiling(25) == 30
        assert t.ceiling(30) == 30
        assert t.ceiling(99) is None
        assert t.ceiling(1) == 10


class TestInvariants:
    def test_ascending_insert_stays_balanced(self):
        t = RedBlackTree()
        for k in range(200):
            t.insert(k)
            t.check_invariants()
        assert t.keys() == list(range(200))

    def test_descending_insert_stays_balanced(self):
        t = RedBlackTree()
        for k in reversed(range(200)):
            t.insert(k)
        t.check_invariants()

    def test_delete_all_in_random_order(self):
        import random

        rng = random.Random(42)
        keys = list(range(100))
        t = RedBlackTree()
        for k in keys:
            t.insert(k)
        rng.shuffle(keys)
        for k in keys:
            assert t.delete(k)
            t.check_invariants()
        assert len(t) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500)))
    def test_insert_matches_sorted_set(self, keys):
        t = RedBlackTree()
        for k in keys:
            t.insert(k)
        t.check_invariants()
        assert t.keys() == sorted(set(keys))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=100)),
        st.lists(st.integers(min_value=0, max_value=100)),
    )
    def test_mixed_insert_delete_matches_set(self, inserts, deletes):
        t = RedBlackTree()
        model = set()
        for k in inserts:
            t.insert(k)
            model.add(k)
        for k in deletes:
            assert t.delete(k) == (k in model)
            model.discard(k)
        t.check_invariants()
        assert t.keys() == sorted(model)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1),
        st.integers(min_value=0, max_value=1000),
    )
    def test_query_results_match_reference(self, keys, probe):
        t = RedBlackTree()
        for k in keys:
            t.insert(k)
        uniq = sorted(set(keys))
        above = [k for k in uniq if k > probe]
        below = [k for k in uniq if k < probe]
        at_most = [k for k in uniq if k <= probe]
        at_least = [k for k in uniq if k >= probe]
        assert t.successor(probe) == (above[0] if above else None)
        assert t.predecessor(probe) == (below[-1] if below else None)
        assert t.floor(probe) == (at_most[-1] if at_most else None)
        assert t.ceiling(probe) == (at_least[0] if at_least else None)


class TestFromSorted:
    def test_every_small_size_is_a_valid_tree(self):
        for n in range(130):
            items = [(k, str(k)) for k in range(n)]
            t = RedBlackTree.from_sorted(items)
            t.check_invariants()
            assert len(t) == n
            assert list(t.items()) == items

    @given(st.sets(st.integers(-10_000, 10_000), max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_items_match_input(self, keys):
        items = [(k, -k) for k in sorted(keys)]
        t = RedBlackTree.from_sorted(items)
        t.check_invariants()
        assert list(t.items()) == items
        for k in keys:
            assert t.get(k) == -k

    @given(
        st.sets(st.integers(0, 500), max_size=200),
        st.lists(st.integers(0, 600), max_size=100),
        st.lists(st.integers(0, 600), max_size=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_mutations_after_bulk_load_keep_invariants(self, keys, inserts, deletes):
        t = RedBlackTree.from_sorted([(k, None) for k in sorted(keys)])
        reference = set(keys)
        for k in inserts:
            assert t.insert(k) == (k not in reference)
            reference.add(k)
            t.check_invariants()
        for k in deletes:
            assert t.delete(k) == (k in reference)
            reference.discard(k)
            t.check_invariants()
        assert t.keys() == sorted(reference)

    def test_rejects_unsorted_input(self):
        with pytest.raises(ValueError):
            RedBlackTree.from_sorted([(2, None), (1, None)])

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError):
            RedBlackTree.from_sorted([(1, "a"), (1, "b")])
