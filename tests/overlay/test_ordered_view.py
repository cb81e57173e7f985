"""The ordered peer view: one tuple of ``PeerInfo`` sorted by id value.

A Hypothesis sequence of ``_add_peer`` / ``_forget`` / ``seed_view``
runs against a brute-force model (a plain dict, sorted on every check),
and every view query is compared with its definition after each step.
Queries must hand out the view's own ``PeerInfo`` objects, never fresh
copies.  The routing fallback's tie-break is pinned separately.
"""

import copy
import pickle
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import ChimeraNode, NodeId, PeerInfo
from repro.overlay.ids import ID_SPACE
from tests.conftest import build_lan

LEAF_SIZE = 2

#: Ids anywhere in the space, plus clusters at both ends so the ring
#: window wraps around zero and equidistant ties are common.
id_values = st.one_of(
    st.integers(min_value=0, max_value=ID_SPACE - 1),
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=ID_SPACE - 24, max_value=ID_SPACE - 1),
)
#: (operation, ids, name tag): the tag lets a re-added id change name.
ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "forget", "seed"]),
        st.lists(id_values, min_size=1, max_size=6),
        st.integers(min_value=0, max_value=1),
    ),
    max_size=25,
)


def fresh_node():
    _sim, net, hosts = build_lan(1)
    node = ChimeraNode(net, hosts[0], leaf_size=LEAF_SIZE)
    node.start()
    return node


def ranked(ids, key):
    return sorted(ids, key=lambda nid: (nid.distance(key), nid.value))


def ring_window(owner, ids, per_side):
    """The ``per_side`` closest ids on each side of ``owner``."""
    ring = sorted(ids, key=owner.clockwise_distance)
    if len(ring) <= 2 * per_side:
        return set(ring)
    return set(ring[:per_side] + ring[-per_side:])


def in_view(node, peers):
    """True if every peer is one of the view's own objects."""
    own = {id(p) for p in node.view}
    return all(id(p) in own for p in peers)


def check_against_model(node, model):
    ids = sorted(model, key=lambda nid: nid.value)
    assert [p.id for p in node.view] == ids
    assert [(p.name, p.id) for p in node.peers()] == [(model[n], n) for n in ids]
    assert in_view(node, node.peers())
    for nid in ids:
        assert node.knows(nid)
        assert node.name_of(nid) == model[nid]
    assert not node.knows(node.id)
    assert node.name_of(node.id) == node.name
    assert node.leaf.members() == ring_window(node.id, ids, LEAF_SIZE)
    assert in_view(node, node.successors(LEAF_SIZE))
    probes = [NodeId(0), NodeId(ID_SPACE - 1), node.id, *ids[:3]]
    for key in probes:
        for n in (1, 3, len(ids) + 1):
            expected = [(model[nid], nid) for nid in ranked(ids, key)[:n]]
            nearest = node.nearest_peers(key, n)
            assert [(p.name, p.id) for p in nearest] == expected
            assert in_view(node, nearest)
        best = ranked([node.id, *ids], key)[0]
        closest = node.closest_known(key)
        assert (closest.name, closest.id) == (node.name_of(best), best)
        node.next_hop(key)
    assert in_view(node, [hop for hop in node._route_cache.values() if hop is not None])


class TestViewModel:
    @settings(max_examples=120, deadline=None)
    @given(steps=ops)
    def test_matches_sorted_model(self, steps):
        node = fresh_node()
        model: dict[NodeId, str] = {}
        for op, values, tag in steps:
            peers = [PeerInfo(f"p{v}-{tag}", NodeId(v)) for v in values]
            if op == "add":
                for peer in peers:
                    node._add_peer(peer)
                    if peer.id != node.id:
                        model[peer.id] = peer.name
            elif op == "forget":
                for peer in peers:
                    node._forget(peer.id)
                    model.pop(peer.id, None)
            else:
                node.seed_view(peers)
                first = {}
                for peer in peers:
                    if peer.id != node.id:
                        first.setdefault(peer.id, peer.name)
                model.update(first)
            check_against_model(node, model)

    @settings(max_examples=60, deadline=None)
    @given(values=st.sets(id_values, max_size=30))
    def test_bulk_seed_sets_the_sorted_tuple(self, values):
        """An empty node's ``seed_view`` installs the given peers as one
        sorted tuple."""
        node = fresh_node()
        node.seed_view(PeerInfo(f"p{v}", NodeId(v)) for v in values)
        model = {NodeId(v): f"p{v}" for v in values if v != node.id.value}
        check_against_model(node, model)


def node_with_leading_digit(digit):
    """A started node whose id's first hex digit is ``digit``."""
    name = next(
        f"host{i}" for i in count() if NodeId.from_name(f"host{i}").digit(0) == digit
    )
    _sim, net, _hosts = build_lan(0)
    node = ChimeraNode(net, net.add_host(name, group="home"), leaf_size=4)
    node.start()
    return node


class TestFallbackTieBreak:
    def test_equidistant_candidates_pick_the_smaller_id(self):
        node = node_with_leading_digit(2)
        own = node.id.value
        # Eight ring neighbours fill the leaf set, so it does not cover
        # a key on the far side of the ring.
        for offset in (1, 2, 3, 4):
            for value in (own + offset, own - offset):
                node._add_peer(PeerInfo(f"leaf-{value:x}", NodeId(value)))
        # Two candidates equidistant from the key on opposite sides of
        # it.  Their first digits (7 and 9) differ from the key's (8),
        # so the routing-table slot for the key stays empty.
        key = NodeId(0x87FFFFFFFF)
        low, high = NodeId(0x7FFFFFFFFE), NodeId(0x9000000000)
        assert key.value - low.value == high.value - key.value
        for peer_id in (high, low):
            node._add_peer(PeerInfo(f"cand-{peer_id.hex}", peer_id))
        assert not node.leaf.covers(key)
        assert node.table.lookup(key) is None
        assert low.distance(key) < node.id.distance(key)
        hop = node.next_hop(key)
        assert (hop.name, hop.id) == (f"cand-{low.hex}", low)


class TestPeerInfo:
    def test_immutable(self):
        peer = PeerInfo("a", NodeId(5))
        with pytest.raises(AttributeError):
            peer.name = "b"
        with pytest.raises(AttributeError):
            peer.id = NodeId(6)
        assert (peer.name, peer.id) == ("a", NodeId(5))

    def test_copies_and_pickles_by_value(self):
        peer = PeerInfo("a", NodeId(5))
        for clone in (copy.copy(peer), pickle.loads(pickle.dumps(peer))):
            assert (clone.name, clone.id) == (peer.name, peer.id)
