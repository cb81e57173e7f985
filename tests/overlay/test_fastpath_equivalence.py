"""Ring-window hot paths vs test-local reference oracles.

``ChimeraNode.nearest_peers`` / ``closest_known`` rank only a window of
the sorted-id snapshot, and the stabilizer picks its round-robin probe
by index arithmetic.  The oracles here are the straightforward O(N)
definitions — a full sort of the known view, a linear minimum, and the
filtered in-order list — and Hypothesis drives both sides over random
views (including wrap-around ids near 0 and the top of the space, and
equidistant ties), random keys (including the node's own id and its
peers' ids) and random counts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cloud4Home, scale_overlay
from repro.overlay import ChimeraNode, NodeId, PeerInfo
from repro.overlay.ids import ID_SPACE
from repro.overlay.stabilizer import Stabilizer
from tests.conftest import build_lan, build_overlay

KEYS = [NodeId.from_name(f"probe-key-{i}") for i in range(40)]

#: Ids anywhere in the space, plus clusters at both ends of it so that
#: windows wrap around zero and equidistant ties are common.
id_values = st.one_of(
    st.integers(min_value=0, max_value=ID_SPACE - 1),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=ID_SPACE - 64, max_value=ID_SPACE - 1),
)
views = st.sets(id_values, max_size=40)
counts = st.integers(min_value=0, max_value=48)


def flat(peers):
    """PeerInfo has no __eq__; compare by (name, id)."""
    if isinstance(peers, list):
        return [(p.name, p.id) for p in peers]
    return (peers.name, peers.id)


def node_with_view(values):
    """A started node whose known view is exactly ``values`` (minus its
    own id), installed without any protocol traffic."""
    _sim, net, hosts = build_lan(1)
    node = ChimeraNode(net, hosts[0])
    node.start()
    node.seed_view(
        PeerInfo(f"peer-{v}", NodeId(v)) for v in sorted(values) if v != node.id.value
    )
    return node


def known_ids(node):
    """The view's ids in id order, sorted here rather than trusted to
    the view's own order, so the oracles stay independent of it."""
    return sorted((p.id for p in node.view), key=lambda nid: nid.value)


def oracle_nearest(node, key, count):
    """Full sort of the known view by (circular distance, id value)."""
    if count <= 0:
        return []
    ranked = sorted(known_ids(node), key=lambda nid: (nid.distance(key), nid.value))
    return [(node.name_of(nid), nid) for nid in ranked[:count]]


def oracle_closest(node, key):
    """Linear minimum over the view and the node itself."""
    candidates = [node.id, *known_ids(node)]
    best = min(candidates, key=lambda nid: (nid.distance(key), nid.value))
    return (node.name_of(best), best)


def oracle_probe(node, neighbours, rounds):
    """The in-order known view minus ``neighbours``, at ``rounds % len``."""
    others = [nid for nid in known_ids(node) if nid not in neighbours]
    if not others:
        return None
    return others[rounds % len(others)]


@pytest.fixture(scope="module")
def overlay():
    return build_overlay(14, seed=6)


class TestNearestPeers:
    @settings(max_examples=150, deadline=None)
    @given(values=views, key=id_values, count=counts)
    def test_matches_reference_across_keys_and_counts(self, values, key, count):
        node = node_with_view(values)
        key = NodeId(key)
        assert flat(node.nearest_peers(key, count)) == oracle_nearest(node, key, count)

    @settings(max_examples=60, deadline=None)
    @given(values=views, count=counts)
    def test_own_id_keys(self, values, count):
        node = node_with_view(values)
        for key in [node.id, *known_ids(node)]:
            assert flat(node.nearest_peers(key, count)) == oracle_nearest(
                node, key, count
            )

    @settings(deadline=None)
    @given(key=id_values, count=counts)
    def test_empty_view(self, key, count):
        node = node_with_view(set())
        assert node.nearest_peers(NodeId(key), count) == []
        assert oracle_nearest(node, NodeId(key), count) == []

    def test_joined_overlay_views(self, overlay):
        _, _, nodes = overlay
        for node in nodes:
            for key in KEYS:
                for count in (1, 2, 3, 8, len(nodes) + 5):
                    assert flat(node.nearest_peers(key, count)) == oracle_nearest(
                        node, key, count
                    ), (node.name, key.hex, count)


class TestClosestKnown:
    @settings(max_examples=150, deadline=None)
    @given(values=views, key=id_values)
    def test_matches_reference(self, values, key):
        node = node_with_view(values)
        for probe in (NodeId(key), node.id, *known_ids(node)[:3]):
            assert flat(node.closest_known(probe)) == oracle_closest(node, probe)


class TestStabilizerProbe:
    @settings(max_examples=100, deadline=None)
    @given(values=views, data=st.data())
    def test_round_robin_matches_reference_scan(self, values, data):
        node = node_with_view(values)
        ids = known_ids(node)
        # The probe skips the leaf neighbours; draw them from the view,
        # plus possibly an id the view does not hold.
        neighbours = (
            data.draw(st.lists(st.sampled_from(ids), max_size=2, unique=True))
            if ids
            else []
        )
        if data.draw(st.booleans()):
            neighbours.append(NodeId(data.draw(id_values)))
        stabilizer = Stabilizer(node)
        # Walk well past one full cycle of the filtered view.
        for round_no in range(2 * len(ids) + 3):
            stabilizer.rounds = round_no
            assert stabilizer._round_robin_probe(neighbours) == oracle_probe(
                node, neighbours, round_no
            ), round_no

    def test_no_neighbours_filter(self, overlay):
        _, _, nodes = overlay
        node = nodes[1]
        stabilizer = Stabilizer(node)
        leaf = list(node.leaf.neighbours())
        for round_no in range(2 * len(nodes)):
            stabilizer.rounds = round_no
            assert stabilizer._round_robin_probe([]) == oracle_probe(node, [], round_no)
            assert stabilizer._round_robin_probe(leaf) == oracle_probe(
                node, leaf, round_no
            )


class TestRouteCacheLru:
    def test_bounded_and_lru_evicts_oldest(self, overlay):
        _, _, nodes = overlay
        node = nodes[0]
        node.route_cache_max = 4
        node._route_cache.clear()
        keys = [NodeId.from_name(f"lru-{i}") for i in range(6)]
        for key in keys[:4]:
            node.next_hop(key)
        assert len(node._route_cache) == 4
        node.next_hop(keys[0])  # cache hit: refresh the oldest entry
        node.next_hop(keys[4])  # insert: evicts keys[1], not keys[0]
        assert len(node._route_cache) == 4
        assert keys[0] in node._route_cache
        assert keys[1] not in node._route_cache
        node.next_hop(keys[5])
        assert len(node._route_cache) == 4
        assert keys[2] not in node._route_cache

    def test_zero_caches_nothing(self):
        c4h = Cloud4Home(scale_overlay(40, seed=1, route_cache_max=0))
        c4h.start(monitors=False, publish=False)
        for i in range(5):
            c4h.run(c4h.devices[i].kv.put(f"uncached-{i}", i))
            assert c4h.run(c4h.devices[-1 - i].kv.get(f"uncached-{i}")) == i
        for device in c4h.devices:
            assert device.chimera._route_cache == {}
            assert device.chimera.route_cache_hits == 0

    def test_negative_cap_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="route_cache_max"):
            Cloud4Home(scale_overlay(40, seed=1, route_cache_max=-5))
