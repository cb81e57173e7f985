"""fast_join: direct view construction must route like a real overlay.

``ClusterConfig(fast_join=True)`` replaces the O(N²)-message protocol
join with per-node Pastry view construction from the global sorted id
list.  The correctness bar: from any start node, every key resolves to
the *globally* nearest node — the same owner definition the protocol
join converges to.
"""

import pytest

from repro.cluster import Cloud4Home, scale_overlay
from repro.overlay import (
    ID_DIGITS,
    ChimeraNode,
    LeafSet,
    NodeId,
    RoutingTable,
)


def global_owner(nodes, key):
    return min(nodes, key=lambda c: (c.id.distance(key), c.id.value))


@pytest.fixture(scope="module")
def overlay():
    c4h = Cloud4Home(scale_overlay(64, seed=2))
    c4h.start(monitors=False, publish=False)
    return c4h


class TestFastJoinRouting:
    def test_every_key_resolves_to_global_owner(self, overlay):
        chimeras = [d.chimera for d in overlay.devices]
        for i in range(60):
            key = NodeId.from_name(f"fastjoin-key-{i}")
            expected = global_owner(chimeras, key)
            start = chimeras[i % len(chimeras)]
            proc = overlay.sim.process(start.resolve(key))
            owner = overlay.sim.run(until=proc)
            assert owner.id == expected.id, key.hex

    def test_views_are_partial_not_global(self, overlay):
        """fast_join must not cheat by handing every node a full view."""
        chimeras = [d.chimera for d in overlay.devices]
        assert max(len(c.view) for c in chimeras) < len(chimeras) // 2

    def test_leaf_sets_are_ring_neighbours(self, overlay):
        chimeras = sorted(
            (d.chimera for d in overlay.devices), key=lambda c: c.id.value
        )
        n = len(chimeras)
        for i, node in enumerate(chimeras):
            per_side = node.leaf.per_side
            expected = set()
            for j in range(1, per_side + 1):
                expected.add(chimeras[(i + j) % n].id)
                expected.add(chimeras[(i - j) % n].id)
            expected.discard(node.id)
            assert expected <= node.leaf.members()


class TestFastJoinDeterminism:
    def test_same_seed_same_views(self):
        def views(seed):
            c4h = Cloud4Home(scale_overlay(24, seed=seed))
            c4h.start(monitors=False, publish=False)
            return [
                [peer.id.hex for peer in d.chimera.view]
                for d in c4h.devices
            ]

        assert views(7) == views(7)


class TestSeedViewMatchesPerPeerJoin:
    def test_bulk_seed_equals_per_peer_add(self, monkeypatch):
        """seed_view's bulk load installs exactly the state that adding
        the same peers one by one through ``_add_peer`` does."""
        seeded = {}
        original = ChimeraNode.seed_view

        def recording(node, peers):
            peers = list(peers)
            seeded[node.name] = peers
            original(node, peers)

        monkeypatch.setattr(ChimeraNode, "seed_view", recording)
        c4h = Cloud4Home(scale_overlay(2000, seed=3))
        c4h.start(monitors=False, publish=False)
        assert len(seeded) == 2000
        # One PeerInfo per member, shared by every view that holds it.
        shared = {id(peer) for d in c4h.devices for peer in d.chimera.view}
        assert len(shared) <= 2000
        for device in c4h.devices:
            node = device.chimera
            bulk = (
                list(node.view),
                node.leaf.members(),
                [node.table.row(i) for i in range(ID_DIGITS)],
            )
            node.view = ()
            node.leaf = LeafSet(node.id, per_side=node.leaf.per_side)
            node.table = RoutingTable(node.id)
            node.on_node_joined = []
            for peer in seeded[node.name]:
                node._add_peer(peer)
            values = [peer.id.value for peer in node.view]
            assert values == sorted(set(values)), node.name
            assert (
                list(node.view),
                node.leaf.members(),
                [node.table.row(i) for i in range(ID_DIGITS)],
            ) == bulk, node.name
