"""Protocol-level tests for overlay messages (join/route internals)."""

from repro.overlay import ChimeraNode, NodeId, PeerInfo
from repro.overlay.node import MSG_ROUTE
from tests.conftest import build_overlay


def run(sim, generator):
    proc = sim.process(generator)
    return sim.run(until=proc)


class TestRouteMessages:
    def test_route_reply_reports_hop_count(self):
        sim, net, nodes = build_overlay(8, seed=21, leaf_size=1)
        key = NodeId.from_name("hop-counted-object")
        start = nodes[0]
        hop = start.next_hop(key)
        if hop is None:
            # node 0 owns the key; pick a key it does not own.
            key = next(
                NodeId.from_name(f"k{i}")
                for i in range(100)
                if start.next_hop(NodeId.from_name(f"k{i}")) is not None
            )
            hop = start.next_hop(key)
        reply = run(
            sim,
            _call(start, hop.name, key),
        )
        assert reply["hops"] >= 1
        owner = PeerInfo.from_wire(reply["owner"])
        assert owner.name in net.hosts

    def test_routes_resolved_counter(self):
        sim, net, nodes = build_overlay(4, seed=22)
        before = nodes[0].routes_resolved
        run(sim, nodes[0].resolve(NodeId.from_name("counted")))
        assert nodes[0].routes_resolved == before + 1


def _call(node, dst, key):
    reply = yield node.endpoint.call(dst, MSG_ROUTE, {"key": key.hex, "hops": 1})
    return reply


class TestJoinStateTransfer:
    def test_joiner_learns_routing_rows_from_path(self):
        sim, net, nodes = build_overlay(10, seed=23, leaf_size=2)
        host = net.add_host("joiner", group="home")
        joiner = ChimeraNode(net, host, leaf_size=2)
        proc = sim.process(joiner.join(bootstrap=nodes[0].name))
        sim.run(until=proc)
        sim.run()
        # The joiner learned at least its bootstrap, its leaf
        # neighbourhood, and some routing entries.
        assert len(joiner.view) >= 3
        assert any(joiner.table.entries())

    def test_join_contribution_has_no_duplicates(self):
        sim, net, nodes = build_overlay(6, seed=24)
        joiner_id = NodeId.from_name("hypothetical-joiner")
        contribution = nodes[0]._state_for(
            PeerInfo("hypothetical-joiner", joiner_id)
        )
        ids = [entry["id"] for entry in contribution]
        assert len(ids) == len(set(ids))
        # The contributor itself is always included.
        assert nodes[0].id.hex in ids

    def test_peers_sorted_by_id(self):
        sim, net, nodes = build_overlay(6, seed=25)
        peers = nodes[0].peers()
        ids = [p.id for p in peers]
        assert ids == sorted(ids)

    def test_name_of_unknown_returns_none(self):
        sim, net, nodes = build_overlay(3, seed=26)
        assert nodes[0].name_of(NodeId(123456)) is None
        assert nodes[0].name_of(nodes[0].id) == nodes[0].name


class TestLeafBackfill:
    def test_forgetting_neighbour_backfills_from_known(self):
        sim, net, nodes = build_overlay(8, seed=27, leaf_size=1)
        node = nodes[0]
        neighbours_before = set(node.leaf.neighbours())
        victim = next(iter(neighbours_before))
        node._forget(victim, notify=False)
        neighbours_after = set(node.leaf.neighbours())
        assert victim not in neighbours_after
        # The ring stays connected: a replacement neighbour appears.
        assert neighbours_after
