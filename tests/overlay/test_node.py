"""Integration tests for the Chimera overlay node."""

import pytest

from repro.overlay import ChimeraNode, NodeId, NotJoinedError
from tests.conftest import build_lan, build_overlay


def resolve(sim, node, key):
    proc = sim.process(node.resolve(key))
    return sim.run(until=proc)


def expected_owner(nodes, key):
    """Ground truth: the live node numerically closest to the key."""
    live = [n for n in nodes if n.joined]
    return min(live, key=lambda n: (n.id.distance(key), n.id.value))


class TestJoin:
    def test_single_node_overlay(self):
        sim, net, hosts = build_lan(1)
        node = ChimeraNode(net, hosts[0])
        node.start()
        owner = resolve(sim, node, NodeId.from_name("anything"))
        assert owner.name == node.name

    def test_two_node_join(self):
        sim, net, nodes = build_overlay(2)
        assert nodes[1].name_of(nodes[0].id) == nodes[0].name
        assert nodes[0].name_of(nodes[1].id) == nodes[1].name

    def test_all_nodes_learn_full_view_at_home_scale(self):
        sim, net, nodes = build_overlay(6)
        for node in nodes:
            assert len(node.view) == 5

    def test_not_joined_raises(self):
        sim, net, hosts = build_lan(1)
        node = ChimeraNode(net, hosts[0])
        with pytest.raises(NotJoinedError):
            node.next_hop(NodeId.from_name("x"))


class TestResolution:
    @pytest.mark.parametrize("n_nodes", [2, 6, 12])
    def test_all_nodes_agree_on_owner(self, n_nodes):
        sim, net, nodes = build_overlay(n_nodes)
        keys = [NodeId.from_name(f"object-{i}") for i in range(20)]
        for key in keys:
            owners = {resolve(sim, node, key).name for node in nodes}
            assert len(owners) == 1, f"diverging owners for {key}: {owners}"

    @pytest.mark.parametrize("n_nodes", [2, 6, 12])
    def test_owner_is_numerically_closest(self, n_nodes):
        sim, net, nodes = build_overlay(n_nodes)
        for i in range(20):
            key = NodeId.from_name(f"object-{i}")
            owner = resolve(sim, nodes[0], key)
            assert owner.name == expected_owner(nodes, key).name

    def test_resolution_takes_positive_time(self):
        sim, net, nodes = build_overlay(4)
        before = sim.now
        key = NodeId.from_name("some-object")
        owner = resolve(sim, nodes[0], key)
        if owner.name != nodes[0].name:
            assert sim.now > before

    def test_resolve_own_key_is_local(self):
        sim, net, nodes = build_overlay(4)
        owner = resolve(sim, nodes[0], nodes[0].id)
        assert owner.name == nodes[0].name


class TestLeave:
    def test_graceful_leave_removes_from_views(self):
        sim, net, nodes = build_overlay(5)
        leaver = nodes[2]
        proc = sim.process(leaver.leave())
        sim.run(until=proc)
        sim.run()  # let notifications drain
        for node in nodes:
            if node is leaver:
                continue
            assert not node.knows(leaver.id)

    def test_keys_move_to_new_owner_after_leave(self):
        sim, net, nodes = build_overlay(5)
        key = NodeId.from_name("camera-feed")
        owner_before = expected_owner(nodes, key)
        proc = sim.process(owner_before.leave())
        sim.run(until=proc)
        sim.run()
        survivor = next(n for n in nodes if n is not owner_before)
        new_owner = resolve(sim, survivor, key)
        assert new_owner.name == expected_owner(nodes, key).name
        assert new_owner.name != owner_before.name

    def test_leave_callbacks_fire(self):
        sim, net, nodes = build_overlay(3)
        departed = []
        nodes[0].on_node_left.append(lambda peer: departed.append(peer.name))
        proc = sim.process(nodes[1].leave())
        sim.run(until=proc)
        sim.run()
        assert nodes[1].name in departed


class TestChurn:
    def test_abrupt_failure_is_routed_around(self):
        sim, net, nodes = build_overlay(6)
        key = NodeId.from_name("resilient-object")
        victim = expected_owner(nodes, key)
        victim.fail_abruptly()
        net.take_offline(victim.name)
        survivor = next(n for n in nodes if n is not victim)
        owner = resolve(sim, survivor, key)
        live = [n for n in nodes if n is not victim]
        assert owner.name == expected_owner(live, key).name

    def test_join_after_failure(self):
        sim, net, nodes = build_overlay(4)
        nodes[3].fail_abruptly()
        net.take_offline(nodes[3].name)
        new_host = net.add_host("latecomer", group="home")
        late = ChimeraNode(net, new_host)
        proc = sim.process(late.join(bootstrap=nodes[0].name))
        sim.run(until=proc)
        sim.run()
        key = NodeId.from_name("post-churn-object")
        live = [n for n in nodes[:3]] + [late]
        owner = resolve(sim, late, key)
        assert owner.name == expected_owner(live, key).name

    def test_join_routes_around_a_crashed_hop(self):
        """A join forwarded toward a crashed node nobody has noticed yet
        forgets that hop and routes on, as a lookup does."""
        sim, net, nodes = build_overlay(6)
        bootstrap = nodes[0]
        name = next(
            f"latecomer{i}"
            for i in range(100)
            if bootstrap.next_hop(NodeId.from_name(f"latecomer{i}")) is not None
        )
        hop = bootstrap.next_hop(NodeId.from_name(name))
        crashed = next(n for n in nodes if n.id == hop.id)
        crashed.fail_abruptly()
        net.take_offline(crashed.name)
        late = ChimeraNode(net, net.add_host(name, group="home"))
        proc = sim.process(late.join(bootstrap=bootstrap.name))
        sim.run(until=proc)
        sim.run()
        assert late.joined
        assert not bootstrap.knows(crashed.id)
        assert bootstrap.knows(late.id)

    def test_joined_callback_fires_on_existing_nodes(self):
        sim, net, nodes = build_overlay(3)
        arrivals = []
        nodes[0].on_node_joined.append(lambda peer: arrivals.append(peer.name))
        new_host = net.add_host("latecomer", group="home")
        late = ChimeraNode(net, new_host)
        proc = sim.process(late.join(bootstrap=nodes[1].name))
        sim.run(until=proc)
        sim.run()
        assert "latecomer" in arrivals


class TestScaling:
    def test_larger_overlay_resolves_consistently(self):
        sim, net, nodes = build_overlay(24, leaf_size=2)
        keys = [NodeId.from_name(f"k{i}") for i in range(10)]
        for key in keys:
            names = {resolve(sim, node, key).name for node in nodes[::5]}
            assert len(names) == 1
            assert names.pop() == expected_owner(nodes, key).name
