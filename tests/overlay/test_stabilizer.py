"""Tests for periodic overlay stabilization."""

import pytest

from repro.overlay import Stabilizer
from tests.conftest import build_overlay


def with_stabilizers(n, seed=0, period_s=10.0):
    sim, net, nodes = build_overlay(n, seed=seed)
    stabilizers = [Stabilizer(node, period_s=period_s) for node in nodes]
    return sim, net, nodes, stabilizers


def run(sim, generator):
    proc = sim.process(generator)
    return sim.run(until=proc)


class TestStabilizer:
    def test_period_validated(self):
        sim, net, nodes, stabs = with_stabilizers(2)
        with pytest.raises(ValueError):
            Stabilizer(nodes[0], period_s=0)

    def test_round_on_healthy_overlay_changes_nothing(self):
        sim, net, nodes, stabs = with_stabilizers(4)
        views_before = [len(n.view) for n in nodes]
        evicted, discovered = run(sim, stabs[0].stabilize_once())
        assert evicted == 0
        assert [len(n.view) for n in nodes] == views_before

    def test_silent_failure_is_evicted(self):
        sim, net, nodes, stabs = with_stabilizers(4)
        # Find a node that is a leaf neighbour of node 0.
        neighbour_id = nodes[0].leaf.neighbours()[0]
        victim = next(n for n in nodes if n.id == neighbour_id)
        victim.fail_abruptly()
        net.take_offline(victim.name)
        evicted, _ = run(sim, stabs[0].stabilize_once())
        assert evicted >= 1
        assert not nodes[0].knows(victim.id)

    def test_view_exchange_spreads_membership(self):
        sim, net, nodes, stabs = with_stabilizers(5)
        # Artificially remove a member from node 0's view only.
        missing = nodes[3]
        nodes[0]._forget(missing.id, notify=False)
        assert not nodes[0].knows(missing.id)
        # A stabilization round with a neighbour that knows it heals it.
        run(sim, stabs[0].stabilize_once())
        assert nodes[0].knows(missing.id)
        assert stabs[0].discoveries >= 1

    def test_periodic_operation(self):
        sim, net, nodes, stabs = with_stabilizers(3, period_s=5.0)
        stabs[0].start()
        sim.run(until=sim.now + 26.0)
        assert stabs[0].rounds == 5
        stabs[0].stop()
        rounds = stabs[0].rounds
        sim.run(until=sim.now + 20.0)
        assert stabs[0].rounds == rounds
        assert not stabs[0].running

    def test_start_is_idempotent(self):
        sim, net, nodes, stabs = with_stabilizers(3, period_s=5.0)
        stabs[0].start()
        stabs[0].start()
        sim.run(until=sim.now + 6.0)
        assert stabs[0].rounds == 1

    def test_full_mesh_of_stabilizers_heals_partitioned_views(self):
        sim, net, nodes, stabs = with_stabilizers(6, period_s=5.0)
        # Wound several views.
        nodes[0]._forget(nodes[5].id, notify=False)
        nodes[1]._forget(nodes[4].id, notify=False)
        for stab in stabs:
            stab.start()
        sim.run(until=sim.now + 30.0)
        for node in nodes:
            assert len(node.view) == 5
