"""Tests for KV-store-backed service discovery."""

import pytest

from repro.kvstore import DhtKeyValueStore, KeyNotFoundError
from repro.services import FaceDetection, MediaConversion, ServiceRegistry
from repro.services.registry import service_key
from tests.conftest import build_overlay


def build_registries(n_nodes):
    sim, net, nodes = build_overlay(n_nodes)
    stores = [DhtKeyValueStore(node) for node in nodes]
    registries = [ServiceRegistry(store) for store in stores]
    return sim, net, nodes, stores, registries


def run(sim, generator):
    proc = sim.process(generator)
    return sim.run(until=proc)


class TestRegistry:
    def test_register_and_lookup(self):
        sim, net, nodes, stores, regs = build_registries(4)
        svc = FaceDetection()
        run(sim, regs[0].register(svc))
        entry = run(sim, regs[3].lookup(svc.qualified_name))
        assert entry["nodes"] == [nodes[0].name]

    def test_multiple_hosts_accumulate(self):
        sim, net, nodes, stores, regs = build_registries(4)
        svc = FaceDetection()
        run(sim, regs[0].register(svc))
        run(sim, regs[1].register(FaceDetection()))
        entry = run(sim, regs[2].lookup(svc.qualified_name))
        assert set(entry["nodes"]) == {nodes[0].name, nodes[1].name}

    def test_register_is_idempotent(self):
        sim, net, nodes, stores, regs = build_registries(3)
        svc = MediaConversion()
        run(sim, regs[0].register(svc))
        run(sim, regs[0].register(svc))
        entry = run(sim, regs[1].lookup(svc.qualified_name))
        assert entry["nodes"].count(nodes[0].name) == 1

    def test_policy_stored(self):
        sim, net, nodes, stores, regs = build_registries(3)
        svc = MediaConversion()
        run(sim, regs[0].register(svc, policy="prefer-desktop"))
        entry = run(sim, regs[1].lookup(svc.qualified_name))
        assert entry["policy"] == "prefer-desktop"

    def test_profile_round_trip(self):
        sim, net, nodes, stores, regs = build_registries(3)
        svc = FaceDetection()
        run(sim, regs[0].register(svc))
        entry = run(sim, regs[1].lookup(svc.qualified_name))
        profile = regs[1].profile_of(entry)
        assert profile.min_mem_mb == svc.profile.min_mem_mb
        assert profile.parallelism == svc.profile.parallelism

    def test_deregister_removes_host(self):
        sim, net, nodes, stores, regs = build_registries(3)
        svc = FaceDetection()
        run(sim, regs[0].register(svc))
        run(sim, regs[1].register(FaceDetection()))
        run(sim, regs[0].deregister(svc))
        entry = run(sim, regs[2].lookup(svc.qualified_name))
        assert entry["nodes"] == [nodes[1].name]
        assert not regs[0].hosts_locally(svc.qualified_name)

    def test_deregister_unregistered_is_noop(self):
        sim, net, nodes, stores, regs = build_registries(3)
        assert run(sim, regs[0].deregister(FaceDetection())) is None

    def test_lookup_unknown_service_raises(self):
        sim, net, nodes, stores, regs = build_registries(3)
        with pytest.raises(KeyNotFoundError):
            run(sim, regs[0].lookup("ghost-service#v1"))

    def test_hosts_locally(self):
        sim, net, nodes, stores, regs = build_registries(3)
        svc = FaceDetection()
        run(sim, regs[0].register(svc))
        assert regs[0].hosts_locally(svc.qualified_name)
        assert not regs[1].hosts_locally(svc.qualified_name)

    def test_register_does_not_edit_the_stored_value(self):
        """Registration is read-modify-write on a copy: the value the
        owner's record holds changes only when the put lands."""
        sim, net, nodes, stores, regs = build_registries(3)
        run(sim, regs[0].register(FaceDetection()))
        key = service_key(FaceDetection().qualified_name)
        stored = next(
            s.primary[h].latest.value
            for s in stores
            for h in s.primary
            if s.primary[h].name == key
        )
        snapshot = list(stored["nodes"])
        run(sim, regs[1].register(FaceDetection()))
        assert stored["nodes"] == snapshot
