"""KV-store behaviour under sustained churn with stabilization."""

from repro.kvstore import DhtKeyValueStore
from repro.overlay import Stabilizer
from tests.conftest import build_overlay


def run(sim, generator):
    proc = sim.process(generator)
    return sim.run(until=proc)


class TestChurnResilience:
    def test_data_survives_rolling_graceful_churn(self):
        """Nodes leave one at a time; every key stays readable."""
        sim, net, nodes = build_overlay(6, seed=12)
        stores = [DhtKeyValueStore(node, replication_factor=2) for node in nodes]
        for i in range(25):
            run(sim, stores[0].put(f"rc-{i}", i))
        sim.run()
        for leaver_index in (5, 4, 3):
            proc = sim.process(stores[leaver_index].leave())
            sim.run(until=proc)
            sim.run()
            net.take_offline(nodes[leaver_index].name)
            reader = stores[0]
            for i in range(25):
                assert run(sim, reader.get(f"rc-{i}")) == i

    def test_interleaved_writes_and_crashes(self):
        sim, net, nodes = build_overlay(6, seed=13)
        stores = [DhtKeyValueStore(node, replication_factor=2) for node in nodes]
        for i in range(10):
            run(sim, stores[0].put(f"w-{i}", i))
        sim.run()
        nodes[5].fail_abruptly()
        net.take_offline(nodes[5].name)
        # Writes continue after the crash (routing repairs itself).
        for i in range(10, 20):
            run(sim, stores[0].put(f"w-{i}", i))
        sim.run()
        for i in range(20):
            assert run(sim, stores[1].get(f"w-{i}")) == i

    def test_stabilizer_keeps_store_routable_after_silent_crash(self):
        sim, net, nodes = build_overlay(6, seed=14)
        stores = [DhtKeyValueStore(node, replication_factor=2) for node in nodes]
        stabilizers = [Stabilizer(node, period_s=5.0) for node in nodes]
        for stab in stabilizers:
            stab.start()
        for i in range(12):
            run(sim, stores[0].put(f"s-{i}", i))
        sim.run(until=sim.now + 1.0)
        victim = nodes[3]
        victim.fail_abruptly()
        net.take_offline(victim.name)
        # Let stabilization rounds evict the dead node everywhere.
        sim.run(until=sim.now + 25.0)
        for node in nodes:
            if node is victim:
                continue
            assert not node.knows(victim.id)
        # All replicated data remains readable.
        for i in range(12):
            assert run(sim, stores[1].get(f"s-{i}")) == i

    def test_rejoin_after_crash_reintegrates_store(self):
        sim, net, nodes = build_overlay(5, seed=15)
        stores = [DhtKeyValueStore(node, replication_factor=2) for node in nodes]
        for i in range(10):
            run(sim, stores[0].put(f"r-{i}", i))
        sim.run()
        victim = nodes[2]
        victim.fail_abruptly()
        net.take_offline(victim.name)
        # Survivors notice (through traffic) and repair.
        for i in range(10):
            run(sim, stores[1].get(f"r-{i}"))
        # The node comes back with empty-ish state and rejoins.
        net.bring_online(victim.name)
        proc = sim.process(victim.join(bootstrap=nodes[0].name))
        sim.run(until=proc)
        sim.run()
        # It participates again: a fresh write lands correctly and all
        # data is readable from it.
        run(sim, stores[2].put("fresh", "value"))
        sim.run()
        assert run(sim, stores[2].get("fresh")) == "value"
        for i in range(10):
            assert run(sim, stores[2].get(f"r-{i}")) == i
