"""Anti-entropy edge cases: a recovered node must converge with its
peers no matter which side of the divergence it is on.

Each scenario runs twice: with the overlay's ring-window peer queries
(``fastpath``) and with their full-sort definitions swapped in
(``reference``) — peer selection for replicas and sync rounds must
converge identically either way.
"""

import pytest

from repro.cluster import ChaosSchedule, Cloud4Home, ClusterConfig
from repro.kvstore import KeyNotFoundError
from repro.overlay import PeerInfo
from tests.conftest import install_full_sort_ring_scan, kv_placement


@pytest.fixture(params=["fastpath", "reference"])
def ring_scan(request, monkeypatch):
    """None on the ring-window path; the oracle call counts otherwise."""
    if request.param == "reference":
        return install_full_sort_ring_scan(monkeypatch)
    return None


def fresh_cluster(seed, **kwargs):
    c4h = Cloud4Home(ClusterConfig(seed=seed, storage="wal", **kwargs))
    c4h.start(monitors=False)
    return c4h


def primary_holder(c4h, name):
    key_hex = c4h.devices[0].kv.key_for(name).hex
    return key_hex, next(d for d in c4h.devices if key_hex in d.kv.primary)


def full_sync(c4h, device):
    """One anti-entropy round against every other node."""
    return c4h.run(device.kv.sync_with_peers(fanout=len(c4h.devices) - 1))


def copy_version(device, key_hex):
    record = device.kv.primary.get(key_hex) or device.kv.replicas.get(key_hex)
    return record.version if record is not None else None


@pytest.mark.usefixtures("ring_scan")
class TestAntiEntropyEdgeCases:
    def test_recovered_node_pushes_its_newer_version(self):
        """The recovered node holds the *newest* write: it was isolated
        when it accepted v2, so its replicas never heard.  Rejoin must
        push v2 out, not let the stale majority win."""
        c4h = fresh_cluster(800)
        chaos = ChaosSchedule(c4h)
        c4h.run(c4h.devices[0].kv.put("ae-newer", "v1"))
        key_hex, owner = primary_holder(c4h, "ae-newer")
        others = [d.name for d in c4h.devices if d.name != owner.name]
        # Isolate the owner, then write v2: the local apply succeeds
        # but every replica push dies on the partition.
        c4h.network.partition([owner.name], others)
        c4h.run(owner.kv.put("ae-newer", "v2"))
        assert owner.kv.primary[key_hex].version == 2
        stale = [
            d for d in c4h.devices
            if d.name != owner.name and key_hex in d.kv.replicas
        ]
        assert stale and all(d.kv.replicas[key_hex].version == 1 for d in stale)
        c4h.network.heal_partition([owner.name], others)
        c4h.run(chaos._do_crash(owner.name))
        c4h.sim.run(until=c4h.sim.now + 1.0)
        c4h.run(chaos._do_revive(owner.name, None))
        # The WAL kept v2 across the crash.
        assert owner.kv.primary[key_hex].version == 2
        full_sync(c4h, owner)
        # Every live copy anywhere is now v2, and reads agree.
        for device in c4h.devices:
            version = copy_version(device, key_hex)
            assert version in (None, 2)
        reader = next(d for d in c4h.devices if d.name != owner.name)
        assert c4h.run(reader.kv.get("ae-newer")) == "v2"

    def test_recovered_node_drops_record_deleted_in_its_absence(self):
        """The recovered node replays a record the cluster deleted while
        it was down: the peers' tombstone must win, not resurrect the
        record through the replayed copy."""
        c4h = fresh_cluster(801)
        chaos = ChaosSchedule(c4h)
        c4h.run(c4h.devices[0].kv.put("ae-tomb", "doomed"))
        c4h.sim.run(until=c4h.sim.now + 1.0)  # let replica pushes land
        key_hex, owner = primary_holder(c4h, "ae-tomb")
        holder = next(
            d for d in c4h.devices
            if d.name != owner.name and key_hex in d.kv.replicas
        )
        c4h.run(chaos._do_crash(holder.name))
        c4h.sim.run(until=c4h.sim.now + 1.0)
        c4h.run(owner.kv.delete("ae-tomb"))
        assert key_hex in owner.kv.tombstones
        c4h.run(chaos._do_revive(holder.name, None))
        full_sync(c4h, holder)
        # The replayed copy died; the tombstone propagated.
        assert key_hex not in holder.kv.primary
        assert key_hex not in holder.kv.replicas
        assert key_hex in holder.kv.tombstones
        with pytest.raises(KeyNotFoundError):
            c4h.run(holder.kv.get("ae-tomb"))

    def test_rejoin_during_partition_converges_after_heal(self):
        """A node revived while a partition cuts it off from the key's
        owner syncs what it can reach, stays stale on the rest, and
        converges once the partition heals."""
        c4h = fresh_cluster(802)
        chaos = ChaosSchedule(c4h)
        c4h.run(c4h.devices[0].kv.put("ae-part", 1))
        c4h.sim.run(until=c4h.sim.now + 1.0)  # let replica pushes land
        key_hex, owner = primary_holder(c4h, "ae-part")
        holder = next(
            d for d in c4h.devices
            if d.name != owner.name and key_hex in d.kv.replicas
        )
        c4h.run(chaos._do_crash(holder.name))
        c4h.sim.run(until=c4h.sim.now + 1.0)
        # The cluster moves on while the holder is down.
        c4h.run(owner.kv.put("ae-part", 2))
        # Partition: the holder and one bystander on one side, the
        # owner (and the updated replicas) on the other.
        bystander = next(
            d.name
            for d in c4h.devices
            if d.name not in (owner.name, holder.name)
            and key_hex not in d.kv.replicas
            and key_hex not in d.kv.primary
        )
        side_a = sorted({holder.name, bystander})
        side_b = [d.name for d in c4h.devices if d.name not in side_a]
        c4h.network.partition(side_a, side_b)
        c4h.run(chaos._do_revive(holder.name, bystander))
        assert any(e.kind == "revive" for e in chaos.events)
        # Cut off from the owner, the holder still has its stale v1.
        assert copy_version(holder, key_hex) == 1
        c4h.network.heal_partition(side_a, side_b)
        # Model membership gossip catching up after the heal: the
        # rejoined node re-learns the far side's view, then one
        # anti-entropy round pulls the write it missed.
        holder.chimera.seed_view(
            [PeerInfo(owner.name, owner.chimera.id), *owner.chimera.peers()]
        )
        summary = full_sync(c4h, holder)
        assert summary["peers"] >= len(side_b)
        assert copy_version(holder, key_hex) == 2
        assert c4h.run(holder.kv.get("ae-part")) == 2

    def test_sync_is_deterministic(self, ring_scan, monkeypatch):
        """The same scenario twice produces byte-identical summaries and
        end state — anti-entropy introduces no hidden nondeterminism —
        and the full-sort peer queries reach the ring-window end state,
        replica placement included."""

        def run_once():
            c4h = fresh_cluster(803)
            chaos = ChaosSchedule(c4h)
            for i in range(6):
                c4h.run(c4h.devices[0].kv.put(f"det-{i}", i))
            key_hex, owner = primary_holder(c4h, "det-0")
            c4h.run(chaos._do_crash(owner.name))
            c4h.sim.run(until=c4h.sim.now + 2.0)
            c4h.run(chaos._do_revive(owner.name, None))
            summary = full_sync(c4h, owner)
            state = {
                d.name: sorted(
                    (k, r.version) for k, r in d.kv.primary.items()
                )
                for d in c4h.devices
            }
            return summary, state, kv_placement(c4h), c4h.sim.now

        first = run_once()
        assert run_once() == first
        if ring_scan is not None:
            assert ring_scan["nearest_peers"] > 0
            assert ring_scan["closest_known"] > 0
            monkeypatch.undo()  # back to the ring-window queries
            assert run_once() == first
