"""The durability invariants, checked after every step of a kill/revive
schedule on a home with every redundancy feature on.

A 12-device home runs resilience, (4, 2) striping, disk storage and the
default 300 s repair backstop, exactly as ``Cloud4Home.start`` brings
it up: its failure detectors find crashes from stale resource
snapshots.  Three of the busiest holders die 30 s apart and come back
much later, so without a repair between kills some stripes and replica
sets fall below k.  Repair on suspicion must keep every breach shorter
than detection plus one triggered sweep and the RPC timeout, long
before the backstop would run.
"""

from collections import Counter

import pytest

from repro.cluster import (
    ChaosSchedule,
    Cloud4Home,
    ClusterConfig,
    ResilienceConfig,
    large_home,
)
from repro.cluster.invariants import Violation, check_invariants, live_objects
from repro.net import RpcEndpoint
from repro.resilience.repair import PING_TIMEOUT_S
from repro.vstore.node import object_key
from repro.vstore.objects import LOCATION_REMOTE
from repro.vstore.striping import object_of

#: A crash is suspected within four monitor periods (three missed
#: publishes, then a check); the sweeps it triggers then finish within
#: a probe timeout and one RPC timeout.
DETECT_S = 4 * ClusterConfig().monitor_period_s
BOUND_S = DETECT_S + PING_TIMEOUT_S + RpcEndpoint.DEFAULT_TIMEOUT
STEP_S = 1.0


def durable_home(seed: int) -> Cloud4Home:
    c4h = Cloud4Home(
        large_home(
            12,
            seed=seed,
            resilience=True,
            data_replicas=2,
            replication_factor=3,
            striping=True,
            storage="disk",
        )
    )
    c4h.start()
    for i in range(30):
        writer = c4h.devices[i % len(c4h.devices)]
        c4h.run(writer.client.store_file(f"inv-{i:02d}.bin", 1.0 + 3.0 * (i % 3)))
    return c4h


def busiest_holders(c4h, count: int) -> list[str]:
    shares = Counter(
        holder
        for meta in live_objects(c4h).values()
        for holder in meta.holders
        if holder != LOCATION_REMOTE
    )
    return [name for name, _ in sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))][
        :count
    ]


def breach_lifetimes(c4h, chaos, until: float) -> dict:
    """Step the run, checking after every step (so after every chaos
    event); returns each breach's (first seen, last seen) times."""
    seen: dict[Violation, list[float]] = {}
    checked_events = 0
    t = c4h.sim.now
    while t < until:
        t += STEP_S
        c4h.sim.run(until=t)
        checked_events = len(chaos.events)
        for violation in check_invariants(c4h):
            seen.setdefault(violation, [t, t])[1] = t
    assert checked_events == len(chaos.events)
    return seen


def test_breaches_clear_within_one_triggered_sweep():
    c4h = durable_home(seed=61)
    backstop = c4h.config.resilience_tuning.repair_period_s
    assert backstop == ResilienceConfig().repair_period_s == 300.0
    assert check_invariants(c4h) == []
    victims = busiest_holders(c4h, 4)
    chaos = ChaosSchedule(c4h)
    for i, name in enumerate(victims[:3]):
        chaos.crash(10.0 + 30.0 * i, name).revive(160.0 + 30.0 * i, name)
    chaos.crash(250.0, victims[3]).revive(280.0, victims[3])
    t0 = c4h.sim.now
    chaos.start()
    seen = breach_lifetimes(c4h, chaos, until=t0 + 290.0)
    assert [e.kind for e in chaos.events].count("revive") == 4
    long_lived = {
        (v.kind, v.name, v.detail): round(last - first, 1)
        for v, (first, last) in seen.items()
        if last - first > BOUND_S
    }
    assert long_lived == {}
    assert check_invariants(c4h) == []
    # The first kill was repaired at once, long before any backstop.
    repaired_at = [a.at for d in c4h.devices for a in d.repairer.repairs]
    assert repaired_at and min(repaired_at) < t0 + 10.0 + BOUND_S


@pytest.mark.parametrize("layout_mb", [1.0, 7.0])
def test_a_deleted_object_leaves_no_payload(layout_mb):
    c4h = Cloud4Home(
        large_home(8, seed=62, resilience=True, data_replicas=2, striping=True)
    )
    c4h.start()
    c4h.run(c4h.devices[0].client.store_file("gone.bin", layout_mb))
    assert check_invariants(c4h) == []
    c4h.run(c4h.devices[1].client.delete_object("gone.bin"))
    # Replica holders drop the metadata when the owner's notices land.
    c4h.sim.run(until=c4h.sim.now + 1.0)
    assert check_invariants(c4h) == []


def test_the_checker_names_each_breach():
    c4h = Cloud4Home(
        large_home(8, seed=63, resilience=True, data_replicas=2, striping=True)
    )
    c4h.start()
    c4h.run(c4h.devices[0].client.store_file("stripe.bin", 7.0))
    c4h.run(c4h.devices[0].client.store_file("copies.bin", 1.0))
    metas = live_objects(c4h)
    stripe, copies = metas["stripe.bin"], metas["copies.bin"]
    assert (stripe.k, len(stripe.holders)) == (4, 6)
    assert (copies.k, len(copies.holders)) == (1, 3)
    # Three of six chunks gone: one short of k.
    for slot in range(3):
        holder = c4h.device(stripe.holders[slot])
        holder.vstore._remove_local(stripe.slot_name(slot))
    # Every full copy gone but one, then that one too.
    for holder in copies.holders:
        c4h.device(holder).vstore._remove_local("copies.bin")
    # A payload whose metadata is gone.
    c4h.devices[0].vstore.mandatory.store("stray.bin", 1.0)
    found = {(v.kind, v.name) for v in check_invariants(c4h)}
    assert found == {
        ("under-k", "stripe.bin"),
        ("under-k", "copies.bin"),
        ("orphan", "stray.bin"),
    }


def test_a_delete_missed_while_down_leaves_no_payload():
    """A holder that is down while its object is deleted loses its copy
    once it is back: the deleter's repairer retries the missed drop."""
    c4h = Cloud4Home(ClusterConfig(seed=7, resilience=True, storage="wal"))
    c4h.start()
    c4h.run(c4h.devices[0].client.store_file("gone.bin", 1.0))
    assert "desktop" in live_objects(c4h)["gone.bin"].holders
    chaos = ChaosSchedule(c4h)
    chaos.crash(1.0, "desktop").revive(60.0, "desktop")
    chaos.start()
    c4h.sim.run(until=c4h.sim.now + 10.0)
    c4h.run(c4h.devices[1].client.delete_object("gone.bin"))
    c4h.sim.run(until=c4h.sim.now + 600.0)
    assert check_invariants(c4h) == []
    assert not c4h.device("desktop").vstore.holds("gone.bin")
    assert [e.kind for e in chaos.events] == ["crash", "revive"]


def test_deletes_during_an_outage_leave_no_payload_after_revive():
    c4h = durable_home(seed=61)
    victim = busiest_holders(c4h, 1)[0]
    held = sorted(
        name for name, meta in live_objects(c4h).items() if victim in meta.holders
    )[:3]
    inventory = c4h.device(victim).vstore.inventory()
    copies = [
        s for kind in ("mandatory", "voluntary") for s in inventory[kind] if object_of(s) in held
    ]
    chaos = ChaosSchedule(c4h)
    chaos.crash(10.0, victim).revive(160.0, victim)
    t0 = c4h.sim.now
    chaos.start()
    seen = breach_lifetimes(c4h, chaos, until=t0 + 60.0)
    deleter = next(d for d in c4h.devices if d.name != victim)
    for name in held:
        c4h.run(deleter.client.delete_object(name))
    seen.update(breach_lifetimes(c4h, chaos, until=t0 + 250.0))
    assert check_invariants(c4h) == []
    assert all(last - first <= BOUND_S for first, last in seen.values())
    assert copies and not any(c4h.device(victim).vstore.holds(s) for s in copies)
    assert [e.kind for e in chaos.events] == ["crash", "revive"]


def test_a_stale_replica_of_a_deleted_object_is_not_live():
    """A KV replica holder that was offline during a delete keeps the
    old ``object:*`` record (its replica-delete notice was lost); the
    owner's tombstone covers it, so the object is not live and the copy
    the same holder missed dropping is an orphan."""
    c4h = Cloud4Home(ClusterConfig(seed=7, storage="wal"))
    c4h.start(monitors=False)
    c4h.run(c4h.devices[0].client.store_file("gone.bin", 1.0))
    key_hex = c4h.devices[0].kv.key_for(object_key("gone.bin")).hex
    holders = [d for d in c4h.devices if key_hex in d.kv.replicas]
    assert holders
    stale = holders[0]
    c4h.network.take_offline(stale.name)
    deleter = next(d for d in c4h.devices if d is not stale)
    c4h.run(deleter.client.delete_object("gone.bin"))
    c4h.network.bring_online(stale.name)
    assert key_hex in stale.kv.replicas  # the missed notice
    assert any(key_hex in (d.kv.tombstones or {}) for d in c4h.devices)
    assert "gone.bin" not in live_objects(c4h)
    assert stale.vstore.holds("gone.bin")  # its payload drop was missed too
    assert check_invariants(c4h) == [Violation("orphan", "gone.bin", f"on {stale.name}")]


@pytest.mark.parametrize("seed", [7, 3, 11, 21])
def test_a_heal_drops_a_stale_replica_of_a_deleted_object(seed):
    """A replica holder cut off by a partition during a delete keeps the
    old ``object:*`` record until the heal: the heal's anti-entropy
    round gives it the tombstone, with the default volatile storage.
    Its missed payload drop (resilience off) stays an orphan."""
    c4h = Cloud4Home(ClusterConfig(seed=seed))
    c4h.start(monitors=False)
    c4h.run(c4h.devices[0].client.store_file("gone.bin", 1.0))
    key_hex = c4h.devices[0].kv.key_for(object_key("gone.bin")).hex
    stale = next(d for d in c4h.devices if key_hex in d.kv.replicas)
    others = [d.name for d in c4h.devices if d is not stale]
    chaos = ChaosSchedule(c4h).partition(1.0, [stale.name], others, duration=10.0)
    t0 = c4h.sim.now
    chaos.start()
    c4h.sim.run(until=t0 + 2.0)
    deleter = next(d for d in c4h.devices if d is not stale)
    c4h.run(deleter.client.delete_object("gone.bin"))
    assert key_hex in stale.kv.replicas  # the missed notice
    c4h.sim.run(until=t0 + 30.0)
    heal = chaos.events[-1]
    assert (heal.kind, heal.detail) == ("heal", "synced +0/-1 (pushed 1)")
    assert key_hex not in stale.kv.replicas
    assert key_hex in stale.kv.tombstones
    assert "gone.bin" not in live_objects(c4h)
    assert check_invariants(c4h) == [Violation("orphan", "gone.bin", f"on {stale.name}")]
