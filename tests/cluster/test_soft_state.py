"""Resource snapshots are soft state: RAM only, on every holder.

Each node republishes its snapshot every monitor period and decisions
expire old ones, so durable backends keep ``resource:*`` records out of
the journal, the snapshot and anti-entropy.  A crash drops them and a
revived node serves none until the next publish, so a decision skips
them instead of reading a snapshot from before the crash.
"""

from repro.cluster import ChaosSchedule, Cloud4Home, ClusterConfig, large_home
from repro.kvstore.records import SOFT_STATE_PREFIX
from repro.kvstore.store import MSG_SYNC
from repro.monitoring import resource_key

KV_TABLES = ("kv.primary", "kv.replicas")


def journaled_names(store) -> list[str]:
    """Record names in a durable backend's log and snapshot."""
    names = [
        entry.value["name"]
        for entry in store.log
        if entry.op == "put" and entry.table in KV_TABLES
    ]
    for table in KV_TABLES:
        names.extend(wire["name"] for wire in store.snapshot.get(table, {}).values())
    return names


def test_a_durable_home_journals_no_resource_record():
    c4h = Cloud4Home(large_home(24, seed=41, storage="disk"))
    c4h.start()
    for i in range(12):
        c4h.run(c4h.devices[i * 2].client.store_file(f"soft-{i}.bin", 1.0))
    c4h.sim.run(until=c4h.sim.now + 60.0)
    journaled = [name for d in c4h.devices for name in journaled_names(d.storage)]
    live = [
        record.name
        for d in c4h.devices
        for table in (d.kv.primary, d.kv.replicas)
        for record in table.values()
    ]
    assert any(name.startswith("object:") for name in journaled)
    assert sum(name.startswith(SOFT_STATE_PREFIX) for name in live) >= 24
    assert not [name for name in journaled if name.startswith(SOFT_STATE_PREFIX)]


def test_replicas_journal_the_wire_form_the_owner_built():
    """One wire form per write: the owner's journal entry, its reply and
    the replica holders' journal entries are the same object."""
    c4h = Cloud4Home(ClusterConfig(seed=42, storage="wal"))
    c4h.start(monitors=False)
    c4h.run(c4h.devices[1].kv.put("shared-wire", {"v": 1}))
    key_hex = c4h.devices[0].kv.key_for("shared-wire").hex
    c4h.sim.run(until=c4h.sim.now + 1.0)
    entries = [
        (d, entry)
        for d in c4h.devices
        for entry in d.storage.log
        if entry.key == key_hex and entry.op == "put"
    ]
    owner = next(d for d in c4h.devices if key_hex in d.kv.primary)
    assert len(entries) == 1 + c4h.config.replication_factor
    built = owner.kv.primary[key_hex].wire()
    assert all(entry.value is built for _, entry in entries)


def test_anti_entropy_leaves_soft_state_out():
    c4h = Cloud4Home(ClusterConfig(seed=43, storage="wal"))
    c4h.start(monitors=False)
    for i in range(6):
        c4h.run(c4h.devices[0].kv.put(f"ae-{i}", i))
    soft = {c4h.devices[0].kv.key_for(resource_key(d.name)).hex for d in c4h.devices}
    syncing = c4h.devices[2]
    assert soft & (set(syncing.kv.primary) | set(syncing.kv.replicas))
    sent, replies = [], []
    call = syncing.kv.endpoint.call

    def spy(dst, msg_type, body=None, **kwargs):
        event = call(dst, msg_type, body, **kwargs)
        if msg_type == MSG_SYNC:
            sent.append(body["digests"])
            event.callbacks.append(lambda ev: replies.append(ev.value))
        return event

    syncing.kv.endpoint.call = spy
    c4h.run(syncing.kv.sync_with_peers(fanout=len(c4h.devices) - 1))
    assert sent and all(digests for digests in sent)
    assert not soft & {key for digests in sent for key in digests}
    returned = [wire["name"] for reply in replies for wire in reply["records"]]
    assert not [name for name in returned if name.startswith(SOFT_STATE_PREFIX)]


def test_a_decision_after_a_revive_skips_snapshots_the_crash_dropped():
    """The revived owner of another node's snapshot serves nothing for it
    until that node publishes again: a decision in that first monitor
    period ranks without it, never with its pre-crash snapshot."""
    c4h = Cloud4Home(
        ClusterConfig(seed=44, storage="wal", replication_factor=0, monitor_period_s=60.0)
    )
    c4h.start()
    owners = {
        d.name: next(
            o.name
            for o in c4h.devices
            if c4h.devices[0].kv.key_for(resource_key(d.name)).hex in o.kv.primary
        )
        for d in c4h.devices
    }
    publisher, owner = next((p, o) for p, o in sorted(owners.items()) if p != o)
    chaos = ChaosSchedule(c4h).crash(10.0, owner).revive(20.0, owner)
    t0 = c4h.sim.now
    chaos.start()
    c4h.sim.run(until=t0 + 30.0)
    assert [e.kind for e in chaos.events] == ["crash", "revive"]
    decider = c4h.device(owner)
    ranked = c4h.run(decider.decision.decide())
    assert publisher not in [c.node for c in ranked]
    assert all(c.snapshot.taken_at >= t0 + 10.0 or owners[c.node] != owner for c in ranked)
    # The next publish restores it.
    c4h.sim.run(until=t0 + 61.0)
    ranked = c4h.run(decider.decision.decide())
    snapshot = next(c.snapshot for c in ranked if c.node == publisher)
    assert snapshot.taken_at >= t0 + 60.0
