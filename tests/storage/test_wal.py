"""Tests for the idealized WAL backend: journaling, compaction, replay."""

import pytest

from repro.storage import WalStore, entry_bytes
from repro.storage.wal import WalTable


class FakeRecord:
    """Minimal wire()-capable object, like kvstore.Record."""

    def __init__(self, version: int) -> None:
        self.version = version

    def wire(self) -> dict:
        return {"version": self.version}

    @classmethod
    def from_wire(cls, data: dict) -> "FakeRecord":
        return cls(data["version"])


class TestWalTable:
    def test_tables_are_wal_tables(self):
        store = WalStore()
        assert isinstance(store.table("t"), WalTable)

    def test_setitem_journals(self):
        store = WalStore()
        store.table("t")["k"] = {"v": 1}
        assert store.appends == 1
        entry = store.log[0]
        assert (entry.op, entry.table, entry.key) == ("put", "t", "k")

    def test_delitem_and_pop_journal_deletes(self):
        store = WalStore()
        tbl = store.table("t")
        tbl["a"] = 1
        tbl["b"] = 2
        del tbl["a"]
        tbl.pop("b")
        assert [e.op for e in store.log] == ["put", "put", "del", "del"]

    def test_pop_missing_uses_default_without_journaling(self):
        store = WalStore()
        tbl = store.table("t")
        assert tbl.pop("nope", None) is None
        assert store.appends == 0
        with pytest.raises(KeyError):
            tbl.pop("nope")

    def test_update_and_setdefault_journal(self):
        store = WalStore()
        tbl = store.table("t")
        tbl.update({"a": 1, "b": 2})
        tbl.setdefault("c", 3)
        tbl.setdefault("a", 99)  # present: no journal entry
        assert store.appends == 3
        assert tbl["a"] == 1

    def test_clear_is_logical_deletes(self):
        store = WalStore()
        tbl = store.table("t")
        tbl["a"] = 1
        tbl["b"] = 2
        tbl.clear()
        assert tbl == {}
        assert [e.op for e in store.log] == ["put", "put", "del", "del"]

    def test_wire_objects_encoded_on_append(self):
        store = WalStore()
        store.table("t")["k"] = FakeRecord(7)
        assert store.log[0].value == {"version": 7}


class TestVolatileValues:
    """Values a table names volatile live in RAM only."""

    def make(self):
        store = WalStore(snapshot_every=4)
        tbl = store.table("t", volatile=lambda v: v.get("soft", False))
        return store, tbl

    def test_no_mutation_of_a_volatile_value_is_journaled(self):
        store, tbl = self.make()
        for i in range(6):
            tbl[f"s{i}"] = {"soft": True, "i": i}
        tbl.setdefault("s9", {"soft": True})
        tbl.update({"s10": {"soft": True}})
        del tbl["s0"]
        tbl.pop("s1")
        tbl.popitem()
        tbl.clear()
        assert store.appends == 0 and store.compactions == 0
        assert store.log == [] and store.snapshot == {}

    def test_durable_values_beside_them_are_journaled(self):
        store, tbl = self.make()
        tbl["a"] = {"v": 1}
        tbl["s"] = {"soft": True}
        del tbl["s"]
        del tbl["a"]
        assert [(e.op, e.key) for e in store.log] == [("put", "a"), ("del", "a")]

    def test_crash_drops_them_and_replay_does_not_restore_them(self):
        store, tbl = self.make()
        tbl["a"] = {"v": 1}
        tbl["s"] = {"soft": True}
        assert store.crash()["lost_records"] == 2
        report = store.replay()
        assert dict(tbl) == {"a": {"v": 1}}
        assert report.records == 1


class TestCompaction:
    def test_compacts_at_threshold(self):
        store = WalStore(snapshot_every=4)
        tbl = store.table("t")
        for i in range(4):
            tbl[f"k{i}"] = i
        assert store.compactions == 1
        assert store.log == []
        assert store.snapshot["t"] == {"k0": 0, "k1": 1, "k2": 2, "k3": 3}

    def test_compaction_folds_deletes(self):
        store = WalStore(snapshot_every=100)
        tbl = store.table("t")
        tbl["a"] = 1
        tbl["b"] = 2
        del tbl["a"]
        store.compact()
        assert store.snapshot["t"] == {"b": 2}
        assert store.synced == 0

    def test_unsynced_tail_stays_out_of_snapshot(self):
        store = WalStore(snapshot_every=100)
        tbl = store.table("t")
        tbl["a"] = 1
        store.synced = 1  # pretend the second append never synced
        tbl["b"] = 2
        store.synced = 1
        store.compact()
        assert store.snapshot["t"] == {"a": 1}
        assert len(store.log) == 1  # the unsynced append remains


class TestCrashAndReplay:
    def test_crash_keeps_synced_log(self):
        store = WalStore()
        tbl = store.table("t")
        tbl["a"] = 1
        report = store.crash()
        assert report == {"lost_records": 1, "lost_ops": 0}
        assert tbl == {}  # RAM gone
        assert len(store.log) == 1  # journal survives

    def test_crash_drops_unsynced_tail(self):
        store = WalStore()
        tbl = store.table("t")
        tbl["a"] = 1
        tbl["b"] = 2
        store.synced = 1
        report = store.crash()
        assert report["lost_ops"] == 1
        assert len(store.log) == 1

    def test_replay_rebuilds_from_snapshot_plus_log(self):
        store = WalStore(snapshot_every=3)
        tbl = store.table("t")
        for i in range(3):  # triggers compaction
            tbl[f"k{i}"] = i
        tbl["k3"] = 3
        del tbl["k0"]
        store.crash()
        report = store.replay()
        assert tbl == {"k1": 1, "k2": 2, "k3": 3}
        assert report.records == 3
        assert report.snapshot_records == 3
        assert report.ops_replayed == 2
        assert report.bytes_replayed > 0
        assert report.tables == {"t": 3}

    def test_replay_applies_decoder(self):
        store = WalStore()
        tbl = store.table("t", decode=FakeRecord.from_wire)
        tbl["k"] = FakeRecord(5)
        store.crash()
        store.replay()
        restored = tbl["k"]
        assert isinstance(restored, FakeRecord)
        assert restored.version == 5

    def test_replay_does_not_rejournal(self):
        store = WalStore()
        store.table("t")["k"] = 1
        store.crash()
        before = store.appends
        store.replay()
        assert store.appends == before

    def test_replay_iteration_order_is_sorted(self):
        store = WalStore()
        tbl = store.table("t")
        tbl["z"] = 1
        tbl["a"] = 2
        store.crash()
        store.replay()
        assert list(tbl) == ["a", "z"]

    def test_replay_cost_is_zero_for_idealized_wal(self):
        store = WalStore()
        store.table("t")["k"] = 1
        store.crash()
        assert store.replay_cost_s(store.replay()) == 0.0

    def test_repeated_crash_replay_is_stable(self):
        store = WalStore(snapshot_every=5)
        tbl = store.table("t")
        for i in range(12):
            tbl[f"k{i}"] = i
        expected = dict(tbl)
        for _ in range(3):
            store.crash()
            store.replay()
            assert dict(tbl) == expected

    def test_snapshot_every_must_be_positive(self):
        with pytest.raises(ValueError):
            WalStore(snapshot_every=0)

    def test_stats_shape(self):
        store = WalStore()
        store.table("t")["k"] = 1
        stats = store.stats()
        assert stats["kind"] == "wal"
        assert stats["appends"] == 1
        assert stats["synced"] == 1


class TestSnapshotBytes:
    def test_running_total_matches_a_full_recount(self):
        store = WalStore(snapshot_every=5)
        a, b = store.table("a"), store.table("b")
        for i in range(40):
            a[f"k{i % 7}"] = {"v": "x" * i}
            b[f"k{i % 3}"] = [i] * (i % 5)
            if i % 4 == 0:
                a.pop(f"k{(i + 1) % 7}", None)
            if i % 9 == 0:
                b.clear()
        store.compact()
        assert store.compactions > 1
        assert store._snapshot_bytes == sum(
            entry_bytes(value)
            for tbl in store.snapshot.values()
            for value in tbl.values()
        )

    def test_replay_counts_snapshot_and_log_bytes(self):
        store = WalStore(snapshot_every=2)
        tbl = store.table("t")
        tbl["a"] = "x" * 100
        tbl["b"] = "y"  # compaction: snapshot {"a", "b"}
        tbl["a"] = "z"  # still in the log
        report = store.replay()
        assert report.bytes_replayed == (
            entry_bytes("x" * 100) + entry_bytes("y") + entry_bytes("z")
        )
