"""Tests for the IStore base behaviour and the backend factory."""

import pytest

from repro.storage import (
    IStore,
    RecoveryReport,
    SimDiskStore,
    WalStore,
    entry_bytes,
    make_store,
)
from repro.telemetry import MetricsRegistry


class TestIStore:
    def test_table_is_get_or_create(self):
        store = IStore()
        t1 = store.table("kv.primary")
        t2 = store.table("kv.primary")
        assert t1 is t2
        assert store.table("kv.replicas") is not t1

    def test_tables_are_plain_dicts(self):
        store = IStore()
        table = store.table("kv.primary")
        assert type(table) is dict

    def test_crash_wipes_everything(self):
        store = IStore()
        store.table("a")["x"] = 1
        store.table("b")["y"] = 2
        report = store.crash()
        assert report == {"lost_records": 2, "lost_ops": 0}
        assert store.table("a") == {}
        assert store.table("b") == {}
        assert store.crashes == 1

    def test_replay_restores_nothing(self):
        store = IStore()
        store.table("a")["x"] = 1
        store.crash()
        report = store.replay()
        assert isinstance(report, RecoveryReport)
        assert report.records == 0
        assert store.replay_cost_s(report) == 0.0
        assert store.table("a") == {}

    def test_stats_shape(self):
        store = IStore(node="n0")
        store.table("a")["x"] = 1
        stats = store.stats()
        assert stats["kind"] == "abstract"
        assert stats["tables"] == {"a": 1}

    def test_crash_metric_counted(self):
        metrics = MetricsRegistry()
        store = IStore(node="n0", metrics=metrics)
        store.crash()
        assert metrics.counter("storage.crashes", node="n0").value == 1.0


class TestFactory:
    def test_kinds(self):
        wal = make_store("wal", snapshot_every=8)
        assert isinstance(wal, WalStore)
        assert wal.snapshot_every == 8
        disk = make_store("disk", write_mb_s=10.0, fsync_s=0.01)
        assert isinstance(disk, SimDiskStore)
        assert disk.write_mb_s == 10.0

    def test_unknown_kind_raises(self):
        for kind in ("mem", "floppy"):
            with pytest.raises(ValueError, match="unknown storage backend"):
                make_store(kind)

    def test_every_backend_is_an_istore(self):
        for kind in ("wal", "disk"):
            assert isinstance(make_store(kind), IStore)


class TestEntryBytes:
    def test_scales_with_payload(self):
        small = entry_bytes({"v": 1})
        big = entry_bytes({"v": "x" * 1000})
        assert big > small > 0

    def test_unserializable_falls_back(self):
        assert entry_bytes(object()) > 0
