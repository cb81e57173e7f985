"""Cluster metrics from the registry: per-op latency, errors, link
utilization, device load and KV totals."""

import pytest

from repro.cluster import Cloud4Home, ClusterConfig
from repro.telemetry import metrics_report
from repro.vstore import ObjectNotFoundError


@pytest.fixture()
def cluster():
    c4h = Cloud4Home(ClusterConfig(seed=44, telemetry=True))
    c4h.start(monitors=False)
    return c4h


class TestRecording:
    def test_timed_success(self, cluster):
        device = cluster.devices[0]
        result = cluster.run(device.client.store_file("m1.bin", 2.0))
        assert result.meta.name == "m1.bin"
        latency = cluster.metrics.histogram("client.store", node=device.name)
        assert latency.count == 1
        assert latency.vmax > 0
        assert cluster.metrics.counter("client.store.errors", node=device.name).value == 0

    def test_timed_failure_recorded_and_reraised(self, cluster):
        device = cluster.devices[0]
        with pytest.raises(ObjectNotFoundError):
            cluster.run(device.client.fetch_object("no"))
        failed = cluster.metrics.counter("client.fetch.errors", node=device.name)
        assert failed.value == 1
        assert cluster.metrics.histogram("client.fetch", node=device.name).count == 1

    def test_manual_record(self, cluster):
        # An externally timed operation lands in the same registry.
        cluster.metrics.histogram("custom", node="netbook0").observe(2.0)
        assert cluster.metrics.snapshot()["custom"]["netbook0"]["max"] == 2.0


class TestSummaries:
    def load_some_ops(self, cluster, n=6):
        for i in range(n):
            device = cluster.devices[i % 3]
            cluster.run(device.client.store_file(f"s{i}.bin", 1.0 + i))
            cluster.run(cluster.device("desktop").client.fetch_object(f"s{i}.bin"))

    def test_summary_statistics(self, cluster):
        self.load_some_ops(cluster)
        fetches = cluster.metrics.histogram("client.fetch", node="desktop")
        assert fetches.count == 6
        p50, p95 = fetches.quantile(0.5), fetches.quantile(0.95)
        assert 0 < p50 <= p95 <= fetches.vmax

    def test_summary_none_for_unknown_op(self, cluster):
        assert "client.nothing" not in cluster.metrics.snapshot()

    def test_link_utilization_bounded(self, cluster):
        self.load_some_ops(cluster, n=4)
        utilization = cluster.collect_metrics().snapshot()["link.utilization"]
        assert set(utilization) == {"home-lan", "home-uplink", "home-downlink"}
        assert all(0.0 <= g["value"] <= 1.0 for g in utilization.values())
        assert utilization["home-lan"]["value"] > 0  # fetches crossed the LAN

    def test_device_loads(self, cluster):
        loads = cluster.collect_metrics().snapshot()["device.load"]
        assert set(loads) == {d.name for d in cluster.devices}
        assert all(0.0 <= g["value"] <= 1.0 for g in loads.values())

    def test_kv_totals(self, cluster):
        self.load_some_ops(cluster, n=3)
        snapshot = cluster.collect_metrics().snapshot()
        assert sum(c["value"] for c in snapshot["kv.puts"].values()) >= 3
        assert sum(c["value"] for c in snapshot["kv.gets"].values()) >= 3

    def test_report_renders(self, cluster):
        self.load_some_ops(cluster, n=2)
        text = metrics_report(cluster.collect_metrics())
        assert "== metrics ==" in text
        assert "client.store@" in text and "client.fetch@desktop" in text
        assert "link.utilization@home-lan" in text
        assert "device.load@desktop" in text
        assert "kv.puts@" in text
