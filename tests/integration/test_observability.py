"""Observability under failure: metrics during chaos."""

import pytest

from repro.cluster import ChaosSchedule, Cloud4Home, ClusterConfig, MetricsCollector
from repro.net import NetworkError
from repro.vstore import VStoreError


def test_metrics_capture_degradation_and_errors():
    c4h = Cloud4Home(ClusterConfig(seed=770))
    c4h.start(monitors=False)
    metrics = MetricsCollector(c4h)
    owner = c4h.devices[0]
    c4h.run(owner.client.store_file("obs.bin", 5.0))

    # Healthy fetches.
    for _ in range(3):
        c4h.run(
            metrics.timed(
                "fetch",
                c4h.devices[1].name,
                c4h.devices[1].client.fetch_object("obs.bin"),
                bytes_moved=5 * 1024 * 1024,
            )
        )
    healthy = metrics.summary("fetch")

    # Degrade the LAN; fetches get slower but keep succeeding.
    chaos = ChaosSchedule(c4h).degrade_link(
        after=0.0, link=c4h.lan_link, factor=0.05
    )
    chaos.start()
    c4h.sim.run(until=c4h.sim.now + 1.0)
    for _ in range(3):
        c4h.run(
            metrics.timed(
                "fetch",
                c4h.devices[2].name,
                c4h.devices[2].client.fetch_object("obs.bin"),
                bytes_moved=5 * 1024 * 1024,
            )
        )
    degraded = metrics.summary("fetch")
    assert degraded.max_s > 3.0 * healthy.max_s
    assert metrics.error_rate("fetch") == 0.0

    # Crash the holder; fetches now fail and the metrics show it.
    owner.chimera.fail_abruptly()
    c4h.network.take_offline(owner.name)
    with pytest.raises((NetworkError, VStoreError)):
        c4h.run(
            metrics.timed(
                "fetch",
                c4h.devices[3].name,
                c4h.devices[3].client.fetch_object("obs.bin"),
            )
        )
    assert metrics.error_rate("fetch") > 0.0
    report = metrics.report()
    assert "error rate" in report


def test_chaos_events_align_with_metrics_timeline():
    c4h = Cloud4Home(ClusterConfig(seed=772))
    c4h.start(monitors=False)
    metrics = MetricsCollector(c4h)
    chaos = ChaosSchedule(c4h).crash(after=5.0, device_name="netbook4")
    chaos.start()
    c4h.run(c4h.devices[0].client.store_file("tl.bin", 1.0))
    c4h.sim.run(until=c4h.sim.now + 10.0)
    c4h.run(
        metrics.timed(
            "fetch",
            "desktop",
            c4h.device("desktop").client.fetch_object("tl.bin"),
        )
    )
    crash_at = chaos.events[0].at
    post_crash_ops = [r for r in metrics.records if r.started_at > crash_at]
    assert post_crash_ops and all(r.ok for r in post_crash_ops)
