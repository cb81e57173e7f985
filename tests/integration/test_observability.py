"""Observability under failure: the metrics registry during chaos."""

import pytest

from repro.cluster import ChaosSchedule, Cloud4Home, ClusterConfig
from repro.net import NetworkError
from repro.vstore import VStoreError


def fetch_latency(c4h, device) -> tuple[int, float, float]:
    """(count, max, errors) of ``device``'s ``client.fetch`` spans."""
    latency = c4h.metrics.histogram("client.fetch", node=device.name)
    errors = c4h.metrics.counter("client.fetch.errors", node=device.name)
    return latency.count, latency.vmax, errors.value


def test_metrics_capture_degradation_and_errors():
    c4h = Cloud4Home(ClusterConfig(seed=770, telemetry=True))
    c4h.start(monitors=False)
    owner, healthy_reader, slow_reader, late_reader = c4h.devices[:4]
    c4h.run(owner.client.store_file("obs.bin", 5.0))

    # Healthy fetches.
    for _ in range(3):
        c4h.run(healthy_reader.client.fetch_object("obs.bin"))
    count, healthy_max, errors = fetch_latency(c4h, healthy_reader)
    assert (count, errors) == (3, 0)

    # Degrade the LAN; fetches get slower but keep succeeding.
    chaos = ChaosSchedule(c4h).degrade_link(
        after=0.0, link=c4h.lan_link, factor=0.05
    )
    chaos.start()
    c4h.sim.run(until=c4h.sim.now + 1.0)
    for _ in range(3):
        c4h.run(slow_reader.client.fetch_object("obs.bin"))
    count, degraded_max, errors = fetch_latency(c4h, slow_reader)
    assert (count, errors) == (3, 0)
    assert degraded_max > 3.0 * healthy_max

    # Crash the holder; fetches now fail and the metrics show it.
    owner.chimera.fail_abruptly()
    c4h.network.take_offline(owner.name)
    with pytest.raises((NetworkError, VStoreError)):
        c4h.run(late_reader.client.fetch_object("obs.bin"))
    assert fetch_latency(c4h, late_reader)[2] == 1
    assert "client.fetch.errors" in c4h.collect_metrics().names()


def test_chaos_events_align_with_metrics_timeline():
    c4h = Cloud4Home(ClusterConfig(seed=772, telemetry=True))
    c4h.start(monitors=False)
    chaos = ChaosSchedule(c4h).crash(after=5.0, device_name="netbook4")
    chaos.start()
    c4h.run(c4h.devices[0].client.store_file("tl.bin", 1.0))
    c4h.sim.run(until=c4h.sim.now + 10.0)
    c4h.run(c4h.device("desktop").client.fetch_object("tl.bin"))
    crash_at = chaos.events[0].at
    post_crash_ops = [
        span
        for span in c4h.telemetry.roots()
        if span.name.startswith("client.") and span.start > crash_at
    ]
    assert post_crash_ops and all(span.status == "ok" for span in post_crash_ops)
