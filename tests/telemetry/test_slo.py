"""Unit tests for the declarative SLO engine (slo.py)."""

import pytest

from repro.sim import Simulator
from repro.telemetry import (
    AlertEvent,
    MetricsRegistry,
    SloEngine,
    SloEvaluator,
    SloSpec,
    Telemetry,
    WindowPolicy,
    default_slo_specs,
)

# 10s windows / 2s sub-windows keep expiry arithmetic readable.
GEOM = dict(window_s=10.0, sub_windows=5)


def ratio_spec(**overrides) -> SloSpec:
    base = dict(
        id="avail",
        metric="fetch.clean",
        kind="ratio",
        op=">=",
        threshold=0.9,
        min_samples=1,
    )
    base.update(overrides)
    return SloSpec(**base)


class TestSloSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SloSpec(id="x", metric="m", kind="nope")
        with pytest.raises(ValueError, match="kind"):
            SloSpec(id="x", metric="m", kind="rate")
        with pytest.raises(ValueError, match="op"):
            SloSpec(id="x", metric="m", op="<")
        with pytest.raises(ValueError, match="objective"):
            SloSpec(id="x", metric="m", kind="latency", objective="p42")
        with pytest.raises(ValueError, match="min_samples"):
            SloSpec(id="x", metric="m", min_samples=0)
        with pytest.raises(ValueError, match="breach_windows"):
            SloSpec(id="x", metric="m", breach_windows=0)

    def test_satisfied_respects_op(self):
        le = SloSpec(id="a", metric="m", op="<=", threshold=1.0)
        ge = SloSpec(id="b", metric="m", op=">=", threshold=1.0)
        assert le.satisfied(0.5) and not le.satisfied(1.5)
        assert ge.satisfied(1.5) and not ge.satisfied(0.5)

    def test_describe_prefers_description(self):
        assert "custom" in ratio_spec(description="custom").describe()
        assert "success ratio" in ratio_spec().describe()
        assert "p99" in SloSpec(id="x", metric="kv.get").describe()

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SloEngine(MetricsRegistry(), [ratio_spec(), ratio_spec()])


class TestHysteresis:
    def test_breach_and_clear_windows(self):
        metrics = MetricsRegistry()
        engine = SloEngine(
            metrics, [ratio_spec(breach_windows=2, clear_windows=2)]
        )
        wh = metrics.windowed_histogram("fetch.clean", **GEOM)
        for _ in range(3):
            wh.observe(0.1, now=1.0, ok=False)
        # First breach arms the streak, the second fires.
        assert engine.evaluate(1.0) == []
        (fired,) = engine.evaluate(2.0)
        assert fired.state == "firing" and fired.value == 0.0
        # Already firing: further breaches emit nothing new.
        assert engine.evaluate(3.0) == []
        assert engine.firing() == [("avail", "")]
        # Old evidence expires; healthy marks must pass twice to clear.
        for _ in range(3):
            wh.observe(0.1, now=20.0, ok=True)
        assert engine.evaluate(20.0) == []
        (resolved,) = engine.evaluate(21.0)
        assert resolved.state == "resolved" and resolved.value == 1.0
        assert engine.firing() == []
        assert [a.state for a in engine.alerts_for("avail")] == [
            "firing",
            "resolved",
        ]

    def test_min_samples_skips_evaluation_entirely(self):
        metrics = MetricsRegistry()
        engine = SloEngine(metrics, [ratio_spec(min_samples=5)])
        wh = metrics.windowed_histogram("fetch.clean", **GEOM)
        wh.observe(0.1, now=1.0, ok=False)
        wh.observe(0.1, now=1.0, ok=False)
        # 2 < min_samples: no evidence either way, streaks untouched.
        assert engine.evaluate(1.0) == []
        assert engine.firing() == []

    def test_expired_window_neither_fires_nor_clears(self):
        metrics = MetricsRegistry()
        engine = SloEngine(metrics, [ratio_spec()])
        wh = metrics.windowed_histogram("fetch.clean", **GEOM)
        wh.observe(0.1, now=1.0, ok=False)
        (fired,) = engine.evaluate(1.0)
        assert fired.state == "firing"
        # All evidence expired: the alert stays latched, not resolved.
        assert engine.evaluate(50.0) == []
        assert engine.firing() == [("avail", "")]


class TestReadings:
    def test_latency_quantile_and_per_node(self):
        metrics = MetricsRegistry()
        spec = SloSpec(
            id="kv-p99",
            metric="kv.get",
            kind="latency",
            objective="p99",
            op="<=",
            threshold=2.0,
            per_node=True,
        )
        engine = SloEngine(metrics, [spec])
        fast = metrics.windowed_histogram("kv.get", node="a", **GEOM)
        slow = metrics.windowed_histogram("kv.get", node="b", **GEOM)
        for _ in range(5):
            fast.observe(0.1, now=1.0)
            slow.observe(5.0, now=1.0)
        (fired,) = engine.evaluate(1.0)
        assert fired.node == "b" and fired.state == "firing"
        assert engine.firing() == [("kv-p99", "b")]

    def test_cluster_wide_latency_merges_nodes(self):
        metrics = MetricsRegistry()
        spec = SloSpec(
            id="kv-max", metric="kv.get", kind="latency",
            objective="max", op="<=", threshold=2.0,
        )
        engine = SloEngine(metrics, [spec])
        metrics.windowed_histogram("kv.get", node="a", **GEOM).observe(0.1, now=1.0)
        metrics.windowed_histogram("kv.get", node="b", **GEOM).observe(5.0, now=1.0)
        (fired,) = engine.evaluate(1.0)
        assert fired.node == "" and fired.value == pytest.approx(5.0)

    def test_ratio_pools_every_node_rollup(self):
        # Hand-fed rollups speak the same ok flags as span-fed ones.
        metrics = MetricsRegistry()
        engine = SloEngine(metrics, [ratio_spec(threshold=0.75)])
        metrics.windowed_histogram("fetch.clean", node="a", **GEOM).observe(
            0.1, now=1.0
        )
        metrics.windowed_histogram("fetch.clean", node="b", **GEOM).observe(
            0.1, now=1.0, ok=False
        )
        (fired,) = engine.evaluate(1.0)
        assert fired.value == pytest.approx(0.5)

    def test_per_node_ratio_reads_each_node_once_per_evaluation(self):
        sim = Simulator()
        tel = Telemetry(sim, windowed=WindowPolicy(**GEOM)).attach()
        for node in ("a", "b"):
            tel.end(tel.begin("client.fetch", layer="client", node=node), status="error")
        spec = ratio_spec(metric="client.fetch", per_node=True, breach_windows=2)
        engine = SloEngine(tel.metrics, [spec])
        assert list(engine._readings(spec, 1.0)) == [("a", 0.0), ("b", 0.0)]
        # One breach per node arms its streak; the second fires.
        assert engine.evaluate(1.0) == []
        fired = engine.evaluate(2.0)
        assert [(a.node, a.state) for a in fired] == [("a", "firing"), ("b", "firing")]


class TestAlertPlumbing:
    def test_alerts_count_mirror_and_fan_out(self):
        sim = Simulator()
        tel = Telemetry(sim).attach()
        metrics = tel.metrics
        engine = SloEngine(metrics, [ratio_spec()], telemetry=tel)
        seen = []
        engine.on_alert(seen.append)
        metrics.windowed_histogram("fetch.clean", **GEOM).observe(0.1, now=1.0, ok=False)
        (fired,) = engine.evaluate(1.0)
        assert seen == [fired]
        assert metrics.counter("slo.alerts.firing").value == 1
        mirror = tel.spans[-1]
        assert mirror.name == "slo.alert"
        assert mirror.attrs["slo"] == "avail"

    def test_broken_hook_is_dropped_not_fatal(self):
        metrics = MetricsRegistry()
        engine = SloEngine(
            metrics, [ratio_spec(breach_windows=1, clear_windows=1)]
        )
        def broken(alert):
            raise RuntimeError("boom")
        engine.on_alert(broken)
        wh = metrics.windowed_histogram("fetch.clean", **GEOM)
        wh.observe(0.1, now=1.0, ok=False)
        (fired,) = engine.evaluate(1.0)  # must not raise
        assert fired.state == "firing"
        assert engine._on_alert == []

    def test_alert_event_round_trips_to_dict(self):
        alert = AlertEvent(
            at=1.0, slo_id="avail", metric="m", node="n",
            state="firing", value=0.5, threshold=0.9,
        )
        out = alert.as_dict()
        assert out["state"] == "firing" and out["node"] == "n"


class TestSloEvaluator:
    def test_ticks_engine_on_the_period(self):
        sim = Simulator()
        engine = SloEngine(MetricsRegistry(), [ratio_spec()])
        evaluator = SloEvaluator(sim, engine, period_s=1.0)
        evaluator.start()
        assert evaluator.running
        sim.run(until=5.5)
        assert engine.evaluations == 5
        evaluator.stop()
        assert not evaluator.running
        sim.run(until=10.0)
        assert engine.evaluations == 5  # no ticks after stop

    def test_start_is_idempotent(self):
        sim = Simulator()
        evaluator = SloEvaluator(
            sim, SloEngine(MetricsRegistry(), []), period_s=1.0
        )
        evaluator.start()
        first = evaluator._process
        evaluator.start()
        assert evaluator._process is first

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            SloEvaluator(Simulator(), SloEngine(MetricsRegistry(), []), period_s=0.0)


class TestDefaultSpecs:
    def test_stock_objectives(self):
        specs = default_slo_specs()
        by_id = {spec.id: spec for spec in specs}
        assert set(by_id) == {"kv-get-p99", "fetch-availability"}
        # The availability spec judges the real client span name, whose
        # windowed histogram doubles as a success ratio via ok flags.
        assert by_id["fetch-availability"].metric == "client.fetch"
        assert by_id["fetch-availability"].kind == "ratio"
        assert by_id["kv-get-p99"].kind == "latency"
