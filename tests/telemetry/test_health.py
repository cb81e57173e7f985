"""Unit tests for the per-node health scoreboard (health.py)."""

import pytest

from repro.telemetry import HealthBoard, MetricsRegistry

GEOM = dict(window_s=10.0, sub_windows=5)


class StubBreakers:
    def __init__(self, peers, open_peers):
        self._peers = list(peers)
        self._open = list(open_peers)

    def known_peers(self):
        return self._peers

    def open_peers(self, now):
        return self._open


class StubAction:
    def __init__(self, at):
        self.at = at


class StubRepairer:
    def __init__(self, ats):
        self.repairs = [StubAction(at) for at in ats]


class StubMonitor:
    def __init__(self, last_published_at):
        self.last_published_at = last_published_at


def board(**kwargs) -> HealthBoard:
    return HealthBoard(MetricsRegistry(), **kwargs)


class TestComponents:
    def test_no_evidence_scores_perfect(self):
        hb = board()
        hb.attach_node("n0")
        detail = hb.score_detail("n0", now=1.0)
        assert detail.score == 1.0
        assert detail.components == {}

    def test_latency_degrades_smoothly_past_target(self):
        hb = board(latency_target_s=1.0)
        wh = hb.metrics.windowed_histogram("kv.get", node="n0", **GEOM)
        for _ in range(10):
            wh.observe(0.1, now=1.0)
        assert hb._latency_component("n0", 1.0) == 1.0
        for _ in range(50):
            wh.observe(4.0, now=1.0)
        # p99 ~ 4x the target -> ~0.25 credit.
        assert hb._latency_component("n0", 1.0) == pytest.approx(0.25, abs=0.1)

    def test_success_pools_every_rollups_ok_flags(self):
        # A hand-fed signal and a span-fed rollup on the same node.
        hb = board()
        hb.metrics.windowed_histogram("fetch.clean", node="n0", **GEOM).observe(
            0.5, now=1.0, ok=False
        )
        hb.metrics.windowed_histogram("kv.get", node="n0", **GEOM).observe(
            0.1, now=1.0, ok=True
        )
        assert hb._success_component("n0", 1.0) == pytest.approx(0.5)

    def test_breakers_score_open_fraction(self):
        hb = board()
        hb.attach_node("n0", breakers=StubBreakers(["a", "b", "c", "d"], ["a"]))
        assert hb._breaker_component("n0", 1.0) == pytest.approx(0.75)
        hb.attach_node("n1", breakers=StubBreakers([], []))
        assert hb._breaker_component("n1", 1.0) is None  # no peers, no evidence

    def test_repairs_halve_credit_per_recent_action(self):
        hb = board(repair_window_s=60.0)
        hb.attach_node("n0", repairer=StubRepairer([100.0, 110.0]))
        assert hb._repair_component("n0", 120.0) == pytest.approx(1 / 3)
        # Outside the window the actions stop counting against it.
        assert hb._repair_component("n0", 500.0) == 1.0

    def test_staleness_decays_past_the_ttl(self):
        hb = board(freshness_ttl_s=30.0)
        hb.attach_node("n0", monitor=StubMonitor(last_published_at=100.0))
        assert hb._staleness_component("n0", 120.0) == 1.0
        assert hb._staleness_component("n0", 160.0) == pytest.approx(0.5)
        hb.attach_node("n1", monitor=StubMonitor(last_published_at=None))
        assert hb._staleness_component("n1", 120.0) is None


class TestFusion:
    def test_weighted_mean_of_available_components(self):
        hb = board(weights={"breakers": 1.0, "repairs": 3.0})
        hb.attach_node(
            "n0",
            breakers=StubBreakers(["a", "b"], ["a"]),  # 0.5
            repairer=StubRepairer([1.0]),  # 1/2
        )
        detail = hb.score_detail("n0", now=2.0)
        assert set(detail.components) == {"breakers", "repairs"}
        assert detail.score == pytest.approx((1.0 * 0.5 + 3.0 * 0.5) / 4.0)

    def test_healthy_threshold_and_view_interface(self):
        hb = board()
        hb.attach_node("n0", breakers=StubBreakers(["a", "b"], ["a", "b"]))
        assert hb.nodes() == ["n0"]
        assert hb.score("n0", now=1.0) == 0.0
        assert not hb.healthy("n0", now=1.0, threshold=0.5)
        assert hb.healthy("n0", now=1.0, threshold=0.0)

    def test_scoreboard_and_report_cover_known_nodes(self):
        hb = board()
        hb.attach_node("b")
        hb.attach_node("a", breakers=StubBreakers(["x"], ["x"]))
        assert hb.nodes() == ["a", "b"]
        scoreboard = hb.scoreboard(now=1.0)
        assert set(scoreboard) == {"a", "b"}
        assert scoreboard["a"].score < scoreboard["b"].score
        text = hb.report(now=1.0)
        assert "health scoreboard" in text
        assert "breakers=0.00" in text

    def test_score_detail_round_trips_to_dict(self):
        hb = board()
        hb.attach_node("n0", repairer=StubRepairer([0.5]))
        out = hb.score_detail("n0", now=1.0).as_dict()
        assert out["node"] == "n0"
        assert "repairs" in out["components"]

    def test_validation(self):
        with pytest.raises(ValueError):
            board(latency_target_s=0.0)
        with pytest.raises(ValueError):
            board(repair_window_s=0.0)
        with pytest.raises(ValueError):
            board(freshness_ttl_s=0.0)
