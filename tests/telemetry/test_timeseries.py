"""Unit tests for the sliding-window instruments (timeseries.py)."""

import pytest

from repro.telemetry import (
    WindowPolicy,
    WindowedHistogram,
    merge_window_histograms,
)

# window_s=10, sub_windows=5 -> 2-second sub-windows: easy arithmetic.
GEOM = dict(window_s=10.0, sub_windows=5)


class TestWindowPolicy:
    def test_defaults(self):
        policy = WindowPolicy()
        assert policy.window_s == 60.0
        assert policy.sub_windows == 6
        assert policy.names is None

    def test_names_normalized_to_frozenset(self):
        policy = WindowPolicy(names={"kv.get", "client.fetch"})
        assert isinstance(policy.names, frozenset)
        assert "kv.get" in policy.names

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowPolicy(window_s=0.0)
        with pytest.raises(ValueError):
            WindowPolicy(sub_windows=0)


class TestWindowedHistogram:
    def test_observations_land_in_their_sub_windows(self):
        wh = WindowedHistogram("m", **GEOM)
        wh.observe(0.1, now=1.0)
        wh.observe(0.2, now=3.0)
        merged = wh.window(now=3.0)
        assert merged.count == 2
        assert merged.vmin == pytest.approx(0.1)
        assert merged.vmax == pytest.approx(0.2)

    def test_expired_sub_windows_fall_out_of_the_merge(self):
        wh = WindowedHistogram("m", **GEOM)
        wh.observe(0.1, now=1.0)  # sub-window 0
        wh.observe(0.2, now=3.0)  # sub-window 1
        wh.observe(0.3, now=11.9)  # sub-window 5: 0 expires, 1 survives
        merged = wh.window(now=11.9)
        assert merged.count == 2
        assert merged.vmin == pytest.approx(0.2)

    def test_read_only_advance_expires_without_writing(self):
        wh = WindowedHistogram("m", **GEOM)
        wh.observe(0.1, now=1.0)
        assert wh.window(now=25.0).count == 0  # whole ring expired

    def test_slot_reuse_resets_old_data(self):
        wh = WindowedHistogram("m", **GEOM)
        wh.observe(1.0, now=0.5)  # sub-window 0 -> slot 0
        wh.observe(2.0, now=10.5)  # sub-window 5 -> slot 0 again
        merged = wh.window(now=10.5)
        assert merged.count == 1
        assert merged.vmax == pytest.approx(2.0)

    def test_stale_write_is_dropped_not_misfiled(self):
        wh = WindowedHistogram("m", **GEOM)
        wh.observe(1.0, now=11.0)  # head at sub-window 5
        wh.observe(9.0, now=0.5)  # predates the live window entirely
        merged = wh.window(now=11.0)
        assert merged.count == 1
        assert merged.vmax == pytest.approx(1.0)

    def test_ok_flag_makes_it_a_success_ratio(self):
        wh = WindowedHistogram("m", **GEOM)
        wh.observe(0.1, now=1.0)
        wh.observe(0.2, now=1.0, ok=False)
        wh.observe(0.3, now=3.0)
        assert wh.window_totals(now=3.0) == (2, 3)

    def test_summary_carries_window_shape_and_ratio(self):
        wh = WindowedHistogram("m", **GEOM)
        wh.observe(0.1, now=1.0)
        wh.observe(0.2, now=1.0, ok=False)
        out = wh.summary(now=1.0)
        assert out["type"] == "windowed_histogram"
        assert out["window_s"] == 10.0
        assert out["sub_windows"] == 5
        assert out["count"] == 2
        assert out["ok"] == 1
        assert out["ratio"] == pytest.approx(0.5)

    def test_quantiles_use_the_histogram_estimator(self):
        wh = WindowedHistogram("m", **GEOM)
        for _ in range(100):
            wh.observe(0.01, now=1.0)
        assert wh.window(now=1.0).quantile(0.99) == pytest.approx(0.01, rel=0.5)

    def test_implicit_now_falls_back_to_newest_seen(self):
        wh = WindowedHistogram("m", **GEOM)
        wh.observe(0.1, now=7.0)
        assert wh.window().count == 1

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            WindowedHistogram("m", buckets=[2.0, 1.0])
        with pytest.raises(ValueError):
            WindowedHistogram("m", buckets=[])


class TestWindowedRatio:
    """A WindowedHistogram read as a success ratio through its ok flags."""

    def test_ratio_and_totals(self):
        wh = WindowedHistogram("m", **GEOM)
        wh.observe(0.1, now=1.0)
        wh.observe(0.1, now=1.0, ok=False)
        wh.observe(0.1, now=3.0)
        assert wh.window_totals(now=3.0) == (2, 3)
        assert wh.summary(now=3.0)["ratio"] == pytest.approx(2 / 3)

    def test_empty_window_reads_one(self):
        wh = WindowedHistogram("m", **GEOM)
        assert wh.summary(now=5.0)["ratio"] == 1.0
        wh.observe(0.1, now=1.0, ok=False)
        out = wh.summary(now=50.0)  # evidence expired
        assert out["ratio"] == 1.0 and out["count"] == 0

    def test_expiry_drops_old_marks(self):
        wh = WindowedHistogram("m", **GEOM)
        wh.observe(0.1, now=1.0, ok=False)
        wh.observe(0.1, now=15.0)
        assert wh.window_totals(now=15.0) == (1, 1)

    def test_summary(self):
        wh = WindowedHistogram("m", **GEOM)
        wh.observe(0.1, now=1.0, ok=False)
        out = wh.summary(now=1.0)
        assert out["type"] == "windowed_histogram"
        assert out["ok"] == 0 and out["count"] == 1
        assert out["ratio"] == 0.0


class TestMergeWindowHistograms:
    def test_merges_across_nodes(self):
        a = WindowedHistogram("m", node="a", **GEOM)
        b = WindowedHistogram("m", node="b", **GEOM)
        a.observe(0.1, now=1.0)
        b.observe(0.3, now=1.0)
        merged = merge_window_histograms([a, b], now=1.0)
        assert merged.count == 2
        assert merged.vmin == pytest.approx(0.1)
        assert merged.vmax == pytest.approx(0.3)

    def test_empty_input_gives_empty_histogram(self):
        assert merge_window_histograms([]).count == 0

    def test_bucket_mismatch_rejected(self):
        a = WindowedHistogram("m", **GEOM)
        b = WindowedHistogram("m", buckets=[1.0, 2.0], **GEOM)
        with pytest.raises(ValueError):
            merge_window_histograms([a, b])
