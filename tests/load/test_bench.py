"""Scale-bench jobs: seeded determinism, fast-path identity and shape.

These are the golden contracts behind ``BENCH_scale.json``: the
simulated block of a scale point is a pure function of its seed, and
the overlay's ring-window peer queries change wall time only — the
simulated results are byte-equal against their full-sort definitions.
"""

import json

import repro.load.bench
from repro.cluster import Cloud4Home
from repro.load import scale_point
from repro.load.bench import join_wall
from tests.conftest import install_full_sort_ring_scan, kv_placement

POINT = dict(n_nodes=24, rate=300.0, duration_s=1.0, seed=5, n_keys=64)


def sim_block(**overrides):
    result = scale_point(**{**POINT, **overrides, "probe_objects": False})
    return json.dumps(result["sim"], sort_keys=True)


class TestScalePointDeterminism:
    def test_same_seed_bit_identical(self):
        assert sim_block() == sim_block()

    def test_different_seed_differs(self):
        assert sim_block() != sim_block(seed=6)

    def test_deterministic_arrivals_also_stable(self):
        a = sim_block(arrivals="deterministic")
        assert a == sim_block(arrivals="deterministic")


class TestFastPathSimulationIdentity:
    @staticmethod
    def placed_sim_block(monkeypatch):
        """The simulated block plus every device's KV placement."""
        built = []

        def recording(config):
            built.append(Cloud4Home(config))
            return built[-1]

        monkeypatch.setattr(repro.load.bench, "Cloud4Home", recording)
        return sim_block(), kv_placement(built[-1])

    def test_ring_scan_fast_equals_reference(self, monkeypatch):
        """The ring-window peer queries are invisible to the simulation."""
        fast = self.placed_sim_block(monkeypatch)
        calls = install_full_sort_ring_scan(monkeypatch)
        assert self.placed_sim_block(monkeypatch) == fast
        assert calls["nearest_peers"] > 0


class TestScalePointShape:
    def test_payload_blocks(self):
        result = scale_point(**POINT)
        assert result["n_nodes"] == 24
        sim = result["sim"]
        assert sim["offered"] == sim["injected"] + sim["shed"]
        assert sim["completed"] > 0
        assert sim["failed"] == 0
        for q in ("p50", "p99", "p999"):
            assert sim["latency"][q] > 0.0
        assert result["wall"]["events"] > 0
        assert result["memory"]["rss_mb"] is not None
        assert result["memory"]["gc_objects"] is not None

    def test_join_wall_reports_both_phases(self):
        result = join_wall(16, seed=1, fast_join=True)
        assert result["fast_join"] is True
        assert result["total_s"] >= 0.0
        assert set(result) >= {
            "device_build_s",
            "join_s",
            "total_s",
            "memory",
        }
