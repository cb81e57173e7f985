"""Integration tests: windowed determinism and the chaos scenario.

Two properties the acceptance gate leans on:

* **Determinism** — windowed rollup rotation is keyed by simulated
  time only, so repeated runs of one seeded workload produce
  bit-identical windowed summaries and alert sequences, and repeated
  runs of the seeded chaos scenario produce identical timelines.
* **The seeded 8-node chaos scenario** — killing 2 nodes fires the
  availability alert within one window (plus one evaluator period) and
  the alert resolves after the Repairer restores replication, with a
  schema-valid flight-recorder dump produced.  The same scenario backs
  ``python -m repro slo --check`` and ``benchmarks/perf/run.py
  --check``.
"""

import json

import pytest

from repro.cluster import Cloud4Home, ClusterConfig
from repro.cluster.slo_demo import (
    AVAILABILITY_SLO_ID,
    availability_chaos_scenario,
)
from repro.telemetry import validate_recorder_dump


def _windowed_run() -> str:
    """A small slo-enabled workload's full windowed state, as JSON."""
    config = ClusterConfig(seed=11, slo=True)
    c4h = Cloud4Home(config)
    c4h.start(monitors=False)
    writer, reader = c4h.devices[0], c4h.devices[1]
    for i in range(6):
        name = f"det-{i}.jpg"
        c4h.run(writer.client.store_file(name, 1.0))
        c4h.run(reader.client.fetch_object(name))
    c4h.slo_engine.evaluate(c4h.sim.now)
    snapshot = c4h.metrics.snapshot()
    windowed = {
        name: data
        for name, data in snapshot.items()
        if any(d.get("type", "").startswith("windowed") for d in data.values())
    }
    return json.dumps(
        {
            "now": c4h.sim.now,
            "windowed": windowed,
            "alerts": [a.as_dict() for a in c4h.slo_engine.alerts],
            "health": {
                node: hs.as_dict()
                for node, hs in c4h.health.scoreboard(c4h.sim.now).items()
            },
        },
        sort_keys=True,
    )


class TestWindowedDeterminism:
    def test_rotation_is_identical_across_runs(self):
        # Same seed, same workload: two runs must rotate every ring
        # identically — windowed summaries, alerts, and health scores
        # bit-for-bit.
        assert _windowed_run() == _windowed_run()


@pytest.fixture(scope="module")
def chaos_runs(tmp_path_factory):
    """The seeded scenario, run twice (second run exercises dump_dir)."""
    first = availability_chaos_scenario()
    dump_dir = str(tmp_path_factory.mktemp("flightrec"))
    second = availability_chaos_scenario(dump_dir=dump_dir)
    return first, second


class TestAvailabilityChaosScenario:
    def test_fires_within_one_window_of_the_kills(self, chaos_runs):
        result, _ = chaos_runs
        assert result["ok"] is True
        assert result["fired_at"] is not None
        assert (
            result["fired_within_s"]
            <= result["window_s"] + result["eval_period_s"]
        )

    def test_resolves_after_the_repairer_restores_replication(self, chaos_runs):
        result, _ = chaos_runs
        assert result["repair_actions"] > 0
        assert result["resolved_at"] is not None
        assert result["resolved_at"] >= result["first_repair_at"]
        states = [a["state"] for a in result["alerts"]]
        assert states == ["firing", "resolved"]

    def test_flight_recorder_dump_is_schema_valid(self, chaos_runs):
        result, with_dir = chaos_runs
        assert validate_recorder_dump(result["dump"]) > 0
        # With a dump_dir, the firing alert wrote an artifact too.
        assert with_dir["dump_paths"]
        for path in with_dir["dump_paths"]:
            with open(path, encoding="utf-8") as fh:
                assert validate_recorder_dump(json.load(fh)) > 0

    def test_alert_sequence_is_stable_across_repeated_runs(self, chaos_runs):
        first, second = chaos_runs
        assert first["alerts"] == second["alerts"]
        assert first["evaluations"] == second["evaluations"]
        assert first["health"] == second["health"]
        # The whole timeline is identical, save the artifact paths and
        # the final dump: the second run's alert-triggered dumps consume
        # counter deltas along the way, shifting the final dump's slice.
        skip = ("dump", "dump_paths")
        a = {k: v for k, v in first.items() if k not in skip}
        b = {k: v for k, v in second.items() if k not in skip}
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
