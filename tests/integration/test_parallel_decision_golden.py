"""Golden-value tests for the scatter-gather decision engine.

``tests/golden/parallel_decision_golden.json`` pins the simulated
decision latency of ``DecisionEngine.decide`` in both fetch modes for
every candidate count on the default testbed.  Unlike a wall-clock
optimisation (which must never move simulated time),
``parallel_decision=True`` is *supposed* to change timing — concurrent snapshot lookups overlap on
the links, so the decision pays roughly max-of-k instead of sum-of-k.
These tests pin exactly how much, and that nothing else moves:

* rankings are identical in both modes for every k;
* with the flag off (the default) the serial latencies match the
  pre-scatter-gather behaviour to 1e-9 — existing experiments are
  untouched;
* parallel latency is strictly below serial for every k >= 2.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:  # for bare `pytest` invocations
    sys.path.insert(0, str(REPO_ROOT))

from repro.parallel.sweeps import decision_point

GOLDEN = json.loads(
    (REPO_ROOT / "tests" / "golden" / "parallel_decision_golden.json").read_text()
)

KS = sorted(int(k) for k in GOLDEN)

REL_TOL = 1e-9


def assert_close(actual, expected, label):
    tol = REL_TOL * max(abs(actual), abs(expected), 1e-30)
    assert abs(actual - expected) <= tol, (
        f"{label}: {actual!r} != golden {expected!r}"
    )


@pytest.mark.parametrize("k", KS)
def test_serial_latency_matches_golden(k):
    ref = GOLDEN[str(k)]
    point = decision_point(k, parallel=False, seed=ref["seed"])
    assert_close(point["latency_s"], ref["serial_latency_s"], f"serial[{k}]")
    assert point["ranking"] == ref["ranking"]


@pytest.mark.parametrize("k", KS)
def test_parallel_latency_matches_golden(k):
    ref = GOLDEN[str(k)]
    point = decision_point(k, parallel=True, seed=ref["seed"])
    assert_close(point["latency_s"], ref["parallel_latency_s"], f"parallel[{k}]")
    assert point["ranking"] == ref["ranking"]


@pytest.mark.parametrize("k", KS)
def test_parallel_strictly_faster_for_k_of_two_or_more(k):
    ref = GOLDEN[str(k)]
    serial = decision_point(k, parallel=False, seed=ref["seed"])
    parallel = decision_point(k, parallel=True, seed=ref["seed"])
    assert parallel["latency_s"] < serial["latency_s"]
    assert parallel["ranking"] == serial["ranking"]


def test_latency_gap_grows_with_candidate_count():
    # Sequential cost is ~linear in k; scatter-gather is ~flat (max of
    # k concurrent lookups), so the saving must widen monotonically.
    gaps = [
        GOLDEN[str(k)]["serial_latency_s"] - GOLDEN[str(k)]["parallel_latency_s"]
        for k in KS
    ]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
