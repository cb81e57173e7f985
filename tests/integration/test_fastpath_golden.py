"""Golden-value tests for the cross-layer simulation fast path.

``tests/golden/fastpath_golden.json`` was captured from the tree
*before* the fast path landed (slotted kernel, batched run loop,
coalesced link timers, interned ids, route cache).  These tests re-run
the same scenarios on the current code path and require every
simulated metric to match the capture within 1e-9 relative tolerance.
Any divergence means an optimisation changed simulated behaviour, which
is a bug regardless of how much faster it runs.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:  # for bare `pytest` invocations
    sys.path.insert(0, str(REPO_ROOT))

from repro import Cloud4Home, ClusterConfig
from repro.overlay import NodeId

from tests.conftest import build_overlay

GOLDEN = json.loads(
    (REPO_ROOT / "tests" / "golden" / "fastpath_golden.json").read_text()
)

REL_TOL = 1e-9


def assert_close(actual, expected, label):
    tol = REL_TOL * max(abs(actual), abs(expected), 1e-30)
    assert abs(actual - expected) <= tol, (
        f"{label}: {actual!r} != golden {expected!r}"
    )


def measure_table1(size_mb):
    c4h = Cloud4Home(ClusterConfig(seed=300 + size_mb))
    c4h.start(monitors=False)
    owner = c4h.devices[0]
    reader = c4h.devices[2]
    name = f"table1-{size_mb}.bin"
    c4h.run(owner.client.store_file(name, float(size_mb)))
    return c4h.run(reader.vstore.fetch_object(name))


def check_table1(size_mb):
    fetch = measure_table1(size_mb)
    ref = GOLDEN["table1"][str(size_mb)]
    assert_close(fetch.total_s, ref["total_s"], f"table1[{size_mb}].total_s")
    assert_close(
        fetch.dht_lookup_s, ref["dht_lookup_s"], f"table1[{size_mb}].dht_lookup_s"
    )
    assert_close(
        fetch.inter_node_s, ref["inter_node_s"], f"table1[{size_mb}].inter_node_s"
    )
    assert_close(
        fetch.inter_domain_s,
        ref["inter_domain_s"],
        f"table1[{size_mb}].inter_domain_s",
    )


@pytest.mark.parametrize("size_mb", [1, 2, 5, 10, 20, 50, 100])
def test_table1_matches_golden_fastpath(size_mb):
    check_table1(size_mb)


def test_fig5_matches_golden_fastpath():
    from repro.parallel.sweeps import (
        FIG5_FILES_METHOD2 as FILES_METHOD2,
        FIG5_SIZES_MB as SIZES_MB,
        FIG5_TOTAL_MB_METHOD1 as TOTAL_MB_METHOD1,
        fig5_access_mix as run_access_mix,
    )

    for size in SIZES_MB:
        n1 = max(2, round(TOTAL_MB_METHOD1 / size))
        assert_close(
            run_access_mix(size, n1, seed=500 + size),
            GOLDEN["fig5"]["method1"][str(size)],
            f"fig5.method1[{size}]",
        )
        assert_close(
            run_access_mix(size, FILES_METHOD2, seed=700 + size),
            GOLDEN["fig5"]["method2"][str(size)],
            f"fig5.method2[{size}]",
        )


def run_lookup_storm():
    sim, net, nodes = build_overlay(48, seed=7)
    trace = []
    for i in range(200):
        key = NodeId.from_name(f"storm-{i}")
        origin = nodes[i % len(nodes)]
        proc = sim.process(origin.resolve(key))
        owner = sim.run(until=proc)
        trace.append(
            {"key": key.hex, "origin": origin.name, "owner": owner.name, "t": sim.now}
        )
    return trace


def check_storm_trace(trace):
    ref = GOLDEN["overlay_48_lookup_storm"]
    assert len(trace) == len(ref)
    for i, (got, want) in enumerate(zip(trace, ref)):
        assert got["key"] == want["key"], f"storm[{i}].key"
        assert got["origin"] == want["origin"], f"storm[{i}].origin"
        assert got["owner"] == want["owner"], f"storm[{i}].owner"
        assert_close(got["t"], want["t"], f"storm[{i}].t")


def test_overlay_storm_matches_golden_fastpath():
    check_storm_trace(run_lookup_storm())
