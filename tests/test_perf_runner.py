"""The perf runner measures each suite in a child forked for it."""

import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # for bare `pytest` invocations
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.perf.run import _measure_suite


def test_a_suite_runs_in_its_own_child_and_reports_its_peak():
    def suite():
        block = b"\x01" * (32 * 1024 * 1024)  # 32 MB, every page written
        return {"pid": os.getpid(), "bytes": len(block)}

    results, memory = _measure_suite(suite)
    assert results["pid"] != os.getpid()
    assert results["bytes"] == 32 * 1024 * 1024
    assert memory["peak_rss_mb"] >= 32


def test_a_failing_suite_fails_the_run_with_its_traceback():
    def suite():
        raise ValueError("gate missed")

    with pytest.raises(RuntimeError, match="ValueError: gate missed"):
        _measure_suite(suite)
