"""Full Table I scenario sweep: this tree vs the seed tree.

The comparison checks out the repository's seed tree (the root commit,
which predates every wall-clock optimisation) with ``git archive`` and
times the same ``benchmarks/test_table1_fetch_costs.py`` sweep in both
trees via subprocess drivers — wall time measured inside each process,
after imports — after checking that both compute identical simulated
metrics.  When git history is unavailable (shallow clones), only this
tree's wall time is recorded and ``speedup`` is None: the gate cannot
be evaluated, and ``run.py --check`` says so instead of passing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DRIVER = Path(__file__).with_name("_table1_driver.py")

SIZES_MB = [1, 2, 5, 10, 20, 50, 100]

REL_TOL = 1e-9


def _run_driver(tree_root: Path, sizes, repeats: int) -> dict:
    out = subprocess.run(
        [
            sys.executable,
            str(DRIVER),
            str(tree_root),
            ",".join(str(s) for s in sizes),
            str(repeats),
        ],
        check=True,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return json.loads(out.stdout)


def _extract_seed_tree(dest: Path) -> None:
    """``git archive`` the root commit (the growth seed) into ``dest``."""
    commits = subprocess.run(
        ["git", "rev-list", "--max-parents=0", "HEAD"],
        cwd=REPO_ROOT,
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    ).stdout.split()
    seed_commit = commits[-1]
    archive = dest / "seed.tar"
    with open(archive, "wb") as fh:
        subprocess.run(
            ["git", "archive", "--format=tar", seed_commit],
            cwd=REPO_ROOT,
            check=True,
            stdout=fh,
            timeout=120,
        )
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree")
    archive.unlink()


def _assert_metrics_match(a: dict, b: dict, context: str) -> None:
    assert set(a) == set(b), f"{context}: size sets differ"
    for size in a:
        for x, y in zip(a[size], b[size]):
            tol = REL_TOL * max(abs(x), abs(y), 1e-30)
            assert abs(x - y) <= tol, (
                f"{context}: table1[{size}] simulated metrics diverged: {x} vs {y}"
            )


def bench_table1(sizes=SIZES_MB, repeats: int = 3) -> dict:
    """Best-of-``repeats`` sweep wall time in the seed tree and here."""
    scratch = Path(tempfile.mkdtemp(prefix=".bench-seed-", dir=REPO_ROOT))
    try:
        try:
            _extract_seed_tree(scratch)
            seed = _run_driver(scratch / "tree", sizes, repeats)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError):
            seed = None
        current = _run_driver(REPO_ROOT, sizes, repeats)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {"sizes_mb": list(sizes), "repeats": repeats, "wall_s": current["wall_s"]}
    if seed is None:
        return {**result, "mode": "current-only", "seed_wall_s": None, "speedup": None}
    _assert_metrics_match(seed["metrics"], current["metrics"], "seed vs current")
    return {
        **result,
        "mode": "seed-tree",
        "seed_wall_s": seed["wall_s"],
        "speedup": seed["wall_s"] / current["wall_s"],
    }
