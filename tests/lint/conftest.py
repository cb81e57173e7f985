"""Shared helpers for the simlint test suite.

Fixture snippets under ``fixtures/<CODE>/`` are self-describing: a
header comment declares the virtual repo path they are linted under
and the findings they must produce::

    # simlint-fixture-path: src/repro/sim/fixture.py
    # simlint-fixture-expect: SIM101 SIM101
    # simlint-fixture-expect-suppressed: SIM101
"""

from __future__ import annotations

import re
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"

_PATH_RE = re.compile(r"#[ \t]*simlint-fixture-path:[ \t]*(\S+)")
_EXPECT_RE = re.compile(r"#[ \t]*simlint-fixture-expect:[ \t]*(.*)")
_EXPECT_SUPP_RE = re.compile(
    r"#[ \t]*simlint-fixture-expect-suppressed:[ \t]*(.*)"
)


def load_fixture(path: Path) -> tuple[str, str, list[str], list[str]]:
    """(source, virtual_path, expected_active, expected_suppressed)."""
    source = path.read_text(encoding="utf-8")
    vpath = _PATH_RE.search(source)
    assert vpath is not None, f"{path} lacks a simlint-fixture-path header"
    expect = _EXPECT_RE.search(source)
    assert expect is not None, f"{path} lacks a simlint-fixture-expect header"
    suppressed = _EXPECT_SUPP_RE.search(source)
    return (
        source,
        vpath.group(1),
        sorted(expect.group(1).split()),
        sorted(suppressed.group(1).split()) if suppressed else [],
    )


def fixture_files(kind: str) -> list[Path]:
    """``<CODE>/<kind>.py`` plus variants such as ``<kind>_table.py``."""
    return sorted(FIXTURES.glob(f"*/{kind}*.py"))
