"""Fixture-driven tests: every rule's positive/negative/suppressed cases."""

import pytest

from repro.lint import Baseline, all_rules, lint_source
from tests.lint.conftest import fixture_files, load_fixture

BAD = fixture_files("bad")
GOOD = fixture_files("good")
SUPPRESSED = fixture_files("suppressed")


def _ids(paths):
    """``<CODE>``, or ``<CODE>-<variant>`` for ``<kind>_<variant>.py``."""
    return [
        p.parent.name + ("-" + p.stem.split("_", 1)[1] if "_" in p.stem else "")
        for p in paths
    ]


class TestFixtureCoverage:
    def test_every_rule_has_fixtures(self):
        codes = set(all_rules())
        for kind, paths in (
            ("bad", BAD),
            ("good", GOOD),
            ("suppressed", SUPPRESSED),
        ):
            covered = {p.parent.name for p in paths}
            assert covered == codes, f"missing {kind} fixtures: {codes - covered}"

    def test_registry_is_complete(self):
        codes = set(all_rules())
        assert codes == {
            "SIM101",
            "SIM102",
            "SIM103",
            "SIM104",
            "SIM105",
            "SIM106",
            "SIM107",
            "SIM108",
            "TEL201",
            "RPC301",
            "CFG401",
            "CFG402",
            "WIRE501",
            "WIRE502",
            "WIRE503",
            "WIRE504",
            "FLOW601",
        }


@pytest.mark.parametrize("path", BAD, ids=_ids(BAD))
def test_positive_cases(path):
    source, vpath, expected, _ = load_fixture(path)
    findings = lint_source(source, vpath)
    assert sorted(f.code for f in findings if f.active) == expected
    # The fixture targets its own rule (sanity against scope typos).
    assert path.parent.name in expected


@pytest.mark.parametrize("path", GOOD, ids=_ids(GOOD))
def test_negative_cases(path):
    source, vpath, expected, _ = load_fixture(path)
    assert expected == []
    findings = lint_source(source, vpath)
    assert [f.render() for f in findings if f.active] == []


@pytest.mark.parametrize("path", SUPPRESSED, ids=_ids(SUPPRESSED))
def test_suppressed_cases(path):
    source, vpath, expected_active, expected_suppressed = load_fixture(path)
    assert expected_active == []
    findings = lint_source(source, vpath)
    assert [f.render() for f in findings if f.active] == []
    assert sorted(f.code for f in findings if f.suppressed) == expected_suppressed


@pytest.mark.parametrize("path", BAD, ids=_ids(BAD))
def test_baselined_cases(path):
    """Every positive finding can be grandfathered via the baseline."""
    source, vpath, _, _ = load_fixture(path)
    findings = lint_source(source, vpath)
    baseline = Baseline.from_findings(findings)
    fresh = lint_source(source, vpath)
    stale = baseline.apply(fresh)
    assert stale == []
    assert [f.render() for f in fresh if f.active] == []
    assert all(f.baselined for f in fresh)


class TestScoping:
    def test_sim_rules_skip_wall_clock_layers(self):
        # The CLI and the parallel harness legitimately measure wall time.
        source = "import time\nt = time.time()\n"
        for path in ("src/repro/cli.py", "src/repro/parallel/runner.py"):
            assert lint_source(source, path) == []

    def test_out_of_scope_set_iteration_is_fine(self):
        source = "def f(x):\n    for item in set(x):\n        pass\n"
        assert lint_source(source, "src/repro/net/link.py") == []

    def test_striping_module_is_in_set_iteration_scope(self):
        # Chunk placement feeds the deterministic goldens; unordered
        # set iteration there must be flagged like the other rankers.
        source = "def f(x):\n    for item in set(x):\n        pass\n"
        findings = lint_source(source, "src/repro/vstore/striping.py")
        assert [f.code for f in findings] == ["SIM104"]

    def test_skip_file_marker(self):
        source = "# simlint: skip-file\nimport time\nt = time.time()\n"
        assert lint_source(source, "src/repro/sim/x.py") == []

    def test_select_subset_of_codes(self):
        source = "import time\nimport random\nt = time.time()\nr = random.random()\n"
        findings = lint_source(source, "src/repro/sim/x.py", codes={"SIM102"})
        assert [f.code for f in findings] == ["SIM102"]
