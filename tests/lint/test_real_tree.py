"""Acceptance tests against the real repository tree.

Injects violations into copies of *real* source files and asserts the
corresponding rules catch them (for the whole-program rules, over a
temporary tree of real-file copies), pins the recovered wire protocol
for the seed tree as a golden, and checks the committed tree itself is
clean under the committed baseline.
"""

import json
from pathlib import Path

from repro.lint import lint_paths, lint_source, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_WIRE_REPORT = Path(__file__).parent / "goldens" / "wire_report.json"


def _read(relpath: str) -> str:
    return (REPO_ROOT / relpath).read_text(encoding="utf-8")


def _copy_tree(tmp_path, relpaths, patches=None):
    """Copy real files into a tmp tree, applying (old, new) patches.

    Every patch asserts its target text exists, so these tests fail
    loudly if the real sources drift away from what they inject into.
    """
    patches = patches or {}
    for relpath in relpaths:
        source = _read(relpath)
        for old, new in patches.get(relpath, ()):
            assert old in source, f"{relpath} no longer contains {old!r}"
            source = source.replace(old, new)
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


class TestInjectedViolations:
    def test_wall_clock_in_sim_kernel_is_caught(self):
        path = "src/repro/sim/kernel.py"
        source = _read(path) + (
            "\n\ndef _leak_wall_clock():\n"
            "    import time\n"
            "    return time.time()\n"
        )
        codes = [f.code for f in lint_source(source, path) if f.active]
        assert "SIM101" in codes

    def test_unguarded_emit_in_vstore_node_is_caught(self):
        path = "src/repro/vstore/node.py"
        source = _read(path) + (
            "\n\ndef _leak_unguarded_emit(node):\n"
            "    tel = node.sim.telemetry\n"
            "    tel.begin('vstore.leak', layer='vstore')\n"
        )
        codes = [f.code for f in lint_source(source, path) if f.active]
        assert "TEL201" in codes

    def test_global_random_in_overlay_is_caught(self):
        path = "src/repro/overlay/node.py"
        source = _read(path) + (
            "\n\ndef _leak_global_random():\n"
            "    import random\n"
            "    return random.random()\n"
        )
        codes = [f.code for f in lint_source(source, path) if f.active]
        assert "SIM102" in codes

    def test_feature_on_default_in_config_is_caught(self):
        path = "src/repro/cluster/config.py"
        source = _read(path).replace(
            "    resilience: bool = False",
            "    resilience: bool = True",
        )
        codes = [f.code for f in lint_source(source, path) if f.active]
        assert "CFG401" in codes


class TestCommittedTree:
    def test_tree_is_clean_under_committed_baseline(self):
        report = run_lint(
            REPO_ROOT,
            baseline_path=REPO_ROOT / ".simlint-baseline.json",
        )
        assert report.n_files > 50
        assert [f.render() for f in report.active] == []
        assert report.errors == []
        assert [e.key() for e in report.stale_baseline] == []

    def test_committed_baseline_is_annotated(self):
        import json

        payload = json.loads(
            (REPO_ROOT / ".simlint-baseline.json").read_text()
        )
        assert payload["entries"], "baseline unexpectedly empty"
        for entry in payload["entries"]:
            assert entry.get("note"), f"baseline entry lacks a note: {entry}"


class TestInjectedWireViolations:
    """Each whole-program rule proven on copies of the real sources."""

    OVERLAY = ("src/repro/overlay/node.py", "src/repro/overlay/stabilizer.py")
    KV = ("src/repro/kvstore/store.py",)
    FED = ("src/repro/cluster/federation.py",)

    def _wire_codes(self, tree):
        report = lint_paths(tree, codes={"WIRE"})
        return [f.code for f in report.findings]

    def test_overlay_pair_is_clean_unmodified(self, tmp_path):
        assert self._wire_codes(_copy_tree(tmp_path, self.OVERLAY)) == []

    def test_wire501_fires_on_injected_unhandled_send(self, tmp_path):
        tree = _copy_tree(
            tmp_path,
            self.OVERLAY,
            patches={
                "src/repro/overlay/stabilizer.py": [
                    (
                        "MSG_EXCHANGE = \"chimera.stabilize\"",
                        "MSG_EXCHANGE = \"chimera.stabilize\"\n\n\n"
                        "def _leak_unrouted(endpoint, dst):\n"
                        "    return endpoint.call("
                        "dst, \"chimera.lost\", {\"seq\": 1})\n",
                    )
                ]
            },
        )
        assert self._wire_codes(tree) == ["WIRE501"]

    def test_kvstore_is_clean_unmodified(self, tmp_path):
        assert self._wire_codes(_copy_tree(tmp_path, self.KV)) == []

    def test_wire502_fires_on_injected_required_read(self, tmp_path):
        tree = _copy_tree(
            tmp_path,
            self.KV,
            patches={
                "src/repro/kvstore/store.py": [
                    (
                        "    def _handle_sync_push(self, request: Request)"
                        " -> dict:\n        absorbed = 0\n",
                        "    def _handle_sync_push(self, request: Request)"
                        " -> dict:\n"
                        "        shard = request.body[\"shard\"]\n"
                        "        absorbed = 0\n",
                    )
                ]
            },
        )
        report = lint_paths(tree, codes={"WIRE"})
        (finding,) = report.findings
        assert finding.code == "WIRE502"
        assert "'shard'" in finding.message
        assert finding.path == "src/repro/kvstore/store.py"

    def test_wire503_regression_dead_requester_field(self, tmp_path):
        """Regression for the bug this PR fixed: sync_with_peers
        shipped a 'requester' field on kv.sync-push that
        _handle_sync_push never read.  Re-adding it must re-fire."""
        tree = _copy_tree(
            tmp_path,
            self.KV,
            patches={
                "src/repro/kvstore/store.py": [
                    (
                        "                push_body = {\n"
                        "                    \"records\": push_records,\n",
                        "                push_body = {\n"
                        "                    \"requester\": self.name,\n"
                        "                    \"records\": push_records,\n",
                    )
                ]
            },
        )
        report = lint_paths(tree, codes={"WIRE"})
        (finding,) = report.findings
        assert finding.code == "WIRE503"
        assert "'requester'" in finding.message

    def test_federation_is_clean_unmodified(self, tmp_path):
        assert self._wire_codes(_copy_tree(tmp_path, self.FED)) == []

    def test_wire504_fires_on_divergent_second_registration(self, tmp_path):
        tree = _copy_tree(tmp_path, self.FED)
        edge = tree / "src/repro/cluster/edge.py"
        edge.write_text(
            "from repro.cluster.federation import MSG_LOOKUP\n\n\n"
            "class EdgeDirectory:\n"
            "    def __init__(self, endpoint):\n"
            "        endpoint.register(MSG_LOOKUP, self._handle_lookup)\n\n"
            "    def _handle_lookup(self, request):\n"
            "        return request.body[\"object_id\"]\n"
        )
        report = lint_paths(tree, codes={"WIRE"})
        codes = [f.code for f in report.findings]
        assert "WIRE504" in codes
        (divergent,) = [f for f in report.findings if f.code == "WIRE504"]
        assert divergent.extra["msg_type"] == "fed.lookup"
        assert divergent.path.startswith("src/repro/cluster/")

    def test_cfg402_builder_is_clean_unmodified(self, tmp_path):
        tree = _copy_tree(tmp_path, ("src/repro/cluster/builder.py",))
        report = lint_paths(tree, codes={"CFG402"})
        assert [f.render() for f in report.findings] == []

    def test_cfg402_fires_on_injected_unguarded_feature(self, tmp_path):
        source = _read("src/repro/cluster/builder.py") + (
            "\n\ndef _unguarded_probe(endpoint):\n"
            "    return ResilientCaller(endpoint)\n"
        )
        target = tmp_path / "src/repro/cluster/builder.py"
        target.parent.mkdir(parents=True)
        target.write_text(source)
        report = lint_paths(tmp_path, codes={"CFG402"})
        (finding,) = report.findings
        assert finding.code == "CFG402"
        assert "config.resilience" in finding.message

    def test_flow601_fires_on_injected_literal_seed(self):
        path = "src/repro/workloads/media.py"
        source = _read(path) + (
            "\n\ndef _leak_literal_rng():\n"
            "    import random\n"
            "    return random.Random(99)\n"
        )
        findings = [
            f for f in lint_source(source, path) if f.code == "FLOW601"
        ]
        assert any("random.Random(99)" in f.source for f in findings)


class TestWireReportGolden:
    def test_recovered_protocol_matches_golden(self):
        report = lint_paths(REPO_ROOT)
        golden = json.loads(GOLDEN_WIRE_REPORT.read_text())
        assert report.wire_report == golden, (
            "the recovered RPC protocol changed; if intentional, "
            "regenerate tests/lint/goldens/wire_report.json"
        )

    def test_golden_covers_the_whole_protocol(self):
        golden = json.loads(GOLDEN_WIRE_REPORT.read_text())
        assert len(golden) >= 26
        for msg, entry in golden.items():
            assert entry["senders"], f"{msg} has no senders"
            assert entry["handlers"], f"{msg} has no handlers"
