"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestCommands:
    def test_topology(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "netbook0" in out
        assert "desktop" in out
        assert "LAN" in out

    def test_trace(self, capsys):
        assert main(["trace", "--files", "4", "--accesses", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("file-0000") >= 4
        assert "store" in out or "fetch" in out

    def test_trace_is_seeded(self, capsys):
        main(["trace", "--files", "3", "--seed", "5"])
        first = capsys.readouterr().out
        main(["trace", "--files", "3", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_demo(self, capsys):
        assert main(["demo", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "stored photo.jpg" in out
        assert "== metrics ==" in out
        assert "client.fetch@desktop" in out
        assert "link.utilization@home-lan" in out
        assert "device.load@desktop" in out

    def test_surveillance(self, capsys):
        assert main(["surveillance", "--image-mb", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "pipeline ran on" in out

    def test_report(self, capsys):
        assert main(["report", "--files", "2"]) == 0
        out = capsys.readouterr().out
        assert "latency attribution" in out
        assert "slowest trace: client." in out
        assert "== metrics ==" in out
        assert "request trees" in out

    def test_report_writes_valid_chrome_trace_and_span_dump(
        self, capsys, tmp_path
    ):
        import json

        from repro.telemetry import spans_from_dump, validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        spans_path = tmp_path / "spans.json"
        assert (
            main(
                [
                    "report",
                    "--files",
                    "2",
                    "--trace-out",
                    str(trace_path),
                    "--spans-out",
                    str(spans_path),
                ]
            )
            == 0
        )
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) > 0
        spans = spans_from_dump(json.loads(spans_path.read_text()))
        assert any(s.name == "client.fetch" for s in spans)

    def test_report_is_seeded(self, capsys):
        main(["report", "--files", "2", "--seed", "4"])
        first = capsys.readouterr().out
        main(["report", "--files", "2", "--seed", "4"])
        second = capsys.readouterr().out
        assert first == second

    def test_bench_help(self, capsys):
        assert main(["bench-help"]) == 0
        out = capsys.readouterr().out
        assert "pytest benchmarks/" in out
        assert "Figure 7" in out


class TestSweep:
    def test_sweep_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "figure9000"])

    def test_sweep_smoke_inline(self, capsys):
        assert main(["sweep", "decision", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "sweep decision" in out
        assert "inline" in out

    def test_sweep_smoke_pooled_verified(self, capsys):
        assert main(["sweep", "storm", "--smoke", "--workers", "2", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "2 workers" in out
        assert "verified vs serial" in out

    def test_sweep_writes_json_payload(self, capsys, tmp_path):
        output = tmp_path / "sweep.json"
        assert main(
            ["sweep", "table1", "--smoke", "--output", str(output)]
        ) == 0
        import json

        payload = json.loads(output.read_text())
        assert payload["experiment"] == "table1"
        assert payload["n_failed"] == 0
        assert set(payload["results"]["per_size"]) == {"1", "10"}

    def test_sweep_dedups_repeats(self, capsys):
        assert main(["sweep", "table1", "--smoke", "--repeats", "3"]) == 0
        out = capsys.readouterr().out
        assert "6 jobs (2 distinct)" in out
