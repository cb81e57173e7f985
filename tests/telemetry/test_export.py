"""Unit tests for the exporters: dumps, Chrome trace, attribution."""

import pytest

from repro.sim import Simulator
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    attribution_report,
    chrome_trace,
    layer_attribution,
    merge_span_dumps,
    metrics_report,
    span_dump,
    spans_from_dump,
    validate_chrome_trace,
)


def small_trace(obj: str = "x") -> Telemetry:
    """One finished 2-level trace plus one unfinished span."""
    sim = Simulator()
    tel = Telemetry(sim).attach()
    root = tel.begin("client.fetch", layer="client", node="n0", object=obj)
    child = tel.begin("kv.get", layer="kvstore", node="n0", parent=root)
    sim._now = 0.3
    tel.end(child)
    grand = tel.begin("net.transfer", layer="net", node="n1", parent=child)
    sim._now = 0.8
    tel.end(grand)
    sim._now = 1.0
    tel.end(root)
    tel.begin("vstore.fetch", layer="vstore", node="n2", parent=root)  # unfinished
    return tel


class TestDumps:
    def test_round_trip(self):
        tel = small_trace()
        dump = span_dump(tel)
        assert [d["name"] for d in dump] == [
            "client.fetch",
            "kv.get",
            "net.transfer",
            "vstore.fetch",
        ]
        assert spans_from_dump(dump) == tel.spans

    def test_merge_rebases_ids_and_preserves_edges(self):
        # Three workers, same 1-based id ranges, different work: a
        # true collision, so later dumps are rebased past the first.
        dumps = [span_dump(small_trace(obj=f"x{i}")) for i in range(3)]
        merged = merge_span_dumps(dumps)
        assert len(merged) == 12
        ids = [d["span_id"] for d in merged]
        assert len(set(ids)) == len(ids)  # no collisions
        by_id = {d["span_id"]: d for d in merged}
        for d in merged:
            if d["parent_id"] is None:
                assert d["trace_id"] == d["span_id"]
            else:
                parent = by_id[d["parent_id"]]  # edge still resolves
                assert parent["trace_id"] == d["trace_id"]

    def test_merge_of_single_dump_is_identity(self):
        dump = span_dump(small_trace())
        assert merge_span_dumps([dump]) == dump

    @staticmethod
    def entry(span_id, trace_id=None, parent_id=None, **attrs):
        return {
            "trace_id": span_id if trace_id is None else trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": "op",
            "layer": "l",
            "node": "n",
            "start": 0.0,
            "end": 1.0,
            "status": "ok",
            "attrs": attrs,
        }

    def test_merge_rebases_on_parentage_collision(self):
        # The regression case: both dumps contain span id 2, but they
        # disagree on its parentage — dump A's is a child of span 1,
        # dump B's is a root.  The old merge rebased unconditionally;
        # the property that matters is that a *disagreeing* shared id
        # forces a rebase and both versions survive with their edges.
        dump_a = [self.entry(1), self.entry(2, trace_id=1, parent_id=1)]
        dump_b = [self.entry(2), self.entry(3, trace_id=2, parent_id=2)]
        merged = merge_span_dumps([dump_a, dump_b])
        assert len(merged) == 4
        ids = [d["span_id"] for d in merged]
        assert len(set(ids)) == len(ids)
        by_id = {d["span_id"]: d for d in merged}
        # Dump A is untouched; dump B was rebased past A's max id.
        assert merged[:2] == dump_a
        rebased_root, rebased_child = merged[2], merged[3]
        assert rebased_root["span_id"] > 2 and rebased_root["parent_id"] is None
        assert by_id[rebased_child["parent_id"]] is rebased_root

    def test_merge_leaves_disjoint_id_spaces_untouched(self):
        # Disjoint ids mean one shared id space — possibly with parent
        # edges deliberately pointing across dumps.  No rebase.
        dump_a = [self.entry(1), self.entry(2, trace_id=1, parent_id=1)]
        dump_b = [self.entry(10, trace_id=1, parent_id=2)]
        merged = merge_span_dumps([dump_a, dump_b])
        assert merged == dump_a + dump_b  # cross-dump edge still resolves

    def test_merge_dedupes_identical_overlap(self):
        # Shared ids whose entries are byte-identical are an overlap
        # (the same spans re-exported), not a collision: dropped once.
        shared = self.entry(2, trace_id=1, parent_id=1)
        dump_a = [self.entry(1), shared]
        dump_b = [dict(shared), self.entry(3, trace_id=1, parent_id=2)]
        merged = merge_span_dumps([dump_a, dump_b])
        assert [d["span_id"] for d in merged] == [1, 2, 3]

    def test_merge_identical_dumps_collapse(self):
        dump = span_dump(small_trace())
        assert merge_span_dumps([dump, dump]) == dump


class TestChromeTrace:
    def test_export_validates_and_names_threads(self):
        payload = chrome_trace(small_trace())
        assert validate_chrome_trace(payload) == 4
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == {"n0", "n1", "n2"}
        timed = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in timed)
        ts = [e["ts"] for e in timed]
        assert ts == sorted(ts)

    def test_unfinished_spans_export_with_zero_duration(self):
        payload = chrome_trace(small_trace())
        open_events = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["args"]["status"] == "unfinished"
        ]
        assert len(open_events) == 1
        assert open_events[0]["dur"] == 0

    def test_durations_are_simulated_microseconds(self):
        payload = chrome_trace(small_trace())
        root = next(
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "client.fetch"
        )
        assert root["dur"] == pytest.approx(1.0e6)


class TestValidator:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({})

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "Z", "ts": 0}]}
            )

    def test_rejects_non_monotonic_ts(self):
        events = [
            {"ph": "X", "ts": 5.0, "dur": 1.0, "pid": 1, "tid": 1},
            {"ph": "X", "ts": 2.0, "dur": 1.0, "pid": 1, "tid": 1},
        ]
        with pytest.raises(ValueError, match="monotonic"):
            validate_chrome_trace({"traceEvents": events})

    def test_rejects_negative_duration(self):
        events = [{"ph": "X", "ts": 0.0, "dur": -1.0, "pid": 1, "tid": 1}]
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace({"traceEvents": events})

    def test_b_e_events_must_pair_per_thread(self):
        ok = [
            {"ph": "B", "ts": 0.0, "pid": 1, "tid": 1, "name": "op"},
            {"ph": "E", "ts": 1.0, "pid": 1, "tid": 1},
        ]
        assert validate_chrome_trace({"traceEvents": ok}) == 2
        with pytest.raises(ValueError, match="E without matching B"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "E", "ts": 0.0, "pid": 1, "tid": 1}]}
            )
        with pytest.raises(ValueError, match="left open"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"ph": "B", "ts": 0.0, "pid": 1, "tid": 1, "name": "op"}
                    ]
                }
            )

    def test_metadata_only_trace_rejected(self):
        with pytest.raises(ValueError, match="no timed events"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "M", "pid": 1, "tid": 1, "args": {}}]}
            )


class TestAttribution:
    def test_self_time_excludes_children(self):
        per_layer = layer_attribution(small_trace())
        # client root: 1.0s total, minus the 0.3s kv.get child -> 0.7 self
        assert per_layer["client"]["total_s"] == pytest.approx(1.0)
        assert per_layer["client"]["self_s"] == pytest.approx(0.7)
        # kv.get: 0.3s total, minus the 0.5s net child -> floored at 0
        assert per_layer["kvstore"]["self_s"] == pytest.approx(0.0)
        assert per_layer["net"]["self_s"] == pytest.approx(0.5)
        # the unfinished vstore span contributes nothing
        assert "vstore" not in per_layer

    def test_report_renders_layer_table_and_tree(self):
        text = attribution_report(small_trace())
        assert "latency attribution" in text
        assert "client" in text and "net" in text
        assert "slowest trace: client.fetch @n0" in text
        assert "kv.get" in text

    def test_report_with_no_finished_spans(self):
        sim = Simulator()
        tel = Telemetry(sim).attach()
        tel.begin("op", layer="l", node="n")
        assert "(no finished spans)" in attribution_report(tel)


class TestMetricsReport:
    def test_renders_each_instrument_kind(self):
        reg = MetricsRegistry()
        reg.counter("kv.puts", node="a").inc(4)
        reg.gauge("kv.lookup.mean_s", node="a").set(0.002)
        reg.histogram("client.fetch", node="a").observe(0.5)
        text = metrics_report(reg)
        assert "kv.puts@a: 4" in text
        assert "kv.lookup.mean_s@a: 0.002" in text
        assert "client.fetch@a: n=1" in text
        assert "p95=500.00ms" in text

    def test_renders_one_of_every_registry_instrument(self):
        reg = MetricsRegistry()
        reg.counter("kv.puts", node="a").inc(4)
        reg.gauge("kv.lookup.mean_s", node="a").set(0.002)
        reg.histogram("client.fetch", node="a").observe(0.5)
        reg.windowed_histogram("fetch.clean", node="a").observe(0.25, now=1.0, ok=False)
        kinds = {
            data["type"] for nodes in reg.snapshot().values() for data in nodes.values()
        }
        assert kinds == {"counter", "gauge", "histogram", "windowed_histogram"}
        text = metrics_report(reg)
        assert "kv.puts@a: 4" in text
        assert "client.fetch@a: n=1" in text
        assert "fetch.clean.window@a: n=1 mean=250.00ms" in text

    def test_limit_truncates_names(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("b").inc()
        assert "b" not in metrics_report(reg, limit=1)
