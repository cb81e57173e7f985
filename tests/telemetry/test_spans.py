"""Unit tests for the span plane: Telemetry, Span, SpanContext."""

import pytest

from repro.sim import Simulator
from repro.telemetry import Span, Telemetry


def make() -> tuple[Simulator, Telemetry]:
    sim = Simulator()
    tel = Telemetry(sim).attach()
    return sim, tel


class TestAttach:
    def test_simulator_defaults_to_no_telemetry(self):
        assert Simulator().telemetry is None

    def test_attach_and_detach(self):
        sim, tel = make()
        assert sim.telemetry is tel
        tel.detach()
        assert sim.telemetry is None

    def test_detach_leaves_other_plane_alone(self):
        sim, tel = make()
        other = Telemetry(sim).attach()
        tel.detach()  # not the attached plane; must not clobber
        assert sim.telemetry is other

    def test_max_spans_validated(self):
        with pytest.raises(ValueError):
            Telemetry(Simulator(), max_spans=0)


class TestBeginEnd:
    def test_root_span_starts_its_own_trace(self):
        _, tel = make()
        span = tel.begin("client.store", layer="client", node="n0")
        assert span.parent_id is None
        assert span.trace_id == span.span_id
        assert not span.finished
        assert span.duration_s == 0.0

    def test_ids_are_deterministic_emission_order(self):
        _, tel = make()
        ids = [tel.begin(f"op{i}", layer="l", node="n").span_id for i in range(3)]
        assert ids == [1, 2, 3]

    def test_parent_forms_span_and_context(self):
        _, tel = make()
        root = tel.begin("root", layer="l", node="n")
        via_span = tel.begin("a", layer="l", node="n", parent=root)
        via_ctx = tel.begin("b", layer="l", node="n", parent=root.context())
        for child in (via_span, via_ctx):
            assert child.trace_id == root.trace_id
            assert child.parent_id == root.span_id

    def test_end_records_time_status_attrs(self):
        sim, tel = make()
        span = tel.begin("op", layer="l", node="n", key="k")
        sim._now = 2.5
        tel.end(span, target="n2")
        assert span.finished
        assert span.end == 2.5
        assert span.duration_s == 2.5
        assert span.status == "ok"
        assert span.attrs == {"key": "k", "target": "n2"}

    def test_fail_derives_error_status(self):
        _, tel = make()
        span = tel.begin("op", layer="l", node="n")
        tel.fail(span, KeyError("missing"))
        assert span.status == "error:KeyError"

    def test_finished_spans_feed_latency_histograms(self):
        sim, tel = make()
        span = tel.begin("kv.get", layer="kvstore", node="n0")
        sim._now = 0.25
        tel.end(span)
        hist = tel.metrics.histogram("kv.get", node="n0")
        assert hist.count == 1
        assert hist.total == 0.25

    def test_error_spans_also_count_errors(self):
        _, tel = make()
        span = tel.begin("kv.get", layer="kvstore", node="n0")
        tel.fail(span, RuntimeError("x"))
        assert tel.metrics.counter("kv.get.errors", node="n0").value == 1.0

    def test_max_spans_bound_drops_oldest(self):
        _, tel_unbounded = make()
        sim = Simulator()
        tel = Telemetry(sim, max_spans=2).attach()
        for i in range(5):
            tel.begin(f"op{i}", layer="l", node="n")
        assert len(tel.spans) == 2
        assert tel.dropped == 3
        assert [s.name for s in tel.spans] == ["op3", "op4"]
        # The public view stays a list, whatever retains the spans.
        assert isinstance(tel.spans, list)

    def test_slo_cluster_bounds_retention_to_recorder_horizon(self):
        from repro.cluster import Cloud4Home, ClusterConfig, SloConfig

        config = ClusterConfig(
            seed=11, slo=True, slo_tuning=SloConfig(recorder_capacity=4)
        )
        c4h = Cloud4Home(config)
        c4h.start(monitors=False)
        c4h.run(c4h.devices[0].client.store_file("bounded.jpg", 1.0))
        tel = c4h.telemetry
        assert tel.max_spans == 4 * len(config.devices)
        assert len(tel.spans) == tel.max_spans
        assert tel.dropped > 0


class TestWrap:
    def test_wrap_ends_span_on_success(self):
        sim, tel = make()
        span = tel.begin("client.fetch", layer="client", node="n0")

        def work():
            yield sim.timeout(1.5)
            return "value"

        proc = sim.process(tel.wrap(span, work()))
        sim.run()
        assert proc.value == "value"
        assert span.finished
        assert span.duration_s == 1.5
        assert span.status == "ok"

    def test_wrap_fails_span_and_reraises(self):
        sim, tel = make()
        span = tel.begin("client.fetch", layer="client", node="n0")

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def outer():
            try:
                yield from tel.wrap(span, bad())
            except ValueError:
                return "caught"

        proc = sim.process(outer())
        sim.run()
        assert proc.value == "caught"
        assert span.status == "error:ValueError"
        assert span.end == 1.0


class TestQuerying:
    def test_traces_roots_children(self):
        _, tel = make()
        r1 = tel.begin("a", layer="l", node="n")
        c1 = tel.begin("a.1", layer="l", node="n", parent=r1)
        r2 = tel.begin("b", layer="l", node="n")
        assert [s.name for s in tel.roots()] == ["a", "b"]
        assert set(tel.traces()) == {r1.trace_id, r2.trace_id}
        assert tel.children_of(r1) == [c1]
        tel.clear()
        assert tel.spans == [] and tel.dropped == 0


class TestWireCtx:
    def test_span_dict_round_trip(self):
        span = Span(
            trace_id=3,
            span_id=5,
            parent_id=3,
            name="kv.get",
            layer="kvstore",
            node="n1",
            start=1.0,
            end=2.0,
            status="ok",
            attrs={"key": "ab"},
        )
        assert Span.from_dict(span.as_dict()) == span
