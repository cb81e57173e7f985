"""The resume-timing wrapper: self time, child spans, transparency."""

import inspect
import time

import pytest

from repro.sim import Interrupt, Simulator
from tracer import Tracer


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Layer:
    """Stand-in entry points: a generator method and a plain method."""

    def work(self, seconds):
        _busy(seconds)
        return "done"

    def steps(self, sim, seconds, gap):
        _busy(seconds)
        yield sim.timeout(gap)
        _busy(seconds)
        return "steps"

    def nested(self, seconds):
        yield from ()
        _busy(seconds)
        self.work(seconds)
        return "nested"

    def raises(self):
        yield from ()
        raise KeyError("boom")

    def waits(self, sim):
        try:
            yield sim.timeout(100)
        except Interrupt as exc:
            return f"interrupted: {exc.cause}"
        return "timeout"

    def waits_uncaught(self, sim):
        yield sim.timeout(100)


@pytest.fixture
def traced():
    tracer = Tracer()
    tracer.instrument(Layer, ["work"], "inner")
    tracer.instrument(Layer, ["steps", "nested", "raises", "waits", "waits_uncaught"], "outer")
    tracer.recording = True
    yield tracer
    tracer.uninstall()


def _drive(generator):
    """Run a non-simulator generator to completion; return its value."""
    try:
        while True:
            next(generator)
    except StopIteration as stop:
        return stop.value


def test_wrapped_generator_function_stays_a_generator_function(traced):
    # RpcEndpoint picks its dispatch path from co_flags.
    assert inspect.isgeneratorfunction(Layer.steps)
    assert not inspect.isgeneratorfunction(Layer.work)


def test_suspended_time_is_excluded():
    sim_gap_wall = 0.15
    tracer = Tracer()
    tracer.instrument(Layer, ["steps"], "outer")
    try:
        gen = Layer().steps(Simulator(), 0.02, 1.0)
        next(gen)
        time.sleep(sim_gap_wall)  # suspended: must not count
        with pytest.raises(StopIteration):
            gen.send(None)
    finally:
        tracer.uninstall()
    self_s = tracer.layers["outer"].self_s
    assert 0.035 <= self_s < 0.035 + sim_gap_wall / 2


def test_child_spans_are_excluded_from_parent_self_time(traced):
    assert _drive(Layer().nested(0.03)) == "nested"
    assert 0.025 <= traced.layers["outer"].self_s < 0.045
    assert 0.025 <= traced.layers["inner"].self_s < 0.045
    (child,) = [s for s in traced.spans if s[3] == "Layer.work"]
    (parent,) = [s for s in traced.spans if s[3] == "Layer.nested"]
    assert child[1] == parent[0]  # parent id
    assert child[2] == parent[2]  # same request id


class Harness:
    """Stand-in for a harness loop that starts one request per step."""

    def __init__(self, tracer):
        self.tracer = tracer

    def loop(self, requests):
        layer = Layer()
        for request_id in requests:
            self.tracer.set_request(request_id)
            yield from ()
            layer.work(0)
            yield from layer.nested(0)


def test_request_ids_follow_the_harness(traced):
    traced.instrument(Harness, ["loop"], "load")
    layer = Layer()
    layer.work(0)  # opened with no span running: request unknown
    gen = Harness(traced).loop([7, 8])
    next(gen, None)  # runs the whole loop: its body never suspends
    by_name = {}
    for span in traced.spans:
        by_name.setdefault(span[3], []).append(span)
    assert by_name["Layer.work"][0][2] == 0
    (loop,) = by_name["Harness.loop"]
    assert loop[2] == 0  # the loop spans many requests and keeps its own id
    assert [s[2] for s in by_name["Layer.nested"]] == [7, 8]
    # work() runs twice per request: directly and inside nested().
    assert [s[2] for s in by_name["Layer.work"][1:]] == [7, 7, 8, 8]


def test_request_id_survives_a_resume():
    sim = Simulator()
    tracer = Tracer()
    tracer.instrument(Layer, ["work"], "inner")

    class Client:
        def run(self):
            tracer.set_request(5)
            yield sim.timeout(1)  # suspended: the next resume keeps the id
            Layer().work(0)

    tracer.instrument(Client, ["run"], "load")
    tracer.recording = True
    try:
        sim.process(Client().run())
        sim.run()
    finally:
        tracer.uninstall()
    ((work,),) = [[s for s in tracer.spans if s[3] == "Layer.work"]]
    (run,) = [s for s in tracer.spans if s[3] == "Client.run"]
    assert (work[1], work[2]) == (run[0], 5)
    assert run[2] == 0


def test_return_values_and_exceptions_pass_through(traced):
    assert Layer().work(0) == "done"
    with pytest.raises(KeyError, match="boom"):
        _drive(Layer().raises())
    assert traced.calls["Layer.raises"] == 1


def test_interrupt_passes_through_unchanged(traced):
    sim = Simulator()
    layer = Layer()
    caught = sim.process(layer.waits(sim))
    uncaught = sim.process(layer.waits_uncaught(sim))

    def interrupter():
        yield sim.timeout(1)
        caught.interrupt("stop")
        uncaught.interrupt("stop")

    sim.process(interrupter())
    with pytest.raises(Interrupt):
        sim.run()
    assert caught.value == "interrupted: stop"
    assert isinstance(uncaught.value, Interrupt)
    assert sim.now == 1


def test_simulated_outcome_is_identical_traced_and_untraced():
    def scenario():
        sim = Simulator()
        layer = Layer()
        results = [sim.process(layer.steps(sim, 0, gap)) for gap in (0.5, 0.25, 1.0)]
        sim.run()
        return [(r.value, sim.now) for r in results], sim._event_seq

    plain = scenario()
    tracer = Tracer()
    tracer.instrument(Layer, ["steps"], "outer")
    try:
        assert scenario() == plain
    finally:
        tracer.uninstall()
    assert tracer.calls["Layer.steps"] == 3


def test_uninstall_restores_originals():
    original = Layer.__dict__["work"]
    tracer = Tracer()
    tracer.instrument(Layer, ["work"], "inner")
    assert Layer.__dict__["work"] is not original
    tracer.uninstall()
    assert Layer.__dict__["work"] is original


def test_spans_written_out(tmp_path, traced):
    Layer().work(0)
    path = tmp_path / "spans.tsv.gz"
    assert traced.write_spans(str(path)) == 1
    import gzip

    lines = gzip.open(path, "rt").read().splitlines()
    assert lines[0].split("\t") == ["id", "parent", "request", "name", "start", "end", "self_s"]
    assert lines[1].split("\t")[3] == "Layer.work"
