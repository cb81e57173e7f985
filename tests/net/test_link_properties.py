"""Property-based tests for the fluid fair-share link model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.tcp import TcpProfile
from repro.sim import AllOf, Simulator

flow_sizes = st.lists(
    st.floats(min_value=1e3, max_value=5e7, allow_nan=False),
    min_size=1,
    max_size=8,
)
start_offsets = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


def run_flows(bandwidth, sizes, offsets=None, caps=None):
    """Run flows on one link; returns (makespan, flows)."""
    sim = Simulator()
    link = Link(sim, bandwidth=bandwidth)
    offsets = offsets or [0.0] * len(sizes)
    caps = caps or [float("inf")] * len(sizes)
    flows = []

    def opener(sim, delay, nbytes, cap):
        if delay > 0:
            yield sim.timeout(delay)
        flow = link.open_flow(nbytes, extra_cap=cap)
        flows.append(flow)
        yield flow.done

    procs = [
        sim.process(opener(sim, offsets[i % len(offsets)], size, caps[i % len(caps)]))
        for i, size in enumerate(sizes)
    ]
    sim.run(until=AllOf(sim, procs))
    return sim.now, flows, link


class TestConservation:
    @settings(max_examples=50, deadline=None)
    @given(flow_sizes)
    def test_all_bytes_delivered(self, sizes):
        _, flows, link = run_flows(1e6, sizes)
        assert all(f.remaining == pytest.approx(0.0, abs=1e-3) for f in flows)
        assert link.bytes_delivered == pytest.approx(sum(sizes), rel=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(flow_sizes)
    def test_makespan_at_least_capacity_bound(self, sizes):
        """The link can never move bytes faster than its bandwidth."""
        makespan, _, _ = run_flows(1e6, sizes)
        assert makespan >= sum(sizes) / 1e6 * (1 - 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(flow_sizes)
    def test_simultaneous_flows_finish_exactly_at_capacity_bound(self, sizes):
        """Uncapped flows starting together keep the link saturated, so
        the last completion is exactly total/bandwidth."""
        makespan, _, _ = run_flows(2e6, sizes)
        assert makespan == pytest.approx(sum(sizes) / 2e6, rel=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(flow_sizes, start_offsets)
    def test_staggered_flows_conserve_bytes(self, sizes, offsets):
        _, flows, link = run_flows(1e6, sizes, offsets=offsets)
        assert link.bytes_delivered == pytest.approx(sum(sizes), rel=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(flow_sizes)
    def test_each_flow_no_faster_than_alone(self, sizes):
        """Sharing can only slow a flow down relative to an idle link."""
        _, flows, _ = run_flows(1e6, sizes)
        for flow in flows:
            alone = flow.nbytes / 1e6
            assert flow.elapsed >= alone * (1 - 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        flow_sizes,
        st.lists(
            st.floats(min_value=1e4, max_value=2e6, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
    )
    def test_caps_respected(self, sizes, caps):
        _, flows, _ = run_flows(1e7, sizes, caps=caps)
        for flow in flows:
            # Average rate can never beat the flow's cap.
            assert flow.throughput() <= flow.extra_cap * (1 + 1e-6)


class TestTcpProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=1024, max_value=64 * 1024),
        st.floats(min_value=1e3, max_value=1e8),
    )
    def test_ideal_time_positive_and_monotone(self, rtt, init_window, nbytes):
        profile = TcpProfile(
            rtt=rtt, init_window=init_window, max_window=2 * 1024 * 1024
        )
        t1 = profile.ideal_transfer_time(nbytes, link_rate=1e6)
        t2 = profile.ideal_transfer_time(nbytes * 2, link_rate=1e6)
        assert 0 <= t1 <= t2

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e4, max_value=1e8))
    def test_fluid_model_matches_closed_form(self, nbytes):
        profile = TcpProfile(rtt=0.1, init_window=8192, max_window=1024 * 1024)
        sim = Simulator()
        link = Link(sim, bandwidth=5e6)
        flow = link.open_flow(nbytes, profile=profile)
        sim.run(until=flow.done)
        assert sim.now == pytest.approx(
            profile.ideal_transfer_time(nbytes, 5e6), rel=1e-6
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=1e5, max_value=1e8),
        st.floats(min_value=0.5, max_value=20.0),
        st.floats(min_value=1e3, max_value=1e5),
    )
    def test_shaping_never_speeds_up(self, nbytes, after_s, shaped_rate):
        base = TcpProfile(rtt=0.1, init_window=8192, max_window=1024 * 1024)
        shaped = TcpProfile(
            rtt=0.1,
            init_window=8192,
            max_window=1024 * 1024,
            shaping_after_s=after_s,
            shaped_rate=shaped_rate,
        )
        t_base = base.ideal_transfer_time(nbytes, 1e6)
        t_shaped = shaped.ideal_transfer_time(nbytes, 1e6)
        assert t_shaped >= t_base * (1 - 1e-9)


def run_at_large_clock(start, bandwidth, sizes, rerates, profile=None):
    """Open ``sizes`` (each after a small offset) and re-rate the link at
    ``rerates`` ((delay, bandwidth) pairs), all from sim t = ``start``.

    Returns ``(flows, boundaries)``.  The kernel is stepped by hand so a
    livelocked link, whose timer re-fires without moving the clock,
    fails the step budget instead of hanging the test.
    """
    sim = Simulator(start_time=start)
    link = Link(sim, bandwidth=bandwidth)
    boundaries = []
    on_boundary = link._on_boundary

    def counting_boundary():
        boundaries.append(sim.now)
        on_boundary()

    link._on_boundary = counting_boundary
    flows = []

    def opener(delay, nbytes):
        yield sim.timeout(delay)
        flow = link.open_flow(nbytes, profile=profile)
        flows.append(flow)
        yield flow.done

    def rerater(delay, rate):
        yield sim.timeout(delay)
        link.set_bandwidth(rate)

    procs = [sim.process(opener(d, n)) for d, n in sizes]
    procs += [sim.process(rerater(d, r)) for d, r in rerates]
    phases = len(list(profile.phases())) if profile is not None else 1
    budget = 4 * (len(sizes) * (phases + 1) + len(rerates)) + 8
    steps = 0
    while not all(p.triggered for p in procs):
        sim.step()
        steps += 1
        assert steps <= 10 * budget, f"link stuck at t={sim.now!r}: {flows!r}"
    assert len(boundaries) <= budget
    return flows, boundaries


#: A remainder just above the byte epsilon, drained faster than half the
#: float spacing of a large clock: the shape of the float-time livelock.
tiny_or_bulk = st.one_of(
    st.floats(min_value=1.5e-6, max_value=1e-3),
    st.floats(min_value=1e3, max_value=5e7),
)


class TestLargeClock:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=11, max_value=30),
        st.floats(min_value=1e5, max_value=1e10),
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1e-3), tiny_or_bulk),
            min_size=1,
            max_size=6,
        ),
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),
                st.floats(min_value=1e5, max_value=1e10),
            ),
            max_size=3,
        ),
        st.booleans(),
    )
    def test_every_flow_completes_in_bounded_boundaries(
        self, exponent, bandwidth, sizes, rerates, with_tcp
    ):
        profile = TcpProfile(rtt=0.01, init_window=8192, max_window=65536) if with_tcp else None
        flows, _ = run_at_large_clock(2.0**exponent, bandwidth, sizes, rerates, profile)
        assert len(flows) == len(sizes)
        assert all(f.remaining == 0.0 and f.finished_at is not None for f in flows)

    @pytest.mark.parametrize("exponent", [11, 20, 30])
    def test_sub_spacing_remainder_finishes(self, exponent):
        # 1.5e-6 B at 1e9 B/s drains in 1.5e-15 s: below half the float
        # spacing of every clock from 2**11 s on.
        flows, boundaries = run_at_large_clock(2.0**exponent, 1e9, [(0.0, 1.5e-6)], [])
        assert flows[0].finished_at == 2.0**exponent
        assert len(boundaries) == 1

    def test_stalled_boundaries_raise(self):
        sim = Simulator(start_time=2.0**20)
        link = Link(sim, bandwidth=1e6, name="stuck")
        link.open_flow(1e6)
        # A boundary that finishes nothing, enters no phase and fires
        # twice more at the same instant is a livelock, not progress.
        link._on_boundary()
        link._on_boundary()
        with pytest.raises(RuntimeError, match="'stuck'"):
            link._on_boundary()
