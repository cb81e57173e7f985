"""Host-speed sampling: when the samplers sample, and what samples cost."""

import time

import hostspeed
from hostspeed import REFERENCE_S, HostSampler, TickSampler


def test_sampler_samples_while_running_and_stops(monkeypatch):
    monkeypatch.setattr(hostspeed, "sample", lambda: 2 * REFERENCE_S)
    with HostSampler(every_s=0.01) as sampler:
        time.sleep(0.2)
    taken = len(sampler.samples)
    assert taken >= 5
    time.sleep(0.05)
    assert len(sampler.samples) == taken
    assert sampler.slowdown() == 2.0
    starts = [start for start, _ in sampler.samples]
    assert sampler.spent_before(starts[2]) == 2 * (2 * REFERENCE_S)
    assert sampler.spent_before(starts[-1] + 1) == taken * (2 * REFERENCE_S)


def test_a_sampler_that_never_sampled_still_reports():
    sampler = HostSampler(every_s=10.0)
    with sampler:
        pass
    assert sampler.samples == []
    assert sampler.slowdown() > 0


def test_tick_samples_at_most_once_per_interval(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(hostspeed, "sample", lambda: 2 * REFERENCE_S)
    monkeypatch.setattr(hostspeed, "perf_counter", lambda: clock[0])
    sampler = TickSampler(every_s=1.0, now=0.0)
    for now in (0.2, 0.9, 1.0, 1.5, 1.9, 2.1):
        clock[0] = now
        sampler.tick(now)
    assert [start for start, _ in sampler.samples] == [1.0, 2.1]
    assert sampler.spent_before(2.1) == 2 * REFERENCE_S
    assert sampler.slowdown() == 2.0
