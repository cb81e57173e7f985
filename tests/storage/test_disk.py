"""Tests for the simulated-disk cost model and its background flusher."""

import pytest

from repro.sim import RandomSource, Simulator
from repro.storage import SimDiskStore, StorageFlusher


def test_appends_buffer_instead_of_syncing():
    store = SimDiskStore()
    tbl = store.table("t")
    tbl["a"] = {"v": 1}
    tbl["b"] = {"v": 2}
    assert store.synced == 0
    assert store.pending_bytes > 0


def test_crash_before_any_flush_loses_everything():
    store = SimDiskStore()
    store.table("t")["a"] = 1
    report = store.crash()
    assert report["lost_ops"] == 1
    assert store.pending_bytes == 0.0
    replay = store.replay()
    assert replay.records == 0
    assert store.table("t") == {}


def test_flush_protocol_makes_prefix_durable():
    store = SimDiskStore()
    tbl = store.table("t")
    tbl["a"] = 1
    mark, nbytes = store.begin_flush()
    assert mark == 1
    assert nbytes == store.pending_bytes
    tbl["b"] = 2  # lands after the flush mark
    store.commit_flush(mark, nbytes)
    assert store.synced == 1
    assert store.fsyncs == 1
    report = store.crash()
    assert report["lost_ops"] == 1  # only "b" lost
    store.replay()
    assert dict(tbl) == {"a": 1}


def test_flush_cost_scales_with_bytes():
    store = SimDiskStore(write_mb_s=1.0, fsync_s=0.0, jitter=0.0)
    small = store.flush_cost_s(1024)
    big = store.flush_cost_s(1024 * 1024)
    assert big > small > 0
    assert big == pytest.approx(1.0)


def test_replay_cost_uses_replay_bandwidth():
    store = SimDiskStore(replay_mb_s=2.0, fsync_s=0.5, jitter=0.0)
    tbl = store.table("t")
    tbl["a"] = 1
    mark, nbytes = store.begin_flush()
    store.commit_flush(mark, nbytes)
    store.crash()
    report = store.replay()
    expected = report.bytes_replayed / (2.0 * 1024 * 1024) + 0.5
    assert store.replay_cost_s(report) == pytest.approx(expected)


def test_jitter_is_seeded_and_deterministic():
    costs = []
    for _ in range(2):
        store = SimDiskStore(rng=RandomSource(99).fork("disk"), jitter=0.2)
        store.table("t")["a"] = {"v": "x" * 100}
        _, nbytes = store.begin_flush()
        costs.append(store.flush_cost_s(nbytes))
    assert costs[0] == costs[1]
    nojitter = SimDiskStore(jitter=0.0)
    nojitter.table("t")["a"] = {"v": "x" * 100}
    _, nb = nojitter.begin_flush()
    assert costs[0] != nojitter.flush_cost_s(nb)


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        SimDiskStore(write_mb_s=0)
    with pytest.raises(ValueError):
        SimDiskStore(fsync_s=-1)


class TestStorageFlusher:
    def test_periodic_flush_commits(self):
        sim = Simulator()
        store = SimDiskStore(jitter=0.0)
        flusher = StorageFlusher(sim, store, period_s=0.25)
        store.table("t")["a"] = 1
        flusher.start()
        sim.run(until=2.0)
        assert store.synced == 1
        assert store.pending_bytes == 0.0
        assert flusher.flushes >= 1

    def test_idle_periods_do_not_fsync(self):
        sim = Simulator()
        store = SimDiskStore(jitter=0.0)
        flusher = StorageFlusher(sim, store, period_s=0.25)
        flusher.start()
        sim.run(until=5.0)
        assert store.fsyncs == 0

    def test_stop_interrupts_mid_flight_flush(self):
        sim = Simulator()
        # 1 MB at 1 MB/s: the flush charge takes ~1 simulated second.
        store = SimDiskStore(write_mb_s=1.0, jitter=0.0)
        store.table("t")["blob"] = {"v": "x" * (1024 * 1024)}
        flusher = StorageFlusher(sim, store, period_s=0.25)
        flusher.start()
        sim.run(until=0.5)  # flush began at 0.25, still charging
        flusher.stop()
        report = store.crash()
        sim.run(until=5.0)
        assert store.synced == 0  # the interrupted flush never committed
        assert report["lost_ops"] == 1
        assert not flusher.running

    def test_start_is_idempotent(self):
        sim = Simulator()
        store = SimDiskStore(jitter=0.0)
        flusher = StorageFlusher(sim, store, period_s=0.25)
        flusher.start()
        proc = flusher._process
        flusher.start()
        assert flusher._process is proc

    def test_period_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            StorageFlusher(sim, SimDiskStore(), period_s=0)


def commit_times(sim, store):
    """Record the simulated time of every committed flush."""
    times = []
    commit = store.commit_flush

    def recording(mark, nbytes):
        times.append(sim.now)
        commit(mark, nbytes)

    store.commit_flush = recording
    return times


def ticks_until(start, period, when):
    """The per-tick loop's first tick at or after ``when``, summed one
    period at a time from ``start`` as the kernel's ``now + delay`` does."""
    tick = start + period
    while tick < when:
        tick += period
    return tick


class TestParkedFlusher:
    """While its store is clean the flusher parks on one event: no
    kernel event per idle period, and the same commits at the same
    times as a loop that ticks every period."""

    def test_idle_store_schedules_no_events(self):
        sim = Simulator()
        flusher = StorageFlusher(sim, SimDiskStore(jitter=0.0), period_s=0.25)
        flusher.start()
        sim.run(until=0.0)  # the process starts and parks
        assert flusher.running
        before = sim._event_seq
        sim.run(until=100 * 0.25)
        # The horizon marker is the run's own event; the flusher adds none.
        assert sim._event_seq - before == 1
        assert flusher.flushes == 0

    @pytest.mark.parametrize("start, period, append_at", [
        (0.1, 0.1, 37.3),
        (3.7, 0.3, 1000.05),
        (0.0, 0.25, 50.0),  # on a tick: the tick flushes it
    ])
    def test_append_after_idle_spell_commits_on_the_periodic_tick(
        self, start, period, append_at
    ):
        sim = Simulator(start_time=start)
        store = SimDiskStore(fsync_s=0.005, jitter=0.0)
        flusher = StorageFlusher(sim, store, period_s=period)
        times = commit_times(sim, store)
        flusher.start()

        def writer():
            yield sim.timeout(append_at - start)
            store.table("t")["a"] = {"v": 1}

        sim.process(writer())
        sim.run(until=append_at + 10 * period)
        tick = ticks_until(start, period, append_at)
        cost = store.flush_cost_s(store.log[0].size if store.log else 0)
        assert times == [tick + cost]
        assert store.synced == 1 and not store.dirty

    def test_appends_during_a_charge_flush_one_period_after_commit(self):
        sim = Simulator()
        # 1 MB at 1 MB/s: the charge takes about a simulated second.
        store = SimDiskStore(write_mb_s=1.0, jitter=0.0)
        flusher = StorageFlusher(sim, store, period_s=0.25)
        times = commit_times(sim, store)
        flusher.start()
        tbl = store.table("t")
        tbl["blob"] = {"v": "x" * (1024 * 1024)}
        sim.run(until=0.5)  # charging since the 0.25 tick
        tbl["b"] = 1
        sim.run(until=10.0)
        assert len(times) == 2
        assert times[1] == times[0] + 0.25 + store.flush_cost_s(store.log[-1].size)
        assert store.synced == 2

    def test_stop_while_parked_keeps_prefix_durability(self):
        sim = Simulator()
        store = SimDiskStore(jitter=0.0)
        flusher = StorageFlusher(sim, store, period_s=0.25)
        flusher.start()
        tbl = store.table("t")
        tbl["a"] = 1
        sim.run(until=1.0)  # flushed, then parked
        assert store.synced == 1 and not store.dirty
        flusher.stop()
        before = sim._event_seq
        tbl["b"] = 2  # no flusher left to wake
        assert sim._event_seq == before
        sim.run(until=5.0)
        assert not flusher.running
        report = store.crash()
        assert report["lost_ops"] == 1
        store.replay()
        assert dict(tbl) == {"a": 1}

    def test_crash_while_a_wake_is_scheduled_loses_the_tail(self):
        sim = Simulator()
        store = SimDiskStore(jitter=0.0)
        flusher = StorageFlusher(sim, store, period_s=0.25)
        flusher.start()
        tbl = store.table("t")
        tbl["a"] = 1
        sim.run(until=1.0)
        tbl["b"] = 2  # wakes the parked flusher at the 1.25 tick
        flusher.stop()  # a crash stops the flusher, then the store
        report = store.crash()
        sim.run(until=5.0)
        assert report["lost_ops"] == 1
        assert store.fsyncs == 1
        store.replay()
        assert dict(tbl) == {"a": 1}

    def test_start_on_a_dirty_store_flushes_one_period_later(self):
        sim = Simulator(start_time=2.0)
        store = SimDiskStore(jitter=0.0)
        tbl = store.table("t")
        tbl["a"] = 1
        tbl["b"] = 2
        flusher = StorageFlusher(sim, store, period_s=0.25)
        times = commit_times(sim, store)
        flusher.start()
        sim.run(until=5.0)
        assert times == [2.25 + store.flush_cost_s(sum(e.size for e in store.log))]
        assert store.crash()["lost_ops"] == 0
        store.replay()
        assert dict(tbl) == {"a": 1, "b": 2}


def test_compaction_during_a_flush_keeps_its_mark():
    # The flush's mark must survive a compaction that runs while the
    # flush is being charged (the log prefix it folds shifts every
    # index); otherwise appends made during the flush count as durable.
    store = SimDiskStore(snapshot_every=8)
    tbl = store.table("t")
    for i in range(5):
        tbl[f"a{i}"] = i
    store.commit_flush(*store.begin_flush())
    tbl["b"] = 0
    mark, nbytes = store.begin_flush()
    tbl["c0"] = 0
    tbl["c1"] = 1  # the log reaches snapshot_every: compaction folds a*
    assert store.compactions == 1
    store.commit_flush(mark, nbytes)
    assert store.synced == 1  # just "b"
    assert store.synced <= len(store.log)
    report = store.crash()
    assert report["lost_ops"] == 2  # the appends made during the flush
    store.replay()
    assert sorted(tbl) == ["a0", "a1", "a2", "a3", "a4", "b"]
