"""Regression tests added with the simulation fast path.

Covers the two kernel bug fixes that rode along with the optimisation
work (``Event.trigger`` from an untriggered source, double delivery on
the non-event-yield error path) plus edge cases the inlined run loop
must preserve: interrupts landing exactly at a process's wait target,
conditions built from already-failed events, and ``run(until=...)``
with an already-processed event.
"""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    Simulator,
    SimulationError,
)


class TestTriggerFromUntriggeredSource:
    def test_trigger_raises_and_leaves_target_pending(self):
        sim = Simulator()
        source = sim.event()
        target = sim.event()
        with pytest.raises(SimulationError, match="not been triggered"):
            target.trigger(source)
        assert not target.triggered
        # The failed chaining attempt must not have corrupted the target.
        target.succeed("later")
        sim.run()
        assert target.ok and target.value == "later"


class TestNonEventYieldDelivery:
    def test_error_is_delivered_exactly_once(self):
        sim = Simulator()
        caught = []

        def proc(sim):
            try:
                yield "not an event"
            except SimulationError as exc:
                caught.append(str(exc))
            # The process must be able to keep simulating normally
            # afterwards (the old path delivered the error twice and
            # corrupted the generator state here).
            yield sim.timeout(2.0)
            return "recovered"

        p = sim.process(proc(sim))
        sim.run()
        assert len(caught) == 1
        assert "not an event" in caught[0]
        assert p.ok and p.value == "recovered"
        assert sim.now == 2.0

    def test_uncaught_error_fails_the_process(self):
        sim = Simulator()

        def proc(sim):
            yield 42

        p = sim.process(proc(sim))
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()
        assert not p.ok

    def test_consecutive_bad_yields_each_delivered(self):
        sim = Simulator()
        caught = []

        def proc(sim):
            for bad in ("first", "second"):
                try:
                    yield bad
                except SimulationError:
                    caught.append(bad)
            return len(caught)

        p = sim.process(proc(sim))
        sim.run()
        assert caught == ["first", "second"]
        assert p.value == 2


class TestInterruptAtWaitTarget:
    def test_interrupt_scheduled_at_the_wait_deadline(self):
        """Interrupt and timeout land at the same instant.

        Interrupt delivery is urgent, so the victim sees the Interrupt
        first, detaches from its timeout, and the timeout's wake-up is
        dropped instead of resuming the process a second time.
        """
        sim = Simulator()
        log = []

        def attacker(sim):
            yield sim.timeout(5.0)
            victim_proc.interrupt("deadline")

        def victim(sim):
            try:
                yield sim.timeout(5.0)
                log.append("timeout")
            except Interrupt as i:
                log.append(("interrupt", i.cause, sim.now))
            yield sim.timeout(1.0)
            log.append(("after", sim.now))

        sim.process(attacker(sim))
        victim_proc = sim.process(victim(sim))
        sim.run()
        assert log == [("interrupt", "deadline", 5.0), ("after", 6.0)]


class TestConditionsFromFailedEvents:
    @staticmethod
    def failed_event(sim, message):
        event = sim.event()
        event.fail(RuntimeError(message))
        event._defused = True
        sim.run()  # process it
        return event

    def test_any_of_from_already_failed_event(self):
        sim = Simulator()
        bad = self.failed_event(sim, "boom")
        cond = AnyOf(sim, [bad, sim.event()])
        cond._defused = True
        assert cond.triggered and not cond.ok
        assert isinstance(cond.value, RuntimeError)

    def test_all_of_from_already_failed_event(self):
        sim = Simulator()
        good = sim.event()
        good.succeed("fine")
        bad = self.failed_event(sim, "boom")
        cond = AllOf(sim, [good, bad])
        cond._defused = True
        assert cond.triggered and not cond.ok
        assert isinstance(cond.value, RuntimeError)

    def test_waiting_process_sees_the_failure(self):
        sim = Simulator()
        bad = self.failed_event(sim, "boom")
        outcomes = []

        def waiter(sim):
            try:
                yield AnyOf(sim, [bad, sim.event()])
            except RuntimeError as exc:
                outcomes.append(str(exc))

        sim.process(waiter(sim))
        sim.run()
        assert outcomes == ["boom"]


class TestRunUntilProcessedEvent:
    def test_run_until_already_processed_success_returns_value(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(3.0)
            return "done"

        p = sim.process(proc(sim))
        sim.run()
        assert p.processed
        # A second run(until=p) must return immediately with the value
        # and must not advance the clock.
        assert sim.run(until=p) == "done"
        assert sim.now == 3.0

    def test_run_until_already_processed_failure_raises(self):
        sim = Simulator()
        event = sim.event()
        event.fail(RuntimeError("late"))
        event._defused = True
        sim.run()
        assert event.processed
        with pytest.raises(RuntimeError, match="late"):
            sim.run(until=event)


class TestRunMatchesStep:
    def test_run_matches_step_loop(self):
        """``run()``'s inlined loop and repeated ``step()`` calls process
        the same events in the same order."""

        def build():
            sim = Simulator()
            order = []

            def proc(sim, name, delay):
                yield sim.timeout(delay)
                order.append((name, sim.now))

            for name, delay in [("a", 2.0), ("b", 1.0), ("c", 3.0), ("d", 1.0)]:
                sim.process(proc(sim, name, delay))
            return sim, order

        stepped, step_order = build()
        while True:
            try:
                stepped.step()
            except SimulationError:
                break

        ran, run_order = build()
        ran.run()
        assert run_order == step_order
        assert ran.now == stepped.now
        assert ran._event_seq == stepped._event_seq
