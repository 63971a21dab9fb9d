"""The discrete-event kernel."""

import pytest

from repro.sim import Engine, SimulationError


class TestScheduling:
    def test_time_starts_at_zero(self, engine):
        assert engine.now == 0

    def test_callbacks_run_in_time_order(self, engine):
        order = []
        engine.schedule(5, lambda: order.append("b"))
        engine.schedule(2, lambda: order.append("a"))
        engine.schedule(9, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 9

    def test_ties_run_fifo(self, engine):
        order = []
        for tag in "abc":
            engine.schedule(3, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_cannot_schedule_in_the_past(self, engine):
        engine.schedule(5, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(1, lambda: None)

    def test_run_until_stops_early(self, engine):
        hits = []
        engine.schedule(10, lambda: hits.append(1))
        engine.run(until=5)
        assert not hits
        assert engine.now == 5
        engine.run()
        assert hits == [1]

    def test_run_until_cannot_move_the_clock_backwards(self, engine):
        def proc():
            yield 10
            yield 10

        done = engine.process(proc())
        assert engine.run(until=15) == 15
        with pytest.raises(SimulationError, match=r"until 5\b.*at 15\b"):
            engine.run(until=5)
        assert engine.now == 15
        assert engine.events_processed == 2
        assert engine.run(until=15) == 15
        assert engine.run() == 20
        assert done.triggered

    @pytest.mark.parametrize("at", [float("nan"), float("inf")])
    def test_cannot_schedule_at_non_finite_time(self, engine, at):
        with pytest.raises(SimulationError, match="non-finite"):
            engine.schedule(at, lambda: None)
        with pytest.raises(SimulationError, match="non-finite"):
            engine.timeout(at)
        assert not engine._timeq


class TestProcesses:
    def test_delay_advances_time(self, engine):
        def proc():
            yield 10
            yield 5
            return engine.now

        assert engine.run_process(proc()) == 15

    def test_return_value(self, engine):
        def proc():
            yield 1
            return "done"

        assert engine.run_process(proc()) == "done"

    def test_zero_delay_allowed(self, engine):
        def proc():
            yield 0
            return True

        assert engine.run_process(proc()) is True

    def test_negative_delay_raises_inside_process(self, engine):
        def proc():
            yield -3

        with pytest.raises(SimulationError):
            engine.run_process(proc())

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_raises_inside_process(self, engine, delay):
        def sleeper():
            yield delay

        def waiter():
            yield engine.timeout(delay)

        with pytest.raises(SimulationError,
                           match="'stuck' yielded non-finite delay"):
            engine.run_process(sleeper(), name="stuck")
        with pytest.raises(SimulationError, match="non-finite time"):
            engine.run_process(waiter())

    def test_yielding_garbage_raises(self, engine):
        def proc():
            yield "not a delay"

        with pytest.raises(SimulationError):
            engine.run_process(proc())

    def test_process_waits_on_event(self, engine):
        ev = engine.event("gate")

        def opener():
            yield 7
            ev.succeed("payload")

        def waiter():
            value = yield ev
            return engine.now, value

        engine.process(opener())
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == (7, "payload")

    def test_process_waits_on_process(self, engine):
        def child():
            yield 4
            return 42

        def parent():
            result = yield engine.process(child())
            return result + 1

        assert engine.run_process(parent()) == 43

    def test_event_failure_propagates(self, engine):
        ev = engine.event()

        def failer():
            yield 1
            ev.fail(RuntimeError("boom"))

        def waiter():
            yield ev

        engine.process(failer())
        proc = engine.process(waiter())
        engine.run()
        with pytest.raises(RuntimeError, match="boom"):
            proc.value

    def test_exception_can_be_caught_in_process(self, engine):
        ev = engine.event()

        def failer():
            yield 1
            ev.fail(ValueError("expected"))

        def waiter():
            try:
                yield ev
            except ValueError:
                return "recovered"

        engine.process(failer())
        assert engine.run_process(waiter()) == "recovered"

    def test_deadlock_detected_by_run_process(self, engine):
        ev = engine.event("never")

        def stuck():
            yield ev

        with pytest.raises(SimulationError, match="did not finish"):
            engine.run_process(stuck())


class TestEvents:
    def test_double_trigger_rejected(self, engine):
        ev = engine.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_value_before_trigger_rejected(self, engine):
        ev = engine.event("pending")
        with pytest.raises(SimulationError):
            ev.value

    def test_waiting_on_triggered_event_resumes_immediately(self, engine):
        ev = engine.event()
        ev.succeed(5)

        def proc():
            value = yield ev
            return engine.now, value

        assert engine.run_process(proc()) == (0, 5)

    def test_polling_a_triggered_event_hits_the_livelock_guard(self, engine):
        ev = engine.event()
        ev.succeed()

        def poller():
            while True:
                yield ev

        engine.process(poller())
        with pytest.raises(SimulationError, match="livelock"):
            engine.run(max_events=1000)
        assert engine.events_processed == 1000

    def test_timeout(self, engine):
        def proc():
            yield engine.timeout(12)
            return engine.now

        assert engine.run_process(proc()) == 12

    def test_all_of_waits_for_every_event(self, engine):
        events = [engine.event(str(i)) for i in range(3)]
        for delay, ev in zip((3, 9, 6), events):
            engine.schedule(delay, lambda e=ev, d=delay: e.succeed(d))

        def proc():
            values = yield engine.all_of(events)
            return engine.now, values

        assert engine.run_process(proc()) == (9, [3, 9, 6])

    def test_all_of_empty_fires_now(self, engine):
        def proc():
            values = yield engine.all_of([])
            return values

        assert engine.run_process(proc()) == []

    def test_livelock_guard(self, engine):
        def spinner():
            while True:
                yield 0

        engine.process(spinner())
        with pytest.raises(SimulationError, match="livelock"):
            engine.run(max_events=1000)


class TestMaxEventsBoundary:
    """The guard raises when the (max_events + 1)-th callback is
    *attempted* — never after silently executing it."""

    def test_exactly_max_events_completes(self, engine):
        ran = []
        for i in range(5):
            engine.schedule(i, lambda i=i: ran.append(i))
        assert engine.run(max_events=5) == 4
        assert ran == [0, 1, 2, 3, 4]

    def test_one_past_the_guard_raises_without_executing(self, engine):
        ran = []
        for i in range(6):
            engine.schedule(i, lambda i=i: ran.append(i))
        with pytest.raises(SimulationError, match="livelock"):
            engine.run(max_events=5)
        assert ran == [0, 1, 2, 3, 4]

    def test_guard_applies_to_the_deque_fast_path_too(self, engine):
        ran = []
        for i in range(6):
            engine.schedule(engine.now, lambda i=i: ran.append(i))
        with pytest.raises(SimulationError, match="livelock"):
            engine.run(max_events=5)
        assert ran == [0, 1, 2, 3, 4]


class TestTimeQueue:
    """Edges of the heap-plus-deque schedule: the order each instant
    runs in, far-future entries, ``until`` and the ``max_events``
    guard."""

    def test_due_timers_run_before_deque_entries_they_append(self, engine):
        """Two timed entries due at ``t``: the deque entry the first
        one appends is newer than the second, so it runs last."""
        order = []

        def first():
            order.append("timer 1")
            engine.schedule(engine.now, lambda: order.append("deque"))

        engine.schedule(4, first)
        engine.schedule(4, lambda: order.append("timer 2"))
        engine.run()
        assert order == ["timer 1", "timer 2", "deque"]
        assert engine.now == 4

    def test_zero_delay_self_reschedule_storm(self, engine):
        """Processes re-arming zero timeouts interleave FIFO-fairly."""
        order = []

        def storm(pid, n):
            for i in range(n):
                yield engine.timeout(0)
                order.append((engine.now, pid, i))

        engine.process(storm("a", 50))
        engine.process(storm("b", 50))
        engine.run()
        assert engine.now == 0
        # Strict round-robin: both processes alternate at time zero.
        assert order == [(0, pid, i) for i in range(50) for pid in ("a", "b")]

    def test_far_future_timeouts_fire_in_order(self, engine):
        delays = [0, 1, 4095, 4099, 1e9, 2.5e12, 1e15]
        fired = []
        for d in reversed(delays):
            engine.timeout(d).add_callback(
                lambda ev, d=d: fired.append((engine.now, d)))
        engine.run()
        assert fired == [(d, d) for d in delays]
        assert engine.now == 1e15
        assert engine.peak_heap_size == len(delays) - 1

    def test_max_events_guard_with_far_future_entries(self, engine):
        """The guard raises before the 4th callback and before the clock
        moves to it."""

        def ticker():
            for _ in range(10):
                yield 1e12   # each resume is one timed callback

        engine.process(ticker())
        with pytest.raises(SimulationError, match="livelock"):
            engine.run(max_events=3)
        assert engine.events_processed == 3
        assert engine.now == 2e12

    def test_exactly_max_events_completes_with_far_future_entries(
            self, engine):
        fired = []
        for i in range(3):
            engine.timeout((i + 1) * 1e12).add_callback(
                lambda ev, i=i: fired.append(i))
        # Each timeout costs two callbacks: the succeed, then the waiter.
        engine.run(max_events=6)
        assert fired == [0, 1, 2]
        assert engine.now == 3e12

    def test_run_until_between_entries(self, engine):
        """``until`` between two instants stops the clock there; the
        later entry stays queued and runs on the next ``run``."""
        ran = []
        engine.schedule(3, lambda: ran.append(3))
        engine.schedule(8, lambda: ran.append(8))
        assert engine.run(until=5) == 5
        assert ran == [3]
        assert engine.run(until=8) == 8   # an entry at ``until`` runs
        assert ran == [3, 8]
        assert not engine._timeq
