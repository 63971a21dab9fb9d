"""Production engine vs a textbook single-heap kernel — equivalence.

The production :class:`~repro.sim.engine.Engine` keeps current-time
callbacks in a FIFO deque next to its time heap, and runs each instant
as "timed entries due now, then the deque".  These tests execute
randomly generated process programs on both the production engine and
a reference engine that puts *every* callback into one ``(time,
ticket)`` heap and pops it with its own loop — the textbook DES kernel
— and assert the observable behaviour is identical: the exact
interleaving of process steps, wake-up values, failure delivery, final
simulation time, and the event count.
"""

from heapq import heappop, heappush

from hypothesis import given, settings

from repro.sim.engine import _NO_ARG, Engine, SimulationError
from tests import strategies as shared


class _HeapShunt:
    """Deque stand-in that reroutes every append into the time heap.

    Tickets are drawn by the callers before the append, so the entry
    keeps its place in the global ticket order.
    """

    def __init__(self, engine):
        self._engine = engine

    def append(self, entry):
        ticket, callback, arg = entry
        if arg is not _NO_ARG:
            def callback(callback=callback, arg=arg):
                return callback(arg)
        heappush(self._engine._timeq, (self._engine.now, ticket, callback))

    def __bool__(self):
        return False


class StraightHeapEngine(Engine):
    """The reference kernel: one binary heap, ordered by (time, ticket).

    Every would-be deque callback is shunted into the heap at the
    current time, and :meth:`run` is the textbook loop — pop the
    smallest ``(time, ticket)``, set the clock, call it — so the
    production loop is never checked against itself.
    """

    def __init__(self):
        super().__init__()
        self._immediate_q = _HeapShunt(self)

    def run(self, until=None, max_events=100_000_000):
        heap = self._timeq
        processed = 0
        try:
            while heap:
                at = heap[0][0]
                if until is not None and at > until:
                    self.now = until
                    break
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely livelock")
                _, _, callback = heappop(heap)
                self.now = at
                callback()
                processed += 1
        finally:
            self.events_processed += processed
        return self.now


def _execute(engine_cls, spec, until):
    """Interpret ``spec`` on ``engine_cls``; return the observable trace."""
    n_events, programs = spec
    engine = engine_cls()
    events = [engine.event(f"e{i}") for i in range(n_events)]
    trace = []

    def proc(pid, program, depth):
        for step, (op, operand) in enumerate(program):
            trace.append((engine.now, pid, step, op))
            if op == "delay":
                yield operand
            elif op == "timeout":
                yield engine.timeout(operand)
            elif op == "trigger":
                ev = events[operand]
                if not ev.triggered:
                    ev.succeed((pid, step))
            elif op == "fail":
                ev = events[operand]
                if not ev.triggered:
                    ev.fail(SimulationError(f"fail:{pid}:{step}"))
            elif op == "wait":
                try:
                    value = yield events[operand]
                except SimulationError as exc:
                    value = f"exc:{exc}"
                trace.append((engine.now, pid, step, "woke", value))
            elif op == "spawn":
                if depth < 1:
                    child = engine.process(
                        proc((pid, step), programs[operand], depth + 1))
                    value = yield child
                    trace.append((engine.now, pid, step, "joined", value))
                else:
                    yield 1
        return pid

    for i, program in enumerate(programs):
        engine.process(proc(i, program, 0), name=f"p{i}")
    engine.run(until=until)
    return trace, engine.now, engine.events_processed


@settings(max_examples=200, deadline=None)
@given(spec=shared.engine_programs(), until=shared.engine_untils)
def test_fast_path_matches_straight_heap(spec, until):
    """Same programs, same interleaving, on both kernels."""
    fast = _execute(Engine, spec, until)
    reference = _execute(StraightHeapEngine, spec, until)
    assert fast[0] == reference[0]          # step-by-step trace
    assert fast[1] == reference[1]          # final simulation time
    assert fast[2] == reference[2]          # events processed


@given(delays=shared.event_delays)
@settings(max_examples=100, deadline=None)
def test_timeout_storm_matches_straight_heap(delays):
    """Many timeouts (zero-delay included) fire in identical order."""

    def run(engine_cls):
        engine = engine_cls()
        order = []
        for i, delay in enumerate(delays):
            engine.timeout(delay).add_callback(
                lambda ev, i=i: order.append((engine.now, i)))
        engine.run()
        return order, engine.now

    assert run(Engine) == run(StraightHeapEngine)


def test_reference_engine_is_really_heap_only():
    """Sanity: the shunt keeps the reference's deque permanently empty."""
    engine = StraightHeapEngine()
    engine.timeout(0)
    engine.timeout(1)
    assert not engine._immediate_q
    assert len(engine._timeq) == 2
    assert engine.run() == 1
    assert engine.events_processed == 2
