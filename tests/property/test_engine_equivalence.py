"""Fast-path engine vs straight-heap reference — semantic equivalence.

The production :class:`~repro.sim.engine.Engine` routes same-timestamp
callbacks through a FIFO deque instead of the time heap (the scheduling
fast-path).  These tests execute randomly generated process programs on
both the production engine and a reference engine that forces *every*
callback through a single ``(time, ticket)`` heap — the textbook DES
kernel — and assert the observable behaviour is identical: the exact
interleaving of process steps, wake-up values, failure delivery, final
simulation time, and the event count.
"""

from hypothesis import given, settings

from repro.sim.engine import _NO_ARG, Engine, SimulationError
from tests import strategies as shared
from tests.sim.heap_queue import HeapTimeQueue


class _HeapShunt:
    """Deque stand-in that reroutes every append to the time queue.

    ``Engine.run`` only touches ``_immediate_q`` when it is truthy, so
    a permanently-falsy shunt forces the run loop down the pure-heap
    path while preserving the global ticket order (tickets are drawn by
    the callers before the append).
    """

    def __init__(self, engine):
        self._engine = engine

    def append(self, entry):
        ticket, callback, arg = entry
        if arg is not _NO_ARG:
            def callback(callback=callback, arg=arg):
                return callback(arg)
        self._engine._timeq.push(self._engine.now, ticket, callback)

    def popleft(self):
        # run() binds this attribute up front but can never call it:
        # the shunt is permanently falsy.
        raise AssertionError("straight-heap reference used the deque")

    def __bool__(self):
        return False

    def __len__(self):
        return 0


class StraightHeapEngine(Engine):
    """The reference kernel: one binary heap, ordered by (time, ticket).

    Both the calendar-queue structure *and* the FIFO fast path are
    stripped: timed entries go to a plain :class:`HeapTimeQueue`, and
    every would-be immediate callback is shunted into it at the current
    time — the textbook single-heap DES kernel.
    """

    def __init__(self):
        super().__init__()
        self._timeq = HeapTimeQueue()
        self._immediate_q = _HeapShunt(self)


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
    assert isinstance(engine._timeq, HeapTimeQueue)
    assert engine._timeq.size == 2
    engine.run()
    assert engine.now == 1
