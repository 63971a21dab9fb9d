"""Calendar-queue edge cases: storms, overflow promotion, boundaries.

The calendar queue must be observably identical to a single binary heap
ordered by ``(at, ticket)`` — these tests hit the structural edges the
random equivalence programs are unlikely to reach: the overflow ladder
(pushes beyond the bucket horizon), batch promotion when the buckets
drain, backdated pushes below the calendar base, zero-delay
self-reschedule storms, and the ``max_events`` guard boundary under the
new queue.  The heap oracle is :mod:`tests.sim.heap_queue`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.calendar import CalendarQueue
from repro.sim.engine import Engine, SimulationError
from tests.sim.heap_queue import HeapTimeQueue

# Small geometry so a handful of pushes exercises overflow + promotion.
WIDTH, NBUCKETS = 4.0, 8
HORIZON = WIDTH * NBUCKETS


def _drain(q):
    out = []
    while q.size:
        assert q.head is not None
        entry = q.pop()
        assert q.head is None or q.head >= (entry[0], entry[1])
        out.append((entry[0], entry[1]))
    assert q.head is None
    return out


@given(ats=st.lists(st.floats(min_value=0, max_value=10 * HORIZON,
                              allow_nan=False, width=32), max_size=200))
@settings(max_examples=200, deadline=None)
def test_calendar_matches_heap_order(ats):
    """Random push sets drain in identical (at, ticket) order."""
    cal = CalendarQueue(width=WIDTH, nbuckets=NBUCKETS)
    ref = HeapTimeQueue()
    for ticket, at in enumerate(ats):
        cal.push(at, ticket, None)
        ref.push(at, ticket, None)
        assert cal.head == ref.head
        assert cal.size == ref.size
    assert _drain(cal) == _drain(ref)


@given(ats=st.lists(st.floats(min_value=0, max_value=10 * HORIZON,
                              allow_nan=False, width=32),
                    min_size=1, max_size=120),
       pops=st.lists(st.integers(min_value=0, max_value=3), max_size=120))
@settings(max_examples=200, deadline=None)
def test_interleaved_push_pop_matches_heap(ats, pops):
    """Interleaved pushes and pops (promotion mid-stream) stay identical."""
    cal = CalendarQueue(width=WIDTH, nbuckets=NBUCKETS)
    ref = HeapTimeQueue()
    ticket = 0
    it = iter(pops + [0] * len(ats))
    for at in ats:
        cal.push(at, ticket, None)
        ref.push(at, ticket, None)
        ticket += 1
        for _ in range(next(it)):
            if not cal.size:
                break
            assert cal.pop()[:2] == ref.pop()[:2]
            assert cal.head == ref.head
    assert _drain(cal) == _drain(ref)


def test_overflow_ladder_promotion_cascade():
    """Entries many horizons out promote in batches, in order."""
    q = CalendarQueue(width=WIDTH, nbuckets=NBUCKETS)
    ats = [float(k * HORIZON + j) for k in range(5) for j in (0, 1, 7)]
    for ticket, at in enumerate(sorted(ats, reverse=True)):
        q.push(at, ticket, None)
    popped = _drain(q)
    assert [at for at, _ in popped] == sorted(ats)
    # Equal times pop in ticket order (reverse insertion gave the later
    # time the smaller ticket, so ties are a real ordering decision).
    for (a1, t1), (a2, t2) in zip(popped, popped[1:]):
        assert (a1, t1) < (a2, t2)


def test_equal_time_overflow_ties_break_by_ticket():
    """Promotion must respect tickets for equal far-future times."""
    q = CalendarQueue(width=WIDTH, nbuckets=NBUCKETS)
    far = 3 * HORIZON + 2.0
    for ticket in (5, 1, 3):
        q.push(far, ticket, f"cb{ticket}")
    assert [q.pop()[1] for _ in range(3)] == [1, 3, 5]


def test_backdated_push_rebases():
    """A push below the calendar base rebuilds without losing order."""
    q = CalendarQueue(width=WIDTH, nbuckets=NBUCKETS)
    q.push(5 * HORIZON, 0, None)       # straight to overflow
    assert q.pop()[0] == 5 * HORIZON   # promotion re-bases far out
    assert q.base > 0
    q.push(1.0, 1, None)               # far below the new base
    q.push(5 * HORIZON + 1, 2, None)
    q.push(2.0, 3, None)
    assert [q.pop()[:2] for _ in range(3)] == [
        (1.0, 1), (2.0, 3), (5 * HORIZON + 1, 2)]


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        CalendarQueue().pop()


# -- engine-level edges under the calendar queue -------------------------

def test_zero_delay_self_reschedule_storm():
    """A process re-arming zero timeouts must interleave FIFO-fairly."""
    engine = Engine()
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


def test_far_future_timeouts_fire_in_order():
    """Timeouts past the default bucket horizon promote correctly."""
    engine = Engine()
    horizon = engine._timeq.width * engine._timeq.nbuckets
    delays = [0, 1, horizon - 1, horizon + 3, 2.5 * horizon, 10 * horizon]
    fired = []
    for d in delays:
        engine.timeout(d).add_callback(
            lambda ev, d=d: fired.append((engine.now, d)))
    engine.run()
    assert fired == [(d, d) for d in sorted(delays)]
    assert engine.now == 10 * horizon


def test_max_events_boundary_with_overflow_entries():
    """The max_events guard raises at the same point with far futures."""
    engine = Engine()
    horizon = engine._timeq.width * engine._timeq.nbuckets

    def ticker():
        for _ in range(10):
            yield 2 * horizon  # every resume costs spawn/resume callbacks

    engine.process(ticker())
    with pytest.raises(SimulationError):
        engine.run(max_events=3)
    # Exactly 3 callbacks ran; the 4th attempt raised with `now` already
    # advanced to the 4th entry's timestamp (PR 4 off-by-one contract).
    assert engine.events_processed == 3


def test_exactly_max_events_completes_under_calendar():
    engine = Engine()
    horizon = engine._timeq.width * engine._timeq.nbuckets
    fired = []
    for i in range(3):
        engine.timeout((i + 1) * 3 * horizon).add_callback(
            lambda ev, i=i: fired.append(i))
    # Each timeout costs two callbacks: the succeed, then the waiter.
    engine.run(max_events=6)
    assert fired == [0, 1, 2]
