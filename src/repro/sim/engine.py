"""Event-queue kernel: engine, events, and processes.

Time is measured in accelerator clock *cycles* (integers or floats; the
simulator uses integers except for analytically-derived latencies).

Processes are generators.  A process may yield:

* a finite non-negative number — advance that many cycles;
* an :class:`Event` — suspend until the event is triggered; the value
  passed to :meth:`Event.succeed` becomes the result of the ``yield``;
* another :class:`Process` — suspend until that process finishes; its
  return value becomes the result of the ``yield``.

A process finishes when its generator returns; ``return value`` inside
the generator becomes :attr:`Process.value`.  Yielding anything else
(a negative, ``nan`` or infinite delay, an unsupported object) fails the
process with a :class:`SimulationError` that names it.

Scheduling
----------

Every callback draws a ticket from one global counter, and callbacks
run in ``(time, ticket)`` order.  Two structures hold them:

* a FIFO deque for *immediate* callbacks — event triggers, process
  resumptions (including a wait on an event that has already fired)
  and zero-delay timeouts, all at the current time;
* a :mod:`heapq` list of ``(at, ticket, callback)`` for genuine time
  advances, every one strictly later than the time it was pushed at.

Invariant: deque entries are appended at the current time, so their
tickets are newer than every timed entry already due at that time
(those were pushed at an earlier time).  The run loop therefore never
compares tickets across the two structures; each instant is

1. pop every timed entry due now, oldest ticket first;
2. drain the deque FIFO (nothing it schedules can be a timed entry due
   now — a zero delay goes to the deque);
3. advance the clock to the next timed entry.

This is exactly the order a single ``(time, ticket)`` heap runs them in
(``tests/property/test_engine_equivalence.py`` checks it against a
textbook single-heap kernel kept under ``tests/``).
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Sentinel argument for deque entries whose callback takes no argument.
_NO_ARG = object()

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for protocol errors inside the simulation kernel."""


def _livelock(max_events: int) -> SimulationError:
    return SimulationError(f"exceeded {max_events} events; likely livelock")


class Event:
    """A one-shot occurrence that processes can wait on.

    Events follow the usual discrete-event convention: they start
    *pending*, are *triggered* exactly once via :meth:`succeed` or
    :meth:`fail`, and every waiter is resumed at the trigger time.
    """

    __slots__ = ("engine", "_value", "_exception", "_triggered",
                 "_callbacks", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        #: lazily allocated — most events never get a waiter list before
        #: triggering, and events are created in the millions
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters."""
        self._trigger(value, None)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception delivered to waiters."""
        self._trigger(None, exception)
        return self

    def _trigger(self, value: Any,
                 exception: Optional[BaseException]) -> None:
        """Fire once, and queue every waiter at the current time."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._value = value
        self._exception = exception
        callbacks = self._callbacks
        if not callbacks:
            return
        self._callbacks = None
        engine = self.engine
        counter = engine._counter
        append = engine._immediate_q.append
        edges = engine.edges
        if edges is None:
            for cb in callbacks:
                append((next(counter), cb, self))
        else:
            # Waiters wake in registration order, matching the order
            # the recorder saw their ``on_wait`` registrations.
            for cb in callbacks:
                ticket = next(counter)
                edges.on_wakeup(ticket, self)
                append((ticket, cb, self))

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        engine = self.engine
        edges = engine.edges
        if self._triggered:
            # Already fired: run at the engine's current event pass.
            ticket = next(engine._counter)
            if edges is not None:
                edges.on_wakeup(ticket, self)
            engine._immediate_q.append((ticket, callback, self))
            return
        if edges is not None:
            edges.on_wait(self)
        if self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)


class Process(Event):
    """A running generator; also an Event that fires on completion."""

    __slots__ = ("generator", "_send")

    def __init__(self, engine: "Engine",
                 generator: Generator[Any, Any, Any],
                 name: str = "") -> None:
        super().__init__(engine, name or getattr(generator, "__name__", "proc"))
        self.generator = generator
        self._send = generator.send
        ticket = next(engine._counter)
        edges = engine.edges
        if edges is not None:
            edges.on_spawn(ticket, self.name)
        engine._immediate_q.append((ticket, self._start, _NO_ARG))

    def _start(self) -> None:
        """Resume with no value — initial start and delay expiry."""
        self._resume(None, None)

    def _resume(self, value: Any, exception: Optional[BaseException]) -> None:
        try:
            if exception is not None:
                target = self.generator.throw(exception)
            else:
                target = self._send(value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(getattr(stop, "value", None))
            return
        except BaseException as exc:
            # The process body raised: fail the process event so waiters
            # (and Engine drain checks) observe the error instead of it
            # unwinding through the event loop.
            if not self._triggered:
                self.fail(exc)
            return
        if isinstance(target, Event):
            target.add_callback(self._on_event)
        elif isinstance(target, (int, float)):
            if 0 <= target < _INF:
                engine = self.engine
                engine.schedule(engine.now + target, self._start)
            else:
                kind = "negative" if target < 0 else "non-finite"
                self._resume(None, SimulationError(
                    f"process {self.name!r} yielded {kind} delay {target}"))
        else:
            self._resume(None, SimulationError(
                f"process {self.name!r} yielded unsupported {target!r}"))

    def _on_event(self, event: Event) -> None:
        if event._exception is not None:
            self._resume(None, event._exception)
            return
        self._resume(event._value, None)


class Engine:
    """The discrete-event simulation kernel."""

    def __init__(self) -> None:
        self.now: float = 0
        #: timed entries: a heapq list of (at, ticket, callback), all
        #: later than the time they were pushed at (module docstring)
        self._timeq: List[tuple] = []
        #: current-time callbacks: (ticket, callback, arg) in ticket
        #: order (see module docstring)
        self._immediate_q: deque = deque()
        self._counter = itertools.count()
        #: cumulative :meth:`run` statistics (events, wall time, peaks)
        self.events_processed: int = 0
        self.run_wall_s: float = 0.0
        self.peak_heap_size: int = 0
        # Execution tracer (disabled by default); hardware models emit
        # spans through this so pipelines can be inspected visually.
        from repro.sim.trace import Tracer
        self.tracer = Tracer(enabled=False)
        # Telemetry observer (disabled by default); hardware models
        # attribute stall cycles to named causes through this.
        from repro.obs.observer import Observer
        self.obs = Observer(enabled=False)
        #: optional :class:`~repro.faults.FaultInjector`; hardware
        #: models consult it for deterministic fault penalties.  With
        #: ``None`` (the default) the hooks cost one attribute check;
        #: with an attached injector and an empty plan the simulated
        #: event stream is bit-identical to ``None`` (conformance
        #: ``faults`` pillar).
        self.faults = None
        #: optional :class:`~repro.obs.critical.EdgeRecorder`; every
        #: ticket draw records its causal parent for critical-path
        #: extraction.  Recording never schedules anything and never
        #: draws an extra ticket, so with ``None`` (the default) the
        #: event stream is bit-identical to a kernel without the hooks,
        #: and with a recorder attached the simulated *results* are
        #: unchanged (the conformance ``critical`` check rows).  Attach
        #: between runs, not mid-run.
        self.edges = None

    # -- construction helpers ------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator, name)

    def timeout(self, delay: float) -> Event:
        """An event that fires ``delay`` cycles from now."""
        # The f-string name is only worth building when a critical-path
        # recorder will label nodes with it; ``classify_label`` keys on
        # the "timeout(" prefix either way.
        ev = Event(self, f"timeout({delay})" if self.edges is not None
                   else "timeout()")
        # ``succeed`` with its default value is the whole callback — no
        # lambda needed; zero-delay timeouts take the deque fast-path
        # through :meth:`schedule`.
        self.schedule(self.now + delay, ev.succeed)
        return ev

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that fires once every event in ``events`` has fired."""
        events = list(events)
        done = Event(self, "all_of")
        remaining = [len(events)]
        if not events:
            self._immediate(lambda: done.succeed([]))
            return done
        values: List[Any] = [None] * len(events)

        for i, ev in enumerate(events):
            def cb(ev: Event, i: int = i) -> None:
                if done._triggered:
                    return           # already failed on another child
                exc = ev._exception
                if exc is not None:
                    done.fail(exc)   # propagate the first child failure
                    return
                values[i] = ev._value
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.succeed(values.copy())
            ev.add_callback(cb)
        return done

    # -- scheduling ----------------------------------------------------
    def schedule(self, at: float, callback: Callable[[], None]) -> None:
        now = self.now
        if at == now:
            ticket = next(self._counter)
            edges = self.edges
            if edges is not None:
                edges.on_schedule(ticket, callback, 0)
            self._immediate_q.append((ticket, callback, _NO_ARG))
        elif now < at < _INF:
            ticket = next(self._counter)
            edges = self.edges
            if edges is not None:
                edges.on_schedule(ticket, callback, at - now)
            timeq = self._timeq
            heappush(timeq, (at, ticket, callback))
            if len(timeq) > self.peak_heap_size:
                self.peak_heap_size = len(timeq)
        elif at < now:
            raise SimulationError(
                f"cannot schedule in the past ({at} < {now})")
        else:
            raise SimulationError(f"cannot schedule at non-finite time {at}")

    def _immediate(self, callback: Callable, arg: Any = _NO_ARG) -> None:
        """Queue ``callback()`` (or ``callback(arg)``) at the current time."""
        ticket = next(self._counter)
        edges = self.edges
        if edges is not None:
            edges.on_schedule(ticket, callback, 0)
        self._immediate_q.append((ticket, callback, arg))

    # -- execution -----------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: int = 100_000_000) -> float:
        """Run until the queues drain or simulated time passes ``until``.

        Returns the final simulation time.  An ``until`` before the
        current time raises :class:`SimulationError` and changes
        nothing: the clock never runs backwards.  ``max_events`` guards
        against runaway simulations (e.g. a deadlocked polling loop):
        at most ``max_events`` callbacks execute, and the guard raises
        when an (``max_events`` + 1)-th is attempted.
        """
        now = self.now
        if until is not None and until < now:
            raise SimulationError(
                f"cannot run until {until}: the clock is already at {now}")
        timeq = self._timeq
        imm = self._immediate_q
        popleft = imm.popleft
        processed = 0
        edges = self.edges
        wall_start = perf_counter()
        try:
            while True:
                # 1. timed entries due now, oldest ticket first
                while timeq and timeq[0][0] == now:
                    if processed >= max_events:
                        raise _livelock(max_events)
                    _, ticket, callback = heappop(timeq)
                    if edges is not None:
                        edges.on_execute(ticket, now)
                    callback()
                    processed += 1
                # 2. the deque, FIFO: every entry is newer than step 1's
                while imm:
                    if processed >= max_events:
                        raise _livelock(max_events)
                    ticket, callback, arg = popleft()
                    if edges is not None:
                        edges.on_execute(ticket, now)
                    if arg is _NO_ARG:
                        callback()
                    else:
                        callback(arg)
                    processed += 1
                # 3. advance to the next timed entry
                if not timeq:
                    break
                at = timeq[0][0]
                if until is not None and at > until:
                    self.now = until
                    break
                if processed >= max_events:
                    raise _livelock(max_events)   # before the clock moves
                self.now = now = at
        finally:
            self.events_processed += processed
            self.run_wall_s += perf_counter() - wall_start
            if edges is not None:
                # Anything scheduled by host code between runs roots a
                # fresh causal chain.
                edges.current = None
        return self.now

    def run_stats(self) -> dict:
        """Cumulative kernel-speed statistics over every :meth:`run`.

        ``events_per_sec_wall`` is the headline DES-throughput number
        the perf-trajectory benchmark tracks; ``peak_heap_size`` shows
        how much scheduling actually needed the time heap (the
        current-time deque bypasses it).
        """
        wall = self.run_wall_s
        return {
            "events_processed": self.events_processed,
            "events_per_sec_wall": (self.events_processed / wall
                                    if wall > 0 else 0.0),
            "peak_heap_size": self.peak_heap_size,
            "run_wall_s": wall,
        }

    def run_process(self, generator: Generator, name: str = "",
                    until: Optional[float] = None) -> Any:
        """Convenience: start ``generator``, run to completion, return value.

        Raises :class:`SimulationError` if the simulation drains without
        the process finishing (i.e. deadlock).
        """
        proc = self.process(generator, name)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish (deadlock?)")
        return proc.value
