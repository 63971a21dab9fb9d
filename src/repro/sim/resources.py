"""Shared-resource primitives built on the event kernel.

These model contention: a memory port, a NoC link, or a command queue
slot.  They are deliberately small — the hardware-specific arbitration
policies live with the hardware models in :mod:`repro.core` and
:mod:`repro.memory`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.sim.engine import Engine, Event, SimulationError


class Semaphore:
    """A counting semaphore with FIFO wakeup."""

    def __init__(self, engine: Engine, capacity: int, name: str = "sem") -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.engine = engine
        self.name = name
        self._acquire_name = f"{name}.acquire"
        self._available = capacity
        self.capacity = capacity
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self._available

    def acquire(self) -> Event:
        """Return an event that fires once a unit has been granted."""
        ev = Event(self.engine, self._acquire_name)
        if self._available > 0:
            self._available -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._available += 1
            if self._available > self.capacity:
                raise SimulationError(f"{self.name}: release without acquire")


class Resource:
    """A throughput-limited resource (a port or link).

    ``use(amount)`` is a process that occupies the resource for
    ``amount / rate`` cycles, serialising with other users.  This models
    a single arbitration point with full utilisation under backlog.
    """

    def __init__(self, engine: Engine, rate_per_cycle: float,
                 name: str = "res",
                 stall_cause: Optional[str] = None) -> None:
        if rate_per_cycle <= 0:
            raise ValueError("rate must be positive")
        self.engine = engine
        self.rate = rate_per_cycle
        self.name = name
        #: attribution cause reported to ``engine.obs`` for cycles a
        #: user spends queued behind earlier users (``None`` = silent)
        self.stall_cause = stall_cause
        #: the earliest cycle at which a new transfer may start
        self._free_at: float = 0
        #: total units transferred (for utilisation statistics)
        self.total_units: float = 0
        self.busy_cycles: float = 0
        self.queue_cycles: float = 0

    def service_time(self, amount: float) -> float:
        return amount / self.rate

    def delay_for(self, amount: float) -> float:
        """Reserve the resource *now*; return the delay until completion.

        This is the synchronous core of :meth:`use`: accounting happens
        at the call site's position in the event order, exactly where a
        ``use`` generator would have run it on first resume.
        """
        now = self.engine.now
        start = self._free_at
        if start > now:
            self.queue_cycles += start - now
            if self.stall_cause is not None:
                self.engine.obs.stall(self.name, self.stall_cause, now, start)
        else:
            start = now
        duration = amount / self.rate
        self._free_at = start + duration
        self.total_units += amount
        self.busy_cycles += duration
        edges = self.engine.edges
        if edges is not None:
            # The caller schedules this reservation's completion as its
            # very next engine call, so the recorder can pair the
            # (resource, service) split with that delay edge — the
            # what-if projector replays the queue recurrence from it.
            edges.on_charge(self.name, duration)
        return self._free_at - now

    def use(self, amount: float) -> Generator:
        """Occupy the resource for ``amount`` units of traffic."""
        yield self.delay_for(amount)

    def charge(self, amount: float, name: Optional[str] = None) -> Event:
        """Event-returning equivalent of ``engine.process(self.use(amount))``.

        Reserves the resource at the same event-queue position a spawned
        process would (deferred one immediate-queue hop), fires the
        returned event at the same position the process-completion event
        would fire, and skips the generator/Process machinery entirely —
        the ticket sequence is identical, so simulated interleavings are
        bit-for-bit unchanged (the equivalence suite pins this).
        """
        done = Event(self.engine, name if name is not None else self.name)
        self.engine._immediate(self._charge_begin, (amount, done))
        return done

    def _charge_begin(self, job: tuple) -> None:
        amount, done = job
        delay = self.delay_for(amount)
        # Always route completion through the scheduler — even for a
        # zero delay — so the event fires at the same queue position as
        # a process resuming from ``yield 0`` would have.
        self.engine.schedule(self.engine.now + delay, done.succeed)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of cycles the resource was busy."""
        elapsed = elapsed if elapsed is not None else self.engine.now
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)


class Queue:
    """A bounded FIFO connecting producer and consumer processes."""

    def __init__(self, engine: Engine, capacity: Optional[int] = None,
                 name: str = "queue") -> None:
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._put_name = f"{name}.put"
        self._get_name = f"{name}.get"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Return an event that fires once the item has been enqueued."""
        ev = Event(self.engine, self._put_name)
        if self._getters:
            # Hand the item directly to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            ev.succeed()
        elif not self.full:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.engine, self._get_name)
        if self._items:
            item = self._items.popleft()
            ev.succeed(item)
            if self._putters:
                put_ev, pending = self._putters.popleft()
                self._items.append(pending)
                put_ev.succeed()
        else:
            self._getters.append(ev)
        return ev
