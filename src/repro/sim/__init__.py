"""Discrete-event simulation engine used by the MTIA functional simulator.

The engine is a small, dependency-free simpy-like kernel: *processes* are
Python generators that yield either a delay (number of cycles) or an
:class:`Event` to wait on.  All hardware behaviours in :mod:`repro.core`
(cores issuing commands, the Command Processor stalling an MML on a
circular-buffer element check, DMA engines streaming data over the NoC)
are expressed as processes over this kernel.

Scheduling has one path: callbacks run in ``(time, ticket)`` order from
a current-time FIFO deque and a :mod:`heapq` list of timed entries;
each instant runs the timed entries due, then the deque (see
:mod:`repro.sim.engine`).  Times must be finite and never run
backwards; violations raise :class:`SimulationError`.
"""

from repro.sim.engine import Engine, Event, Process, SimulationError
from repro.sim.resources import Queue, Resource, Semaphore
from repro.sim.stats import StatGroup
from repro.sim.trace import Span, Tracer

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Queue",
    "Resource",
    "Semaphore",
    "SimulationError",
    "Span",
    "StatGroup",
    "Tracer",
]
