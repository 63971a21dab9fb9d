"""Straight binary-heap time queue: the oracle for the calendar queue.

:class:`HeapTimeQueue` has the interface :class:`~repro.sim.engine.Engine`
needs from its time queue (``push``, ``pop``, ``head``, ``size``) and
orders entries by ``(at, ticket)`` with one :mod:`heapq` heap — the
textbook DES structure.  ``tests/sim/test_calendar.py`` drains both
queues side by side, and ``tests/property/test_engine_equivalence.py``
backs a reference engine with it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

Entry = Tuple[float, int, Any]


class HeapTimeQueue:
    """Single binary heap of ``(at, ticket, callback)``."""

    __slots__ = ("_heap", "head", "size")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self.head: Optional[Tuple[float, int]] = None
        self.size = 0

    def push(self, at: float, ticket: int, callback: Any) -> None:
        heappush(self._heap, (at, ticket, callback))
        self.size += 1
        top = self._heap[0]
        self.head = (top[0], top[1])

    def pop(self) -> Entry:
        entry = heappop(self._heap)
        self.size -= 1
        if self._heap:
            top = self._heap[0]
            self.head = (top[0], top[1])
        else:
            self.head = None
        return entry
