"""Time-ordered pending-event queue for the DES engine.

:class:`CalendarQueue` is a bucketed calendar queue (Brown 1988): the
near-future time axis is partitioned into fixed-width buckets, each a
small heap, with an unsorted *overflow ladder* holding far-future
entries.  Inserts land in their bucket in O(1) amortised; pops drain
the cursor bucket.  When every bucket is empty the overflow ladder is
promoted in one numpy-vectorised batch and the calendar re-based.

Entries are ordered by ``(at, ticket)`` — the order a single binary
heap of those tuples gives (``tests/sim/heap_queue.py`` keeps that heap
as the oracle the calendar is tested against).  The engine's
same-timestamp FIFO deque lives outside the queue.

Interface contract (what :class:`repro.sim.engine.Engine` relies on):

* ``push(at, ticket, callback)`` — insert a finite ``at``; a push below
  the calendar base triggers a rare O(n) rebuild and stays correct.
* ``pop()`` — remove and return the ``(at, ticket, callback)`` with the
  smallest ``(at, ticket)``.
* ``head`` — ``(at, ticket)`` of the next entry, or ``None`` when empty;
  maintained incrementally so the engine's hot loop can tie-check the
  FIFO deque without a method call.
* ``size`` — number of pending entries (drives ``peak_heap_size``).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

import numpy as np

__all__ = ["CalendarQueue"]

Entry = Tuple[float, int, Any]


class CalendarQueue:
    """Bucketed calendar queue with a numpy-promoted overflow ladder.

    Invariants:

    * every bucket entry has ``base <= at < limit`` and sits in bucket
      ``int((at - base) / width)`` (clamped to the last bucket on float
      boundary round-off, which can only move an entry *later*-bucket-ward
      within its true half-open range);
    * every overflow entry has ``at >= limit`` — so any bucket entry
      orders before any overflow entry and ``head`` never needs to
      compare across the two tiers while buckets are non-empty;
    * ``cursor`` is the index of the first possibly-non-empty bucket;
      pushes below the cursor pull it back.
    """

    __slots__ = (
        "width",
        "nbuckets",
        "base",
        "limit",
        "cursor",
        "_buckets",
        "_bucket_count",
        "_ov_at",
        "_ov_ticket",
        "_ov_cb",
        "_ov_min",
        "head",
        "size",
    )

    def __init__(self, width: float = 16.0, nbuckets: int = 256) -> None:
        if width <= 0:
            raise ValueError("bucket width must be positive")
        if nbuckets < 1:
            raise ValueError("need at least one bucket")
        self.width = float(width)
        self.nbuckets = int(nbuckets)
        self.base = 0.0
        self.limit = self.base + self.width * self.nbuckets
        self.cursor = 0
        self._buckets: List[List[Entry]] = [[] for _ in range(self.nbuckets)]
        self._bucket_count = 0
        self._ov_at: List[float] = []
        self._ov_ticket: List[int] = []
        self._ov_cb: List[Any] = []
        self._ov_min: Optional[Tuple[float, int]] = None
        self.head: Optional[Tuple[float, int]] = None
        self.size = 0

    # -- insertion ---------------------------------------------------------

    def push(self, at: float, ticket: int, callback: Any) -> None:
        if at >= self.limit:
            self._ov_at.append(at)
            self._ov_ticket.append(ticket)
            self._ov_cb.append(callback)
            key = (at, ticket)
            if self._ov_min is None or key < self._ov_min:
                self._ov_min = key
        elif at < self.base:
            # Backdated push: re-base the whole calendar around the new
            # earliest time.
            self._rebase(at)
            self._place(at, ticket, callback)
        else:
            self._place(at, ticket, callback)
        self.size += 1
        key = (at, ticket)
        if self.head is None or key < self.head:
            self.head = key

    def _place(self, at: float, ticket: int, callback: Any) -> None:
        idx = int((at - self.base) / self.width)
        if idx >= self.nbuckets:  # float round-off at the limit boundary
            idx = self.nbuckets - 1
        heappush(self._buckets[idx], (at, ticket, callback))
        self._bucket_count += 1
        if idx < self.cursor:
            self.cursor = idx

    # -- removal -----------------------------------------------------------

    def pop(self) -> Entry:
        if not self._bucket_count:
            self._promote()
        buckets = self._buckets
        cursor = self.cursor
        while not buckets[cursor]:
            cursor += 1
        entry = heappop(buckets[cursor])
        self._bucket_count -= 1
        self.size -= 1
        if self._bucket_count:
            while not buckets[cursor]:
                cursor += 1
            top = buckets[cursor][0]
            self.head = (top[0], top[1])
        elif self.size:
            self.head = self._ov_min
        else:
            self.head = None
        self.cursor = cursor
        return entry

    def _promote(self) -> None:
        """Move the near slice of the overflow ladder into fresh buckets."""
        if not self._ov_at:
            raise IndexError("pop from an empty CalendarQueue")
        assert self._ov_min is not None
        at = np.asarray(self._ov_at, dtype=np.float64)
        base = math.floor(self._ov_min[0] / self.width) * self.width
        limit = base + self.width * self.nbuckets
        near = at < limit
        idx_near = np.nonzero(near)[0]
        self.base = base
        self.limit = limit
        for i in idx_near.tolist():
            self._place(self._ov_at[i], self._ov_ticket[i], self._ov_cb[i])
        if idx_near.size != at.size:
            idx_far = np.nonzero(~near)[0]
            far_at = at[idx_far]
            order = int(idx_far[int(np.argmin(far_at))])
            # argmin alone ignores ticket ties at equal times; resolve them.
            best = (self._ov_at[order], self._ov_ticket[order])
            for i in idx_far.tolist():
                key = (self._ov_at[i], self._ov_ticket[i])
                if key < best:
                    best = key
            self._ov_at = [self._ov_at[i] for i in idx_far.tolist()]
            self._ov_ticket = [self._ov_ticket[i] for i in idx_far.tolist()]
            self._ov_cb = [self._ov_cb[i] for i in idx_far.tolist()]
            self._ov_min = best
        else:
            self._ov_at = []
            self._ov_ticket = []
            self._ov_cb = []
            self._ov_min = None
        self.cursor = 0

    # -- maintenance -------------------------------------------------------

    def _rebase(self, earliest: float) -> None:
        """O(n) rebuild around a new base (rare: backdated push)."""
        pending: List[Entry] = []
        for bucket in self._buckets:
            pending.extend(bucket)
            bucket.clear()
        self._bucket_count = 0
        self.base = math.floor(earliest / self.width) * self.width
        self.limit = self.base + self.width * self.nbuckets
        self.cursor = 0
        keep_at, keep_ticket, keep_cb = [], [], []
        for at, ticket, cb in pending:
            if at < self.limit:
                self._place(at, ticket, cb)
            else:
                keep_at.append(at)
                keep_ticket.append(ticket)
                keep_cb.append(cb)
        if keep_at:
            self._ov_at.extend(keep_at)
            self._ov_ticket.extend(keep_ticket)
            self._ov_cb.extend(keep_cb)
            best = self._ov_min
            for at, ticket in zip(keep_at, keep_ticket):
                key = (at, ticket)
                if best is None or key < best:
                    best = key
            self._ov_min = best
