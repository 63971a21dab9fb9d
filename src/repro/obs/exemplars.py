"""Tail-biased exemplar sampling: full detail for the requests that matter.

PR 3's span tracer keeps a full waterfall for *every* request — exact,
but O(traffic) memory.  At fleet scale only two cohorts justify full
span trees:

* the **slowest k** requests — always retained, exactly (these are the
  requests a tail post-mortem replays);
* a small **seeded reservoir** of everything else — an unbiased sample
  for "what does a normal request look like" comparisons.

Everything else folds into sketches and windowed series.

Both cohorts are selected by *order-invariant* rules so per-replica
stores merge into the same fleet store regardless of merge order:

* slowest-k is a top-k by ``(-latency, replica, request_id)`` — a total
  order, so ties break identically everywhere;
* the reservoir uses **bottom-k priority sampling**: each record gets a
  deterministic pseudo-random priority from a seeded integer hash of
  ``(seed, replica, request_id)``, and the store keeps the k smallest
  priorities.  Unlike classic reservoir sampling (order-dependent by
  construction), bottom-k over a fixed priority function is a pure
  function of the record *set* — merge in any order, get the same
  sample.

Because both rules are pure functions of the record set, a whole
replica's requests can be selected at once: :meth:`ExemplarStore.offer_many`
ranks them with numpy and builds records only for the winners, with the
same result as one :meth:`ExemplarStore.offer` per request.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

__all__ = ["ExemplarRecord", "ExemplarStore", "priority_hash",
           "priority_hash_many"]

_LOW32 = np.uint64(0xFFFFFFFF)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One splitmix64 round over a uint64 array (multiplies wrap mod 2⁶⁴).

    Works in place on one fresh copy: the operations and their order are
    those of the definition.
    """
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def priority_hash_many(seed: int, replica: int,
                       request_ids: np.ndarray) -> np.ndarray:
    """Deterministic priorities in [0, 1) for bottom-k sampling.

    ``splitmix64(splitmix64(seed) ^ splitmix64(replica_lo32 << 32 |
    request_id_lo32)) / 2⁶⁴``.  uint64 arithmetic wraps exactly like the
    masked integer definition, and the uint64 → float64 conversion rounds
    to nearest-even, as Python's ``int / float`` does.
    """
    ids = np.asarray(request_ids).astype(np.int64).astype(np.uint64)
    seeded = _splitmix64(np.array([seed & (2**64 - 1)], dtype=np.uint64))
    high = np.uint64((int(replica) & 0xFFFFFFFF) << 32)
    h = _splitmix64(seeded ^ _splitmix64(high | (ids & _LOW32)))
    return h.astype(np.float64) / float(1 << 64)


def priority_hash(seed: int, replica: int, request_id: int) -> float:
    """One request's :func:`priority_hash_many` priority."""
    return float(priority_hash_many(seed, replica,
                                    [request_id & 0xFFFFFFFF])[0])


def _smallest(primary: np.ndarray, ids: np.ndarray, k: int) -> List[int]:
    """Positions of the ``k`` smallest ``(primary, id)`` pairs, in order.

    ``np.partition`` finds the k-th smallest ``primary``; every value not
    above it stays a candidate (all ties at the threshold, and NaN,
    which ``lexsort`` puts last), and only the candidates are sorted.
    """
    candidates = np.arange(primary.size)
    if primary.size > k:
        threshold = np.partition(primary, k - 1)[k - 1]
        candidates = np.flatnonzero(~(primary > threshold))
    order = np.lexsort((ids[candidates], primary[candidates]))
    return candidates[order[:k]].tolist()


@dataclass(frozen=True)
class ExemplarRecord:
    """One retained request, with everything a span tree needs."""

    replica: int
    request_id: int
    arrival_us: float
    latency_us: float
    queue_wait_us: float
    batch_wait_us: float
    execute_us: float
    batch_index: int
    batch_size: int
    status: str = "served"
    retry_overhead_us: float = 0.0

    def to_dict(self) -> Dict:
        return {"replica": self.replica, "request": self.request_id,
                "arrival_us": self.arrival_us,
                "latency_us": self.latency_us,
                "queue_wait_us": self.queue_wait_us,
                "batch_wait_us": self.batch_wait_us,
                "execute_us": self.execute_us,
                "retry_overhead_us": self.retry_overhead_us,
                "batch": self.batch_index, "batch_size": self.batch_size,
                "status": self.status}


@dataclass
class ExemplarStore:
    """Bounded, mergeable store of slowest-k + reservoir exemplars."""

    slowest_k: int = 8
    reservoir_size: int = 16
    seed: int = 0
    #: (sort key, record) — kept sorted ascending by key
    _slowest: List[Tuple[Tuple[float, int, int], ExemplarRecord]] = field(
        default_factory=list)
    _reservoir: List[Tuple[Tuple[float, int, int], ExemplarRecord]] = field(
        default_factory=list)

    def offer(self, record: ExemplarRecord) -> None:
        """Consider one request for retention (served requests only)."""
        skey = (-record.latency_us, record.replica, record.request_id)
        self._insert(self._slowest, skey, record, self.slowest_k)
        pkey = (priority_hash(self.seed, record.replica, record.request_id),
                record.replica, record.request_id)
        self._insert(self._reservoir, pkey, record, self.reservoir_size)

    def offer_many(self, replica: int, request_ids: np.ndarray,
                   latency_us: np.ndarray,
                   record_for: Callable[[int], ExemplarRecord]) -> None:
        """:meth:`offer` every request of one replica, selected in bulk.

        ``request_ids`` and ``latency_us`` align; ``record_for(request_id)``
        builds a request's record and is called only for the at most
        ``slowest_k + reservoir_size`` winners.  The store ends up exactly
        as after one :meth:`offer` per request, in any order: with the
        replica fixed, ``(-latency, request_id)`` and ``(priority,
        request_id)`` are the stores' own total orders.  Each cohort
        takes its k smallest keys in one ``np.partition`` pass, keeps
        every request tied at the k-th key, and ``lexsort``s only those
        candidates.
        """
        replica = int(replica)
        ids = np.asarray(request_ids, dtype=np.int64).ravel()
        lat = np.asarray(latency_us, dtype=float).ravel()
        if ids.shape != lat.shape:
            raise ValueError("request_ids and latency_us must align")
        records: Dict[int, ExemplarRecord] = {}

        def winner(rid: int) -> ExemplarRecord:
            if rid not in records:
                records[rid] = record_for(rid)
            return records[rid]

        if self.slowest_k > 0:
            neg = -lat
            for i in _smallest(neg, ids, self.slowest_k):
                rid = int(ids[i])
                self._insert(self._slowest, (float(neg[i]), replica, rid),
                             winner(rid), self.slowest_k)
        if self.reservoir_size > 0:
            prio = priority_hash_many(self.seed, replica, ids)
            for i in _smallest(prio, ids, self.reservoir_size):
                rid = int(ids[i])
                self._insert(self._reservoir, (float(prio[i]), replica, rid),
                             winner(rid), self.reservoir_size)

    @staticmethod
    def _insert(store: List, key, record: ExemplarRecord,
                capacity: int) -> None:
        if capacity <= 0:
            return
        pos = bisect.bisect_left([k for k, _r in store], key)
        if pos >= capacity:
            return
        store.insert(pos, (key, record))
        if len(store) > capacity:
            store.pop()

    def merge(self, other: "ExemplarStore") -> "ExemplarStore":
        """Fold another store in (in place; returns self).

        Selection keys are total orders over the union, so the merged
        store equals a single store that saw every record — in any
        merge order (the conformance determinism pillar asserts this).
        """
        if other.seed != self.seed:
            raise ValueError("cannot merge exemplar stores with different "
                             f"seeds: {self.seed} vs {other.seed}")
        for key, record in other._slowest:
            self._insert(self._slowest, key, record, self.slowest_k)
        for key, record in other._reservoir:
            self._insert(self._reservoir, key, record, self.reservoir_size)
        return self

    # -- queries ---------------------------------------------------------
    @property
    def slowest(self) -> List[ExemplarRecord]:
        """Slowest-k records, slowest first (exact, always retained)."""
        return [record for _key, record in self._slowest]

    @property
    def reservoir(self) -> List[ExemplarRecord]:
        """The seeded uniform sample, in priority order."""
        return [record for _key, record in self._reservoir]

    def slowest_ids(self) -> List[Tuple[int, int]]:
        """(replica, request_id) pairs of the retained slowest-k."""
        return [(r.replica, r.request_id) for r in self.slowest]

    def to_dict(self) -> Dict:
        return {"slowest_k": self.slowest_k,
                "reservoir_size": self.reservoir_size,
                "seed": self.seed,
                "slowest": [r.to_dict() for r in self.slowest],
                "reservoir": [r.to_dict() for r in self.reservoir]}

    @classmethod
    def from_dict(cls, data: Dict) -> "ExemplarStore":
        out = cls(slowest_k=data["slowest_k"],
                  reservoir_size=data["reservoir_size"], seed=data["seed"])
        for row in data["slowest"] + data["reservoir"]:
            out.offer(ExemplarRecord(
                replica=row["replica"], request_id=row["request"],
                arrival_us=row["arrival_us"], latency_us=row["latency_us"],
                queue_wait_us=row["queue_wait_us"],
                batch_wait_us=row["batch_wait_us"],
                execute_us=row["execute_us"],
                retry_overhead_us=row.get("retry_overhead_us", 0.0),
                batch_index=row["batch"], batch_size=row["batch_size"],
                status=row.get("status", "served")))
        return out
