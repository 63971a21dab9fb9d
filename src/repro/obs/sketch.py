"""Mergeable relative-error quantile sketch (DDSketch-style).

``obs.metrics.Histogram`` keeps every raw observation, which is exact
but grows linearly with traffic — fine for one simulated card, fatal
for a fleet serving millions of requests.  :class:`QuantileSketch`
bounds the memory: values land in logarithmic buckets sized so that
any quantile estimate is within a configurable *relative* error of the
true value, and the whole distribution is a small integer map.

Design properties (all load-bearing for the fleet simulator):

* **Relative-error guarantee** — with ``relative_accuracy`` α, bucket
  ``k`` covers ``(γ^(k-1), γ^k]`` for ``γ = (1+α)/(1-α)``; reporting
  the bucket midpoint keeps ``|est - true| <= α * true`` for every
  quantile (DDSketch, Masson et al., VLDB 2019).
* **Mergeable and order-invariant** — the state is a map of integer
  bucket keys to integer counts plus exact min/max; ``merge`` adds
  counts.  Integer addition is associative and commutative, so
  ``merge(a, b)``, ``merge(b, a)``, and single-stream ingest of the
  combined data produce *bit-identical* serializations.  The ``sum``
  surfaced in exports is reconstructed from the buckets (sorted-key
  order), never accumulated in float, for the same reason.
* **Fixed memory** — live keys are bounded by the data's dynamic range
  (``ln(max/min)/ln γ``; ~800 keys for α=1 % over six decades) and
  hard-capped by ``max_bins`` via a *canonical* collapse of the lowest
  buckets, applied to the final key map (a pure function of the
  ingested multiset) so it cannot break merge-order invariance.
* **Deterministic serialization** — :meth:`to_dict` emits sorted keys
  and integer counts only; byte-identical JSON at any merge order or
  ``--jobs`` count (the conformance determinism pillar asserts this).

Zero and negative values: serving latencies are non-negative, but the
sketch accepts any float — exact zeros go to a dedicated counter, and
negative values are sketched on a mirrored key map with the same
guarantee.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["QuantileSketch", "DEFAULT_RELATIVE_ACCURACY",
           "DEFAULT_MAX_BINS"]

DEFAULT_RELATIVE_ACCURACY = 0.01
DEFAULT_MAX_BINS = 4096


def _checked(values):
    """``values`` as a flat float array; NaN or infinity raises
    ``ValueError``."""
    import numpy as np
    arr = np.asarray(values, dtype=float).ravel()
    if not np.isfinite(arr).all():
        raise ValueError("cannot sketch NaN" if np.isnan(arr).any()
                         else "cannot sketch an infinite value")
    return arr


def add_key_counts(store: Dict[int, int], keys: List[int],
                   counts: List[int]) -> None:
    """``store[key] += count`` pair by pair; an empty store takes them whole.

    With ascending ``keys`` the map grows in ascending key order either
    way.
    """
    if not store:
        store.update(zip(keys, counts))
        return
    for key, count in zip(keys, counts):
        store[key] = store.get(key, 0) + count


def _count_into(store: Dict[int, int], keys) -> None:
    """Add each key's multiplicity to ``store``, in ascending key order."""
    import numpy as np
    if keys.size == 0:
        return
    low = int(keys.min())
    counts = np.bincount(keys - low)
    present = np.flatnonzero(counts)
    add_key_counts(store, (present + low).tolist(), counts[present].tolist())


class QuantileSketch:
    """A mergeable quantile sketch with a relative-error guarantee."""

    __slots__ = ("relative_accuracy", "max_bins", "gamma", "_ln_gamma",
                 "zero_count", "counts", "neg_counts", "_min", "_max")

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                 max_bins: int = DEFAULT_MAX_BINS) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        if max_bins < 2:
            raise ValueError("max_bins must be >= 2")
        self.relative_accuracy = float(relative_accuracy)
        self.max_bins = int(max_bins)
        self.gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._ln_gamma = math.log(self.gamma)
        self.zero_count = 0
        self.counts: Dict[int, int] = {}       #: key -> count, positives
        self.neg_counts: Dict[int, int] = {}   #: key over |v|, negatives
        self._min = math.inf
        self._max = -math.inf

    # -- ingest ----------------------------------------------------------
    def _key(self, value: float) -> int:
        """Bucket key: smallest k with value <= gamma**k."""
        return math.ceil(math.log(value) / self._ln_gamma)

    def _keys(self, values):
        """:meth:`_key` of every positive value in a numpy array, exactly.

        ``np.log`` may round the last bit differently from ``math.log``
        (it does on some SIMD builds), which changes a key only when the
        quotient lies next to an integer; those few values (within
        ``1e-9`` of the largest quotient magnitude, at least 1) are
        keyed with :meth:`_key`, once per distinct value, so :meth:`add`
        and :meth:`add_many` agree.
        """
        import numpy as np
        quotient = np.log(values) / self._ln_gamma
        keys = np.ceil(quotient).astype(np.int64)
        if quotient.size == 0:
            return keys
        slack = 1e-9 * max(1.0, float(np.abs(quotient).max()))
        near = np.flatnonzero(np.abs(quotient - np.rint(quotient)) <= slack)
        if near.size:
            # repeats are common (batch size 1 sits on the edge of key 0)
            distinct, where = np.unique(values[near], return_inverse=True)
            keys[near] = np.array([self._key(v) for v in distinct.tolist()],
                                  dtype=np.int64)[where]
        return keys

    def add(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot sketch NaN")
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value > 0.0:
            key = self._key(value)
            self.counts[key] = self.counts.get(key, 0) + 1
        elif value < 0.0:
            key = self._key(-value)
            self.neg_counts[key] = self.neg_counts.get(key, 0) + 1
        else:
            self.zero_count += 1

    def bucket_keys(self, values) -> "np.ndarray":
        """The key :meth:`add` files each value's magnitude under, 0 for zeros.

        One :meth:`_keys` pass over every non-zero value; a negative
        value's key is its magnitude's (the mirrored map).  A caller
        that feeds the same values to several sketches of this
        ``relative_accuracy`` (say a run-wide sketch and a windowed
        series) computes the keys once and hands them to
        :meth:`add_many` and
        :meth:`~repro.obs.timeseries.WindowedSeries.record_many`.
        NaN and infinite values raise ``ValueError``.
        """
        return self._magnitude_keys(_checked(values))

    def _magnitude_keys(self, arr):
        """:meth:`bucket_keys` of an already checked array."""
        import numpy as np
        keys = np.zeros(arr.size, dtype=np.int64)
        nonzero = arr != 0.0
        if nonzero.any():
            keys[nonzero] = self._keys(np.abs(arr[nonzero]))
        return keys

    def add_many(self, values: Iterable[float], keys=None) -> None:
        """Bulk :meth:`add` — one vectorised pass over ``values``.

        ``keys`` is ``bucket_keys(values)`` when the caller already has
        it.  Each sign's keys are counted with one ``np.bincount`` over
        their range; the extremes keep :meth:`add`'s first-occurrence
        tie rule (``argmin``/``argmax``).
        """
        import numpy as np  # local: keep module import dependency-free
        arr = _checked(values)
        if arr.size == 0:
            return
        if keys is None:
            keys = self._magnitude_keys(arr)
        elif np.shape(keys) != arr.shape:
            raise ValueError("values and keys must align")
        # first occurrence of each extreme: the tie rule of add()
        low, high = float(arr[arr.argmin()]), float(arr[arr.argmax()])
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        self.zero_count += int(np.count_nonzero(arr == 0.0))
        _count_into(self.counts, keys[arr > 0.0])
        _count_into(self.neg_counts, keys[arr < 0.0])

    # -- merging ---------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (in place; returns self).

        Requires identical ``relative_accuracy`` — merging sketches with
        different bucket boundaries would silently void the error bound.
        """
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different relative_accuracy: "
                f"{self.relative_accuracy} vs {other.relative_accuracy}")
        for key, count in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + count
        for key, count in other.neg_counts.items():
            self.neg_counts[key] = self.neg_counts.get(key, 0) + count
        self.zero_count += other.zero_count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    def copy(self) -> "QuantileSketch":
        out = QuantileSketch(self.relative_accuracy, self.max_bins)
        out.counts = dict(self.counts)
        out.neg_counts = dict(self.neg_counts)
        out.zero_count = self.zero_count
        out._min, out._max = self._min, self._max
        return out

    # -- canonical collapse ----------------------------------------------
    def _collapsed(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Key maps capped at ``max_bins``, lowest buckets folded up.

        Collapse is a pure function of the final key maps (never applied
        incrementally during ingest), so two sketches holding the same
        multiset — regardless of ingest or merge order — collapse
        identically.  Folding the *lowest* keys keeps the tail (the
        quantiles fleet telemetry cares about) at full accuracy.
        """
        budget = self.max_bins
        pos, neg = self.counts, self.neg_counts
        if len(pos) + len(neg) <= budget:
            return pos, neg
        # Keep the highest keys overall (negatives sort below positives
        # in value order, so they fold first).
        ordered: List[Tuple[float, str, int]] = (
            [(-key, "neg", key) for key in neg]      # value order: big |v|
            + [(key, "pos", key) for key in pos])    # ... ascending
        ordered.sort()
        folded = ordered[:len(ordered) - (budget - 1)]
        kept = ordered[len(ordered) - (budget - 1):]
        fold_count = sum(
            (neg if kind == "neg" else pos)[key] for _o, kind, key in folded)
        out_pos: Dict[int, int] = {}
        out_neg: Dict[int, int] = {}
        for _o, kind, key in kept:
            (out_neg if kind == "neg" else out_pos)[key] = (
                (neg if kind == "neg" else pos)[key])
        # All folded mass lands in one bucket just below the lowest kept
        # key (value order), preserving total count exactly.
        low_order, low_kind, low_key = kept[0]
        if low_kind == "neg":
            fold_key = low_key + 1      # larger |v| key = smaller value
            out_neg[fold_key] = out_neg.get(fold_key, 0) + fold_count
        else:
            fold_key = low_key - 1
            out_pos[fold_key] = out_pos.get(fold_key, 0) + fold_count
        return out_pos, out_neg

    # -- queries ---------------------------------------------------------
    @property
    def count(self) -> int:
        return (sum(self.counts.values()) + sum(self.neg_counts.values())
                + self.zero_count)

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    @property
    def num_buckets(self) -> int:
        """Live bucket count (the memory footprint, in map entries)."""
        return len(self.counts) + len(self.neg_counts)

    def _bucket_value(self, key: int) -> float:
        """Midpoint estimate for bucket ``k``: 2·γ^k / (γ+1)."""
        return 2.0 * math.pow(self.gamma, key) / (self.gamma + 1.0)

    @property
    def sum(self) -> float:
        """Estimated total, reconstructed from buckets in key order.

        Never accumulated per-sample: a float running sum would make the
        serialization depend on ingest order, breaking the merge
        contract.  The estimate inherits the per-bucket relative bound.
        """
        total = 0.0
        for key in sorted(self.neg_counts):
            total -= self.neg_counts[key] * self._bucket_value(key)
        for key in sorted(self.counts):
            total += self.counts[key] * self._bucket_value(key)
        return total

    @property
    def mean(self) -> float:
        n = self.count
        return self.sum / n if n else 0.0

    @property
    def value(self) -> float:
        """Scalar summary (mean) so sketches dump like other metrics."""
        return self.mean

    def percentile(self, q: float) -> float:
        """Quantile estimate, q in [0, 100] (Histogram convention).

        Within ``relative_accuracy`` of the exact sample quantile; empty
        sketches return 0.0 (matching ``Histogram.percentile``).
        """
        n = self.count
        if n == 0:
            return 0.0
        if q <= 0:
            return self.min
        if q >= 100:
            return self.max
        pos, neg = self._collapsed()
        rank = q / 100.0 * (n - 1)
        seen = 0
        # negatives first, most-negative (largest |v| key) first
        for key in sorted(neg, reverse=True):
            seen += neg[key]
            if seen > rank:
                value = -self._bucket_value(key)
                return min(self._max, max(self._min, value))
        seen += self.zero_count
        if self.zero_count and seen > rank:
            return 0.0
        for key in sorted(pos):
            seen += pos[key]
            if seen > rank:
                value = self._bucket_value(key)
                return min(self._max, max(self._min, value))
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict:
        """Canonical JSON-ready state: sorted integer keys and counts."""
        pos, neg = self._collapsed()
        out: Dict = {
            "relative_accuracy": self.relative_accuracy,
            "max_bins": self.max_bins,
            "count": self.count,
            "zero_count": self.zero_count,
            "counts": {str(k): pos[k] for k in sorted(pos)},
        }
        if neg:
            out["neg_counts"] = {str(k): neg[k] for k in sorted(neg)}
        if self.count:
            out["min"] = self._min
            out["max"] = self._max
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "QuantileSketch":
        out = cls(data["relative_accuracy"],
                  data.get("max_bins", DEFAULT_MAX_BINS))
        out.counts = {int(k): int(v) for k, v in data["counts"].items()}
        out.neg_counts = {int(k): int(v)
                          for k, v in data.get("neg_counts", {}).items()}
        out.zero_count = int(data["zero_count"])
        out._min = float(data.get("min", math.inf))
        out._max = float(data.get("max", -math.inf))
        return out

    def summary(self) -> Dict:
        """Headline numbers for report surfaces (not the full state)."""
        return {"count": self.count,
                "relative_accuracy": self.relative_accuracy,
                "num_buckets": self.num_buckets,
                "min": self.min, "max": self.max,
                "mean": self.mean,
                "p50": self.p50, "p95": self.p95, "p99": self.p99}

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (f"QuantileSketch(alpha={self.relative_accuracy:g}, "
                f"count={self.count}, buckets={self.num_buckets})")
