"""Fixed-size windowed time series for fleet-scale telemetry.

Rates, gauges, and percentile-over-time for traces that are hours long
and millions of requests deep.  A :class:`WindowedSeries` buckets
observations into fixed-width time windows; each window keeps bounded
per-window statistics (count, sum, min, max, and optionally a
:class:`~repro.obs.sketch.QuantileSketch` for p50/p99-over-time), so
memory is O(windows), never O(samples).

Built for the diurnal million-user traces the fleet simulator will
generate:

* **Downsampling** — :meth:`downsample` folds adjacent windows into a
  coarser series (window counts add, sketches merge), and
  :meth:`resampled` picks the smallest power-of-two factor that fits a
  target window budget, so a 24-hour trace renders at any resolution.
* **Mergeable** — :meth:`merge` combines per-replica series window by
  window.  Counts are integers (exact); sums are floats and therefore
  merged deterministically *in call order* — the serving layer always
  merges replicas in index order, which is what makes ``--jobs 1`` and
  ``--jobs 4`` reports byte-identical.  Sketch state is fully
  order-invariant (see :mod:`repro.obs.sketch`).
* **Deterministic export** — :meth:`to_dict` walks windows in time
  order with canonical keys.

The window accumulator intentionally mirrors what production metric
pipelines ship between hosts: no raw samples leave a replica, only
mergeable window aggregates.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.obs.sketch import (DEFAULT_RELATIVE_ACCURACY, QuantileSketch,
                               add_key_counts)

__all__ = ["WindowStats", "WindowedSeries", "DEFAULT_WINDOW_US"]

DEFAULT_WINDOW_US = 50_000.0

#: largest (window, sign, key) count table one ``record_many`` chunk holds
_KEY_TABLE = 1 << 20


def _floor_divide(ts: np.ndarray, width: float) -> np.ndarray:
    """``np.floor_divide(ts, width)``: the floor of the exact quotient.

    ``floor(ts / width)`` is that floor unless the rounded quotient lies
    within its rounding error (``|q|·2⁻⁵²``) of an integer; those few
    times are divided again with ``np.floor_divide``, whose ``fmod``
    path costs about ten times as much per value.
    """
    quotient = ts / width
    index = np.floor(quotient)
    frac = quotient - index
    slack = np.abs(quotient) * 2.0 ** -50
    near = np.flatnonzero((frac <= slack) | (frac >= 1.0 - slack))
    index[near] = np.floor_divide(ts[near], width)
    return index


class WindowStats:
    """Bounded accumulator for one time window."""

    __slots__ = ("count", "total", "min", "max", "sketch")

    def __init__(self, sketch: Optional[QuantileSketch] = None) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.sketch = sketch

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.sketch is not None:
            self.sketch.add(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "WindowStats") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        if self.sketch is not None and other.sketch is not None:
            self.sketch.merge(other.sketch)
        elif self.sketch is None and other.sketch is not None:
            self.sketch = other.sketch.copy()


class WindowedSeries:
    """Time-bucketed observations with bounded per-window state.

    ``window_us`` fixes the bucket width; ``track_quantiles`` attaches a
    per-window :class:`QuantileSketch` (α = ``relative_accuracy``) so
    the series can answer "what was the p99 *in this window*", not just
    the run-wide quantile.
    """

    def __init__(self, window_us: float = DEFAULT_WINDOW_US,
                 track_quantiles: bool = False,
                 relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                 name: str = "") -> None:
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.window_us = float(window_us)
        self.track_quantiles = track_quantiles
        self.relative_accuracy = relative_accuracy
        self.name = name
        self._windows: Dict[int, WindowStats] = {}

    # -- ingest ----------------------------------------------------------
    def _window(self, index: int) -> WindowStats:
        stats = self._windows.get(index)
        if stats is None:
            sketch = (QuantileSketch(self.relative_accuracy)
                      if self.track_quantiles else None)
            stats = WindowStats(sketch)
            self._windows[index] = stats
        return stats

    def record(self, t_us: float, value: float = 1.0) -> None:
        """Observe ``value`` at time ``t_us`` (defaults to a count)."""
        self._window(int(t_us // self.window_us)).observe(float(value))

    def record_many(self, ts_us: Iterable[float],
                    values: Optional[Iterable[float]] = None,
                    keys: Optional[np.ndarray] = None) -> None:
        """Bulk :meth:`record`; ``values=None`` counts occurrences.

        Bit-identical to the equivalent sequence of :meth:`record` calls,
        in a fixed number of whole-array passes however many windows the
        values touch.  Observations are grouped by window with a stable
        sort (skipped when the window indices already ascend), so each
        window sees its values in input order: its running total is
        continued by a weighted ``np.bincount`` (one sequential ``+=``
        per value, never a pairwise reduction), and its min and max come
        from ``reduceat`` (a zero extreme is re-read with ``argmin``/
        ``argmax``, so the first of ``0.0`` and ``-0.0`` stays, the
        ``<``/``>`` tie rule of :meth:`WindowStats.observe`).  With
        ``track_quantiles`` the values are keyed once (``keys``, when
        given, is the caller's :meth:`QuantileSketch.bucket_keys` of
        ``values`` at this series' ``relative_accuracy``) and every
        (window, sign, key) count comes from one ``np.bincount``.  NaN
        values, infinite times and times beyond an int64 window index
        raise ``ValueError``, as do infinite values when quantiles are
        tracked.
        """
        ts = np.asarray(ts_us, dtype=float).ravel()
        if ts.size == 0:
            return
        vals = (np.ones_like(ts) if values is None
                else np.asarray(values, dtype=float).ravel())
        if vals.shape != ts.shape:
            raise ValueError("ts_us and values must align")
        if np.isnan(vals).any():
            raise ValueError("cannot record NaN values")
        if not np.isfinite(ts).all():
            raise ValueError("ts_us must be finite")
        index = _floor_divide(ts, self.window_us)
        if np.abs(index).max() >= 2.0 ** 63:
            raise ValueError("ts_us is beyond the int64 window range")
        index = index.astype(np.int64)
        if not self.track_quantiles:
            keys = None
        elif keys is None:
            keys = QuantileSketch(self.relative_accuracy).bucket_keys(vals)
        elif np.shape(keys) != vals.shape:
            raise ValueError("values and keys must align")
        if (index[1:] < index[:-1]).any():
            order = np.argsort(index, kind="stable")
            index, vals = index[order], vals[order]
            if keys is not None:
                keys = keys[order]
        first = np.ones(index.size, dtype=bool)
        first[1:] = index[1:] != index[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], index.size)
        windows = [self._window(i) for i in index[starts].tolist()]
        # Each window's old total goes in first, then its values in
        # order.  A total never holds -0.0 (it starts at +0.0), so the
        # bincount's own 0.0 + total is exact.
        slots = np.repeat(np.arange(len(windows)), ends - starts)
        totals = np.bincount(
            np.concatenate([np.arange(len(windows)), slots]),
            weights=np.concatenate([[w.total for w in windows], vals]),
            minlength=len(windows)).tolist()
        lows = np.minimum.reduceat(vals, starts)
        highs = np.maximum.reduceat(vals, starts)
        for w in np.flatnonzero((lows == 0.0) | (highs == 0.0)).tolist():
            segment = vals[starts[w]:ends[w]]
            lows[w] = segment[segment.argmin()]
            highs[w] = segment[segment.argmax()]
        for stats, count, total, low, high in zip(
                windows, (ends - starts).tolist(), totals, lows.tolist(),
                highs.tolist()):
            stats.count += count
            stats.total = total
            if low < stats.min:
                stats.min = low
            if high > stats.max:
                stats.max = high
            sketch = stats.sketch
            if sketch is not None:
                if low < sketch._min:
                    sketch._min = low
                if high > sketch._max:
                    sketch._max = high
        if keys is not None:
            self._count_keys([w.sketch for w in windows], slots, vals, keys)

    @staticmethod
    def _count_keys(sketches: List[Optional[QuantileSketch]],
                    slots: np.ndarray, vals: np.ndarray,
                    keys: np.ndarray) -> None:
        """Add every value's bucket to its window's sketch.

        ``slots`` (ascending) numbers each value's window in
        ``sketches``; a window restored without sketch state has none
        and is skipped, as :meth:`WindowStats.observe` skips it.  One
        ``np.bincount`` over ``(slot, sign, key)`` codes counts the keys
        of a chunk of windows; chunks keep the count table within
        ``_KEY_TABLE`` entries (one chunk unless the keys span a very
        wide range).  Each key map grows in ascending key order, as
        :meth:`QuantileSketch.add_many` grows it.
        """
        zeros = np.bincount(slots[vals == 0.0],
                            minlength=len(sketches)).tolist()
        for sketch, count in zip(sketches, zeros):
            if sketch is not None:
                sketch.zero_count += count
        nonzero = vals != 0.0
        if not nonzero.any():
            return
        slots, keys = slots[nonzero], keys[nonzero]
        low = int(keys.min())
        span = int(keys.max()) - low + 1
        # code = (slot * 2 + negative) * span + key offset
        codes = (slots * 2 + (vals[nonzero] < 0.0)) * span + (keys - low)
        step = max(1, _KEY_TABLE // (2 * span))
        for first in range(0, len(sketches), step):
            begin, end = np.searchsorted(slots, (first, first + step))
            table = np.bincount(codes[begin:end] - first * 2 * span)
            present = np.flatnonzero(table)
            # one group per (window, sign) plane, keys ascending within
            plane, offset = np.divmod(present, span)
            cuts = np.flatnonzero(plane[1:] != plane[:-1]) + 1
            keys_l = (offset + low).tolist()
            counts_l = table[present].tolist()
            for p, lo, hi in zip(plane[np.append(0, cuts)].tolist(),
                                 [0, *cuts.tolist()],
                                 [*cuts.tolist(), present.size]):
                sketch = sketches[first + p // 2]
                if sketch is not None:
                    add_key_counts(
                        sketch.neg_counts if p % 2 else sketch.counts,
                        keys_l[lo:hi], counts_l[lo:hi])

    # -- structure -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._windows)

    @property
    def count(self) -> int:
        return sum(w.count for w in self._windows.values())

    @property
    def value(self) -> float:
        """Scalar summary (total count) for registry dumps/rollups."""
        return float(self.count)

    def window_indices(self) -> List[int]:
        return sorted(self._windows)

    def window(self, index: int) -> Optional[WindowStats]:
        return self._windows.get(index)

    @property
    def span_us(self) -> float:
        if not self._windows:
            return 0.0
        lo, hi = min(self._windows), max(self._windows)
        return (hi - lo + 1) * self.window_us

    # -- merge / downsample ---------------------------------------------
    def merge(self, other: "WindowedSeries") -> "WindowedSeries":
        """Fold another series in, window by window (in place)."""
        if other.window_us != self.window_us:
            raise ValueError(
                f"cannot merge series with different windows: "
                f"{self.window_us} vs {other.window_us}")
        for index, stats in other._windows.items():
            mine = self._windows.get(index)
            if mine is None:
                copy = WindowStats(stats.sketch.copy()
                                   if stats.sketch is not None else None)
                copy.count, copy.total = stats.count, stats.total
                copy.min, copy.max = stats.min, stats.max
                self._windows[index] = copy
            else:
                mine.merge(stats)
        return self

    def downsample(self, factor: int) -> "WindowedSeries":
        """A new series with windows ``factor`` times wider."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        out = WindowedSeries(self.window_us * factor,
                             track_quantiles=self.track_quantiles,
                             relative_accuracy=self.relative_accuracy,
                             name=self.name)
        for index in sorted(self._windows):
            stats = self._windows[index]
            target = out._window(index // factor)
            target.merge(stats)
        return out

    def resampled(self, max_windows: int) -> "WindowedSeries":
        """Downsample by the smallest power of two fitting the budget.

        Power-of-two factors keep downsampled window boundaries aligned
        across replicas, so a merged fleet series resamples identically
        to per-replica resampling.
        """
        if max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        if not self._windows:
            return self.downsample(1)
        lo, hi = min(self._windows), max(self._windows)
        factor = 1
        while (hi // factor) - (lo // factor) + 1 > max_windows:
            factor *= 2
        return self.downsample(factor)

    # -- export ----------------------------------------------------------
    def rate_per_s(self, index: int) -> float:
        stats = self._windows.get(index)
        if stats is None:
            return 0.0
        return stats.count / (self.window_us / 1e6)

    def to_dict(self, include_sketch_state: bool = False) -> Dict:
        """Canonical JSON-ready dump, windows in time order."""
        windows = []
        for index in sorted(self._windows):
            stats = self._windows[index]
            row: Dict = {
                "index": index,
                "start_us": index * self.window_us,
                "count": stats.count,
                "sum": stats.total,
                "mean": stats.mean,
                "min": stats.min if stats.count else 0.0,
                "max": stats.max if stats.count else 0.0,
                "rate_per_s": self.rate_per_s(index),
            }
            if stats.sketch is not None:
                row["p50"] = stats.sketch.p50
                row["p95"] = stats.sketch.p95
                row["p99"] = stats.sketch.p99
                if include_sketch_state:
                    row["sketch"] = stats.sketch.to_dict()
            windows.append(row)
        return {"name": self.name,
                "window_us": self.window_us,
                "track_quantiles": self.track_quantiles,
                "total_count": self.count,
                "windows": windows}

    @classmethod
    def from_dict(cls, data: Dict) -> "WindowedSeries":
        """Rebuild a series from :meth:`to_dict` output.

        Per-window sketches are only restored when the dump was written
        with ``include_sketch_state=True``.
        """
        out = cls(data["window_us"],
                  track_quantiles=data.get("track_quantiles", False),
                  name=data.get("name", ""))
        for row in data["windows"]:
            stats = WindowStats(
                QuantileSketch.from_dict(row["sketch"])
                if "sketch" in row else None)
            stats.count = int(row["count"])
            stats.total = float(row["sum"])
            stats.min = float(row["min"]) if row["count"] else math.inf
            stats.max = float(row["max"]) if row["count"] else -math.inf
            out._windows[int(row["index"])] = stats
        return out

    def values(self, stat: str = "mean") -> List[float]:
        """One value per window in time order (for the detectors).

        ``stat`` is ``mean``, ``count``, ``rate``, ``min``, ``max``,
        ``p50``, ``p95``, or ``p99``.
        """
        out: List[float] = []
        for index in sorted(self._windows):
            stats = self._windows[index]
            if stat == "mean":
                out.append(stats.mean)
            elif stat == "count":
                out.append(float(stats.count))
            elif stat == "rate":
                out.append(self.rate_per_s(index))
            elif stat == "min":
                out.append(stats.min if stats.count else 0.0)
            elif stat == "max":
                out.append(stats.max if stats.count else 0.0)
            elif stat in ("p50", "p95", "p99"):
                if stats.sketch is None:
                    raise ValueError(
                        "per-window quantiles need track_quantiles=True")
                out.append(stats.sketch.percentile(float(stat[1:])))
            else:
                raise ValueError(f"unknown stat {stat!r}")
        return out

    def __repr__(self) -> str:
        return (f"WindowedSeries(window_us={self.window_us:g}, "
                f"windows={len(self)}, count={self.count})")
