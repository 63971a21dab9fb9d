"""Typed metrics registry: the numerical half of ``repro.obs``.

A :class:`MetricRegistry` owns named metric *families*; a family plus a
set of labels (``pe=3,unit=dpe``) identifies one *instrument*:

* :class:`Counter` — monotonically increasing totals (stall cycles,
  bytes moved, commands dispatched);
* :class:`Gauge` — last-value measurements (queue depth, utilisation);
* :class:`Histogram` — distributions (serving latency); it keeps both
  the raw observations (exact percentiles) and fixed bucket counts for
  the Prometheus export;
* sketch families (:meth:`MetricRegistry.sketch`) — standalone
  mergeable quantile sketches, exported as Prometheus summaries;
* time-series families (:meth:`MetricRegistry.timeseries`) — windowed
  :class:`~repro.obs.timeseries.WindowedSeries` for rates and
  percentile-over-time, exported one gauge sample per window.

**Exact-vs-sketch policy**: single-card simulations use exact
histograms — memory is cheap and the conformance suite compares
percentiles bit-for-bit.  Fleet-scale paths (multi-replica serving,
the faults campaign, anything merged across ``--jobs`` workers) use
sketch families: bounded memory, deterministic merges.

Labels are hierarchical by convention — a ``track`` label like
``pe3.dpe`` rolls up by prefix — and :meth:`MetricRegistry.rollup`
aggregates families over any label subset, which is how per-PE stall
counters become grid-level attributions.

Exporters: :meth:`~MetricRegistry.to_json` (machine-readable dump),
:meth:`~MetricRegistry.to_csv` (one row per labelled sample), and
:meth:`~MetricRegistry.to_prometheus` (text exposition format, so a
simulation sweep can be scraped like a production service).

Everything here is dependency-free and engine-agnostic: the simulator,
the analytical runtime, and the serving layer all record into the same
registry types.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default latency-style buckets (unit-agnostic; callers pick the unit).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
    25000, 50000, 100000, float("inf"))


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_labels(key: LabelKey) -> str:
    """Render a label key the way the docs write it: ``pe=3,unit=dpe``."""
    return ",".join(f"{k}={v}" for k, v in key)


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A last-value measurement."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = float(value)


class Histogram:
    """A distribution: fixed cumulative buckets plus every raw sample.

    Bounded-memory quantiles are a separate family kind,
    :meth:`MetricRegistry.sketch`.
    """

    kind = "histogram"

    __slots__ = ("buckets", "bucket_counts", "samples", "sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted")
        if self.buckets[-1] != float("inf"):
            self.buckets = self.buckets + (float("inf"),)
        self.bucket_counts = [0] * len(self.buckets)
        self.samples: List[float] = []
        self.sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.samples.append(value)
        self._count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                break

    def observe_many(self, values) -> None:
        """Bulk :meth:`observe` — one vectorised pass over ``values``.

        Equivalent to ``for v in values: self.observe(v)`` but O(n log b)
        with numpy instead of O(n·b) Python-loop work; the serving
        simulator records thousands of request latencies per run, and
        the per-sample loop dominated metrics-on runs.
        """
        import numpy as np  # local: keep module import dependency-free
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        self.samples.extend(arr.tolist())
        self._count += int(arr.size)
        self.sum += float(arr.sum())
        # observe() puts v in the first bucket with v <= bound, i.e. the
        # left insertion point into the sorted bound list.
        idx = np.searchsorted(np.asarray(self.buckets), arr, side="left")
        for i, n in enumerate(np.bincount(idx, minlength=len(self.buckets))):
            if n:
                self.bucket_counts[i] += int(n)

    @property
    def count(self) -> int:
        return self._count

    @property
    def value(self) -> float:
        """The scalar summary (mean) so histograms dump like the others."""
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram in (in place; returns self).

        Bucket bounds must match; the samples are concatenated.
        """
        if other.buckets != self.buckets:
            raise ValueError("cannot merge histograms with different "
                             "bucket bounds")
        self.samples.extend(other.samples)
        self._count += other._count
        self.sum += other.sum
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n
        return self

    def percentile(self, q: float) -> float:
        """Exact percentile (q in [0, 100]) from the raw samples."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        if q <= 0:
            return ordered[0]
        if q >= 100:
            return ordered[-1]
        # Linear interpolation between closest ranks.
        pos = (len(ordered) - 1) * q / 100.0
        lo = int(pos)
        frac = pos - lo
        if lo + 1 >= len(ordered):
            return ordered[-1]
        return ordered[lo] * (1 - frac) + ordered[lo + 1] * frac

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All instruments sharing one metric name, keyed by label set."""

    def __init__(self, name: str, kind: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None,
                 relative_accuracy: float = 0.01,
                 window_us: float = 50_000.0,
                 track_quantiles: bool = False) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self._buckets = tuple(buckets) if buckets is not None else None
        self.relative_accuracy = relative_accuracy
        self.window_us = window_us
        self.track_quantiles = track_quantiles
        self._children: Dict[LabelKey, object] = {}

    def labels(self, **labels):
        """The instrument for this label set (created on first use)."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self._buckets or DEFAULT_BUCKETS)
            elif self.kind == "sketch":
                from repro.obs.sketch import QuantileSketch
                child = QuantileSketch(self.relative_accuracy)
            elif self.kind == "timeseries":
                from repro.obs.timeseries import WindowedSeries
                child = WindowedSeries(
                    self.window_us,
                    track_quantiles=self.track_quantiles,
                    relative_accuracy=self.relative_accuracy,
                    name=self.name)
            else:
                child = _KINDS[self.kind]()
            self._children[key] = child
        return child

    def get(self, **labels):
        """The instrument for this label set, or ``None`` if never used."""
        return self._children.get(_label_key(labels))

    def samples(self) -> Iterable[Tuple[LabelKey, object]]:
        return self._children.items()

    def total(self) -> float:
        """Sum of scalar values over every label set."""
        return sum(child.value for child in self._children.values())

    def __len__(self) -> int:
        return len(self._children)


class MetricRegistry:
    """A named collection of metric families."""

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self._families: Dict[str, MetricFamily] = {}

    # -- family constructors (idempotent) -------------------------------
    def _family(self, name: str, kind: str, help: str,
                buckets: Optional[Sequence[float]] = None,
                **options) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help, buckets, **options)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}")
        return family

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "gauge", help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        return self._family(name, "histogram", help, buckets)

    def sketch(self, name: str, help: str = "",
               relative_accuracy: float = 0.01) -> MetricFamily:
        """A mergeable quantile-sketch family (bounded memory)."""
        return self._family(name, "sketch", help,
                            relative_accuracy=relative_accuracy)

    def timeseries(self, name: str, help: str = "",
                   window_us: float = 50_000.0,
                   track_quantiles: bool = False,
                   relative_accuracy: float = 0.01) -> MetricFamily:
        """A windowed time-series family (rates / quantiles over time)."""
        return self._family(name, "timeseries", help,
                            window_us=window_us,
                            track_quantiles=track_quantiles,
                            relative_accuracy=relative_accuracy)

    # -- queries ---------------------------------------------------------
    def families(self) -> Iterable[MetricFamily]:
        return self._families.values()

    def family(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def rollup(self, name: str,
               by: Sequence[str] = ()) -> Dict[Tuple[str, ...], float]:
        """Aggregate a family's scalar values over a label subset.

        ``rollup("stall_cycles", by=("cause",))`` sums every labelled
        counter into one bucket per distinct ``cause`` value; ``by=()``
        gives the single grand total under the empty key.
        """
        family = self._families.get(name)
        out: Dict[Tuple[str, ...], float] = {}
        if family is None:
            return out
        for key, child in family.samples():
            labels = dict(key)
            group = tuple(labels.get(dim, "") for dim in by)
            out[group] = out.get(group, 0.0) + child.value
        return out

    # -- exporters -------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-ready dump: one entry per family, one per label set."""
        out: Dict = {"registry": self.name, "metrics": {}}
        for family in self._families.values():
            entries = []
            for key, child in sorted(family.samples()):
                entry: Dict = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry.update({
                        "count": child.count, "sum": child.sum,
                        "p50": child.p50, "p95": child.p95, "p99": child.p99,
                    })
                elif family.kind == "sketch":
                    entry.update(child.summary())
                elif family.kind == "timeseries":
                    entry.update(child.to_dict())
                else:
                    entry["value"] = child.value
                entries.append(entry)
            out["metrics"][family.name] = {
                "type": family.kind, "help": family.help, "samples": entries}
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_csv(self) -> str:
        """One row per labelled sample: ``metric,type,labels,value``."""
        lines = ["metric,type,labels,value"]
        for family in sorted(self._families.values(), key=lambda f: f.name):
            for key, child in sorted(family.samples()):
                labels = format_labels(key).replace('"', '""')
                lines.append(f'{family.name},{family.kind},"{labels}",'
                             f'{child.value:g}')
        return "\n".join(lines) + "\n"

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        def sanitize(name: str) -> str:
            return "".join(c if c.isalnum() or c == "_" else "_"
                           for c in name)

        def label_str(key: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()
                      ) -> str:
            pairs = key + extra
            if not pairs:
                return ""
            body = ",".join(f'{sanitize(k)}="{v}"' for k, v in pairs)
            return "{" + body + "}"

        lines: List[str] = []
        prefix = sanitize(self.name)
        for family in sorted(self._families.values(), key=lambda f: f.name):
            metric = f"{prefix}_{sanitize(family.name)}"
            if family.help:
                lines.append(f"# HELP {metric} {family.help}")
            # sketches export as the Prometheus summary type (quantile
            # labels); windowed series as one gauge sample per window
            kind = {"sketch": "summary",
                    "timeseries": "gauge"}.get(family.kind, family.kind)
            lines.append(f"# TYPE {metric} {kind}")
            for key, child in sorted(family.samples()):
                if family.kind == "sketch":
                    for q in (0.5, 0.95, 0.99):
                        lines.append(
                            f"{metric}"
                            f"{label_str(key, (('quantile', f'{q:g}'),))} "
                            f"{child.percentile(100 * q):g}")
                    lines.append(f"{metric}_sum{label_str(key)} "
                                 f"{child.sum:g}")
                    lines.append(f"{metric}_count{label_str(key)} "
                                 f"{child.count}")
                elif family.kind == "timeseries":
                    for index in child.window_indices():
                        start = index * child.window_us
                        lines.append(
                            f"{metric}"
                            f"{label_str(key, (('window_start_us', f'{start:g}'),))} "
                            f"{child.window(index).mean:g}")
                    lines.append(f"{metric}_count{label_str(key)} "
                                 f"{child.count}")
                elif family.kind == "histogram":
                    cumulative = 0
                    for bound, n in zip(child.buckets, child.bucket_counts):
                        cumulative += n
                        le = "+Inf" if bound == float("inf") else f"{bound:g}"
                        lines.append(f"{metric}_bucket"
                                     f"{label_str(key, (('le', le),))} "
                                     f"{cumulative}")
                    lines.append(f"{metric}_sum{label_str(key)} "
                                 f"{child.sum:g}")
                    lines.append(f"{metric}_count{label_str(key)} "
                                 f"{child.count}")
                else:
                    lines.append(f"{metric}{label_str(key)} {child.value:g}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Process-wide default registry (opt-in, mirroring Tracer's no-op default)
# ---------------------------------------------------------------------------

_DEFAULT: Optional[MetricRegistry] = None


def default_registry() -> Optional[MetricRegistry]:
    """The opt-in process-wide registry, or ``None`` when not enabled.

    Layers that accept ``registry=None`` fall back to this, so a single
    ``enable_default_registry()`` call (e.g. ``repro.report --metrics``)
    turns on metrics collection everywhere without threading a registry
    through every constructor.  Disabled by default: the hot path then
    records nothing.
    """
    return _DEFAULT


def enable_default_registry() -> MetricRegistry:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = MetricRegistry("repro")
    return _DEFAULT


def disable_default_registry() -> None:
    global _DEFAULT
    _DEFAULT = None
