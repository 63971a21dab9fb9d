"""Differential tail-latency attribution: why p99 ≠ p50.

Aggregate percentiles say *that* a tail exists; capacity decisions need
to know *why*.  This module contrasts the requests at or beyond a tail
percentile against the requests around the median, along three axes:

* **phase mix** — queue-wait vs batch-formation-wait vs execute vs
  retry-overhead microseconds (the serving simulator's exact
  per-request attribution, averaged by ``breakdown_means``).  A tail
  dominated by ``queue_wait`` is head-of-line blocking (shrink batches
  or add cards); a ``batch_wait`` tail is the batching window itself
  (shrink ``max_wait_us``); an ``execute`` tail is big-batch
  amortisation pricing in (the paper's Section 6.1 tension).
* **operator-category mix** — what the batches serving tail requests
  actually executed, from the cached per-batch-size
  :class:`~repro.eval.opmodel.GraphEstimate` breakdowns.
* **stall-cause mix** (optional) — cycle-level stall attribution of a
  tail-exemplar vs a median-exemplar simulated execution, when the
  caller profiled them (see ``python -m repro.serve_report``).

Every axis reports tail, median, and delta so the answer reads as a
diff, not two tables to eyeball.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


def _mix_delta(tail: Dict[str, float],
               median: Dict[str, float]) -> Dict[str, float]:
    keys = sorted(set(tail) | set(median))
    return {k: tail.get(k, 0.0) - median.get(k, 0.0) for k in keys}


@dataclass
class TailAttribution:
    """Tail vs median contrast for one serving run."""

    tail_q: float
    tail_threshold_us: float
    median_band: tuple            #: (lo percentile, hi percentile)
    tail_requests: int
    median_requests: int
    #: mean microseconds per phase
    phase_us: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: mean batch size each cohort was served in
    batch_size: Dict[str, float] = field(default_factory=dict)
    #: operator-category time fractions (when a latency model with
    #: per-batch estimates was supplied)
    category_mix: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: cycle-level stall-cause fractions (when exemplars were profiled)
    stall_mix: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: batch indices of the exemplar tail / median batches
    exemplar_batches: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "tail_q": self.tail_q,
            "tail_threshold_us": self.tail_threshold_us,
            "median_band": list(self.median_band),
            "tail_requests": self.tail_requests,
            "median_requests": self.median_requests,
            "phase_us": self.phase_us,
            "batch_size": self.batch_size,
            "category_mix": self.category_mix,
            "stall_mix": self.stall_mix,
            "exemplar_batches": self.exemplar_batches,
        }

    def to_text(self) -> str:
        lines = [
            f"tail (>= p{self.tail_q:g} = {self.tail_threshold_us:.0f} us, "
            f"n={self.tail_requests}) vs median "
            f"(p{self.median_band[0]:g}-p{self.median_band[1]:g}, "
            f"n={self.median_requests})",
            "",
            f"  {'phase':<16}{'tail us':>10}{'median us':>11}{'delta':>10}",
        ]
        for phase, t in self.phase_us.get("tail", {}).items():
            m = self.phase_us["median"][phase]
            lines.append(f"  {phase:<16}{t:>10.1f}{m:>11.1f}{t - m:>10.1f}")
        if self.batch_size:
            lines.append(
                f"  {'batch size':<16}"
                f"{self.batch_size.get('tail', 0):>10.1f}"
                f"{self.batch_size.get('median', 0):>11.1f}"
                f"{self.batch_size.get('tail', 0) - self.batch_size.get('median', 0):>10.1f}")
        if self.category_mix:
            lines.append("")
            lines.append(f"  {'op category':<12}{'tail %':>10}"
                         f"{'median %':>11}{'delta':>10}")
            delta = self.category_mix.get("delta", {})
            for cat in sorted(delta, key=lambda c: -abs(delta[c])):
                t = 100 * self.category_mix["tail"].get(cat, 0.0)
                m = 100 * self.category_mix["median"].get(cat, 0.0)
                lines.append(f"  {cat:<12}{t:>10.1f}{m:>11.1f}{t - m:>10.1f}")
        if self.stall_mix:
            lines.append("")
            lines.append(f"  {'stall cause':<18}{'tail %':>8}"
                         f"{'median %':>10}{'delta':>8}")
            delta = self.stall_mix.get("delta", {})
            for cause in sorted(delta, key=lambda c: -abs(delta[c])):
                t = 100 * self.stall_mix["tail"].get(cause, 0.0)
                m = 100 * self.stall_mix["median"].get(cause, 0.0)
                lines.append(f"  {cause:<18}{t:>8.1f}{m:>10.1f}"
                             f"{t - m:>8.1f}")
        return "\n".join(lines)


def _cohort_category_mix(report, idx: np.ndarray, latency_model,
                         fractions: Dict[int, Dict[str, float]]
                         ) -> Dict[str, float]:
    """Request-weighted operator-category mix for one cohort.

    ``fractions`` memoises ``latency_model.category_fractions`` by batch
    size across cohorts, so each distinct size is asked for once; the
    sum still runs request by request, in cohort order.
    """
    mix: Dict[str, float] = {}
    for batch in report.batches.size[report.batch_index[idx]].tolist():
        if batch not in fractions:
            fractions[batch] = latency_model.category_fractions(batch)
        for cat, frac in fractions[batch].items():
            mix[cat] = mix.get(cat, 0.0) + frac
    total = sum(mix.values())
    if total > 0:
        mix = {k: v / total for k, v in mix.items()}
    return mix


def attribute_tail(report, latency_model=None, tail_q: float = 99.0,
                   median_band=(25.0, 75.0),
                   stall_mix: Optional[Dict[str, Dict[str, float]]] = None
                   ) -> TailAttribution:
    """Contrast tail (≥ ``tail_q``) requests against the median band.

    ``latency_model`` may be a
    :class:`~repro.serving.simulator.BatchLatencyModel` (or anything
    with ``category_fractions(batch)``); without it the operator-mix
    axis is omitted.  ``stall_mix`` is an optional precomputed
    ``{"tail": {...}, "median": {...}}`` of stall-cause fractions from
    exemplar cycle-level profiles.

    Cohorts, percentiles and exemplars cover served requests only, as
    the report's own percentiles do: an aborted request has no batch
    and no meaningful latency.
    """
    served = np.flatnonzero(report.served_mask)
    latency = report.latencies_us[served]
    if latency.size == 0:
        return TailAttribution(tail_q=tail_q, tail_threshold_us=float("nan"),
                               median_band=tuple(median_band),
                               tail_requests=0, median_requests=0)
    threshold = float(np.percentile(latency, tail_q))
    lo = float(np.percentile(latency, median_band[0]))
    hi = float(np.percentile(latency, median_band[1]))
    tail_idx = served[latency >= threshold]
    median_idx = served[(latency >= lo) & (latency <= hi)]

    def mean_batch(idx: np.ndarray) -> float:
        if idx.size == 0:
            return 0.0
        return float(report.batches.size[report.batch_index[idx]].mean())

    tail_phases = report.breakdown_means(tail_idx)
    median_phases = report.breakdown_means(median_idx)
    result = TailAttribution(
        tail_q=tail_q,
        tail_threshold_us=threshold,
        median_band=tuple(median_band),
        tail_requests=int(tail_idx.size),
        median_requests=int(median_idx.size),
        phase_us={"tail": tail_phases, "median": median_phases,
                  "delta": _mix_delta(tail_phases, median_phases)},
        batch_size={"tail": mean_batch(tail_idx),
                    "median": mean_batch(median_idx)},
    )
    if latency_model is not None and hasattr(latency_model,
                                             "category_fractions"):
        fractions: Dict[int, Dict[str, float]] = {}
        tail_mix = _cohort_category_mix(report, tail_idx, latency_model,
                                        fractions)
        median_mix = _cohort_category_mix(report, median_idx, latency_model,
                                          fractions)
        result.category_mix = {"tail": tail_mix, "median": median_mix,
                               "delta": _mix_delta(tail_mix, median_mix)}
    if stall_mix:
        tail_s = stall_mix.get("tail", {})
        median_s = stall_mix.get("median", {})
        result.stall_mix = {"tail": tail_s, "median": median_s,
                            "delta": _mix_delta(tail_s, median_s)}
    # Exemplars: the batch serving the worst request, and the batch
    # serving the request closest to p50 — the pair a cycle-level
    # profile should contrast.
    worst = served[np.argmax(latency)]
    p50 = float(np.percentile(latency, 50))
    nearest = served[np.argmin(np.abs(latency - p50))]
    result.exemplar_batches = {
        "tail": int(report.batch_index[worst]),
        "median": int(report.batch_index[nearest]),
    }
    return result
