"""SLO monitoring: rolling latency percentiles and error-budget burn.

Production serving is judged against a *service-level objective* — e.g.
"99.9 % of requests complete within 2 ms".  This module turns one
:class:`~repro.serving.simulator.ServingReport` into the operator's
view of that objective:

* **rolling windows** — p50/p95/p99 and the violation rate per
  fixed-width time window (so a transient queue blow-up is visible as a
  spike, not averaged away);
* **error budget** — the allowed violation fraction is
  ``1 - availability_target``; the *burn rate* is the observed
  violation fraction divided by that allowance.  Burn 1.0 means the
  budget is being consumed exactly as provisioned; above 1.0 the
  service is eating future budget (page someone); far below 1.0 the
  SLA has slack the batcher could trade for utilisation — the paper's
  Section 6.1 latency/batch-size tension, quantified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass
class SLOWindow:
    """Latency statistics for one rolling time window."""

    start_us: float
    end_us: float
    count: int
    p50_us: float
    p95_us: float
    p99_us: float
    violations: int

    @property
    def violation_rate(self) -> float:
        return self.violations / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        return {"start_us": self.start_us, "end_us": self.end_us,
                "count": self.count, "p50_us": self.p50_us,
                "p95_us": self.p95_us, "p99_us": self.p99_us,
                "violations": self.violations,
                "violation_rate": self.violation_rate}


@dataclass
class SLOSummary:
    """One run's standing against its SLO."""

    sla_us: float
    availability_target: float
    total: int
    violations: int
    burn_rate: float
    windows: List[SLOWindow] = field(default_factory=list)
    #: aborted requests (shed/timeout/failed); always SLO violations,
    #: never latency samples
    aborted: int = 0

    @property
    def violation_rate(self) -> float:
        return self.violations / self.total if self.total else 0.0

    @property
    def budget_remaining(self) -> float:
        """Fraction of the error budget left (can go negative)."""
        return 1.0 - self.burn_rate

    @property
    def peak_window_burn(self) -> float:
        allowed = 1.0 - self.availability_target
        if allowed <= 0 or not self.windows:
            return 0.0
        return max(w.violation_rate for w in self.windows) / allowed

    def to_dict(self) -> Dict:
        return {"sla_us": self.sla_us,
                "availability_target": self.availability_target,
                "total": self.total,
                "violations": self.violations,
                "aborted": self.aborted,
                "violation_rate": self.violation_rate,
                "burn_rate": self.burn_rate,
                "budget_remaining": self.budget_remaining,
                "peak_window_burn": self.peak_window_burn,
                "windows": [w.to_dict() for w in self.windows]}


class SLOMonitor:
    """Streams (finish_time, latency) pairs into rolling SLO windows."""

    def __init__(self, sla_us: float, availability_target: float = 0.999,
                 window_us: float = 50_000.0) -> None:
        if not 0.0 < availability_target < 1.0:
            raise ValueError("availability_target must be in (0, 1)")
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.sla_us = sla_us
        self.availability_target = availability_target
        self.window_us = window_us
        self._finish: List[float] = []
        self._latency: List[float] = []
        self._aborts: List[float] = []

    def observe(self, finish_us: float, latency_us: float) -> None:
        self._finish.append(float(finish_us))
        self._latency.append(float(latency_us))

    def observe_aborted(self, abort_us: float) -> None:
        """Record one aborted (shed/timeout/failed) request.

        Aborts always violate the SLO — the caller never got an answer —
        but they contribute no latency sample: folding give-up times
        into the percentile stream would let shedding *improve* p99.
        """
        self._aborts.append(float(abort_us))

    def observe_report(self, report) -> None:
        """Ingest every request of a ServingReport (aborts included)."""
        arrivals = np.asarray(report.arrivals_us)
        latencies = np.asarray(report.latencies_us)
        finish = arrivals + latencies
        mask = report.served_mask
        self._finish.extend(finish[mask].tolist())
        self._latency.extend(latencies[mask].tolist())
        aborts = np.asarray(report.abort_us)[~mask]
        self._aborts.extend(aborts[np.isfinite(aborts)].tolist())

    # -- queries -----------------------------------------------------------
    def windows(self) -> List[SLOWindow]:
        if not self._finish and not self._aborts:
            return []
        finish = np.asarray(self._finish)
        latency = np.asarray(self._latency)
        order = np.argsort(finish, kind="stable")
        finish, latency = finish[order], latency[order]
        aborts = np.sort(np.asarray(self._aborts))
        if finish.size:
            t0 = float(finish[0])
            t1 = float(finish[-1])
        else:
            t0, t1 = float(aborts[0]), float(aborts[-1])
        if aborts.size:
            t0 = min(t0, float(aborts[0]))
            t1 = max(t1, float(aborts[-1]))
        out: List[SLOWindow] = []
        edges = np.arange(t0, t1 + self.window_us, self.window_us)
        for start in edges:
            end = start + self.window_us
            lo = np.searchsorted(finish, start, side="left")
            hi = np.searchsorted(finish, end, side="left")
            chunk = latency[lo:hi]
            alo = np.searchsorted(aborts, start, side="left")
            ahi = np.searchsorted(aborts, end, side="left")
            n_aborts = int(ahi - alo)
            if chunk.size == 0 and n_aborts == 0:
                continue
            # aborts count (as violations) but never enter percentiles
            nan = float("nan")
            out.append(SLOWindow(
                start_us=float(start), end_us=float(end),
                count=int(chunk.size) + n_aborts,
                p50_us=float(np.percentile(chunk, 50))
                if chunk.size else nan,
                p95_us=float(np.percentile(chunk, 95))
                if chunk.size else nan,
                p99_us=float(np.percentile(chunk, 99))
                if chunk.size else nan,
                violations=int((chunk > self.sla_us).sum()) + n_aborts))
        return out

    def summary(self) -> SLOSummary:
        latency = np.asarray(self._latency)
        aborted = len(self._aborts)
        total = int(latency.size) + aborted
        violations = int((latency > self.sla_us).sum()) + aborted
        allowed = 1.0 - self.availability_target
        rate = violations / total if total else 0.0
        return SLOSummary(
            sla_us=self.sla_us,
            availability_target=self.availability_target,
            total=total,
            violations=violations,
            burn_rate=rate / allowed if allowed > 0 else 0.0,
            windows=self.windows(),
            aborted=aborted)


def slo_from_report(report, sla_us: float,
                    availability_target: float = 0.999,
                    window_us: float = 50_000.0) -> SLOSummary:
    """One-shot: SLO summary for a finished serving run."""
    monitor = SLOMonitor(sla_us, availability_target, window_us)
    monitor.observe_report(report)
    return monitor.summary()
