"""Fleet-grade serving telemetry: sketches, series, exemplars.

The serving simulator measures one replica exactly — every latency, in
order, in memory.  A fleet does not have that luxury: telemetry must
leave each replica as *bounded, mergeable aggregates* and still answer
the questions operators actually ask (what is the fleet p99, what did
it look like over time, show me the slowest request).  This module is
that contract, built entirely post-hoc from a finished
:class:`~repro.serving.simulator.ServingReport` so telemetry can never
perturb the simulation it observes:

* **Distributions** → :class:`~repro.obs.sketch.QuantileSketch` per
  signal (latency, each request phase, batch size): fixed memory,
  relative-error quantiles, order-invariant merges.
* **Time series** → :class:`~repro.obs.timeseries.WindowedSeries` for
  request rate, per-window latency quantiles, and queue depth.
* **Tail exemplars** → :class:`~repro.obs.exemplars.ExemplarStore`:
  the exact slowest-k requests plus a seeded priority reservoir, each
  carrying its full phase attribution so
  :func:`emit_exemplar_spans` can reconstruct the *same* request
  waterfall the full tracer would have drawn (PR 3's span trees),
  without tracing every request.
* **Anomalies** → :func:`ServingTelemetry.anomalies` runs the EWMA /
  CUSUM detectors over the windowed signals.

Replica merging is deterministic by construction: sketches and
exemplar stores are fully order-invariant, and series are always
merged in replica-index order, so a report assembled at ``--jobs 4``
is byte-identical to ``--jobs 1`` (the conformance determinism pillar
and the CI telemetry job both assert this).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.critical import record_request_spans, serving_critical_path
from repro.obs.detect import AnomalyReport, detect_series
from repro.obs.exemplars import ExemplarRecord, ExemplarStore
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch
from repro.obs.timeseries import DEFAULT_WINDOW_US, WindowedSeries
from repro.serving.simulator import PHASES, STATUS_NAMES, ServingReport

__all__ = ["ServingTelemetry", "emit_exemplar_spans",
           "PHASES", "SERIES_NAMES"]

#: windowed signals, in canonical export order
SERIES_NAMES = ("requests", "latency_us", "queue_depth")


class ServingTelemetry:
    """Bounded, mergeable telemetry for one or many serving replicas.

    Build per replica with :meth:`from_report`, combine with
    :meth:`merge` (always in replica-index order), export with
    :meth:`to_dict` / :meth:`summary`.
    """

    def __init__(self, window_us: float = DEFAULT_WINDOW_US,
                 relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                 slowest_k: int = 8, reservoir_size: int = 16,
                 seed: int = 0) -> None:
        self.window_us = float(window_us)
        self.relative_accuracy = float(relative_accuracy)
        self.seed = int(seed)
        self.replicas: List[int] = []
        self.latency = QuantileSketch(relative_accuracy)
        self.phases: Dict[str, QuantileSketch] = {
            name: QuantileSketch(relative_accuracy) for name in PHASES}
        self.batch_size = QuantileSketch(relative_accuracy)
        self.series: Dict[str, WindowedSeries] = {
            "requests": WindowedSeries(window_us, name="requests"),
            "latency_us": WindowedSeries(
                window_us, track_quantiles=True,
                relative_accuracy=relative_accuracy, name="latency_us"),
            "queue_depth": WindowedSeries(window_us, name="queue_depth"),
        }
        self.exemplars = ExemplarStore(slowest_k=slowest_k,
                                       reservoir_size=reservoir_size,
                                       seed=seed)
        self.status_counts: Dict[str, int] = {n: 0 for n in STATUS_NAMES}

    # -- construction ----------------------------------------------------
    @classmethod
    def from_report(cls, report: ServingReport, replica: int = 0,
                    window_us: float = DEFAULT_WINDOW_US,
                    relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                    slowest_k: int = 8, reservoir_size: int = 16,
                    seed: int = 0) -> "ServingTelemetry":
        """Derive telemetry from a finished report (never perturbs it).

        Latency-family signals cover *served* requests only, matching
        the report's own percentile convention (an aborted request has
        no meaningful latency); the request-rate series and status
        counts cover every arrival.
        """
        out = cls(window_us=window_us, relative_accuracy=relative_accuracy,
                  slowest_k=slowest_k, reservoir_size=reservoir_size,
                  seed=seed)
        out.replicas = [int(replica)]
        mask = report.served_mask
        lat = report.latencies_us[mask]
        # the latency sketch and the latency series share one keying
        lat_keys = out.latency.bucket_keys(lat)
        out.latency.add_many(lat, lat_keys)
        for name in PHASES:
            out.phases[name].add_many(getattr(report, f"{name}_us")[mask])
        batches = report.batches
        out.batch_size.add_many(batches.size)

        for name, count in report.counts_by_status().items():
            out.status_counts[name] += count

        arrivals = report.arrivals_us
        if arrivals.size:
            out.series["requests"].record_many(arrivals)
            finish = arrivals[mask] + lat
            out.series["latency_us"].record_many(finish, lat, lat_keys)
        out.series["queue_depth"].record_many(batches.dispatch_us,
                                              batches.queue_depth)

        def record_for(r: int) -> ExemplarRecord:
            b = int(report.batch_index[r])
            return ExemplarRecord(
                replica=int(replica), request_id=r,
                arrival_us=float(arrivals[r]),
                latency_us=float(report.latencies_us[r]),
                queue_wait_us=float(report.queue_wait_us[r]),
                batch_wait_us=float(report.batch_wait_us[r]),
                execute_us=float(report.execute_us[r]),
                batch_index=b,
                batch_size=int(batches.size[b]),
                status=STATUS_NAMES[int(report.status[r])],
                retry_overhead_us=float(report.retry_overhead_us[r]))

        out.exemplars.offer_many(replica, np.flatnonzero(mask), lat,
                                 record_for)
        return out

    # -- merging ---------------------------------------------------------
    def merge(self, other: "ServingTelemetry") -> "ServingTelemetry":
        """Fold another replica's telemetry in (in place; returns self).

        Sketches and exemplars are order-invariant; series sums are
        floats, so callers must merge replicas in index order for
        byte-identical output (``merge_all`` does).
        """
        if other.window_us != self.window_us:
            raise ValueError("cannot merge telemetry with different "
                             f"windows: {self.window_us} vs "
                             f"{other.window_us}")
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError("cannot merge telemetry with different "
                             "relative_accuracy")
        self.replicas = sorted(set(self.replicas) | set(other.replicas))
        self.latency.merge(other.latency)
        for name in PHASES:
            self.phases[name].merge(other.phases[name])
        self.batch_size.merge(other.batch_size)
        for name in SERIES_NAMES:
            self.series[name].merge(other.series[name])
        self.exemplars.merge(other.exemplars)
        for name, count in other.status_counts.items():
            self.status_counts[name] = self.status_counts.get(name, 0) + count
        return self

    @classmethod
    def merge_all(cls, parts: Sequence["ServingTelemetry"]
                  ) -> "ServingTelemetry":
        """Merge per-replica telemetry in replica-index order.

        Folds every part, in that order, into a fresh empty telemetry
        with the first part's windows, accuracy and exemplar settings:
        each merge copies what it takes in, so the result is a new
        object and no part is modified.
        """
        if not parts:
            raise ValueError("nothing to merge")
        ordered = sorted(parts, key=lambda t: min(t.replicas or [0]))
        head = ordered[0]
        out = cls(window_us=head.window_us,
                  relative_accuracy=head.relative_accuracy,
                  slowest_k=head.exemplars.slowest_k,
                  reservoir_size=head.exemplars.reservoir_size,
                  seed=head.seed)
        for part in ordered:
            out.merge(part)
        return out

    # -- queries ---------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return sum(self.status_counts.values())

    def anomalies(self, stats: Sequence[Tuple[str, str]] = (
            ("requests", "rate"), ("latency_us", "p99"),
            ("queue_depth", "mean"))) -> List[AnomalyReport]:
        """Detector sweep over the windowed signals.

        Each ``(series, stat)`` pair is fed through the EWMA and CUSUM
        detectors; the report list is in argument order (deterministic).
        """
        out: List[AnomalyReport] = []
        for series_name, stat in stats:
            series = self.series[series_name]
            report = detect_series(series, stat)
            report.stat = f"{series_name}.{stat}"
            out.append(report)
        return out

    def sketch_vs_exact(self, report: ServingReport) -> Dict[str, Dict]:
        """Sketch error vs the exact percentiles of one report.

        The observability bargain made explicit: for each headline
        quantile, the sketch estimate, the exact value, and the
        relative delta (which must stay within ``relative_accuracy``).
        """
        lat = report.latencies_us[report.served_mask]
        out: Dict[str, Dict] = {}
        for q in (50.0, 95.0, 99.0):
            exact = float(np.percentile(lat, q)) if lat.size else 0.0
            est = self.latency.percentile(q)
            rel = abs(est - exact) / exact if exact else 0.0
            out[f"p{q:g}"] = {"sketch": est, "exact": exact,
                              "relative_error": rel}
        return out

    # -- export ----------------------------------------------------------
    def record_into(self, registry) -> None:
        """Mirror the telemetry into a metric registry.

        Gives the Prometheus/JSON exporters the sketch and series
        instruments alongside the exact histograms the simulator
        already records.
        """
        registry.sketch(
            "serving_latency_sketch_us",
            "request latency, bounded-memory quantile sketch",
            relative_accuracy=self.relative_accuracy,
        ).labels().merge(self.latency)
        for name in PHASES:
            if self.phases[name].count:
                registry.sketch(
                    "serving_phase_sketch_us",
                    "per-phase latency, quantile sketch",
                    relative_accuracy=self.relative_accuracy,
                ).labels(phase=name).merge(self.phases[name])
        registry.timeseries(
            "serving_request_rate",
            "request arrivals per window",
            window_us=self.window_us,
        ).labels().merge(self.series["requests"])

    def to_dict(self, include_state: bool = False,
                max_windows: int = 64) -> Dict:
        """Canonical JSON-ready dump (keys and ordering are stable).

        ``include_state`` adds the full sketch key maps (what replicas
        would actually ship); the default keeps report JSON compact.
        ``max_windows`` resamples each series to a bounded render.
        """
        phases = {}
        for name in PHASES:
            sketch = self.phases[name]
            if sketch.count:
                phases[name] = sketch.summary()
        series = {}
        for name in SERIES_NAMES:
            series[name] = self.series[name].resampled(max_windows).to_dict()
        out: Dict = {
            "window_us": self.window_us,
            "relative_accuracy": self.relative_accuracy,
            "replicas": list(self.replicas),
            "num_requests": self.num_requests,
            "status_counts": {n: self.status_counts[n]
                              for n in STATUS_NAMES},
            "latency": self.latency.summary(),
            "phases": phases,
            "batch_size": self.batch_size.summary(),
            "series": series,
            "exemplars": self.exemplars.to_dict(),
            "anomalies": [r.to_dict() for r in self.anomalies()],
        }
        if include_state:
            out["latency_state"] = self.latency.to_dict()
            out["phase_state"] = {
                name: self.phases[name].to_dict() for name in PHASES
                if self.phases[name].count}
        return out

    def summary(self) -> Dict:
        """Headline numbers for text reports."""
        anomalous = [r.stat for r in self.anomalies() if r.anomalous]
        return {"num_requests": self.num_requests,
                "replicas": len(self.replicas),
                "latency": self.latency.summary(),
                "sketch_buckets": self.latency.num_buckets,
                "slowest": [r.to_dict() for r in self.exemplars.slowest],
                "anomalous_signals": anomalous}

    def to_text(self) -> str:
        lines = [
            f"telemetry: {self.num_requests} requests across "
            f"{len(self.replicas)} replica(s)",
            f"  latency sketch (alpha={self.relative_accuracy:g}, "
            f"{self.latency.num_buckets} buckets): "
            f"p50={self.latency.p50:.1f}us  p95={self.latency.p95:.1f}us  "
            f"p99={self.latency.p99:.1f}us",
        ]
        for name in PHASES:
            sketch = self.phases[name]
            if sketch.count:
                lines.append(f"  {name}: mean={sketch.mean:.1f}us "
                             f"p99={sketch.p99:.1f}us")
        lines.append("  slowest requests:")
        for record in self.exemplars.slowest:
            lines.append(
                f"    replica {record.replica} req {record.request_id}: "
                f"{record.latency_us:.1f}us (queue {record.queue_wait_us:.1f}"
                f" + batch {record.batch_wait_us:.1f}"
                f" + exec {record.execute_us:.1f})")
        for report in self.anomalies():
            lines.append("  " + report.to_text().split("\n")[0])
        return "\n".join(lines)


def emit_exemplar_spans(report: ServingReport,
                        request_ids: Iterable[int],
                        spans) -> List[int]:
    """Draw request-waterfall span trees for chosen served requests.

    The engine records no spans; each request's waterfall is its
    verified :func:`~repro.obs.critical.serving_critical_path`, drawn by
    :func:`~repro.obs.critical.record_request_spans` as a ``req{r}`` span
    on track ``request.{r}`` whose phase children tile its latency, with
    a flow arrow into its batch's device span on ``serving.device``.
    Tail-biased tracing is therefore honest: the slowest-k exemplars
    get the same waterfall a full trace would draw.  Ids that are out
    of range or were not served are skipped; returns the ids drawn
    (sorted).
    """
    if spans is None or not spans.enabled:
        return []
    by_batch: Dict[int, List[int]] = {}
    for r in sorted(set(int(r) for r in request_ids)):
        if r < 0 or r >= report.latencies_us.size:
            continue
        b = int(report.batch_index[r])
        if not 0 <= b < len(report.batches):
            continue
        by_batch.setdefault(b, []).append(r)
    for b in sorted(by_batch):
        batch = report.batches[b]
        flow_ids = [spans.link(record_request_spans(
            spans, serving_critical_path(report, r), f"request.{r}",
            f"req{r}", "serving.requests", batch=b, batch_size=batch.size))
            for r in by_batch[b]]
        spans.record("serving.device", f"batch{b}", batch.dispatch_us,
                     batch.finish_us, pid="serving", size=batch.size,
                     flow_in=tuple(flow_ids))
    return sorted(r for rs in by_batch.values() for r in rs)
