"""Unified observability: metrics registry, stall attribution, profiler.

Three layers, all opt-in and free when disabled:

- :mod:`repro.obs.metrics` — typed Counter/Gauge/Histogram instruments
  with hierarchical labels, roll-up, and JSON/CSV/Prometheus export.
- :mod:`repro.obs.observer` — the engine-attached sink that attributes
  every idle cycle on a track to a named cause (``cb_element_wait``,
  ``dep_interlock``, ``noc_link_arb``, ``dram_queue``, ...).
- :mod:`repro.obs.profiler` — wraps one simulated run and emits a
  bottleneck report: per-track compute/memory/stall split, achieved vs
  roofline bandwidth, top-N slowest tracks.
- :mod:`repro.obs.sketch` — mergeable relative-error quantile sketches
  (bounded memory, order-invariant merges, deterministic bytes).
- :mod:`repro.obs.timeseries` — fixed-size windowed series for rates,
  gauges, and percentile-over-time, with aligned downsampling.
- :mod:`repro.obs.exemplars` — tail-biased exemplar retention: exact
  slowest-k plus a seeded, merge-invariant priority reservoir.
- :mod:`repro.obs.detect` — EWMA spike/drop detection and CUSUM
  changepoints over windowed telemetry, wired to the SLO burn signal.
- :mod:`repro.obs.critical` — causal dependency-edge recording in the
  DES engine and exact critical-path extraction (DES runs, serving
  requests, fleet requests with hedged copies).
- :mod:`repro.obs.whatif` — Coz-style what-if projection: virtually
  scale a resource on the recorded event graph and predict the
  end-to-end delta, validated against true re-simulation.
- :mod:`repro.obs.cli` — the flags the ``python -m repro.*`` CLIs share,
  each validated once, and their one report writer.
"""

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricFamily,
    MetricRegistry,
    default_registry,
    disable_default_registry,
    enable_default_registry,
    format_labels,
)
from repro.obs.observer import Observer, STALL_CAUSES
from repro.obs.profiler import (
    BandwidthProfile,
    BottleneckReport,
    OperationProfile,
    Profiler,
    TrackProfile,
)
from repro.obs.critical import (CriticalPath, CriticalPathError,
                                EdgeRecorder, Segment, classify_label,
                                extract_critical_path,
                                fleet_critical_path,
                                serving_critical_path,
                                slowest_critical_paths)
from repro.obs.detect import (Anomaly, AnomalyReport, EWMADetector,
                              burn_anomalies, cusum_changepoints,
                              detect_series)
from repro.obs.whatif import (RESOURCE_SCALINGS, WhatIfProjection,
                              project_whatif, scaled_chip_config)
from repro.obs.exemplars import ExemplarRecord, ExemplarStore
from repro.obs.sketch import QuantileSketch
from repro.obs.timeseries import WindowedSeries, WindowStats

__all__ = [
    "Anomaly",
    "AnomalyReport",
    "CriticalPath",
    "CriticalPathError",
    "EdgeRecorder",
    "EWMADetector",
    "RESOURCE_SCALINGS",
    "Segment",
    "WhatIfProjection",
    "classify_label",
    "extract_critical_path",
    "fleet_critical_path",
    "project_whatif",
    "scaled_chip_config",
    "serving_critical_path",
    "slowest_critical_paths",
    "ExemplarRecord",
    "ExemplarStore",
    "QuantileSketch",
    "WindowStats",
    "WindowedSeries",
    "burn_anomalies",
    "cusum_changepoints",
    "detect_series",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricRegistry",
    "default_registry",
    "disable_default_registry",
    "enable_default_registry",
    "format_labels",
    "Observer",
    "STALL_CAUSES",
    "BandwidthProfile",
    "BottleneckReport",
    "OperationProfile",
    "Profiler",
    "TrackProfile",
]
