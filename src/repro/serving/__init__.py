"""Serving-level simulation: requests, batching, SLAs, capacity.

The paper's motivation is datacenter economics — perf/TCO of *serving*
recommendation requests (Sections 1-2).  This package closes the loop
from the operator-level models back to that context:

* :mod:`repro.serving.simulator` — the one request-level serving
  engine, :func:`~repro.serving.simulator.simulate_serving`: Poisson
  or injected arrivals, a batching window, per-batch latency from the
  analytical model, latency percentiles and throughput, an exact
  per-request retry / batch-formation / queue / execute attribution,
  optional request-waterfall span tracing, and the failure handling a
  :class:`~repro.serving.resilience.ResilienceConfig` switches on;
* :mod:`repro.serving.resilience` — the failure-handling knobs:
  per-attempt deadlines, capped-backoff retries, hedged dispatch, load
  shedding, and card failover driven by :mod:`repro.faults`;
* :mod:`repro.serving.slo` — rolling p50/p95/p99 windows and
  error-budget burn against an SLA (aborted requests burn budget but
  never enter the percentile stream);
* :mod:`repro.serving.tail` — differential tail attribution: the
  phase / operator / stall-cause mix of ≥p99 requests contrasted with
  median requests;
* :mod:`repro.serving.traffic` — seeded synthetic traffic at
  millions-of-users scale: diurnal rate curves, bursts and flash
  crowds turned into deterministic arrival vectors;
* :mod:`repro.serving.fleet` — the datacenter tier: a router with
  pluggable seeded policies (round-robin, least-loaded, power-of-two,
  hedging) in front of N replicated multi-card replicas, each an
  independent :func:`~repro.serving.simulator.simulate_serving` run,
  with correlated rack/power failures;
* :mod:`repro.serving.capacity` — fleet sizing: closed-form per-card
  throughput (:func:`~repro.serving.capacity.plan_capacity`) and the
  simulated minimum-replica answer
  (:func:`~repro.serving.capacity.plan_fleet_capacity`), the quantity
  behind Figure 2's server-count curves;
* :mod:`repro.serving.telemetry` — fleet-grade bounded telemetry:
  mergeable quantile sketches, windowed time series, tail-biased
  exemplars with post-hoc span reconstruction, and anomaly detection,
  all derived from finished reports so observation never perturbs the
  simulation.

``python -m repro.serve_report`` drives the whole stack (``--fleet``
for the datacenter tier) and exports text/JSON reports or a merged
Chrome trace (request waterfall down to cycle-level unit activity).
"""

from repro.serving.capacity import (CapacityPlan, FleetCapacityPlan,
                                    plan_capacity, plan_fleet_capacity)
from repro.serving.fleet import (ROUTING_POLICIES, FleetConfig,
                                 FleetReport, ObservedLatencyFeed,
                                 ReplicaSpec, RouterConfig,
                                 TabularLatencyModel, simulate_fleet,
                                 uniform_fleet)
from repro.serving.resilience import ResilienceConfig
from repro.serving.simulator import (STATUS_FAILED, STATUS_NAMES,
                                     STATUS_SERVED, STATUS_SHED,
                                     STATUS_TIMEOUT, BatchingConfig,
                                     BatchRecord, BatchLatencyModel,
                                     BatchTable,
                                     ServingReport, simulate_serving)
from repro.serving.slo import (SLOMonitor, SLOSummary, SLOWindow,
                               slo_from_report)
from repro.serving.tail import TailAttribution, attribute_tail
from repro.serving.telemetry import ServingTelemetry, emit_exemplar_spans
from repro.serving.traffic import TRACES, Burst, TrafficTrace, trace_preset

__all__ = [
    "BatchingConfig",
    "BatchLatencyModel",
    "BatchRecord",
    "BatchTable",
    "Burst",
    "CapacityPlan",
    "FleetCapacityPlan",
    "FleetConfig",
    "FleetReport",
    "ObservedLatencyFeed",
    "ROUTING_POLICIES",
    "ReplicaSpec",
    "ResilienceConfig",
    "RouterConfig",
    "SLOMonitor",
    "SLOSummary",
    "SLOWindow",
    "STATUS_FAILED",
    "STATUS_NAMES",
    "STATUS_SERVED",
    "STATUS_SHED",
    "STATUS_TIMEOUT",
    "ServingReport",
    "ServingTelemetry",
    "TRACES",
    "TabularLatencyModel",
    "TailAttribution",
    "TrafficTrace",
    "attribute_tail",
    "emit_exemplar_spans",
    "plan_capacity",
    "plan_fleet_capacity",
    "simulate_fleet",
    "simulate_serving",
    "slo_from_report",
    "trace_preset",
    "uniform_fleet",
]
