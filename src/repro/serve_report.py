"""``python -m repro.serve_report`` — request-level serving observability.

Runs one serving workload (a DLRM from the model zoo behind the
batching front end) and answers the question the aggregate percentiles
cannot: *why did the p99 request land at p99?*  The report contains

* the per-request queue-wait / batch-formation-wait / execute breakdown
  (each request's latency attributed exactly);
* queue-depth and batch-occupancy time series;
* an SLO monitor: rolling p50/p95/p99 windows and error-budget burn
  against the SLA;
* a **differential tail attribution**: the phase, operator-category and
  stall-cause mix of tail (≥ p99) requests contrasted with median
  requests, with a tail-exemplar and a median-exemplar batch profiled
  on the cycle-level simulator.

Usage::

    python -m repro.serve_report                      # quickstart, text
    python -m repro.serve_report quickstart --json    # machine-readable
    python -m repro.serve_report lc2 --qps 40000 --sla-us 1500
    python -m repro.serve_report quickstart --chrome -o serve.trace.json

``--chrome`` writes one merged Perfetto/Chrome trace: request
waterfalls flow-link to their batch's device span, the batch span to
its modelled per-op execution, and the exemplar batches to real
cycle-level DPE/NoC/DRAM spans from the discrete-event simulator.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.serving.simulator import (BatchingConfig, BatchLatencyModel,
                                     ServingReport, simulate_serving)
from repro.serving.slo import SLOSummary, slo_from_report
from repro.serving.tail import TailAttribution, attribute_tail
from repro.serving.telemetry import ServingTelemetry, emit_exemplar_spans

SCHEMA_VERSION = 1

#: Named serving workloads: model-zoo entry + default operating point.
WORKLOADS: Dict[str, Dict] = {
    # Small FC-dominated model at moderate load — fast enough for CI.
    "quickstart": {"model": "LC2", "qps": 10_000.0, "sla_us": 2_000.0,
                   "num_requests": 4000},
    "lc2": {"model": "LC2", "qps": 50_000.0, "sla_us": 2_000.0,
            "num_requests": 6000},
    "mc1": {"model": "MC1", "qps": 2_000.0, "sla_us": 10_000.0,
            "num_requests": 3000},
}


@dataclass
class ServeReport:
    """Everything one serving-observability run produced."""

    workload: str
    model: str
    machine: str
    qps: float
    sla_us: float
    num_requests: int
    seed: int
    batching: BatchingConfig
    serving: ServingReport
    slo: SLOSummary
    tail: TailAttribution
    max_request_rows: int = 100
    #: merged fleet telemetry (replica 0 = the fully-reported run above,
    #: replicas 1..R-1 contribute bounded aggregates only)
    telemetry: Optional[ServingTelemetry] = None
    #: sketch-vs-exact percentile deltas for replica 0 (the only replica
    #: whose raw samples exist in-process to compare against)
    sketch_vs_exact: Optional[Dict] = None
    replicas: int = 1

    def to_dict(self) -> Dict:
        max_batch = self.batching.max_batch
        rows = self.serving.request_rows(
            self.max_request_rows if self.max_request_rows > 0 else None)
        return {
            "schema_version": SCHEMA_VERSION,
            "workload": self.workload,
            "model": self.model,
            "machine": self.machine,
            "qps": self.qps,
            "sla_us": self.sla_us,
            "num_requests": self.num_requests,
            "seed": self.seed,
            "batching": {"max_batch": max_batch,
                         "max_wait_us": self.batching.max_wait_us},
            "throughput": {
                "qps_offered": self.serving.qps_offered,
                "qps_served": self.serving.qps_served,
                "busy_fraction": self.serving.busy_fraction,
                "mean_batch": self.serving.mean_batch,
                "batches": len(self.serving.batches),
            },
            "latency_us": {
                "p50": self.serving.percentile(50),
                "p95": self.serving.percentile(95),
                "p99": self.serving.percentile(99),
                "mean": float(self.serving.latencies_us.mean())
                if self.serving.latencies_us.size else 0.0,
            },
            "breakdown_us": self.serving.breakdown_means(),
            "queue_depth": self.serving.queue_depth_series(),
            "batch_occupancy":
                self.serving.batch_occupancy_series(max_batch),
            "requests": rows,
            "request_rows_included": len(rows),
            "slo": self.slo.to_dict(),
            "tail_attribution": self.tail.to_dict(),
            "replicas": self.replicas,
            "telemetry": (self.telemetry.to_dict()
                          if self.telemetry is not None else None),
            "sketch_vs_exact": self.sketch_vs_exact,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        s = self.serving
        breakdown = s.breakdown_means()
        lines = [
            f"serve report — {self.workload} ({self.model} on "
            f"{self.machine}, {self.qps:g} QPS offered)",
            f"requests: {self.num_requests}  batches: {len(s.batches)}  "
            f"mean batch: {s.mean_batch:.1f}  "
            f"busy: {100 * s.busy_fraction:.1f} %",
            "",
            "== latency ==",
            f"  p50 {s.percentile(50):8.1f} us   p95 "
            f"{s.percentile(95):8.1f} us   p99 {s.percentile(99):8.1f} us",
            "",
            "== mean request breakdown (the phases sum to latency) ==",
        ]
        for phase, mean_us in breakdown.items():
            lines.append(f"  {phase:<16}{mean_us:10.1f} us")
        lines.append("")
        lines.append(f"== SLO (p.. <= {self.sla_us:g} us at "
                     f"{100 * self.slo.availability_target:g} % "
                     "availability) ==")
        lines.append(f"  violations: {self.slo.violations}/"
                     f"{self.slo.total}  "
                     f"burn rate: {self.slo.burn_rate:.2f}  "
                     f"peak window burn: {self.slo.peak_window_burn:.2f}")
        depth = s.queue_depth_series()["depth"]
        if depth:
            lines.append(f"  queue depth: mean "
                         f"{sum(depth) / len(depth):.1f}  max "
                         f"{max(depth):.0f}")
        lines.append("")
        lines.append("== differential tail attribution ==")
        lines.append(self.tail.to_text())
        if self.telemetry is not None:
            lines.append("")
            lines.append(f"== fleet telemetry ({self.replicas} "
                         "replica(s), bounded aggregates) ==")
            lines.append(self.telemetry.to_text())
            if self.sketch_vs_exact:
                parts = []
                for name in ("p50", "p95", "p99"):
                    row = self.sketch_vs_exact[name]
                    parts.append(f"{name} {100 * row['relative_error']:.2f} %")
                lines.append("  sketch error vs exact (replica 0): "
                             + "  ".join(parts))
        return "\n".join(lines)


def _profile_exemplar(batch_size: int, name: str):
    """Cycle-level exemplar: profile an FC whose m-dim is the batch.

    The FC's row dimension is the batch dimension of the dense stack,
    so a tail-sized and a median-sized batch produce genuinely
    different stall mixes (bigger batches amortise CB/interlock waits,
    smaller ones are launch/dependency bound).  Returns the bottleneck
    report and the accelerator (its tracer holds the cycle spans).
    """
    from repro.core.accelerator import Accelerator
    from repro.kernels.fc import run_fc
    from repro.obs.profiler import Profiler

    # m must tile 64 rows/PE across the 2-row sub-grid -> multiple of 128.
    m = max(128, min(512, ((batch_size + 127) // 128) * 128))
    acc = Accelerator(observe=True, trace=True, name=name)
    with Profiler(acc, workload=name) as prof:
        run_fc(acc, m=m, k=256, n=128, dtype="int8",
               subgrid=acc.subgrid((0, 0), 2, 2), k_split=2)
    return prof.report(), acc


def _replica_telemetry_job(task: Tuple) -> ServingTelemetry:
    """Satellite replica: run one serving stream, ship telemetry only.

    Module-level (picklable) for :func:`repro.parallel.parallel_map`.
    Rebuilds the latency model from names — raw samples never leave
    the replica, only the bounded :class:`ServingTelemetry`.
    """
    (model_name, machine_name, qps, max_batch, max_wait_us,
     num_requests, seed, replica) = task
    from repro.eval.machines import MACHINES
    from repro.models.configs import MODEL_ZOO
    latency_model = BatchLatencyModel(MODEL_ZOO[model_name],
                                      MACHINES[machine_name])
    report = simulate_serving(
        latency_model, qps,
        BatchingConfig(max_batch=max_batch, max_wait_us=max_wait_us),
        num_requests=num_requests, seed=seed, registry=None,
        collect_telemetry=True, replica=replica)
    return report.telemetry


def run_serve_report(workload: str = "quickstart",
                     qps: Optional[float] = None,
                     sla_us: Optional[float] = None,
                     num_requests: Optional[int] = None,
                     seed: int = 0,
                     availability: float = 0.999,
                     window_us: float = 50_000.0,
                     batching: BatchingConfig = BatchingConfig(),
                     max_request_rows: int = 100,
                     exemplars: bool = True,
                     latency_model: Optional[BatchLatencyModel] = None,
                     replicas: int = 1,
                     jobs: int = 1,
                     ) -> Tuple[ServeReport, BatchLatencyModel]:
    """Run one serving workload and assemble the observability report.

    ``replicas`` simulates a small fleet: replica 0 runs in-process
    and keeps its exact per-request report (SLO, tail attribution,
    request rows all describe replica 0); replicas 1..R-1 run their
    own arrival streams (``seed + i``) — in worker processes when
    ``jobs > 1`` — and contribute *only* bounded telemetry, which is
    merged in replica-index order.  The merged report is byte-identical
    at any ``jobs`` count (CI diffs ``--jobs 1`` against ``--jobs 4``).
    """
    if workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose one of {known}")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    spec = WORKLOADS[workload]
    qps = qps if qps is not None else spec["qps"]
    sla_us = sla_us if sla_us is not None else spec["sla_us"]
    num_requests = (num_requests if num_requests is not None
                    else spec["num_requests"])

    if latency_model is None:
        from repro.eval.machines import MACHINES
        from repro.models.configs import MODEL_ZOO
        latency_model = BatchLatencyModel(MODEL_ZOO[spec["model"]],
                                          MACHINES["mtia"])
    serving = simulate_serving(latency_model, qps, batching,
                               num_requests=num_requests, seed=seed,
                               collect_telemetry=True, replica=0)
    sketch_vs_exact = serving.telemetry.sketch_vs_exact(serving)
    telemetry = serving.telemetry
    if replicas > 1:
        from repro.parallel import parallel_map
        tasks = [(spec["model"], "mtia", qps, batching.max_batch,
                  batching.max_wait_us, num_requests, seed + i, i)
                 for i in range(1, replicas)]
        satellites = parallel_map(_replica_telemetry_job, tasks, jobs=jobs)
        telemetry = ServingTelemetry.merge_all([telemetry]
                                               + list(satellites))
    slo = slo_from_report(serving, sla_us,
                          availability_target=availability,
                          window_us=window_us)
    tail = attribute_tail(serving, latency_model)
    if exemplars and serving.latencies_us.size:
        stall_mix: Dict[str, Dict[str, float]] = {}
        for cohort in ("tail", "median"):
            batch = serving.batches[tail.exemplar_batches[cohort]]
            prof, _ = _profile_exemplar(batch.size, f"{cohort}.sim")
            stall_mix[cohort] = prof.stall_fractions()
        tail = attribute_tail(serving, latency_model, stall_mix=stall_mix)
    report = ServeReport(
        workload=workload, model=spec["model"], machine="mtia",
        qps=qps, sla_us=sla_us, num_requests=num_requests, seed=seed,
        batching=batching, serving=serving, slo=slo, tail=tail,
        max_request_rows=max_request_rows, telemetry=telemetry,
        sketch_vs_exact=sketch_vs_exact, replicas=replicas)
    return report, latency_model


def build_chrome_trace(report: ServeReport,
                       latency_model: BatchLatencyModel) -> dict:
    """One merged trace: request waterfall → batch → ops → sim cycles.

    Draws waterfalls from ``report.serving`` after the run
    (:func:`~repro.serving.telemetry.emit_exemplar_spans`): the first 8
    requests of each exemplar batch plus the telemetry layer's
    slowest-k exemplar requests, so the tail appears on the timeline
    without tracing every request.  Each exemplar batch then gets its
    modelled per-op execution and a cycle-level simulated execution
    laid into its dispatch window, flow-linked: request → batch →
    graph_execute, batch → first sim span.
    """
    import numpy as np

    from repro.runtime.executor import record_graph_spans
    from repro.sim.trace import Tracer, chrome_trace

    serving = report.serving
    exemplars = report.tail.exemplar_batches
    drawn = [int(r) for k in exemplars.values()
             for r in np.flatnonzero(serving.batch_index == k)[:8]]
    if report.telemetry is not None:
        drawn += [rid for rep, rid
                  in report.telemetry.exemplars.slowest_ids() if rep == 0]
    spans = Tracer(enabled=True)
    emit_exemplar_spans(serving, drawn, spans)
    layers = [spans]
    for _, k in sorted(exemplars.items()):
        batch_spans = spans.find(f"batch{k}")
        if not batch_spans:
            continue
        batch = serving.batches[k]
        batch_span = batch_spans[-1]
        # Modelled per-op execution inside the batch window.
        with spans.attach(batch_span):
            estimate = latency_model.estimate_for(batch.size)
            root = record_graph_spans(spans, estimate,
                                      base_us=batch.dispatch_us,
                                      pid=f"batch{k}.model")
        spans.link(batch_span, root)
        # Cycle-level exemplar, shifted into the dispatch window and
        # flow-linked from the batch span to its first sim span.
        _, acc = _profile_exemplar(batch.size, f"batch{k}.sim")
        spans.link(batch_span, acc.tracer.spans[0])
        layers.append((acc.tracer, 1.0 / (acc.config.frequency_ghz * 1e3),
                       batch.dispatch_us))
    return chrome_trace(*layers)


def tail_critical_paths(report, k: int = 8) -> List[Dict]:
    """Exact critical paths of the slowest-k served requests.

    ``report`` is either the per-replica :class:`ServingReport` or a
    fleet :class:`~repro.serving.fleet.FleetReport`; each row is one
    request's verified path (segments tile the latency exactly).
    """
    from repro.obs.critical import slowest_critical_paths
    return [path.to_dict(max_segments=64)
            for path in slowest_critical_paths(report, k=k)]


def render_critical_text(rows: List[Dict]) -> str:
    """Text section for ``--critical``: one line per tail request."""
    lines = ["== tail critical paths (slowest served requests) =="]
    for row in rows:
        attrs = row["attrs"]
        shares = ", ".join(f"{name} {value:.0f}"
                           for name, value in
                           list(row["by_resource"].items())[:4])
        lines.append(
            f"  req{attrs['request']:>6}  {row['total']:10.1f} us  "
            f"batch {attrs['batch']:>5}  [{shares}]")
    return "\n".join(lines)


FLEET_SCHEMA_VERSION = 1


@dataclass
class FleetServeReport:
    """Everything one ``--fleet`` run produced.

    ``comparison`` rows run every policy over the *same* trace at the
    same fleet size (only the routing differs); ``fleet`` is the full
    report (merged telemetry included) for ``primary_policy``, and
    ``capacity`` answers the sizing question by simulation
    (:func:`repro.serving.capacity.plan_fleet_capacity`).
    """

    workload: str
    model: str
    machine: str
    trace_name: str
    sla_us: float
    seed: int
    replicas: int
    trace: Dict
    primary_policy: str
    comparison: List[Dict]
    fleet: Dict
    capacity: Dict

    def to_dict(self) -> Dict:
        return {
            "schema_version": FLEET_SCHEMA_VERSION,
            "workload": self.workload,
            "model": self.model,
            "machine": self.machine,
            "trace_name": self.trace_name,
            "sla_us": self.sla_us,
            "seed": self.seed,
            "replicas": self.replicas,
            "trace": self.trace,
            "primary_policy": self.primary_policy,
            "comparison": self.comparison,
            "fleet": self.fleet,
            "capacity": self.capacity,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"fleet report — {self.workload} ({self.model} on "
            f"{self.machine}, trace {self.trace_name!r}, "
            f"{self.replicas} replicas)",
            "",
            "== policy comparison (same trace, same fleet) ==",
            f"  {'policy':<14}{'p50 us':>10}{'p99 us':>10}"
            f"{'avail':>9}{'hedged':>8}{'wins':>6}",
        ]
        for row in self.comparison:
            lines.append(
                f"  {row['policy']:<14}{row['p50_us']:>10.1f}"
                f"{row['p99_us']:>10.1f}{row['availability']:>9.4f}"
                f"{row['hedged']:>8d}{row['hedge_wins']:>6d}")
        lines.append("")
        cap = self.capacity
        lines.append(f"== capacity (p99 <= {self.sla_us:g} us, "
                     f"availability >= "
                     f"{100 * cap['availability_target']:g} %) ==")
        lines.append(
            f"  minimum replicas: {cap['replicas']} "
            f"({cap['policy']}; p99 {cap['p99_us']:.1f} us, "
            f"availability {cap['availability']:.4f}, "
            f"{'feasible' if cap['feasible'] else 'INFEASIBLE'})")
        cons = self.fleet["conservation"]
        lines.append("")
        lines.append(f"== conservation ({self.primary_policy}) ==")
        lines.append(
            f"  fleet requests {cons['fleet_requests']}  accounted "
            f"{cons['accounted']}  replica copies "
            f"{cons['replica_requests']}  hedged "
            f"{cons['hedged_copies']}  conserved: {cons['conserved']}")
        return "\n".join(lines)


def run_fleet_report(workload: str = "quickstart",
                     trace_name: str = "diurnal",
                     qps: Optional[float] = None,
                     sla_us: Optional[float] = None,
                     duration_us: float = 50_000.0,
                     seed: int = 0,
                     replicas: int = 4,
                     racks: int = 2,
                     power_domains: int = 2,
                     policies: Optional[List[str]] = None,
                     primary_policy: str = "power_of_two",
                     availability: float = 0.999,
                     with_faults: bool = False,
                     jobs: int = 1):
    """Run the fleet workload: policy comparison + capacity answer.

    Returns ``(FleetServeReport, {policy: FleetReport})`` — the second
    element keeps the in-process reports so ``--chrome`` can draw the
    routed-request waterfalls without re-running anything.
    """
    from dataclasses import replace as _replace

    from repro.serving.fleet import (ROUTING_POLICIES, FleetConfig,
                                     RouterConfig, TabularLatencyModel,
                                     simulate_fleet, uniform_fleet)
    from repro.serving.resilience import ResilienceConfig
    from repro.serving.traffic import trace_preset

    if workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose one of {known}")
    spec = WORKLOADS[workload]
    sla_us = sla_us if sla_us is not None else spec["sla_us"]
    policies = list(policies) if policies else list(ROUTING_POLICIES)
    if primary_policy not in policies:
        policies.append(primary_policy)

    from repro.eval.machines import MACHINES
    from repro.models.configs import MODEL_ZOO
    base_model = BatchLatencyModel(MODEL_ZOO[spec["model"]],
                                   MACHINES["mtia"])
    model = TabularLatencyModel.from_batch_model(base_model)
    # Default operating point: ~70 % of the fleet's aggregate capacity,
    # so routing quality (not raw capacity) decides the tail.
    per_replica_qps = model.batches[-1] / model(model.batches[-1]) * 1e6
    if qps is None:
        qps = 0.7 * replicas * per_replica_qps
    trace = _replace(trace_preset(trace_name, target_qps=qps),
                     duration_us=duration_us)

    fault_plan = None
    if with_faults:
        from repro.faults import generate_fleet_plan
        specs = uniform_fleet(replicas, racks=racks,
                              power_domains=power_domains)
        fault_plan = generate_fleet_plan(seed, specs,
                                         horizon_us=duration_us)

    resilience = ResilienceConfig(deadline_us=8.0 * sla_us, max_retries=1)
    reports = {}
    comparison: List[Dict] = []
    for policy in policies:
        config = FleetConfig(
            replicas=uniform_fleet(replicas, racks=racks,
                                   power_domains=power_domains),
            router=RouterConfig(policy=policy, route_latency_us=15.0,
                                seed=seed),
            resilience=resilience,
            racks=racks, power_domains=power_domains, seed=seed)
        report = simulate_fleet(model, trace, config,
                                fault_plan=fault_plan, jobs=jobs,
                                collect_telemetry=(policy
                                                   == primary_policy))
        reports[policy] = report
        comparison.append({
            "policy": policy,
            "p50_us": report.percentile(50),
            "p99_us": report.percentile(99),
            "availability": report.availability,
            "hedged": int(report.hedged_requests),
            "hedge_wins": int(report.hedge_wins),
            "counts": report.counts_by_status(),
        })

    from repro.serving.capacity import plan_fleet_capacity
    capacity_config = FleetConfig(
        replicas=uniform_fleet(1),
        router=RouterConfig(policy=primary_policy,
                            route_latency_us=15.0, seed=seed),
        resilience=resilience,
        racks=racks, power_domains=power_domains, seed=seed)
    capacity = plan_fleet_capacity(
        model, trace, sla_us, availability_target=availability,
        config=capacity_config, policy=primary_policy,
        max_replicas=max(16, 2 * replicas), jobs=jobs)

    report = FleetServeReport(
        workload=workload, model=spec["model"], machine="mtia",
        trace_name=trace_name, sla_us=sla_us, seed=seed,
        replicas=replicas, trace=trace.to_dict(),
        primary_policy=primary_policy, comparison=comparison,
        fleet=reports[primary_policy].to_dict(),
        capacity=capacity.to_dict())
    return report, reports


def build_fleet_chrome_trace(fleet_report, max_requests: int = 32) -> dict:
    """Routed-request waterfalls: router hop → replica batch execution.

    Draws the slowest ``max_requests`` served requests (the tail is
    what waterfalls are for) plus every hedge *winner*: a router span
    (policy + chosen replica), flow-linked to the request's phase
    waterfall (its verified
    :func:`~repro.obs.critical.fleet_critical_path`, drawn by
    :func:`~repro.obs.critical.record_request_spans`), flow-linked in
    turn to the winning replica's device batch span.  Everything is
    reconstructed post-hoc from the fleet report's exact per-request
    arrays — no per-request tracing overhead at simulation time.
    """
    import numpy as np

    from repro.obs.critical import fleet_critical_path, record_request_spans
    from repro.sim.trace import Tracer, chrome_trace

    spans = Tracer(enabled=True)
    report = fleet_report
    served = np.flatnonzero(report.served_mask)
    slowest = served[np.argsort(report.latencies_us[served],
                                kind="stable")][::-1][:max_requests]
    winners = np.flatnonzero((report.hedge_wait_us > 0)
                             & report.served_mask)
    chosen = sorted(set(int(i) for i in slowest)
                    | set(int(i) for i in winners[:max_requests]))

    batch_spans = {}
    for i in chosen:
        path = fleet_critical_path(report, i)
        r, b = path.attrs["replica"], path.attrs["batch"]
        route = path.segments[0]        # every fleet path opens on the hop
        router_span = spans.record(
            "router", f"route req{i}", route.start, route.end,
            pid="fleet.router", policy=report.config.router.policy,
            primary=int(report.assigned[i]),
            hedged=int(report.hedged[i]), winner=r)
        req = record_request_spans(spans, path, f"request.{i}", f"req{i}",
                                   "fleet.requests", replica=r, batch=b,
                                   hedge_won=path.attrs["hedge_won"])
        spans.link(router_span, req)
        if (r, b) not in batch_spans:
            batch = report.per_replica[r].batches[b]
            batch_spans[r, b] = spans.record(
                f"replica{r}.device", f"r{r}.batch{b}",
                batch.dispatch_us, batch.finish_us,
                pid=f"fleet.replica{r}", size=batch.size)
        spans.link(req, batch_spans[r, b])
    return chrome_trace(spans)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.profile import bounded

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve_report",
        description="Request-level serving observability report.")
    parser.add_argument("workload", nargs="?", default="quickstart",
                        help="workload name (%s)"
                        % "/".join(sorted(WORKLOADS)))
    parser.add_argument("--qps", type=bounded(float, 0, strict=True),
                        default=None,
                        help="offered load (default: workload preset)")
    parser.add_argument("--sla-us", type=bounded(float, 0, strict=True),
                        default=None,
                        help="latency SLA in us (default: preset)")
    parser.add_argument("--requests", type=bounded(int, 0), default=None,
                        help="number of simulated requests")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--availability", type=float, default=0.999,
                        help="SLO availability target (default 0.999)")
    parser.add_argument("--window-us", type=bounded(float, 0, strict=True),
                        default=50_000.0,
                        help="rolling SLO window width")
    parser.add_argument("--max-batch", type=bounded(int, 1), default=256)
    parser.add_argument("--max-wait-us", type=bounded(float, 0),
                        default=200.0)
    parser.add_argument("--max-request-rows", type=bounded(int, 0),
                        default=100,
                        help="per-request rows in the JSON (0 = all)")
    parser.add_argument("--replicas", type=bounded(int, 1), default=1,
                        help="fleet replicas; >1 adds satellite streams "
                        "that contribute bounded telemetry only")
    parser.add_argument("--jobs", type=bounded(int, 1), default=1,
                        help="worker processes for satellite replicas")
    parser.add_argument("--no-exemplars", action="store_true",
                        help="skip the cycle-level exemplar profiles")
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON report")
    parser.add_argument("--chrome", action="store_true",
                        help="emit the merged Chrome/Perfetto trace")
    parser.add_argument("--output", "-o", default=None,
                        help="write to this file instead of stdout")
    parser.add_argument("--fleet", action="store_true",
                        help="fleet mode: router + N replicas over a "
                        "traffic trace (policy comparison + capacity)")
    parser.add_argument("--trace-name", default="diurnal",
                        help="fleet traffic preset "
                        "(steady/diurnal/spike/flash_crowd)")
    parser.add_argument("--duration-us", type=bounded(float, 0, strict=True),
                        default=50_000.0,
                        help="fleet trace span in simulated us")
    parser.add_argument("--policy", default="power_of_two",
                        help="fleet primary policy (full report + "
                        "capacity use this one)")
    parser.add_argument("--racks", type=int, default=2,
                        help="fleet rack count (correlated-failure "
                        "blast radius)")
    parser.add_argument("--power-domains", type=int, default=2)
    parser.add_argument("--faults", action="store_true",
                        help="fleet mode: inject a seeded correlated "
                        "rack/power fault plan")
    parser.add_argument("--critical", action="store_true",
                        help="attach exact critical paths for the "
                        "slowest served requests (tail exemplars)")
    parser.add_argument("--critical-k", type=bounded(int, 0), default=8,
                        help="how many tail requests --critical walks")
    args = parser.parse_args(argv)
    # the SLO monitor needs a budget (< 1); a fleet capacity floor may be 1
    if not (0.0 < args.availability < 1.0
            or args.fleet and args.availability == 1.0):
        parser.error("argument --availability: must be in (0, 1) "
                     f"((0, 1] with --fleet), got {args.availability!r}")

    if args.fleet:
        report, fleet_reports = run_fleet_report(
            args.workload, trace_name=args.trace_name, qps=args.qps,
            sla_us=args.sla_us, duration_us=args.duration_us,
            seed=args.seed, replicas=max(2, args.replicas),
            racks=args.racks, power_domains=args.power_domains,
            primary_policy=args.policy, availability=args.availability,
            with_faults=args.faults, jobs=args.jobs)
        if args.chrome:
            trace = build_fleet_chrome_trace(
                fleet_reports[report.primary_policy])
            path = args.output or f"{args.workload}.fleet_trace.json"
            with open(path, "w") as fh:
                json.dump(trace, fh)
            print(f"wrote fleet Chrome trace to {path} "
                  f"({len(trace['traceEvents'])} events); open in "
                  "ui.perfetto.dev or chrome://tracing")
            return 0
        crit_rows = (tail_critical_paths(
            fleet_reports[report.primary_policy], args.critical_k)
            if args.critical else None)
        if args.json:
            data = report.to_dict()
            if crit_rows is not None:
                data["critical_paths"] = crit_rows
            text = json.dumps(data, indent=2, sort_keys=True)
        else:
            text = report.to_text()
            if crit_rows is not None:
                text += "\n\n" + render_critical_text(crit_rows)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote fleet report to {args.output}")
        else:
            print(text)
        return 0

    batching = BatchingConfig(max_batch=args.max_batch,
                              max_wait_us=args.max_wait_us)
    report, latency_model = run_serve_report(
        args.workload, qps=args.qps, sla_us=args.sla_us,
        num_requests=args.requests, seed=args.seed,
        availability=args.availability, window_us=args.window_us,
        batching=batching, max_request_rows=args.max_request_rows,
        exemplars=not args.no_exemplars and not args.chrome,
        replicas=args.replicas, jobs=args.jobs)

    if args.chrome:
        trace = build_chrome_trace(report, latency_model)
        path = args.output or f"{args.workload}.serve_trace.json"
        with open(path, "w") as fh:
            json.dump(trace, fh)
        print(f"wrote merged Chrome trace to {path} "
              f"({len(trace['traceEvents'])} events); open in "
              "ui.perfetto.dev or chrome://tracing")
        return 0

    crit_rows = (tail_critical_paths(report.serving, args.critical_k)
                 if args.critical else None)
    if args.json:
        data = report.to_dict()
        if crit_rows is not None:
            data["critical_paths"] = crit_rows
        text = json.dumps(data, indent=2, sort_keys=True)
    else:
        text = report.to_text()
        if crit_rows is not None:
            text += "\n\n" + render_critical_text(crit_rows)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
