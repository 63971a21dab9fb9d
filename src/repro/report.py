"""One-shot reproduction report: every table and figure to stdout.

Usage::

    python -m repro.report             # everything
    python -m repro.report fig14 t3    # a selection
    python -m repro.report --metrics bounds   # + metric-registry dump

Section keys: t1 t2 t3 t4 fig1 fig2 fig10 fig11 fig12 fig13 fig14
bounds serving telemetry.
``--metrics`` enables the process-wide :mod:`repro.obs` registry for
the run, so instrumented layers (the graph executor's per-op timing,
the serving simulator's latency histograms, the bound analysis) record
into it, and appends the registry dump to the report.
This is the quick, human-readable view; ``pytest benchmarks/
--benchmark-only`` additionally asserts every reproduction target.
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Optional


def _header(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def report_t1() -> None:
    from repro.eval.tables import table_i
    _header("Table I — MTIA features and parameters (derived)")
    for key, value in table_i().items():
        print(f"  {key}: {value}")


def report_t2() -> None:
    from repro.eval.tables import format_table, table_ii
    _header("Table II — inference hardware platforms")
    print(format_table(table_ii()))


def report_t3() -> None:
    from repro.eval.tables import TABLE_III_PAPER, table_iii
    _header("Table III — operator breakdown (MC1)")
    for batch in (64, 256):
        ours = table_iii(batch)
        print(f"  batch {batch}:  (paper -> ours, % of time)")
        for bucket, paper in TABLE_III_PAPER[batch].items():
            print(f"    {bucket:<12}{paper:6.1f} -> {ours.get(bucket, 0):5.1f}")


def report_t4() -> None:
    from repro.eval.tables import table_iv
    from repro.models.configs import TABLE_IV_TARGETS
    _header("Table IV — DLRM model zoo")
    for name, row in table_iv().items():
        size_gb, gflops = TABLE_IV_TARGETS[name]
        print(f"  {name}: size {row['Size (GB)']:.1f} GB (paper {size_gb}), "
              f"complexity {row['Complexity (GFLOPS/batch)']:.3f} GF "
              f"(paper {gflops})")


def report_fig1() -> None:
    from repro.models.trends import figure1_series
    _header("Figure 1 — inference model scaling trends")
    for p in figure1_series():
        print(f"  {p.year}: {p.complexity_gflops:7.3f} GF/sample, "
              f"{p.total_footprint_gb:6.0f} GB total, "
              f"{p.table_footprint_gb:6.0f} GB tables")


def report_fig2() -> None:
    from repro.models.trends import figure2_series
    _header("Figure 2 — server demand by platform")
    for p in figure2_series():
        print(f"  {p.year_quarter}: CPU {p.cpu:5.0f}  NNPI {p.nnpi:5.0f}  "
              f"GPU {p.gpu:5.0f}")


def _report_fc(dtype: str) -> None:
    from repro.eval.figures import fc_bench
    _header(f"Figure {'10' if dtype == 'int8' else '11'} — "
            f"{dtype.upper()} FC perf/W (TFLOPS/s/W)")
    print(f"  {'shape':<20}{'MTIA':>9}{'GPU':>9}{'ratio':>8}")
    for row in fc_bench(dtype):
        print(f"  {str(row.shape):<20}{row.perf_w['mtia']:>9.4f}"
              f"{row.perf_w['gpu']:>9.4f}{row.ratio_vs_gpu:>8.2f}")


def report_fig10() -> None:
    _report_fc("int8")


def report_fig11() -> None:
    _report_fc("fp16")


def report_fig12() -> None:
    from repro.eval.figures import tbe_bench
    _header("Figure 12 — TBE GB/s/W")
    print(f"  {'(pooling,rows,dim)':<24}{'MTIA':>7}{'GPU':>7}{'ratio':>7}"
          f"{'%BW':>6}")
    for row in tbe_bench():
        print(f"  {str(row.shape):<24}{row.gbs_w['mtia']:>7.2f}"
              f"{row.gbs_w['gpu']:>7.2f}{row.ratio_vs_gpu:>7.2f}"
              f"{100 * row.mtia_bw_fraction:>6.0f}")


def report_fig13() -> None:
    from repro.eval.figures import other_operators_bench
    _header("Figure 13 — other operators, SRAM vs DRAM placement")
    print(f"  {'operator':<14}{'placement':>10}{'GB/s':>8}{'%BW':>6}")
    for row in other_operators_bench():
        print(f"  {row.operator:<14}{row.placement:>10}"
              f"{row.achieved_gbs:>8.0f}{100 * row.fraction_of_bw:>6.0f}")


def report_fig14() -> None:
    import numpy as np
    from repro.eval.figures import dlrm_bench
    from repro.models.configs import MODEL_ZOO
    from repro.models.dlrm import model_flops
    _header("Figure 14 — DLRM TFLOPS/s/W (batch 256)")
    rows = dlrm_bench()
    print(f"  {'model':<6}{'MTIA':>9}{'GPU':>9}{'NNPI':>9}{'vs GPU':>8}"
          f"{'vs NNPI':>9}")
    for r in rows:
        print(f"  {r.model:<6}{r.tflops_w['mtia']:>9.4f}"
              f"{r.tflops_w['gpu']:>9.4f}{r.tflops_w['nnpi']:>9.4f}"
              f"{r.ratio_vs_gpu:>8.2f}{r.ratio_vs_nnpi:>9.2f}")
    weights = [model_flops(MODEL_ZOO[r.model]) for r in rows]
    gpu = np.average([r.ratio_vs_gpu for r in rows], weights=weights)
    nnpi = np.average([r.ratio_vs_nnpi for r in rows], weights=weights)
    print(f"  flops-weighted: vs GPU {gpu:.2f} (paper ~0.9), "
          f"vs NNPI {nnpi:.2f} (paper ~1.6)")


def report_serving() -> None:
    """Request-level serving view: phase breakdown, SLO burn, tail."""
    from repro.serve_report import run_serve_report
    _header("Serving — request breakdown, SLO burn, tail attribution "
            "(LC2 quickstart; full view: python -m repro.serve_report)")
    report, _ = run_serve_report("quickstart", num_requests=1500,
                                 exemplars=False)
    s = report.serving
    print(f"  p50 {s.percentile(50):7.1f} us   p95 "
          f"{s.percentile(95):7.1f} us   p99 {s.percentile(99):7.1f} us  "
          f"(SLA {report.sla_us:g} us)")
    breakdown = s.breakdown_means()
    print("  mean request: "
          + "  ".join(f"{phase} {mean_us:.0f} us"
                      for phase, mean_us in breakdown.items()))
    print(f"  SLO: {report.slo.violations}/{report.slo.total} violations, "
          f"error-budget burn {report.slo.burn_rate:.2f}")
    tail = report.tail
    for phase, t in tail.phase_us["tail"].items():
        m = tail.phase_us["median"][phase]
        print(f"  tail-vs-median {phase:<14} {t:7.1f} vs {m:7.1f} us "
              f"({t - m:+.1f})")


def report_telemetry() -> None:
    """Fleet telemetry: sketches, exemplars, anomalies (3 replicas)."""
    from repro.serve_report import run_serve_report
    _header("Fleet telemetry — bounded mergeable aggregates "
            "(3 replicas; full view: python -m repro.serve_report "
            "--replicas 3)")
    report, _ = run_serve_report("quickstart", num_requests=1500,
                                 exemplars=False, replicas=3)
    print(report.telemetry.to_text())
    if report.sketch_vs_exact:
        parts = [f"{name} {100 * row['relative_error']:.2f} %"
                 for name, row in sorted(report.sketch_vs_exact.items())]
        print("  sketch error vs exact (replica 0): " + "  ".join(parts))


def report_fleet() -> None:
    """Fleet serving: routing policies + simulated capacity answer."""
    from repro.serve_report import run_fleet_report
    _header("Fleet serving — router + replicas over a diurnal trace "
            "(full view: python -m repro.serve_report --fleet)")
    report, _ = run_fleet_report("quickstart", replicas=3,
                                 duration_us=20_000.0)
    for row in report.comparison:
        print(f"  {row['policy']:<14} p99 {row['p99_us']:7.1f} us  "
              f"availability {row['availability']:.4f}")
    cap = report.capacity
    print(f"  capacity: {cap['replicas']} replicas for p99 <= "
          f"{report.sla_us:g} us at >= "
          f"{100 * cap['availability_target']:g} % availability "
          f"({cap['policy']}, "
          f"{'feasible' if cap['feasible'] else 'INFEASIBLE'})")


def report_bounds() -> None:
    """Roofline classification: where each model's time goes on MTIA."""
    from repro.eval.machines import MACHINES
    from repro.eval.opmodel import estimate_graph
    from repro.models.configs import MODEL_ZOO
    from repro.models.dlrm import build_dlrm_graph
    from repro.runtime.executor import GraphExecutor
    _header("Bound analysis — MTIA, batch 256 "
            "(compute / memory / launch-bound time)")
    for name in MODEL_ZOO:
        graph = build_dlrm_graph(MODEL_ZOO[name], 256)
        executor = GraphExecutor(MACHINES["mtia"], mode="graph")
        placement = executor.compile(graph)
        estimate = estimate_graph(MACHINES["mtia"], graph, placement)
        executor._record_metrics(estimate)
        seconds = {"compute": 0.0, "memory": 0.0, "launch": 0.0}
        for op in estimate.estimates:
            seconds[op.bound] += op.seconds
        total = sum(seconds.values())
        print(f"  {name}: compute {100 * seconds['compute'] / total:4.1f}%  "
              f"memory {100 * seconds['memory'] / total:4.1f}%  "
              f"launch {100 * seconds['launch'] / total:4.1f}%")


SECTIONS = {
    "t1": report_t1, "t2": report_t2, "t3": report_t3, "t4": report_t4,
    "fig1": report_fig1, "fig2": report_fig2, "fig10": report_fig10,
    "fig11": report_fig11, "fig12": report_fig12, "fig13": report_fig13,
    "fig14": report_fig14, "bounds": report_bounds,
    "serving": report_serving, "telemetry": report_telemetry,
    "fleet": report_fleet,
}


def main(argv: Optional[Iterable[str]] = None) -> int:
    args: List[str] = list(sys.argv[1:] if argv is None else argv)
    with_metrics = "--metrics" in args
    if with_metrics:
        args = [a for a in args if a != "--metrics"]
    unknown = [a for a in args if a not in SECTIONS]
    if unknown:
        print(f"unknown section(s): {unknown}; "
              f"choose from {sorted(SECTIONS)} (flags: --metrics)")
        return 2
    registry = None
    if with_metrics:
        from repro.obs.metrics import enable_default_registry
        registry = enable_default_registry()
    try:
        print("MTIA reproduction report "
              "(analytical models; see benchmarks/ for asserted targets)")
        for key in (args or SECTIONS):
            SECTIONS[key]()
        if registry is not None:
            _header("Collected metrics (repro.obs registry)")
            print(registry.to_prometheus(), end="")
    finally:
        if registry is not None:
            from repro.obs.metrics import disable_default_registry
            disable_default_registry()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
