"""``python -m repro.critpath`` — causal critical-path profiling.

Runs one built-in workload (the same registry as ``repro.profile``)
with dependency-edge recording enabled, extracts the critical path
through the event DAG, and optionally projects Coz-style what-if
speedups for resource scalings::

    python -m repro.critpath                        # quickstart FC
    python -m repro.critpath tbe --whatif dram=1.2
    python -m repro.critpath fc --whatif noc=2 --validate --jobs 2
    python -m repro.critpath fc --format chrome -o fc.critical.json

``--whatif RESOURCE=FACTOR`` (repeatable) predicts the end-to-end
cycle delta of making ``RESOURCE`` ``FACTOR``× faster purely from the
recorded graph; ``--validate`` re-simulates each scaling with a scaled
:class:`~repro.config.ChipConfig` and reports the prediction error
(the acceptance band is 10 %).  ``--format chrome`` writes a merged
Perfetto trace: the usual cycle-level spans plus a ``critical.path``
track whose segments chain flow arrows and point into the hardware
spans they attribute time to.

JSON output contains no wall-clock fields, so reports are byte-stable
at any ``--jobs`` count (the CI critpath job diffs them).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.config import MTIA_V1, ChipConfig
from repro.core.accelerator import Accelerator
from repro.obs.cli import OUTPUT, POSITIVE, add_jobs, bounded, emit
from repro.obs.critical import CriticalPath, extract_critical_path
from repro.obs.whatif import (RESOURCE_SCALINGS, project_whatif,
                              scaled_chip_config)
from repro.parallel import parallel_map
from repro.profile import WORKLOADS, resolve_workload

#: pinned schema for the JSON report (CI golden-pins it)
SCHEMA_VERSION = 1

#: acceptance band for what-if prediction vs true re-simulation
VALIDATION_BAND = 0.10


def run_workload_with_edges(
        name: str, config: ChipConfig = MTIA_V1, trace: bool = False,
        record_edges: bool = True) -> Tuple[Accelerator, Dict[str, float]]:
    """Run one profile workload on a fresh card, returning the card
    (with its edge recorder populated) and the workload's extras."""
    runner = WORKLOADS[name]
    acc = Accelerator(config=config, trace=trace,
                      record_edges=record_edges)
    extras = runner(acc)
    return acc, extras


def _resim_job(task: Tuple[str, str, float]) -> float:
    """Re-simulate ``workload`` with ``resource`` scaled; returns cycles.

    Module-level so ``parallel_map`` can pickle it under spawn.
    """
    name, resource, factor = task
    config, _ = scaled_chip_config(MTIA_V1, resource, factor)
    acc, _ = run_workload_with_edges(name, config=config,
                                     record_edges=False)
    return float(acc.cycles)


def parse_whatif_spec(spec: str) -> Tuple[str, float]:
    """The ``--whatif`` argparse ``type``: ``RESOURCE=FACTOR`` (e.g.
    ``dram=1.2``) with a known resource and a finite factor > 0."""
    resource, sep, raw = spec.partition("=")
    known = ", ".join(sorted(RESOURCE_SCALINGS))
    if not sep:
        raise argparse.ArgumentTypeError(
            f"must be RESOURCE=FACTOR (resources: {known}), got {spec!r}")
    if resource not in RESOURCE_SCALINGS:
        raise argparse.ArgumentTypeError(
            f"must be one of {known}, got resource {resource!r}")
    return resource, POSITIVE(raw)


def analyze_workload(name: str,
                     whatif: Optional[List[Tuple[str, float]]] = None,
                     validate: bool = False,
                     jobs: int = 1) -> Dict:
    """Run + extract + project; returns the full JSON-ready report."""
    acc, extras = run_workload_with_edges(name)
    path = extract_critical_path(acc.edges)
    baseline = float(acc.cycles)

    projections = []
    specs = whatif or []
    for resource, factor in specs:
        # Use the *effective* factor the scaled config realises, so the
        # projection and the re-simulation scale by the same amount.
        _, effective = scaled_chip_config(MTIA_V1, resource, factor)
        projection = project_whatif(acc.edges, resource, effective)
        projections.append({
            "requested_factor": factor,
            "effective_factor": effective,
            **projection.to_dict(),
            "validation": None,
        })

    if validate and specs:
        resim = parallel_map(
            _resim_job,
            [(name, resource, factor) for resource, factor in specs],
            jobs=jobs)
        for row, cycles in zip(projections, resim):
            true_delta = baseline - cycles
            predicted_delta = row["delta"]
            scale = max(abs(true_delta), 1e-9)
            error = abs(predicted_delta - true_delta) / scale
            row["validation"] = {
                "resim_cycles": cycles,
                "true_delta": true_delta,
                "predicted_delta": predicted_delta,
                "relative_error": error,
                "band": VALIDATION_BAND,
                "within_band": bool(error <= VALIDATION_BAND),
            }

    return {
        "schema_version": SCHEMA_VERSION,
        "workload": name,
        "unit": "cycles",
        "sim_cycles": baseline,
        "extras": extras,
        "critical_path": path.to_dict(),
        "whatif": projections,
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_text(report: Dict, top: int = 10) -> str:
    path = report["critical_path"]
    lines = [f"== critical path: {report['workload']} ==",
             f"sim cycles      {report['sim_cycles']:g}",
             f"path total      {path['total']:g} {path['unit']} "
             f"({path['num_segments']} segments, "
             f"{path['num_condensed']} condensed)",
             "",
             "critical cycles by resource:"]
    for resource, value in list(path["by_resource"].items())[:top]:
        share = 100.0 * value / path["total"] if path["total"] else 0.0
        lines.append(f"  {resource:<14}{value:>14.1f}  {share:5.1f} %")
    segments = sorted(path["segments"], key=lambda s: -s["duration"])
    lines += ["", f"top {min(top, len(segments))} critical segments:"]
    for seg in segments[:top]:
        lines.append(f"  {seg['duration']:>12.1f}  {seg['resource']:<14}"
                     f"{seg['label']} [{seg['kind']}]")
    for row in report["whatif"]:
        lines += ["",
                  f"what-if {row['resource']} x{row['effective_factor']:g}:"
                  f" {row['baseline']:g} -> {row['projected']:g} "
                  f"{row['unit']} ({row['speedup']:.3f}x, "
                  f"{row['scaled_edges']} edges scaled)"]
        validation = row["validation"]
        if validation:
            verdict = ("OK" if validation["within_band"]
                       else "OUT OF BAND")
            lines.append(
                f"  re-simulated: {validation['resim_cycles']:g} cycles "
                f"(true delta {validation['true_delta']:g}, predicted "
                f"{validation['predicted_delta']:g}, error "
                f"{validation['relative_error']:.1%} -> {verdict})")
    return "\n".join(lines)


def build_critical_chrome_trace(acc: Accelerator,
                                path: CriticalPath) -> dict:
    """The cycle-level trace plus the critical path as its own track.

    Condensed critical segments are recorded into the accelerator's own
    tracer on a ``critical.path`` thread (process ``critical``);
    consecutive segments chain flow arrows, and each segment also
    points into the first hardware span that starts inside it — the
    activity its critical time is attributed to.
    """
    tracer = acc.tracer
    hw_spans = sorted(tracer.spans, key=lambda span: span.start)
    recorded = [(seg, tracer.record("critical.path",
                                    f"{seg.resource}:{seg.label}",
                                    seg.start, seg.end, pid="critical",
                                    resource=seg.resource, kind=seg.kind,
                                    cycles=seg.duration))
                for seg in path.condensed()]
    for (_, src), (_, dst) in zip(recorded, recorded[1:]):
        tracer.link(src, dst)
    for seg, span in recorded:
        for hw in hw_spans:
            if seg.start <= hw.start < seg.end:
                tracer.link(span, hw)
                break
    return tracer.to_chrome_trace(acc.config.frequency_ghz)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.critpath",
        description="Causal critical-path profile of a simulated "
                    "workload, with what-if speedup projection.")
    parser.add_argument("workload", nargs="?", default="quickstart",
                        help="workload name (%s) or an example-script "
                        "path" % "/".join(sorted(WORKLOADS)))
    parser.add_argument("--format", choices=("text", "json", "chrome"),
                        default="text", help="report format")
    parser.add_argument("--output", "-o", type=OUTPUT, default=None,
                        help="write to this file instead of stdout")
    parser.add_argument("--top", type=bounded(int, 0), default=10,
                        help="resources/segments shown in the text report")
    parser.add_argument("--whatif", type=parse_whatif_spec,
                        action="append", default=[],
                        metavar="RESOURCE=FACTOR",
                        help="project scaling a resource (repeatable); "
                        "resources: %s" % ", ".join(
                            sorted(RESOURCE_SCALINGS)))
    parser.add_argument("--validate", action="store_true",
                        help="re-simulate each --whatif scaling and "
                        "report the prediction error")
    add_jobs(parser, help="parallel workers for --validate re-runs")
    args = parser.parse_args(argv)

    name = resolve_workload(args.workload)

    if args.format == "chrome":
        acc, _ = run_workload_with_edges(name, trace=True)
        path = extract_critical_path(acc.edges)
        trace = build_critical_chrome_trace(acc, path)
        emit(json.dumps(trace), args.output or f"{name}.critical.trace.json",
             "Chrome trace")
        return 0

    report = analyze_workload(name, whatif=args.whatif,
                              validate=args.validate, jobs=args.jobs)
    emit(report if args.format == "json" else render_text(report, args.top),
         args.output, f"{args.format} report")
    return 0


if __name__ == "__main__":
    sys.exit(main())
