"""``python -m repro.profile`` — profile a built-in workload.

Runs one workload on a freshly constructed card with tracing and stall
attribution enabled, then prints a bottleneck report::

    python -m repro.profile                      # quickstart FC (small)
    python -m repro.profile fc                   # Figure 7 FC mapping
    python -m repro.profile tbe                  # Figure 12 TBE gather
    python -m repro.profile bmm                  # Figure 13 BatchMatMul
    python -m repro.profile examples/fc_mapping.py --format json

Workloads may be named directly (``quickstart``/``fc``/``tbe``/``bmm``)
or given as a path to one of the example scripts, which is mapped to
the equivalent workload by basename.  ``--format chrome`` writes a
Chrome trace-event file (load in ``chrome://tracing`` / Perfetto)
instead of the report; with ``--critical`` the trace also carries the
critical path on its own track.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, Optional, Tuple

from repro.core.accelerator import Accelerator
from repro.obs.profiler import BottleneckReport, Profiler


def _run_quickstart(acc: Accelerator) -> Dict[str, float]:
    """A small FC — fast enough for CI smoke checks (< 1 s)."""
    from repro.kernels.fc import run_fc
    result = run_fc(acc, m=128, k=256, n=128, dtype="int8",
                    subgrid=acc.subgrid((0, 0), 2, 2), k_split=2)
    return {"achieved_tops": result.tops(acc.config.frequency_ghz)}


def _run_fc(acc: Accelerator) -> Dict[str, float]:
    """The Figure 7 mapping: FC 512x1024x256 on a 4x4 sub-grid."""
    from repro.kernels.fc import run_fc
    result = run_fc(acc, m=512, k=1024, n=256, dtype="int8",
                    subgrid=acc.subgrid((0, 0), 4, 4), k_split=2)
    return {"achieved_tops": result.tops(acc.config.frequency_ghz)}


def _run_tbe(acc: Accelerator) -> Dict[str, float]:
    """The Figure 12 sparse path: TBE gather in SRAM-cache mode.

    ``prefetch_rows=1`` models the *production* kernel's shallow
    software pipelining — the paper's explanation for why TBE achieves
    only 10-20 % of DRAM bandwidth ("there are not enough outstanding
    requests to hide the latency", Section 6.1).
    """
    from repro.kernels.tbe import TBEConfig, run_tbe
    config = TBEConfig(num_tables=8, rows_per_table=100_000,
                       embedding_dim=64, pooling_factor=16, batch_size=32)
    result = run_tbe(acc, config, prefetch_rows=1)
    peak_gbs = (acc.config.dram.bytes_per_cycle(acc.config.frequency_ghz)
                * acc.config.frequency_ghz)
    gather = result.gbs(acc.config.frequency_ghz)
    return {"gather_gbs": gather,
            "gather_percent_of_dram_bw": 100.0 * gather / peak_gbs}


def _run_bmm(acc: Accelerator) -> Dict[str, float]:
    """The Figure 13 feature-interaction path: batched small GEMMs."""
    from repro.kernels.batch_matmul import BMMConfig, run_bmm
    config = BMMConfig(batch=64, m=64, k=64, n=64)
    result = run_bmm(acc, config, subgrid=acc.subgrid((0, 0), 4, 4))
    return {"achieved_tops": result.tops(acc.config.frequency_ghz)}


WORKLOADS = {
    "quickstart": _run_quickstart,
    "fc": _run_fc,
    "tbe": _run_tbe,
    "bmm": _run_bmm,
}

#: Example-script basenames mapped to the equivalent workload.
EXAMPLE_ALIASES = {
    "quickstart.py": "quickstart",
    "fc_mapping.py": "fc",
    "tbe_lookup.py": "tbe",
    "multicard.py": "fc",
}


def resolve_workload(spec: str) -> str:
    """Map a workload name or an example-script path to a workload key."""
    if spec in WORKLOADS:
        return spec
    base = os.path.basename(spec)
    if base in EXAMPLE_ALIASES:
        return EXAMPLE_ALIASES[base]
    stem = os.path.splitext(base)[0]
    if stem in WORKLOADS:
        return stem
    known = ", ".join(sorted(WORKLOADS))
    raise SystemExit(f"unknown workload {spec!r}; choose one of {known} "
                     "or a path to an example script")


def bounded(kind, low, strict: bool = False):
    """An argparse ``type``: ``kind(text)``, rejected unless it is
    finite and ``>= low`` (``> low`` when ``strict``)."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value)
                and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {low}, "
                f"got {text!r}")
        return value
    return parse


def profile_workload(name: str, record_edges: bool = False
                     ) -> Tuple[BottleneckReport, Accelerator]:
    """Run one named workload under the profiler; returns the report.

    ``record_edges=True`` additionally records causal dependency edges
    (``acc.edges``) so the caller can extract the critical path — a
    proven no-op on the profiled results.
    """
    runner = WORKLOADS[name]
    acc = Accelerator(observe=True, trace=True, record_edges=record_edges)
    with Profiler(acc, workload=name) as prof:
        extras = runner(acc)
    return prof.report(extras=extras), acc


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="Profile a workload on the simulated MTIA card.")
    parser.add_argument("workload", nargs="?", default="quickstart",
                        help="workload name (%s) or an example-script path"
                        % "/".join(sorted(WORKLOADS)))
    parser.add_argument("--format", choices=("text", "json", "chrome"),
                        default="text", help="report format")
    parser.add_argument("--output", "-o", default=None,
                        help="write to this file instead of stdout "
                        "(required for --format chrome)")
    parser.add_argument("--top", type=bounded(int, 0), default=10,
                        help="tracks/operations shown in the text report")
    parser.add_argument("--critical", action="store_true",
                        help="record causal edges and attach the "
                        "workload's critical path to the report")
    args = parser.parse_args(argv)

    name = resolve_workload(args.workload)
    report, acc = profile_workload(name, record_edges=args.critical)
    critical = None
    if args.critical:
        from repro.obs.critical import extract_critical_path
        critical = extract_critical_path(acc.edges)

    if args.format == "chrome":
        path = args.output or f"{name}.trace.json"
        if critical is None:
            acc.save_trace(path)
        else:
            from repro.critpath import build_critical_chrome_trace
            with open(path, "w") as fh:
                json.dump(build_critical_chrome_trace(acc, critical), fh)
        print(f"wrote Chrome trace to {path} "
              f"({len(acc.tracer.spans)} spans); open in chrome://tracing")
        return 0

    if args.format == "json":
        text = report.to_json()
        if critical is not None:
            data = json.loads(text)
            data["critical_path"] = critical.to_dict(max_segments=64)
            text = json.dumps(data, indent=2, sort_keys=True)
    else:
        text = report.to_text(top_n=args.top)
        if critical is not None:
            text += "\n\n" + critical.to_text(top=args.top)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.format} report to {args.output}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
