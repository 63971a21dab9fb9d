"""``python -m repro.conformance`` — the differential conformance gate.

Examples::

    python -m repro.conformance --seeds 25
    python -m repro.conformance --seeds 50 --json report.json
    python -m repro.conformance --ops fc,eb --pillars golden,crossval
    python -m repro.conformance --replay 17        # reproduce one seed

Exit status 0 when the run passes (0 golden divergences, 0 determinism
violations, crossval band-violation rate within ``--max-band-rate``);
1 otherwise.  Every failing case prints its seed and the exact replay
command.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.conformance.crossval import CrossvalBand
from repro.conformance.determinism import CHECK_PILLARS
from repro.conformance.fuzzer import OP_FAMILIES
from repro.conformance.golden import TolerancePolicy
from repro.conformance.runner import (PILLARS, CaseResult,
                                      ConformanceConfig, run_conformance)
from repro.obs.cli import (OUTPUT, SEED, add_jobs, add_seed, add_seeds,
                           comma_list, emit)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="Differential conformance: fuzzed graphs vs the "
                    "numpy golden reference, sim vs analytical model, "
                    "and determinism replay.")
    add_seeds(parser, 25, help="number of seeds to sweep (default 25)")
    add_seed(parser, "--seed-start",
             help="first seed of the sweep (default 0)")
    parser.add_argument("--replay", type=SEED, action="append",
                        default=None, metavar="SEED",
                        help="replay exactly this seed (repeatable); "
                        "overrides --seeds/--seed-start")
    parser.add_argument("--ops", type=comma_list(choices=OP_FAMILIES),
                        default=OP_FAMILIES, metavar="OPS",
                        help="comma-separated op families for the fuzzer "
                        f"(default {','.join(OP_FAMILIES)})")
    parser.add_argument("--pillars", type=comma_list(choices=PILLARS),
                        default=PILLARS, metavar="PILLARS",
                        help="comma-separated pillars to run "
                        f"(default {','.join(PILLARS)})")
    parser.add_argument("--band-lo", type=float, default=CrossvalBand().lo,
                        help="lower bound of the model/sim ratio band")
    parser.add_argument("--band-hi", type=float, default=CrossvalBand().hi,
                        help="upper bound of the model/sim ratio band")
    parser.add_argument("--max-band-rate", type=float, default=0.1,
                        help="crossval band-violation rate above which "
                        "the run fails (default 0.1)")
    parser.add_argument("--atol", type=float,
                        default=TolerancePolicy().atol,
                        help="absolute tolerance for fp comparisons")
    parser.add_argument("--rtol", type=float,
                        default=TolerancePolicy().rtol,
                        help="relative tolerance for fp comparisons")
    add_jobs(parser)
    parser.add_argument("--json", metavar="PATH", type=OUTPUT, default=None,
                        help="write the full JSON report to PATH "
                        "('-' for stdout)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress output")
    return parser


def _replay_command(case: CaseResult, args) -> str:
    parts = [f"python -m repro.conformance --replay {case.seed}",
             f"--pillars {case.pillar}"]
    if tuple(args.ops) != OP_FAMILIES:
        parts.append(f"--ops {','.join(args.ops)}")
    return " ".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = ConformanceConfig(
        seeds=args.seeds, seed_start=args.seed_start,
        ops=tuple(args.ops), pillars=tuple(args.pillars),
        band=CrossvalBand(lo=args.band_lo, hi=args.band_hi),
        tolerance=TolerancePolicy(atol=args.atol, rtol=args.rtol),
        max_band_violation_rate=args.max_band_rate,
        explicit_seeds=tuple(args.replay) if args.replay else None)

    def progress(case: CaseResult) -> None:
        marker = "." if case.ok else "F"
        print(f"{marker} seed={case.seed:<6} {case.pillar:<12} "
              f"{case.status}", flush=True)

    report = run_conformance(config, jobs=args.jobs,
                             progress=None if args.quiet else progress)

    print()
    totals = report.to_dict()["totals"]
    print(f"conformance: {totals['cases']} cases over "
          f"{len(config.seed_list())} seeds "
          f"(ops: {','.join(config.ops)})")
    print(f"  golden divergences:     {totals['golden_divergences']}")
    for pillar in CHECK_PILLARS:
        if pillar == "determinism" or pillar in config.pillars:
            print(f"  {pillar + ' violations:':<24}"
                  f"{totals[pillar + '_violations']}")
    print(f"  crossval band rate:     {totals['band_violation_rate']:.3f} "
          f"of {totals['crossval_cases']} cases "
          f"(band [{config.band.lo:.2f}, {config.band.hi:.2f}], "
          f"max rate {config.max_band_violation_rate})")
    if totals["errors"]:
        print(f"  errors:                 {totals['errors']}")

    for case in report.failures():
        detail = case.details
        if case.status == "error":
            extra = detail.get("exception", "error")
        elif case.pillar == "crossval":
            extra = (f"ratio {detail.get('ratio', float('nan')):.3f} "
                     f"shape {detail.get('shape')}")
        elif case.pillar == "golden":
            extra = "; ".join(f"{d['output']}: {d['reason']}"
                              for d in detail.get("divergences", []))
        else:
            extra = "; ".join(f"{kind}: {violation}"
                              for kind, result in detail.items()
                              for violation in result["violations"])
        print(f"  FAIL seed={case.seed} [{case.pillar}] {extra}")
        print(f"       reproduce: {_replay_command(case, args)}")

    if args.json:
        emit(report.to_dict(), args.json, "JSON report")

    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
