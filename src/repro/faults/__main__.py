"""``python -m repro.faults.campaign`` — the chaos campaign CLI.

Examples::

    python -m repro.faults.campaign --seeds 10
    python -m repro.faults.campaign --seeds 10 --jobs 4 --json report.json
    python -m repro.faults.campaign --seeds 2 --no-hardware --no-failover

Exit status 0 when every campaign check passes (currently: graceful
degradation — a 1-of-N card failure must keep availability above the
shed-everything strawman); 1 otherwise.

The report is a pure function of the seed list: the same invocation at
any ``--jobs`` level writes byte-identical JSON, so the artifact can be
diffed across runs and pinned in CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.faults.campaign import CampaignConfig, render_text, run_campaign
from repro.obs.cli import (COUNT, OUTPUT, POSITIVE, add_jobs, add_seed,
                           add_seeds, emit)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.campaign",
        description="Deterministic chaos campaign: seeded fault scenarios "
                    "against the resilient serving simulator, plus a "
                    "hardware fault microbench and a multi-card failover "
                    "estimate.")
    add_seeds(parser, 10, help="seeds per scenario (default 10)")
    add_seed(parser, "--seed-start", help="first seed (default 0)")
    parser.add_argument("--requests", type=COUNT, default=2000,
                        help="requests per serving run (default 2000)")
    parser.add_argument("--qps", type=POSITIVE, default=20_000.0,
                        help="baseline offered load (default 20000)")
    parser.add_argument("--cards", type=COUNT, default=4,
                        help="cards behind the serving queue (default 4)")
    add_jobs(parser)
    parser.add_argument("--json", metavar="PATH", type=OUTPUT, default=None,
                        help="write the JSON report to PATH ('-' for "
                        "stdout)")
    parser.add_argument("--no-hardware", action="store_true",
                        help="skip the hardware fault microbench")
    parser.add_argument("--no-failover", action="store_true",
                        help="skip the multi-card failover estimate")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress output")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = CampaignConfig(
        seeds=args.seeds, seed_start=args.seed_start,
        requests=args.requests, qps=args.qps, cards=args.cards,
        include_hardware=not args.no_hardware,
        include_failover=not args.no_failover)

    def progress(row) -> None:
        marker = ("." if row.get("graceful", True) else "F")
        print(f"{marker} seed={row['seed']:<6} {row['scenario']:<18} "
              f"avail={row['faulted']['availability']:.4f}", flush=True)

    report = run_campaign(cfg, jobs=args.jobs,
                          progress=None if args.quiet else progress)
    print()
    print(render_text(report))

    if args.json:
        emit(report, args.json, "JSON report")

    passed = all(report["checks"].values())
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
