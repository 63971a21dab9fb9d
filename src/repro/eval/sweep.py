"""``python -m repro.eval.sweep`` — the calibration sweep CLI.

Sweeps fuzzed FC (and optionally TBE) shapes through both the
cycle-level simulator and the analytical model and reports the
model/sim ratio distribution — the widest view of calibration drift
short of the conformance gate::

    python -m repro.eval.sweep --seeds 40 --jobs 4
    python -m repro.eval.sweep --kinds fc,tbe --json sweep.json
    python -m repro.eval.sweep --sim-cache .simcache   # re-sweep cheap

The simulator side honours the content-addressed sim-result cache
(``--sim-cache`` / ``REPRO_SIM_CACHE``): re-sweeping the same seed
range after a model-side change replays sim results from disk
bit-identically instead of re-simulating.  Results are ordered
deterministically (by kind, then seed) at any ``--jobs`` count.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.cli import (OUTPUT, add_jobs, add_seed, add_seeds,
                            add_sim_cache, comma_list, emit, use_sim_cache)

SWEEP_KINDS = ("fc", "tbe")


def _sweep_job(job: Tuple[str, int]) -> Dict:
    """Module-level so ``--jobs`` spawn workers can pickle it."""
    from repro.conformance.crossval import (crossval_fc, crossval_tbe,
                                            fuzz_fc_shape, fuzz_tbe_shape)
    kind, seed = job
    if kind == "fc":
        return crossval_fc(fuzz_fc_shape(seed)).to_dict()
    return crossval_tbe(fuzz_tbe_shape(seed)).to_dict()


def sweep(kinds: Sequence[str], seeds: int, seed_start: int = 0,
          jobs: int = 1) -> List[Dict]:
    """Run the calibration sweep; returns a list of result dicts."""
    from repro.parallel import parallel_map
    jobs_list = [(kind, seed) for kind in kinds
                 for seed in range(seed_start, seed_start + seeds)]
    return parallel_map(_sweep_job, jobs_list, jobs=jobs)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.sweep",
        description="Sweep fuzzed shapes through the cycle-level "
                    "simulator and the analytical model; report the "
                    "model/sim ratio distribution.")
    add_seeds(parser, 20, help="seeds per kind (default 20)")
    add_seed(parser, "--seed-start", help="first seed (default 0)")
    parser.add_argument("--kinds", type=comma_list(choices=SWEEP_KINDS),
                        default="fc",
                        help="comma-separated kinds to sweep: "
                        f"{','.join(SWEEP_KINDS)} (default fc; tbe is "
                        "much slower)")
    add_jobs(parser)
    add_sim_cache(parser, help="enable the sim-result cache ('mem' or a "
                  "directory); repeated sweeps replay cached sim "
                  "results bit-identically")
    parser.add_argument("--json", metavar="PATH", type=OUTPUT, default=None,
                        help="write results as JSON to PATH "
                        "('-' for stdout)")
    args = parser.parse_args(argv)

    use_sim_cache(args.sim_cache)

    results = sweep(args.kinds, args.seeds, args.seed_start, jobs=args.jobs)

    out_of_band = 0
    for res in results:
        flag = "  " if res["in_band"] else "!!"
        out_of_band += 0 if res["in_band"] else 1
        shape = ",".join(f"{k}={v}"
                         for k, v in sorted(res["shape"].items()))
        print(f"{flag} {res['kind']:<4} ratio {res['ratio']:7.3f}  "
              f"sim {res['sim_seconds']:.3e}s  "
              f"model {res['model_seconds']:.3e}s  {shape}")
    ratios = sorted(r["ratio"] for r in results)
    mid = ratios[len(ratios) // 2] if ratios else float("nan")
    print(f"\n{len(results)} shapes, median ratio {mid:.3f}, "
          f"{out_of_band} outside the band")

    if args.json:
        emit(results, args.json, "JSON results")
    return 0 if out_of_band == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
