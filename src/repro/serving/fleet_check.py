"""``python -m repro.serving.fleet_check`` — router equivalence gate.

The fleet simulator routes every trace through
:func:`~repro.serving.fleet.route_requests_vectorised`; the scalar
:func:`~repro.serving.fleet.route_requests` loop is kept as the
executable specification.  This check runs one traffic trace through
the *whole* fleet pipeline twice — once per router — across every
routing policy and a set of job counts, and asserts the final
:class:`~repro.serving.fleet.FleetReport` JSON is byte-identical.

CI runs it over a multi-second diurnal trace::

    python -m repro.serving.fleet_check --duration-us 2000000 \
        --target-qps 60000 --jobs 1,2,4

Exit status is non-zero on the first mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.obs.cli import COUNT, POSITIVE, comma_list
from repro.serving import fleet as _fleet
from repro.serving.fleet import (ROUTING_POLICIES, FleetConfig,
                                 RouterConfig, TabularLatencyModel,
                                 route_requests, simulate_fleet,
                                 uniform_fleet)
from repro.serving.traffic import TRACES, trace_preset

#: The quickstart-shaped latency model the serving reports use.
DEFAULT_MODEL = TabularLatencyModel(batches=(1, 4, 16, 64, 256),
                                    latency_us=(60, 72, 110, 260, 860))


class RouterMismatch(RuntimeError):
    """The vectorised router's fleet report differs from the scalar one."""


def check_policy(policy: str, trace, jobs_list: List[int],
                 replicas: int = 6, seed: int = 5) -> dict:
    """Byte-compare the reference and vectorised routers on ``trace``.

    The vectorised router runs at ``jobs=1`` and at every count in
    ``jobs_list``.  Returns ``{"policy", "requests", "ref_wall_s",
    "fast_wall_s"}``, both walls at ``jobs=1``; raises
    :class:`RouterMismatch` on any byte difference.
    """
    config = FleetConfig(
        replicas=uniform_fleet(replicas),
        router=RouterConfig(policy=policy, seed=seed,
                            hedge_backlog_us=400.0))
    t0 = time.perf_counter()
    saved = _fleet.route_requests_vectorised
    try:
        _fleet.route_requests_vectorised = route_requests
        ref = simulate_fleet(DEFAULT_MODEL, trace, config, jobs=1)
    finally:
        _fleet.route_requests_vectorised = saved
    ref_wall = time.perf_counter() - t0
    ref_bytes = json.dumps(ref.to_dict(), sort_keys=True)

    # the speed-up is timed at jobs=1, like the reference: a larger job
    # count would add process-pool start-up to the vectorised side
    for jobs in dict.fromkeys([*jobs_list, 1]):
        t0 = time.perf_counter()
        fast = simulate_fleet(DEFAULT_MODEL, trace, config, jobs=jobs)
        if jobs == 1:
            fast_wall = time.perf_counter() - t0
        fast_bytes = json.dumps(fast.to_dict(), sort_keys=True)
        if fast_bytes != ref_bytes:
            raise RouterMismatch(
                f"{policy} report differs from the scalar reference at "
                f"--jobs {jobs}")
    return {"policy": policy, "requests": int(ref.arrivals_us.size),
            "ref_wall_s": ref_wall, "fast_wall_s": fast_wall}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.fleet_check",
        description="Scalar-vs-vectorised fleet router byte-identity.")
    parser.add_argument("--trace-name", default="diurnal",
                        choices=sorted(TRACES),
                        help="traffic preset (default %(default)s)")
    parser.add_argument("--duration-us", type=POSITIVE, default=2_000_000.0,
                        help="trace horizon in us (default 2 s)")
    parser.add_argument("--target-qps", type=POSITIVE, default=60_000.0,
                        help="trace target load (default %(default)s)")
    parser.add_argument("--replicas", type=COUNT, default=6)
    parser.add_argument("--jobs", type=comma_list(COUNT), default="1,2",
                        help="comma-separated job counts for the "
                        "vectorised runs (default %(default)s)")
    parser.add_argument("--policies",
                        type=comma_list(choices=ROUTING_POLICIES),
                        default=",".join(ROUTING_POLICIES),
                        help="comma-separated routing policies "
                        "(default: all)")
    args = parser.parse_args(argv)

    trace = replace(trace_preset(args.trace_name,
                                 target_qps=args.target_qps),
                    duration_us=args.duration_us)
    for policy in args.policies:
        try:
            row = check_policy(policy, trace, args.jobs,
                               replicas=args.replicas)
        except RouterMismatch as exc:
            print(f"FAIL {exc}")
            return 1
        speedup = (row["ref_wall_s"] / row["fast_wall_s"]
                   if row["fast_wall_s"] > 0 else 0.0)
        print(f"ok {policy:<14} {row['requests']:>8} requests  "
              f"scalar {row['ref_wall_s']:.2f}s  "
              f"vectorised {row['fast_wall_s']:.2f}s  "
              f"({speedup:.1f}x at --jobs 1), byte-identical at --jobs "
              f"{','.join(map(str, args.jobs))}")
    print(f"fleet router byte-identity held over "
          f"{args.duration_us / 1e6:.1f} s of {args.trace_name} traffic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
