"""Run one benchmark workload in this process and print one JSON line.

    python3 bench/worker.py WORKLOAD --seed N --seconds S [--trace]
    python3 bench/worker.py WORKLOAD --seed N --setup-only

``bench/run.py`` starts one fresh worker per workload with a quiet
environment; run by hand, set ``PYTHONHASHSEED=0`` and the BLAS thread
variables to 1 as it does.  The worker imports ``repro`` from this
checkout's ``src/`` only, and fails when that directory is missing.

A run is one untimed warm-up iteration (0), then timed iterations until
``--seconds`` have passed and at least ``MIN_ITERATIONS`` were timed.
With ``--trace`` iteration 1 runs under cProfile and the others stay
untraced, so their median gives the tracing overhead.  Iteration 1 also
supplies the exact simulated results and counters in both modes, so
they do not depend on how many iterations the host managed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: timed iterations a run makes at least, so it has a median and quartiles
MIN_ITERATIONS = 3


def iteration_seed(seed: int, index: int) -> int:
    """The input seed of iteration ``index`` of a run at ``seed``."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


@dataclass
class Iteration:
    """What one iteration measured."""

    wall_s: float
    cpu_s: float
    attempted: int
    errors: List[str]
    stats: Dict[str, float]


def run_iteration(workload, seed: int, index: int,
                  profiler: Optional[cProfile.Profile] = None) -> Iteration:
    """Draw the inputs, time the operations, then check every output.

    An operation that raises or fails its check is recorded in
    ``errors``; the iteration carries on with the next one.
    """
    ops = workload.inputs(iteration_seed(seed, index))
    outputs = []
    errors = []
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if profiler is not None:
        profiler.enable()
    for k, op in enumerate(ops):
        try:
            outputs.append(workload.run(op))
        except Exception:
            outputs.append(None)
            errors.append(f"iteration {index} op {k}: "
                          + traceback.format_exc(limit=-3))
    if profiler is not None:
        profiler.disable()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    for k, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        try:
            problem = workload.check(op, out)
        except Exception:
            problem = traceback.format_exc(limit=-3)
        if problem:
            errors.append(f"iteration {index} op {k}: {problem}")
    missing = any(out is None for out in outputs)
    stats = {} if missing else workload.stats(outputs)
    return Iteration(wall, cpu, len(ops), errors, stats)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload, seed: int, seconds: float, trace: bool) -> Dict:
    """Warm up, time iterations for ``seconds``, and summarise the run."""
    from bench import layers
    from bench.workloads import EXACT_METRICS

    warmup = run_iteration(workload, seed, 0)
    start = time.perf_counter()
    profiler = cProfile.Profile() if trace else None
    first = run_iteration(workload, seed, 1, profiler)
    rest: List[Iteration] = []
    while (len(rest) + (not trace) < MIN_ITERATIONS
           or time.perf_counter() - start < seconds):
        rest.append(run_iteration(workload, seed, len(rest) + 2))
    timed = rest if trace else [first] + rest
    done = [warmup, first] + rest
    wall = [it.wall_s for it in timed]
    events_per_s = [it.stats["sim.events"] / it.stats["sim.run_wall_s"]
                    for it in timed if it.stats.get("sim.run_wall_s")]
    result = {
        "attempted": sum(it.attempted for it in done),
        "failed": sum(len(it.errors) for it in done),
        "errors": [e for it in done for e in it.errors],
        "wall_s": wall,
        "cpu_s": [it.cpu_s for it in timed],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exact": {name: float(first.stats.get(name, 0.0))
                  for name in EXACT_METRICS},
        "diagnostics": {
            "cold_iter_s": warmup.wall_s,
            "cpu_s": median([it.cpu_s for it in timed]),
            "sim.events_per_s": median(events_per_s),
            "host.loadavg": os.getloadavg()[0],
        },
    }
    if trace:
        profiler.create_stats()
        traced = layers.rollup(profiler.stats, str(SRC))
        traced.update(layers.span_times(profiler.stats))
        self_total = sum(traced[f"{layer}.self_s"]
                         for layer in layers.LAYER_NAMES)
        result["diagnostics"].update({
            "trace_overhead": first.wall_s / median(wall),
            "trace.coverage": self_total / first.wall_s,
        })
        result["layers"] = traced
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/worker.py")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no repro package under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"bench: imported repro from {repro.__file__}, not {SRC}")
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        result.update(measure(workload, args.seed, args.seconds, args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
