"""``python3 bench/run.py`` — the repository benchmark.

    python3 bench/run.py [--seed N] [--seconds S] [--trace [0|1]]
                         [--out PATH] [WORKLOAD ...]
    python3 bench/run.py --workload chip_fc --seed 3 --seconds 10 --trace 0

Each workload runs alone in a fresh single-threaded worker process
(``bench/worker.py``), one workload after another.  An untraced run
reports the ``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace``
is the separate profiled run that reports its ``per_layer`` metrics.
Every metric is printed by name with its unit, and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (with several workloads each
metric name is prefixed ``<workload>.``).  ``--out`` also writes every
sample, the exact simulated results and the diagnostics, which
``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "bench" / "worker.py"

#: processes per untraced run that only set up; with the measuring
#: worker they give the setup_s samples, whose median is reported
SETUP_SAMPLES = 5
#: a workload still running after this is killed and the run fails
WORKLOAD_TIMEOUT_S = 160


class BenchError(RuntimeError):
    """A run that produced no result."""


def worker_env() -> Dict[str, str]:
    """The environment of every worker: no result caches, one thread.

    Bytecode is cached as it is for any user, whatever the caller's
    environment says, so ``setup_s`` measures loading the modules and
    only the very first worker of a checkout compiles them.
    """
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_SIM_CACHE", "REPRO_GRAPH_CACHE",
                          "PYTHONDONTWRITEBYTECODE")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(args: List[str], deadline: float) -> Tuple[Dict, float]:
    """Run one worker; returns its result and its set-up seconds.

    Set-up runs from just before the process is spawned until the
    worker is ready to start its first iteration (both clocks are the
    system-wide monotonic clock).  A worker still running at
    ``deadline`` is killed.
    """
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *args],
                          env=worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - spawned, 0.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited with "
                         f"status {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, result["ready"] - spawned


def metric_block(values: Dict[str, float], specs: List[Dict]) -> Dict:
    """``{name: {"value", "unit"}}`` in the order of ``BENCHMARK.json``."""
    names = [spec["name"] for spec in specs]
    if set(values) != set(names):
        raise BenchError(
            "measured metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(values))}, extra "
            f"{sorted(set(values) - set(names))}")
    return {spec["name"]: {"value": values[spec["name"]],
                           "unit": spec["unit"]} for spec in specs}


def end_to_end(result: Dict, setup: List[float]) -> Dict[str, float]:
    """The end-to-end values of one untraced worker result."""
    return {"wall_s": statistics.median(result["wall_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"]}


def per_layer(result: Dict) -> Dict[str, float]:
    """The per-layer values of one traced worker result."""
    return {**result["layers"], **result["exact"], **result["diagnostics"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: Dict) -> Dict:
    """Measure one workload; returns its full record."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(spawn([name, "--seed", str(seed), "--setup-only"],
                               deadline)[1])
    args = [name, "--seed", str(seed), "--seconds", str(seconds)]
    result, setup_s = spawn(args + ["--trace"] if trace else args, deadline)
    setup.append(setup_s)
    if trace:
        metrics = metric_block(per_layer(result), spec["per_layer"])
    else:
        metrics = metric_block(end_to_end(result, setup),
                               spec["end_to_end"])
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
            "samples": {"wall_s": result["wall_s"],
                        "cpu_s": result["cpu_s"],
                        "setup_s": setup},
            "exact": result["exact"],
            "diagnostics": result["diagnostics"],
            "errors": result["errors"]}


def render(name: str, record: Dict) -> List[str]:
    """Human-readable lines for one workload record."""
    wall = record["samples"]["wall_s"]
    lines = [f"{name}: {len(wall)} timed iterations, "
             f"{record['failed']} of {record['attempted']} operations "
             "failed"]
    lines += [f"  error: {error.strip()}" for error in record["errors"][:3]]
    for metric, block in record["metrics"].items():
        line = f"  {metric:<28} {block['value']:>16.6g} {block['unit']}"
        samples = record["samples"].get(metric, [])
        if len(samples) > 1:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            line += f"  (q1 {q1:.6g}, q3 {q3:.6g}, n {len(samples)})"
        lines.append(line)
    exact = {k: v for k, v in record["exact"].items()
             if v and k not in record["metrics"]}
    if exact:
        lines.append("  exact: " + ", ".join(f"{k} {v!r}"
                                             for k, v in exact.items()))
    return lines


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Run the repository benchmark (see bench/README.md).")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"workloads to run (default: all of "
                        f"{', '.join(known)})")
    parser.add_argument("--workload", action="append", default=[],
                        choices=known, help="a workload to run; repeatable")
    parser.add_argument("--seed", type=non_negative, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per workload (default "
                        "%(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): the profiled per-layer "
                        "run")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the full records as JSON")
    args = parser.parse_args(argv)
    names = args.workload + args.workloads or known
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from "
                         f"{', '.join(known)}")

    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), spec)
            print("\n".join(render(name, records[name])), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": bool(args.trace), "workloads": records},
                      fh, indent=1)
    if len(records) == 1:
        metrics = next(iter(records.values()))["metrics"]
    else:
        metrics = {f"{name}.{metric}": block
                   for name, record in records.items()
                   for metric, block in record["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
