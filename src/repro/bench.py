"""``python -m repro.bench`` — the repo's perf-trajectory benchmark.

Runs the canonical FC / TBE / DLRM quickstart workloads and emits a
schema-stable ``BENCH_<label>.json`` so the performance trajectory of
the reproduction is tracked from PR to PR::

    python -m repro.bench                       # writes BENCH_pr8.json
    python -m repro.bench --label nightly -o out/
    python -m repro.bench --compare BENCH_pr4.json   # soft regression check
    python -m repro.bench --jobs 3              # workloads in parallel
    python -m repro.bench --trajectory          # all BENCH_*.json, one table

Every workload records the same four headline numbers (``latency_us``,
``achieved_tflops``, ``sim_cycles``, ``wall_time_s``; inapplicable ones
are 0) plus workload-specific ``extras``.  ``--compare`` diffs the
current run against a baseline file and reports per-metric regressions;
it only fails the process when ``--strict`` is given and a simulated
metric regresses beyond the threshold (wall-time is reported but never
enforced — CI machines are noisy).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.cli import (OUTPUT_DIR, add_jobs, add_sim_cache, emit,
                           use_sim_cache)

SCHEMA_VERSION = 1
DEFAULT_LABEL = "pr10"  # bump per PR; the trajectory lives in git
TRAJECTORY_SCHEMA_VERSION = 1

#: headline metrics every workload reports (inapplicable ones are 0)
METRICS = ("latency_us", "achieved_tflops", "sim_cycles", "wall_time_s")

#: Metrics where *bigger* is better (regressions are decreases).
_HIGHER_IS_BETTER = {"achieved_tflops"}
#: Metrics compared against the soft threshold; wall_time_s is
#: excluded (host noise), extras are informational.
_COMPARED = ("latency_us", "achieved_tflops", "sim_cycles")


def _engine_extras(acc) -> Dict:
    """DES-kernel throughput counters for the trajectory record."""
    stats = acc.engine.run_stats()
    return {"events_processed": stats["events_processed"],
            "events_per_sec_wall": stats["events_per_sec_wall"],
            "peak_heap_size": stats["peak_heap_size"]}


def _autotuned_extras(shape, hand_cycles: float) -> Dict:
    """Tune the bench shape and report the winner next to the hand row.

    The headline metrics of the row stay the hand-written mapping (the
    trajectory must remain comparable PR-over-PR); the tuned mapping
    rides along in ``extras`` with its DES-measured cycles and the
    speedup over this row's own cycles.
    """
    from repro.autotune import autotune

    result = autotune(shape, topk=2, jobs=1)
    winner = result.winner
    return {"autotuned_mapping": winner.candidate.describe(),
            "autotuned_sim_cycles": winner.sim_cycles,
            "autotuned_speedup": (hand_cycles / winner.sim_cycles
                                  if winner.sim_cycles else 0.0),
            "autotuned_replay": result.replay_command()}


def _bench_fc(autotuned: bool = False) -> Dict:
    """The Figure 7 FC mapping on the cycle-level simulator."""
    from repro.core.accelerator import Accelerator
    from repro.kernels.fc import run_fc

    acc = Accelerator()
    t0 = time.perf_counter()
    result = run_fc(acc, m=512, k=1024, n=256, dtype="int8",
                    subgrid=acc.subgrid((0, 0), 4, 4), k_split=2)
    wall = time.perf_counter() - t0
    tops = result.tops(acc.config.frequency_ghz)
    extras = {"m": 512, "k": 1024, "n": 256, "dtype": "int8"}
    extras.update(_engine_extras(acc))
    if autotuned:
        from repro.autotune import FCShape
        extras.update(_autotuned_extras(
            FCShape(m=512, k=1024, n=256, dtype="int8"),
            float(result.cycles)))
    return {
        "latency_us": result.cycles / (acc.config.frequency_ghz * 1e3),
        "achieved_tflops": tops,
        "sim_cycles": float(result.cycles),
        "wall_time_s": wall,
        "extras": extras,
    }


def _bench_tbe(autotuned: bool = False) -> Dict:
    """The Figure 12 TBE gather (production-kernel pipelining)."""
    from repro.core.accelerator import Accelerator
    from repro.kernels.tbe import TBEConfig, run_tbe

    acc = Accelerator()
    config = TBEConfig(num_tables=8, rows_per_table=100_000,
                       embedding_dim=64, pooling_factor=16, batch_size=32)
    t0 = time.perf_counter()
    result = run_tbe(acc, config, prefetch_rows=1)
    wall = time.perf_counter() - t0
    gather_gbs = result.gbs(acc.config.frequency_ghz)
    peak_gbs = (acc.config.dram.bytes_per_cycle(acc.config.frequency_ghz)
                * acc.config.frequency_ghz)
    extras = {"gather_gbs": gather_gbs,
              "gather_percent_of_dram_bw": 100.0 * gather_gbs / peak_gbs}
    extras.update(_engine_extras(acc))
    if autotuned:
        from repro.autotune import TBEShape
        extras.update(_autotuned_extras(
            TBEShape(num_tables=8, rows_per_table=100_000,
                     embedding_dim=64, pooling_factor=16, batch_size=32),
            float(result.cycles)))
    return {
        "latency_us": result.cycles / (acc.config.frequency_ghz * 1e3),
        "achieved_tflops": 0.0,
        "sim_cycles": float(result.cycles),
        "wall_time_s": wall,
        "extras": extras,
    }


def _bench_dlrm(autotuned: bool = False) -> Dict:
    """LC2 quickstart through the compiled-graph analytical path.

    Besides the analytical estimate (the headline metrics, unchanged
    from earlier trajectory rows), the workload runs one representative
    DLRM MLP layer on the cycle-level simulator, so the dlrm row carries
    the same DES-kernel throughput extras (``events_processed`` /
    ``events_per_sec_wall``) as fc/tbe.
    """
    from repro.core.accelerator import Accelerator
    from repro.eval.machines import MACHINES
    from repro.eval.opmodel import estimate_graph
    from repro.kernels.fc import run_fc
    from repro.models.configs import MODEL_ZOO
    from repro.models.dlrm import build_dlrm_graph, model_flops
    from repro.runtime.executor import GraphExecutor

    batch = 64
    machine = MACHINES["mtia"]
    t0 = time.perf_counter()
    graph = build_dlrm_graph(MODEL_ZOO["LC2"], batch)
    executor = GraphExecutor(machine, mode="graph")
    placement = executor.compile(graph)
    estimate = estimate_graph(machine, graph, placement)
    wall = time.perf_counter() - t0
    seconds = estimate.total_seconds
    flops = model_flops(MODEL_ZOO["LC2"]) * batch
    # The analytical path has no DES run, so report *modelled* device
    # cycles (estimate time x MTIA clock) — every workload must carry a
    # nonzero cycle count for the trajectory to be comparable.
    from repro.config import MTIA_V1
    cycles = seconds * MTIA_V1.frequency_ghz * 1e9
    extras = {"model": "LC2", "batch": batch,
              "ops": len(estimate.estimates),
              "cycles_modelled": True}

    # One LC2 bottom-MLP-shaped layer (batch x 128 -> 128, int8) on the
    # cycle-level simulator: the dlrm trajectory row tracks DES kernel
    # speed too, not just the analytical model.
    acc = Accelerator()
    run_fc(acc, m=batch, k=128, n=128, dtype="int8",
           subgrid=acc.subgrid((0, 0), 1, 1))
    extras["des_op"] = f"fc m={batch} k=128 n=128 int8"
    extras.update(_engine_extras(acc))

    return {
        "latency_us": seconds * 1e6,
        "achieved_tflops": flops / seconds / 1e12 if seconds else 0.0,
        "sim_cycles": cycles,
        "wall_time_s": wall,
        "extras": extras,
    }


BENCHES = {"fc": _bench_fc, "tbe": _bench_tbe, "dlrm": _bench_dlrm}

#: workloads with a mapping space the ``--autotuned`` column can tune
_AUTOTUNABLE = ("fc", "tbe")


def _bench_job(job: Tuple[str, bool]) -> Dict:
    """Module-level so ``--jobs`` spawn workers can pickle it."""
    name, autotuned = job
    return BENCHES[name](autotuned=autotuned and name in _AUTOTUNABLE)


def run_bench(label: str = DEFAULT_LABEL,
              workloads: Optional[List[str]] = None,
              jobs: int = 1, autotuned: bool = False) -> Dict:
    """Run the benchmark suite; returns the BENCH_* payload.

    ``jobs > 1`` runs workloads in worker processes.  Simulated metrics
    are identical at any job count; ``wall_time_s`` is only meaningful
    as a trajectory number when measured at ``jobs=1`` on an idle host.
    ``autotuned=True`` additionally tunes each mapping-tunable
    workload (fc, tbe) and records the winner in the row's extras.
    """
    names = workloads or sorted(BENCHES)
    for name in names:
        if name not in BENCHES:
            known = ", ".join(sorted(BENCHES))
            raise SystemExit(f"unknown bench workload {name!r}; "
                             f"choose from {known}")
    payload: Dict = {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "created_unix": time.time(),
        "workloads": {},
    }
    from repro.parallel import parallel_map
    results = parallel_map(_bench_job, [(n, autotuned) for n in names],
                           jobs=jobs)
    for name, result in zip(names, results):
        payload["workloads"][name] = result
    return payload


def compare(current: Dict, baseline: Dict,
            threshold: float = 0.10,
            wall_threshold: Optional[float] = None) -> List[str]:
    """Regressions of ``current`` vs ``baseline`` beyond ``threshold``.

    Returns human-readable regression lines (empty = within budget).
    Simulated metrics only by default; pass ``wall_threshold`` to also
    report ``wall_time_s`` regressions beyond that (looser) fraction —
    wall lines are tagged ``(wall-clock, soft)`` and never counted by
    ``--strict``.  A missing baseline workload/metric is not a
    regression (new workloads are allowed to appear).
    """
    compared = _COMPARED + (("wall_time_s",)
                            if wall_threshold is not None else ())
    regressions: List[str] = []
    for name, cur in sorted(current.get("workloads", {}).items()):
        base = baseline.get("workloads", {}).get(name)
        if base is None:
            continue
        for metric in compared:
            b, c = base.get(metric), cur.get(metric)
            if not b or c is None:
                continue
            limit = (wall_threshold if metric == "wall_time_s"
                     else threshold)
            change = (c - b) / b
            worse = (-change if metric in _HIGHER_IS_BETTER else change)
            if worse > limit:
                direction = ("dropped" if metric in _HIGHER_IS_BETTER
                             else "grew")
                suffix = (" (wall-clock, soft)"
                          if metric == "wall_time_s" else "")
                regressions.append(
                    f"{name}.{metric} {direction} {100 * abs(change):.1f}% "
                    f"({b:g} -> {c:g}, threshold "
                    f"{100 * limit:.0f}%){suffix}")
    return regressions


_PR_LABEL = re.compile(r"^pr(\d+)$")


def load_trajectory(directory: str = ".",
                    paths: Optional[List[str]] = None) -> Dict:
    """Aggregate every ``BENCH_*.json`` into one trajectory payload.

    Rows are ordered by PR sequence number for ``pr<N>`` labels (the
    canonical trajectory), then by ``created_unix`` for everything else
    — so the table stays correctly ordered even when a PR landed
    without a bench file or a file's timestamp is missing.  Unreadable
    or corrupt ``BENCH_*.json`` files are skipped (reported in
    ``skipped``, never fatal), and gaps in the ``pr<N>`` sequence are
    reported in ``missing_labels``; the schema is stable so the
    trajectory can itself be diffed.
    """
    import glob

    if paths is None:
        paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    runs = []
    skipped: List[Dict] = []
    for path in paths:
        try:
            with open(path) as fh:
                payload = json.load(fh)
            if not isinstance(payload.get("workloads"), dict):
                raise ValueError("no workloads mapping")
        except (OSError, ValueError) as exc:
            skipped.append({"file": os.path.basename(path),
                            "error": str(exc)})
            continue
        label = str(payload.get("label", "?"))
        match = _PR_LABEL.match(label)
        order = ((0, int(match.group(1)), 0.0) if match
                 else (1, 0, float(payload.get("created_unix", 0.0))))
        runs.append((order, os.path.basename(path), payload))
    runs.sort(key=lambda item: (item[0], item[1]))
    rows: List[Dict] = []
    pr_numbers: List[int] = []
    for order, fname, payload in runs:
        label = str(payload.get("label", "?"))
        match = _PR_LABEL.match(label)
        if match:
            pr_numbers.append(int(match.group(1)))
        for name in sorted(payload["workloads"]):
            result = payload["workloads"][name]
            row = {"label": label,
                   "file": fname,
                   "created_unix": float(payload.get("created_unix", 0.0)),
                   "workload": name}
            for metric in METRICS:
                row[metric] = float(result.get(metric, 0.0))
            rows.append(row)
    missing = []
    if pr_numbers:
        have = set(pr_numbers)
        missing = [f"pr{n}" for n in range(min(have), max(have) + 1)
                   if n not in have]
    return {"trajectory_schema_version": TRAJECTORY_SCHEMA_VERSION,
            "runs": len(runs),
            "rows": rows,
            "missing_labels": missing,
            "skipped": skipped}


def latest_baseline(directory: str = ".",
                    exclude_label: Optional[str] = None) -> Optional[str]:
    """Path of the newest prior ``BENCH_*.json`` in ``directory``.

    "Newest" follows :func:`load_trajectory` ordering — ``pr<N>`` labels
    by PR number, then everything else by ``created_unix`` — so a stale
    clock can never select the wrong baseline.  ``exclude_label`` skips
    the run being produced right now (comparing a fresh ``pr9`` run
    against an existing ``BENCH_pr9.json`` would gate against itself).
    Returns ``None`` when no eligible baseline exists.
    """
    trajectory = load_trajectory(directory)
    chosen: Optional[str] = None
    for row in trajectory["rows"]:
        if exclude_label is not None and row["label"] == exclude_label:
            continue
        chosen = row["file"]
    return os.path.join(directory, chosen) if chosen else None


def render_trajectory(trajectory: Dict) -> str:
    """Human-readable trajectory table, newest run last."""
    lines = [f"perf trajectory: {trajectory['runs']} runs",
             f"{'label':<10} {'workload':<8} {'latency_us':>12} "
             f"{'tflops':>8} {'sim_cycles':>14} {'wall_s':>8}"]
    for row in trajectory["rows"]:
        lines.append(f"{row['label']:<10} {row['workload']:<8} "
                     f"{row['latency_us']:>12.1f} "
                     f"{row['achieved_tflops']:>8.2f} "
                     f"{row['sim_cycles']:>14.0f} "
                     f"{row['wall_time_s']:>8.2f}")
    if trajectory.get("missing_labels"):
        lines.append("missing (PR landed without a bench file): "
                     + ", ".join(trajectory["missing_labels"]))
    for item in trajectory.get("skipped", ()):
        lines.append(f"skipped {item['file']}: {item['error']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the perf-trajectory benchmark suite.")
    parser.add_argument("workloads", nargs="*",
                        help="subset of workloads (default: all of %s)"
                        % "/".join(sorted(BENCHES)))
    parser.add_argument("--label", default=DEFAULT_LABEL,
                        help="trajectory label; output file is "
                        "BENCH_<label>.json (default %(default)s)")
    parser.add_argument("--output-dir", "-o", type=OUTPUT_DIR, default=".",
                        help="directory for BENCH_<label>.json")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="baseline BENCH_*.json to diff against, or "
                        "'latest' to gate against the newest prior run "
                        "in the output dir (PR-numeric trajectory order)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="soft regression threshold (default 10%%)")
    parser.add_argument("--wall-threshold", type=float, default=None,
                        metavar="FRAC",
                        help="also report wall_time_s regressions beyond "
                        "FRAC (e.g. 0.5 = 50%%); informational only, "
                        "never counted by --strict")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on simulated-metric "
                        "regressions beyond the threshold "
                        "(default: report only)")
    add_jobs(parser, help="worker processes for the workloads "
             "(default 1 = serial); simulated metrics are "
             "identical at any job count, but wall times "
             "are only trajectory-comparable at --jobs 1")
    parser.add_argument("--autotuned", action="store_true",
                        help="also tune each workload's mapping "
                        "(repro.autotune) and report the "
                        "tuned mapping's DES cycles as an extra column; "
                        "headline metrics stay the hand-written mapping")
    parser.add_argument("--trajectory", action="store_true",
                        help="aggregate all BENCH_*.json in the output "
                        "dir into one trajectory table (and JSON with "
                        "--json); runs no workloads")
    parser.add_argument("--json", action="store_true",
                        help="with --trajectory: emit JSON instead of "
                        "the table")
    add_sim_cache(parser, help="enable the sim-result cache for the run "
                  "('mem' or a directory path); sets "
                  "REPRO_SIM_CACHE for this process, so wall "
                  "times measure cache replay, not simulation")
    args = parser.parse_args(argv)

    if args.trajectory:
        trajectory = load_trajectory(args.output_dir)
        emit(trajectory if args.json else render_trajectory(trajectory))
        return 0

    use_sim_cache(args.sim_cache)
    payload = run_bench(args.label, args.workloads or None, jobs=args.jobs,
                        autotuned=args.autotuned)
    for name, result in sorted(payload["workloads"].items()):
        line = (f"{name:<6} latency {result['latency_us']:10.1f} us  "
                f"tflops {result['achieved_tflops']:6.2f}  "
                f"cycles {result['sim_cycles']:12.0f}  "
                f"wall {result['wall_time_s']:.2f} s")
        extras = result.get("extras", {})
        if "autotuned_sim_cycles" in extras:
            line += (f"  tuned {extras['autotuned_sim_cycles']:12.0f} "
                     f"({extras['autotuned_speedup']:.2f}x, "
                     f"{extras['autotuned_mapping']})")
        print(line)
    path = os.path.join(args.output_dir, f"BENCH_{args.label}.json")
    emit(payload, path, "bench report")

    if args.compare:
        baseline_path = args.compare
        if baseline_path == "latest":
            baseline_path = latest_baseline(args.output_dir,
                                            exclude_label=args.label)
            if baseline_path is None:
                print("no prior BENCH_*.json to compare against")
                return 0
            print(f"comparing against latest prior run: {baseline_path}")
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        regressions = compare(payload, baseline, args.threshold,
                              wall_threshold=args.wall_threshold)
        if regressions:
            print(f"perf regressions vs {baseline_path} "
                  f"(soft threshold {100 * args.threshold:.0f}%):")
            for line in regressions:
                print(f"  {line}")
            hard = [line for line in regressions
                    if "(wall-clock, soft)" not in line]
            if args.strict and hard:
                return 1
        else:
            print(f"no regressions vs {baseline_path} beyond "
                  f"{100 * args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
