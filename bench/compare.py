"""Compare benchmark runs of two commits.

    python3 bench/compare.py BASE.json [BASE.json ...] --new NEW.json [...]

Each file is a ``bench/run.py --out`` record, untraced or traced.  For
every workload and end-to-end metric the samples of all base files are
pooled, and likewise the new files; with the metric's bound from
``BENCHMARK.json`` the verdict is

* ``unresolved`` when the spread between quartiles on either side is
  wider than the bound, unless every new sample is better (``better``)
  or every one is worse (``worse``) than every base sample;
* otherwise ``worse`` or ``better`` when the new median moved by more
  than the bound, and ``unchanged`` when it did not.

Exact simulated results and counters are compared per seed and read
``changed`` when they differ by more than a 1e-9 relative tolerance,
which only absorbs summation order.  Traced files add per-layer deltas
for diagnosis.  The exit status is 1 when any end-to-end verdict is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def classify(base: Sequence[float], new: Sequence[float], bound: float,
             better: str = "lower") -> str:
    """The verdict on one end-to-end metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    spread = max((b_q3 - b_q1) / b_med, (n_q3 - n_q1) / n_med)
    if spread > bound:
        if max(sign * x for x in new) < min(sign * x for x in base):
            return "better"
        if min(sign * x for x in new) > max(sign * x for x in base):
            return "worse"
        return "unresolved"
    change = sign * (n_med - b_med) / b_med
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def pool(runs: List[Dict]) -> Dict[str, Dict]:
    """Per workload: end-to-end samples, per-layer values, exact values.

    Exact values are keyed by ``(seed, name)``: they repeat only for the
    same seed.
    """
    pooled: Dict[str, Dict] = {}
    for run in runs:
        for name, record in run["workloads"].items():
            side = pooled.setdefault(name, {"samples": defaultdict(list),
                                            "layers": defaultdict(list),
                                            "exact": defaultdict(list)})
            for metric, block in record["metrics"].items():
                if run["trace"]:
                    side["layers"][metric].append(block["value"])
                else:
                    side["samples"][metric].extend(
                        record["samples"].get(metric) or [block["value"]])
            for metric, value in record["exact"].items():
                side["exact"][(run["seed"], metric)].append(value)
    return pooled


def exact_changes(base: Dict, new: Dict) -> Optional[List[str]]:
    """Names of exact metrics that differ at a shared seed.

    ``None`` when the two sides share no seed, so nothing is comparable.
    """
    shared = sorted(set(base) & set(new))
    if not shared:
        return None
    changed = []
    for key in shared:
        values = base[key] + new[key]
        if not all(math.isclose(v, values[0], rel_tol=1e-9, abs_tol=0.0)
                   for v in values):
            changed.append(f"{key[1]} at seed {key[0]} "
                           f"({base[key][0]!r} -> {new[key][0]!r})")
    return changed


def compare(base: Dict[str, Dict], new: Dict[str, Dict],
            spec: Dict) -> Dict[str, Dict]:
    """Verdicts per workload on two :func:`pool` results.

    ``{"metrics": {name: verdict}, "exact": exact_changes(...)}``.
    """
    verdicts: Dict[str, Dict] = {}
    for workload in base.keys() & new.keys():
        b, n = base[workload], new[workload]
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if b["samples"].get(name) and n["samples"].get(name):
                metrics[name] = classify(b["samples"][name],
                                         n["samples"][name],
                                         metric["bound"], metric["better"])
        verdicts[workload] = {"metrics": metrics,
                              "exact": exact_changes(b["exact"], n["exact"])}
    return verdicts


def _describe(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def report(base: Dict[str, Dict], new: Dict[str, Dict], spec: Dict,
           verdicts: Dict[str, Dict]) -> List[str]:
    """Human-readable comparison, one block per workload."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in verdicts:
            continue
        b, n = base[workload], new[workload]
        lines.append(workload)
        for metric, verdict in verdicts[workload]["metrics"].items():
            bs, ns = b["samples"][metric], n["samples"][metric]
            change = statistics.median(ns) / statistics.median(bs) - 1.0
            lines.append(f"  {metric:<12} {_describe(bs):<38} -> "
                         f"{_describe(ns):<38} {100 * change:+6.1f}% "
                         f"(bound {100 * bounds[metric]:.0f}%) {verdict}")
        exact = verdicts[workload]["exact"]
        if exact is None:
            lines.append("  exact: no seed in common, not compared")
        else:
            lines.append("  exact: " + ("; ".join(exact) + " changed"
                                        if exact else "unchanged"))
        for metric in [m["name"] for m in spec["per_layer"]]:
            if not (b["layers"].get(metric) and n["layers"].get(metric)):
                continue
            before = statistics.median(b["layers"][metric])
            after = statistics.median(n["layers"][metric])
            if before or after:
                delta = (f"{100 * (after / before - 1):+.1f}%" if before
                         else "new")
                lines.append(f"  layer {metric:<30} {before:>14.6g} -> "
                             f"{after:<14.6g} {delta}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/compare.py",
        description="Compare bench/run.py --out records of two commits.")
    parser.add_argument("base", nargs="+", metavar="BASE.json")
    parser.add_argument("--new", nargs="+", required=True,
                        metavar="NEW.json")
    args = parser.parse_args(argv)

    def load(paths):
        runs = []
        for path in paths:
            with open(path) as fh:
                runs.append(json.load(fh))
        return pool(runs)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    base, new = load(args.base), load(args.new)
    verdicts = compare(base, new, spec)
    print("\n".join(report(base, new, spec, verdicts)))
    worse = any(v == "worse" for row in verdicts.values()
                for v in row["metrics"].values())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
