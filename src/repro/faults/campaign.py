"""The chaos campaign: seeded fault scenarios -> resilience report.

``python -m repro.faults.campaign`` sweeps a set of *scenarios* over a
range of seeds.  Every scenario pairs a deterministic fault plan with a
serving configuration and reports availability, goodput, and SLO burn
against a fault-free baseline run on the **same arrival stream** (same
seed), so every delta is attributable to the injected faults alone:

* ``card_failure``  — one of N cards dies permanently mid-run; the
  survivors absorb its shards at a failover slowdown (magnitude from
  :func:`repro.runtime.multi_card.estimate_failover`).  The graceful-
  degradation check compares availability against the *shed-everything*
  strawman (every request after the failure instant is lost).
* ``card_slowdown`` — transient slow-card windows drawn from the seed.
* ``timeout_pressure`` — a tight per-attempt deadline plus retries at
  offered load above capacity: the retry-storm regime.
* ``overload_shed``  — 3x offered load with a queue-depth shed policy:
  availability drops but served-request latency stays bounded.

A campaign additionally runs a *hardware microbench* (one small FC
kernel per hardware-fault family, cycle inflation + stall attribution)
and a *failover estimate* (multi-card re-sharding after a card loss).

Everything is a pure function of the seed list: two runs of the same
campaign — at any ``--jobs`` level — emit byte-identical JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import require_positive
from repro.faults.injector import FaultInjector
from repro.faults.plan import PERMANENT, FaultEvent, FaultPlan, FaultProfile
from repro.parallel import parallel_map
from repro.serving.resilience import ResilienceConfig
from repro.serving.simulator import BatchingConfig, simulate_serving
from repro.serving.slo import slo_from_report

SCHEMA_VERSION = 1

#: synthetic batch-latency model: microseconds for a batch of b
DEFAULT_BASE_US = 150.0
DEFAULT_SLOPE_US = 2.0

#: campaign-wide batching window; max_batch=4 caps the service rate at
#: ~25k qps so the overload scenarios actually overload
CAMPAIGN_BATCHING = BatchingConfig(max_batch=4, max_wait_us=200.0)

#: per-request SLO the burn rates are measured against
SLA_US = 1_000.0
AVAILABILITY_TARGET = 0.99

SCENARIOS = ("card_failure", "card_slowdown", "timeout_pressure",
             "overload_shed")


def synthetic_latency_model(batch: int) -> float:
    """The campaign's fixed batch-latency model (no model stack needed)."""
    return DEFAULT_BASE_US + DEFAULT_SLOPE_US * batch


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign sweep, fully serialisable (and picklable)."""

    seeds: int = 10
    seed_start: int = 0
    requests: int = 2000
    qps: float = 20_000.0
    cards: int = 4
    #: survivor-card execute multiplier after a failover; overwritten
    #: by the measured failover estimate unless hardware=False
    failover_slowdown: float = 1.3
    include_hardware: bool = True
    include_failover: bool = True

    def __post_init__(self) -> None:
        require_positive(seeds=self.seeds, requests=self.requests,
                         cards=self.cards)
        if not 0 < self.qps < math.inf:
            raise ValueError(f"qps must be finite and > 0, got {self.qps!r}")

    def seed_list(self) -> List[int]:
        return [self.seed_start + i for i in range(self.seeds)]

    @property
    def makespan_us(self) -> float:
        """Expected arrival-stream span."""
        return self.requests * 1e6 / self.qps

    def to_dict(self) -> Dict:
        return {"schema_version": SCHEMA_VERSION,
                "seeds": self.seed_list(), "requests": self.requests,
                "qps": self.qps, "cards": self.cards,
                "batching": {"max_batch": CAMPAIGN_BATCHING.max_batch,
                             "max_wait_us": CAMPAIGN_BATCHING.max_wait_us},
                "latency_model": {"base_us": DEFAULT_BASE_US,
                                  "slope_us": DEFAULT_SLOPE_US},
                "sla_us": SLA_US,
                "availability_target": AVAILABILITY_TARGET,
                "failover_slowdown": self.failover_slowdown,
                "scenarios": list(SCENARIOS)}


# -- scenario construction ---------------------------------------------------

def _scenario_setup(name: str, seed: int, cfg: CampaignConfig
                    ) -> Tuple[FaultPlan, ResilienceConfig, float]:
    """(plan, resilience, qps) for one scenario instance."""
    span = cfg.makespan_us
    if name == "card_failure":
        dead = seed % cfg.cards
        fail_at = 0.4 * span
        events = [FaultEvent(start=fail_at, kind="card.failure",
                             target=dead, duration=PERMANENT)]
        events += [FaultEvent(start=fail_at, kind="card.slowdown",
                              target=c, duration=PERMANENT,
                              magnitude=cfg.failover_slowdown)
                   for c in range(cfg.cards) if c != dead]
        plan = FaultPlan(events=tuple(events), seed=seed)
        res = ResilienceConfig(num_cards=cfg.cards, max_retries=2)
        return plan, res, cfg.qps
    if name == "card_slowdown":
        profile = FaultProfile(num_cards=cfg.cards, horizon_us=span,
                               rates={"card.slowdown": 3.0})
        plan = FaultPlan.generate(seed, profile, kinds=("card.slowdown",))
        res = ResilienceConfig(num_cards=cfg.cards)
        return plan, res, cfg.qps
    if name == "timeout_pressure":
        # load above single-card capacity + a tight deadline: timeouts
        # spawn retries which add load — the storm regime
        plan = FaultPlan(events=(), seed=seed)
        res = ResilienceConfig(deadline_us=450.0, max_retries=3,
                               retry_backoff_us=50.0, backoff_cap_us=400.0)
        return plan, res, cfg.qps * 1.5
    if name == "overload_shed":
        plan = FaultPlan(events=(), seed=seed)
        res = ResilienceConfig(shed_queue_depth=32)
        return plan, res, cfg.qps * 3.0
    raise ValueError(f"unknown scenario {name!r}")


def _report_stats(report) -> Dict:
    from repro.obs.detect import burn_anomalies

    slo = slo_from_report(report, sla_us=SLA_US,
                          availability_target=AVAILABILITY_TARGET)
    attempts = report.attempts
    mean_attempts = float(attempts.mean()) if attempts.size else 1.0
    telemetry = None
    if report.telemetry is not None:
        t = report.telemetry
        burn = burn_anomalies(slo)
        telemetry = {
            "latency_sketch": t.latency.summary(),
            "slowest": [r.to_dict() for r in t.exemplars.slowest[:3]],
            "anomalous_signals": [r.stat for r in t.anomalies()
                                  if r.anomalous],
            "burn_anomalies": len(burn.anomalies),
            "burn_changepoints": len(burn.changepoints),
        }
    return {
        "telemetry": telemetry,
        "availability": report.availability,
        "counts": report.counts_by_status(),
        "qps_served": report.qps_served,
        "p50_us": report.p50_us,
        "p99_us": report.p99_us,
        "mean_attempts": mean_attempts,
        "retry_overhead_mean_us": report.breakdown_means()["retry_overhead"],
        "hedged_batches": report.hedged_batches,
        "hedge_wins": report.hedge_wins,
        "busy_fraction": report.busy_fraction,
        "slo_burn_rate": slo.burn_rate,
        "slo_violations": slo.violations,
        "slo_aborted": slo.aborted,
    }


def run_scenario(name: str, seed: int, cfg: CampaignConfig) -> Dict:
    """One (scenario, seed) cell plus its fault-free baseline."""
    from repro.obs.metrics import MetricRegistry

    plan, res, qps = _scenario_setup(name, seed, cfg)
    faulted = simulate_serving(
        synthetic_latency_model, qps, CAMPAIGN_BATCHING,
        resilience=res, num_requests=cfg.requests, seed=seed,
        faults=FaultInjector(plan), registry=MetricRegistry(),
        collect_telemetry=True, replica=seed)
    baseline = simulate_serving(
        synthetic_latency_model, qps, CAMPAIGN_BATCHING,
        resilience=ResilienceConfig(num_cards=res.num_cards),
        num_requests=cfg.requests, seed=seed, registry=MetricRegistry(),
        collect_telemetry=True, replica=seed)

    row = {
        "scenario": name,
        "seed": seed,
        "qps_offered": qps,
        "plan": {"events": len(plan), "by_kind": plan.counts_by_kind()},
        "faulted": _report_stats(faulted),
        "baseline": _report_stats(baseline),
    }
    if name == "card_failure":
        fail_at = 0.4 * cfg.makespan_us
        arrivals = faulted.arrivals_us
        before = int(np.searchsorted(arrivals, fail_at, side="right"))
        shed_everything = before / arrivals.size if arrivals.size else 1.0
        row["failure_at_us"] = fail_at
        row["shed_everything_availability"] = shed_everything
        row["graceful"] = bool(
            faulted.availability > shed_everything)
    return row


def _scenario_job(job: Tuple[str, int, CampaignConfig]) -> Dict:
    """Module-level wrapper so the sweep survives ``spawn`` workers."""
    name, seed, cfg = job
    return run_scenario(name, seed, cfg)


# -- hardware microbench -----------------------------------------------------

#: one representative fault per hardware family for the microbench:
#: kind -> magnitude of a wildcard window covering the whole kernel
_MICROBENCH_KINDS = {
    "dram.ecc_correctable": 60.0,   # extra cycles per DRAM access
    "sram.slice_stall": 30.0,       # extra cycles per SRAM access
    "noc.link_degrade": 0.5,        # half the usable link bandwidth
    "noc.retransmit": 100.0,        # extra cycles per traversal
    "pe.slowdown": 10.0,            # extra dispatch cycles per command
}

#: fault-injected stall causes (subset of obs.observer.STALL_CAUSES)
_FAULT_CAUSES = ("dram_ecc_retry", "sram_fault_stall", "noc_retransmit",
                 "pe_fault_stall")


def hardware_microbench(seed: int = 0) -> Dict:
    """Cycle inflation of one small FC kernel per hardware-fault kind.

    The same kernel runs clean once and once per kind under a single
    wildcard fault window covering the whole run, so the table shows
    each fault model actually biting: inflated cycles and/or new stall
    causes in the attribution.
    """
    from repro import Accelerator
    from repro.kernels.fc import run_fc

    def run(plan: Optional[FaultPlan]):
        acc = Accelerator(observe=True)
        if plan is not None:
            FaultInjector(plan).attach(acc)
        result = run_fc(acc, m=64, k=64, n=64, dtype="int8",
                        subgrid=acc.subgrid((0, 0), 1, 1), seed=seed)
        stalls = acc.obs.stalls_by_cause()
        injector = acc.engine.faults
        return result.cycles, stalls, (dict(injector.activations)
                                       if injector else {})

    clean_cycles, clean_stalls, _ = run(None)
    rows = []
    for kind, magnitude in _MICROBENCH_KINDS.items():
        plan = FaultPlan(events=(
            FaultEvent(start=0.0, kind=kind, target=-1,
                       duration=100.0 * max(clean_cycles, 1.0),
                       magnitude=magnitude),), seed=seed)
        cycles, stalls, activations = run(plan)
        rows.append({
            "kind": kind,
            "events": len(plan),
            "cycles": cycles,
            "inflation": cycles / clean_cycles if clean_cycles else 1.0,
            "fault_stall_cycles": {
                cause: stalls.get(cause, 0.0) - clean_stalls.get(cause, 0.0)
                for cause in _FAULT_CAUSES
                if stalls.get(cause, 0.0) != clean_stalls.get(cause, 0.0)},
            "activations": activations,
        })
    return {"seed": seed, "clean_cycles": clean_cycles, "kinds": rows}


# -- failover estimate -------------------------------------------------------

def failover_section(model: str = "HC", cards_target: int = 4,
                     failed_card: int = 1) -> Dict:
    """Multi-card failover estimate for one Table IV model."""
    from repro.compiler.fusion import fuse_graph
    from repro.eval.machines import MACHINES
    from repro.models.configs import MODEL_ZOO, model_size_bytes
    from repro.models.dlrm import build_dlrm_graph
    from repro.runtime.multi_card import estimate_failover

    cfg = MODEL_ZOO[model]
    graph = build_dlrm_graph(cfg, 64)
    fuse_graph(graph)
    capacity = int(model_size_bytes(cfg) / (cards_target - 0.5))
    estimate = estimate_failover(graph, MACHINES["mtia"],
                                 failed_cards=[failed_card],
                                 card_capacity_bytes=capacity)
    return dict(estimate.to_dict(), model=model)


# -- campaign orchestration --------------------------------------------------

def run_campaign(cfg: Optional[CampaignConfig] = None,
                 jobs: int = 1, progress=None) -> Dict:
    """Run every scenario over every seed; returns the JSON-ready report."""
    cfg = cfg or CampaignConfig()

    failover = None
    if cfg.include_failover:
        failover = failover_section(cards_target=cfg.cards)
        # feed the measured degradation back into the card_failure
        # scenario so survivor slowdown is the failover estimate's
        cfg = CampaignConfig(
            seeds=cfg.seeds, seed_start=cfg.seed_start,
            requests=cfg.requests, qps=cfg.qps, cards=cfg.cards,
            failover_slowdown=max(1.0, failover["slowdown"]),
            include_hardware=cfg.include_hardware,
            include_failover=cfg.include_failover)

    cells = [(name, seed, cfg) for seed in cfg.seed_list()
             for name in SCENARIOS]
    callback = (None if progress is None
                else lambda _index, row: progress(row))
    scenarios = parallel_map(_scenario_job, cells, jobs=jobs,
                             progress=callback)

    summary: Dict[str, Dict] = {}
    for name in SCENARIOS:
        rows = [r for r in scenarios if r["scenario"] == name]
        avail = [r["faulted"]["availability"] for r in rows]
        p99 = [r["faulted"]["p99_us"] for r in rows
               if not np.isnan(r["faulted"]["p99_us"])]
        summary[name] = {
            "cells": len(rows),
            "availability_mean": float(np.mean(avail)) if avail else 1.0,
            "availability_min": float(np.min(avail)) if avail else 1.0,
            "p99_served_mean_us": float(np.mean(p99)) if p99 else
            float("nan"),
            "goodput_mean_qps": float(np.mean(
                [r["faulted"]["qps_served"] for r in rows])),
            "slo_burn_mean": float(np.mean(
                [r["faulted"]["slo_burn_rate"] for r in rows])),
            "anomalous_cells": sum(
                1 for r in rows
                if r["faulted"]["telemetry"] is not None
                and (r["faulted"]["telemetry"]["anomalous_signals"]
                     or r["faulted"]["telemetry"]["burn_anomalies"])),
        }

    graceful = all(r["graceful"] for r in scenarios
                   if r["scenario"] == "card_failure")
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "scenarios": scenarios,
        "summary": summary,
        "checks": {"graceful_degradation": graceful},
    }
    if cfg.include_hardware:
        report["hardware"] = hardware_microbench(seed=cfg.seed_start)
    if failover is not None:
        report["failover"] = failover
    return report


def render_text(report: Dict) -> str:
    """Human-readable resilience summary of one campaign report."""
    lines = []
    cfg = report["config"]
    lines.append(f"fault campaign: {len(cfg['seeds'])} seeds x "
                 f"{len(cfg['scenarios'])} scenarios, "
                 f"{cfg['requests']} requests @ {cfg['qps']:.0f} qps, "
                 f"{cfg['cards']} cards")
    lines.append(f"{'scenario':<18} {'avail mean':>10} {'avail min':>10} "
                 f"{'p99 us':>10} {'goodput':>10} {'SLO burn':>9} "
                 f"{'anomalous':>9}")
    for name, s in report["summary"].items():
        anomalous = s.get("anomalous_cells", 0)
        lines.append(f"{name:<18} {s['availability_mean']:>10.4f} "
                     f"{s['availability_min']:>10.4f} "
                     f"{s['p99_served_mean_us']:>10.1f} "
                     f"{s['goodput_mean_qps']:>10.0f} "
                     f"{s['slo_burn_mean']:>9.2f} "
                     f"{anomalous:>4}/{s['cells']:<4}")
    if "hardware" in report:
        hw = report["hardware"]
        lines.append(f"hardware microbench (clean {hw['clean_cycles']:.0f} "
                     "cycles):")
        for row in hw["kinds"]:
            stalls = ", ".join(f"{k}+{v:.0f}" for k, v in
                               row["fault_stall_cycles"].items()) or "-"
            lines.append(f"  {row['kind']:<24} x{row['inflation']:.3f} "
                         f"({row['events']} events; {stalls})")
    if "failover" in report:
        fo = report["failover"]
        lines.append(
            f"failover ({fo['model']}, {fo['cards_before']} -> "
            f"{fo['cards_after']} cards): slowdown x{fo['slowdown']:.3f}, "
            f"moved {fo['moved_weight_bytes'] / 1e9:.1f} GB, efficiency "
            f"{fo['baseline_efficiency']:.3f} -> "
            f"{fo['degraded_efficiency']:.3f}")
    checks = report["checks"]
    lines.append("graceful degradation: "
                 + ("PASS" if checks["graceful_degradation"] else "FAIL"))
    return "\n".join(lines)


def to_json(report: Dict, indent: int = 2) -> str:
    return json.dumps(report, indent=indent, sort_keys=True)


if __name__ == "__main__":   # pragma: no cover
    import sys

    from repro.faults.__main__ import main
    sys.exit(main())
