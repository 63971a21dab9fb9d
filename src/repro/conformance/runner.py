"""Conformance run orchestration + JSON report.

One *case* is (seed, pillar).  Each pillar derives its own sub-stream
from the case seed, so pillars can be enabled independently without
shifting each other's randomness, and any failing case replays from
its printed seed alone.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.conformance.crossval import (CrossvalBand, crossval_fc,
                                        crossval_tbe, fuzz_fc_shape,
                                        fuzz_tbe_shape)
from repro.conformance.determinism import (check_autotune_determinism,
                                           check_cache_determinism,
                                           check_critical_noop,
                                           check_fault_injection_noop,
                                           check_fleet_determinism,
                                           check_graph_cache_determinism,
                                           check_graph_determinism,
                                           check_serving_determinism,
                                           check_sim_determinism,
                                           check_telemetry_determinism)
from repro.conformance.fuzzer import OP_FAMILIES, FuzzConfig, fuzz_graph
from repro.conformance.golden import (TolerancePolicy, compare_outputs,
                                      evaluate_graph)
from repro.parallel import parallel_map

PILLARS = ("golden", "determinism", "crossval", "cache", "faults",
           "autotune")

#: Every N-th crossval case runs the (slower) TBE gather instead of FC.
_TBE_EVERY = 5


@dataclass
class ConformanceConfig:
    """Everything one conformance run needs, fully serialisable."""

    seeds: int = 25
    seed_start: int = 0
    ops: Tuple[str, ...] = OP_FAMILIES
    pillars: Tuple[str, ...] = PILLARS
    band: CrossvalBand = CrossvalBand()
    tolerance: TolerancePolicy = TolerancePolicy()
    #: fraction of crossval cases allowed outside the band before the
    #: whole run fails (band checks are statistical, not bit-exact)
    max_band_violation_rate: float = 0.1
    explicit_seeds: Optional[Tuple[int, ...]] = None

    def seed_list(self) -> List[int]:
        if self.explicit_seeds is not None:
            return list(self.explicit_seeds)
        return [self.seed_start + i for i in range(self.seeds)]

    def to_dict(self) -> Dict:
        return {"seeds": self.seed_list(), "ops": list(self.ops),
                "pillars": list(self.pillars),
                "band": [self.band.lo, self.band.hi],
                "tolerance": {"atol": self.tolerance.atol,
                              "rtol": self.tolerance.rtol},
                "max_band_violation_rate": self.max_band_violation_rate}


@dataclass
class CaseResult:
    """Outcome of one (seed, pillar) case."""

    seed: int
    pillar: str
    status: str                     #: ok | divergence | violation | error
    details: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict:
        return {"seed": self.seed, "pillar": self.pillar,
                "status": self.status, "details": self.details}


@dataclass
class ConformanceReport:
    """Aggregated results of one run."""

    config: ConformanceConfig
    cases: List[CaseResult] = field(default_factory=list)

    def by_pillar(self, pillar: str) -> List[CaseResult]:
        return [c for c in self.cases if c.pillar == pillar]

    def failures(self) -> List[CaseResult]:
        return [c for c in self.cases if not c.ok]

    @property
    def golden_divergences(self) -> int:
        return sum(1 for c in self.by_pillar("golden") if not c.ok)

    @property
    def determinism_violations(self) -> int:
        return sum(1 for c in self.by_pillar("determinism") if not c.ok)

    @property
    def cache_violations(self) -> int:
        return sum(1 for c in self.by_pillar("cache") if not c.ok)

    @property
    def faults_violations(self) -> int:
        return sum(1 for c in self.by_pillar("faults") if not c.ok)

    @property
    def autotune_violations(self) -> int:
        return sum(1 for c in self.by_pillar("autotune") if not c.ok)

    @property
    def band_violation_rate(self) -> float:
        cases = self.by_pillar("crossval")
        if not cases:
            return 0.0
        return sum(1 for c in cases if c.status == "violation") / len(cases)

    @property
    def passed(self) -> bool:
        if (self.golden_divergences or self.determinism_violations
                or self.cache_violations or self.faults_violations
                or self.autotune_violations):
            return False
        if any(c.status == "error" for c in self.cases):
            return False
        return (self.band_violation_rate
                <= self.config.max_band_violation_rate)

    def to_dict(self) -> Dict:
        return {
            "config": self.config.to_dict(),
            "passed": self.passed,
            "totals": {
                "cases": len(self.cases),
                "golden_divergences": self.golden_divergences,
                "determinism_violations": self.determinism_violations,
                "cache_violations": self.cache_violations,
                "faults_violations": self.faults_violations,
                "autotune_violations": self.autotune_violations,
                "crossval_cases": len(self.by_pillar("crossval")),
                "band_violation_rate": self.band_violation_rate,
                "errors": sum(1 for c in self.cases
                              if c.status == "error"),
            },
            "failures": [c.to_dict() for c in self.failures()],
            "cases": [c.to_dict() for c in self.cases],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# -- pillar drivers ----------------------------------------------------------

def run_golden_case(seed: int, config: ConformanceConfig) -> CaseResult:
    """Fuzz a graph; check eager and fused executions vs the reference."""
    from repro.runtime.executor import GraphExecutor

    fuzz_config = FuzzConfig(ops=config.ops)
    case = fuzz_graph(seed, fuzz_config)
    reference = evaluate_graph(case.graph, case.feeds, case.weights)

    details: Dict = {"summary": case.summary, "divergences": []}
    for mode in ("eager", "graph"):
        executed = case.graph.copy()
        outputs, _ = GraphExecutor(mode=mode).run(executed, case.feeds,
                                                  case.weights)
        diverged = compare_outputs(
            outputs, reference, config.tolerance,
            actual_names=executed.outputs,
            expected_names=case.graph.outputs)
        details["divergences"].extend(
            dict(d.to_dict(), mode=mode) for d in diverged)
    status = "ok" if not details["divergences"] else "divergence"
    return CaseResult(seed=seed, pillar="golden", status=status,
                      details=details)


def run_determinism_case(seed: int,
                         config: ConformanceConfig) -> CaseResult:
    """Replay one seed at the sim, executor, serving, fleet levels."""
    sim = check_sim_determinism(seed)
    graph = check_graph_determinism(seed, FuzzConfig(ops=config.ops))
    serving = check_serving_determinism(seed)
    telemetry = check_telemetry_determinism(seed)
    fleet = check_fleet_determinism(seed)
    critical = check_critical_noop(seed)
    violations = (sim.violations + graph.violations + serving.violations
                  + telemetry.violations + fleet.violations
                  + critical.violations)
    status = "ok" if not violations else "violation"
    return CaseResult(seed=seed, pillar="determinism", status=status,
                      details={"sim": sim.to_dict(),
                               "graph": graph.to_dict(),
                               "serving": serving.to_dict(),
                               "telemetry": telemetry.to_dict(),
                               "fleet": fleet.to_dict(),
                               "critical": critical.to_dict()})


def run_crossval_case(seed: int, index: int,
                      config: ConformanceConfig) -> CaseResult:
    """Cross-validate one fuzzed shape (FC, or TBE every N-th case)."""
    use_tbe = "eb" in config.ops and index % _TBE_EVERY == _TBE_EVERY - 1
    if use_tbe:
        result = crossval_tbe(fuzz_tbe_shape(seed))
    else:
        result = crossval_fc(fuzz_fc_shape(seed), config.band)
    status = "ok" if result.in_band else "violation"
    return CaseResult(seed=seed, pillar="crossval", status=status,
                      details=result.to_dict())


def run_cache_case(seed: int, config: ConformanceConfig) -> CaseResult:
    """Prove cache hits are bit-identical to fresh computation.

    Two sub-checks: the whole-run sim cache (kernel granularity) and
    the per-op graph cache (fresh / cold / warm / partial-warm).
    """
    result = check_cache_determinism(seed)
    graph = check_graph_cache_determinism(seed,
                                          FuzzConfig(ops=config.ops))
    status = "ok" if result.ok and graph.ok else "violation"
    return CaseResult(seed=seed, pillar="cache", status=status,
                      details={"cache": result.to_dict(),
                               "graph_cache": graph.to_dict()})


def run_faults_case(seed: int, config: ConformanceConfig) -> CaseResult:
    """Prove an armed-but-empty fault injector is a perfect no-op."""
    result = check_fault_injection_noop(seed)
    status = "ok" if result.ok else "violation"
    return CaseResult(seed=seed, pillar="faults", status=status,
                      details={"faults": result.to_dict()})


def run_autotune_case(seed: int, config: ConformanceConfig) -> CaseResult:
    """Seeded-search replay identity + tuned-mapping re-simulation."""
    result = check_autotune_determinism(seed)
    status = "ok" if result.ok else "violation"
    return CaseResult(seed=seed, pillar="autotune", status=status,
                      details={"autotune": result.to_dict()})


def _case_job(job: Tuple[str, int, int, ConformanceConfig]) -> CaseResult:
    """One (pillar, seed) case — module-level so it survives ``spawn``.

    Exceptions are captured as ``status="error"`` CaseResults so one
    bad seed cannot mask the rest of the sweep (and so workers always
    return a picklable value).
    """
    pillar, seed, index, config = job
    try:
        with np.errstate(over="ignore"):  # saturating sigmoids
            return _run_case(pillar, seed, index, config)
    except Exception as exc:
        return CaseResult(
            seed=seed, pillar=pillar, status="error",
            details={"exception": repr(exc),
                     "traceback": traceback.format_exc(limit=8)})


def run_conformance(config: Optional[ConformanceConfig] = None,
                    progress=None, jobs: int = 1) -> ConformanceReport:
    """Run every enabled pillar over every seed.

    ``progress`` is an optional callable invoked with each finished
    :class:`CaseResult` (the CLI uses it for incremental output).
    Exceptions inside a case are captured as ``status="error"`` so one
    bad seed cannot mask the rest of the sweep.

    ``jobs > 1`` fans the cases out over worker processes via
    :func:`repro.parallel.parallel_map`.  Every case is a pure function
    of (pillar, seed, config) — the determinism pillar proves it — so
    the report is identical at any job count; only wall time changes.
    """
    config = config or ConformanceConfig()
    report = ConformanceReport(config=config)
    cases = [(pillar, seed, index, config)
             for index, seed in enumerate(config.seed_list())
             for pillar in config.pillars]
    callback = (None if progress is None
                else lambda _index, case: progress(case))
    report.cases.extend(parallel_map(_case_job, cases, jobs=jobs,
                                     progress=callback))
    return report


def _run_case(pillar: str, seed: int, index: int,
              config: ConformanceConfig) -> CaseResult:
    if pillar == "golden":
        return run_golden_case(seed, config)
    if pillar == "determinism":
        return run_determinism_case(seed, config)
    if pillar == "crossval":
        return run_crossval_case(seed, index, config)
    if pillar == "cache":
        return run_cache_case(seed, config)
    if pillar == "faults":
        return run_faults_case(seed, config)
    if pillar == "autotune":
        return run_autotune_case(seed, config)
    raise ValueError(f"unknown pillar {pillar!r}")
