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
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.config import require_positive
from repro.conformance.crossval import (CrossvalBand, crossval_fc,
                                        crossval_tbe, fuzz_fc_shape,
                                        fuzz_tbe_shape)
from repro.conformance.determinism import CHECK_PILLARS, run_checks
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

    def __post_init__(self) -> None:
        require_positive(seeds=self.seeds)
        if self.explicit_seeds is not None and not self.explicit_seeds:
            raise ValueError("explicit_seeds must name at least one seed")

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

    def violations(self, pillar: str) -> int:
        """Cases of ``pillar`` that did not pass."""
        return sum(1 for c in self.by_pillar(pillar) if not c.ok)

    @property
    def band_violation_rate(self) -> float:
        cases = self.by_pillar("crossval")
        if not cases:
            return 0.0
        return sum(1 for c in cases if c.status == "violation") / len(cases)

    @property
    def passed(self) -> bool:
        if any(self.violations(p) for p in ("golden",) + CHECK_PILLARS):
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
                "golden_divergences": self.violations("golden"),
                **{f"{p}_violations": self.violations(p)
                   for p in CHECK_PILLARS},
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


def run_check_case(pillar: str, seed: int, index: int,
                   config: ConformanceConfig) -> CaseResult:
    """Run one check pillar's registry rows; one ``details`` key per kind.

    ``index`` is unused: check rows run the same at every sweep position.
    """
    results = run_checks(pillar, seed, FuzzConfig(ops=config.ops))
    status = ("ok" if all(r.ok for r in results.values())
              else "violation")
    return CaseResult(seed=seed, pillar=pillar, status=status,
                      details={kind: r.to_dict()
                               for kind, r in results.items()})


def _case_job(job: Tuple[str, int, int, ConformanceConfig]) -> CaseResult:
    """One (pillar, seed) case — module-level so it survives ``spawn``.

    Exceptions are captured as ``status="error"`` CaseResults so one
    bad seed cannot mask the rest of the sweep (and so workers always
    return a picklable value).
    """
    pillar, seed, index, config = job
    try:
        if pillar not in _RUNNERS:
            raise ValueError(f"unknown pillar {pillar!r}")
        with np.errstate(over="ignore"):  # saturating sigmoids
            return _RUNNERS[pillar](seed, index, config)
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


_RUNNERS: Dict[str, Callable[[int, int, ConformanceConfig], CaseResult]] = {
    "golden": lambda seed, _index, config: run_golden_case(seed, config),
    "crossval": run_crossval_case,
    **{pillar: partial(run_check_case, pillar) for pillar in CHECK_PILLARS},
}

