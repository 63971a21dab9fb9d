"""The determinism check registry: every row runs, and every subject's
comparison has teeth."""

import numpy as np
import pytest

from repro.conformance import determinism
from repro.conformance.determinism import (CHECK_PILLARS, CHECKS,
                                           Perturbation, run_checks)
from repro.faults import PERMANENT, FaultEvent, FaultInjector, FaultPlan


@pytest.mark.parametrize("pillar", CHECK_PILLARS)
def test_every_kind_runs_clean_at_seed_0(pillar):
    with np.errstate(over="ignore"):
        results = run_checks(pillar, 0)
    kinds = list(dict.fromkeys(r.kind for r in CHECKS if r.pillar == pillar))
    assert list(results) == kinds
    for kind, result in results.items():
        assert result.ok, (kind, result.violations)
        # Every kind reports a figure; graph reported 0.0 when it only
        # compared modelled seconds without recording them.
        assert result.cycles > 0, kind


def test_every_kind_opens_with_a_differential_row():
    first = {}
    for row in CHECKS:
        first.setdefault(row.kind, row)
    assert all(row.perturbation is not None for row in first.values())


def _faults(kind, magnitude):
    return FaultInjector(FaultPlan(events=(
        FaultEvent(start=0.0, kind=kind, duration=PERMANENT,
                   magnitude=magnitude),)))


#: subject -> a knob change that really moves that subject's result
STEERS = {
    "fc": lambda run: run(faults=_faults("dram.ecc_correctable", 100.0)),
    "tbe": lambda run: run(faults=_faults("dram.ecc_correctable", 100.0)),
    "graph": lambda run: run(mode="eager"),
    "serving": lambda run: run(faults=_faults("card.slowdown", 2.0)),
    "fleet": lambda run: run(seed=12345),
    "autotune": lambda run: run(operands=("dram",)),
}


@pytest.mark.parametrize("kind, subject", [
    ("sim", "fc"), ("sim", "tbe"), ("graph", "graph"),
    ("serving", "serving"), ("fleet", "fleet"), ("autotune", "autotune"),
    ("telemetry", "serving")])
def test_a_steering_perturbation_is_reported(monkeypatch, kind, subject):
    row = next(r for r in CHECKS if r.kind == kind and r.subject == subject
               and r.perturbation is not None)
    steered = row._replace(perturbation=Perturbation("steered",
                                                      STEERS[subject]))
    monkeypatch.setattr(determinism, "CHECKS", (steered,))
    with np.errstate(over="ignore"):
        results = run_checks(row.pillar, 0)
    violations = results[kind].violations
    assert violations
    assert all(v.startswith(f"{subject} steered changed ")
               for v in violations), violations
