"""Differential conformance testing (the paper's Section 6 methodology).

The accelerator bring-up validated operators and whole DLRMs by
sweeping shapes against known-good results; this package automates the
same discipline over the reproduction so every refactor is checked by
construction rather than by hand-picked examples.  Four modules:

* :mod:`repro.conformance.fuzzer` — a seeded random generator of valid
  DLRM-style compiler graphs (FC/EB/BMM/Concat/Transpose/elementwise
  chains with randomized shapes, dtypes, and fusion opportunities);
* :mod:`repro.conformance.golden` — a pure-numpy reference evaluator
  for :class:`repro.compiler.ir.Graph`, independent of the operator
  registry's ``execute`` implementations, so fused and unfused
  executions can both be checked against a third opinion;
* :mod:`repro.conformance.crossval` — runs the same operator through
  the cycle-level simulator and the analytical model
  (:func:`repro.eval.opmodel.estimate_op`) and asserts the estimate
  brackets the simulated time within a configurable band;
* :mod:`repro.conformance.determinism` — one registry of checks for
  the determinism, cache, faults and autotune pillars: each row replays
  a seeded subject under a perturbation and asserts bit-identical
  results, or states an invariant; :func:`run_checks` drives them.

``python -m repro.conformance --seeds N`` drives all pillars and emits
a JSON report; ``tests/conformance/`` integrates the same machinery
with pytest + hypothesis.
"""

from repro.conformance.fuzzer import FuzzCase, FuzzConfig, fuzz_graph
from repro.conformance.golden import (GOLDEN_OPS, TolerancePolicy,
                                      compare_outputs, evaluate_graph)
from repro.conformance.crossval import (CrossvalBand, crossval_fc,
                                        crossval_tbe, fuzz_fc_shape)
from repro.conformance.determinism import CHECKS, run_checks
from repro.conformance.runner import (CaseResult, ConformanceConfig,
                                      ConformanceReport, run_conformance)

__all__ = [
    "CHECKS",
    "CaseResult",
    "ConformanceConfig",
    "ConformanceReport",
    "CrossvalBand",
    "FuzzCase",
    "FuzzConfig",
    "GOLDEN_OPS",
    "TolerancePolicy",
    "compare_outputs",
    "crossval_fc",
    "crossval_tbe",
    "evaluate_graph",
    "fuzz_fc_shape",
    "fuzz_graph",
    "run_checks",
    "run_conformance",
]
