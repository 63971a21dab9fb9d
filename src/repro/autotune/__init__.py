"""Deterministic mapping-space autotuning (tilings, placement, fusion).

The MTIA software stack's performance hinges on mapping decisions —
Figure 7 tilings, sub-grid shapes, SRAM vs DRAM operand placement,
EB→TBE fusion, pipelining depth — that this repo previously hand-picked
per operator.  ``repro.autotune`` ranks that whole space instead:

* :mod:`repro.autotune.space` — legal-candidate enumeration per
  operator shape (:class:`MappingSpace`, :class:`MappingCandidate`);
* :mod:`repro.autotune.cost` — phase-1 ranking of every candidate with
  the calibrated analytical model (:func:`rank_space`,
  :class:`CostedCandidate`);
* :mod:`repro.autotune.validate` — phase-2 DES measurement of the
  model's top-k (:func:`validate_candidates`, :func:`hand_candidate`);
* :mod:`repro.autotune.tuner` — the end-to-end loop and report
  (:func:`autotune`);
* ``python -m repro.autotune`` — the CLI.

Nothing is random: the same shape and ``--topk`` give a byte-identical
ranking and report at any ``--jobs`` count.  The conformance runner's
``autotune`` pillar enforces exactly that.
"""

from repro.autotune.cost import CostedCandidate, candidate_cost, rank_space
from repro.autotune.space import (FCShape, MappingCandidate, MappingSpace,
                                  TBEShape, candidate_from_dict, key_str,
                                  shape_from_dict)
from repro.autotune.tuner import (SCHEMA_VERSION, AutotuneResult, autotune,
                                  render_text)
from repro.autotune.validate import (ValidatedCandidate, hand_candidate,
                                     simulate_candidate,
                                     validate_candidates)

__all__ = [
    "AutotuneResult", "CostedCandidate", "FCShape", "MappingCandidate",
    "MappingSpace", "SCHEMA_VERSION", "TBEShape", "ValidatedCandidate",
    "autotune", "candidate_cost", "candidate_from_dict", "hand_candidate",
    "key_str", "rank_space", "render_text", "shape_from_dict",
    "simulate_candidate", "validate_candidates",
]
