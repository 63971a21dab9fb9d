"""Property tests for the mapping-space autotuner.

Two contracts, fuzzed over shape families:

* **legality** — every candidate the enumerator produces is actually
  runnable: FC candidates pass the real :func:`plan_fc` planner (the
  enumerator's arithmetic must mirror it exactly), TBE candidates pass
  the kernel's CB-fit check, and SRAM placements fit the SRAM;
* **canonicalisation invariance** — the opmodel cost of a candidate
  does not change when family-irrelevant fields are perturbed
  (``canonical()`` pins them, and cost must go through it).
"""

from hypothesis import given, settings

from tests import strategies as strat

from repro.autotune.cost import candidate_cost
from repro.autotune.space import MappingSpace


def _replace(candidate, **kwargs):
    from dataclasses import replace
    return replace(candidate, **kwargs)


@given(shape=strat.mapping_shapes())
def test_every_enumerated_candidate_is_legal(shape):
    space = MappingSpace(shape=shape)
    candidates = space.candidates()
    assert candidates, f"empty space for {shape!r}"
    for cand in candidates:
        ok, reason = space.legal(cand)
        assert ok, f"{cand!r}: {reason}"
        if cand.operands == "sram":
            if shape.family == "tbe":
                assert shape.table_bytes <= space.config.sram.capacity_bytes


@given(shape=strat.fc_mapping_shapes())
@settings(max_examples=15)
def test_fc_candidates_pass_the_real_planner(shape):
    """The enumerator's legality arithmetic must mirror plan_fc."""
    from repro.core import Accelerator
    from repro.kernels.fc import plan_fc

    acc = Accelerator()
    space = MappingSpace(shape=shape)
    for cand in space.candidates():
        plan = plan_fc(acc.subgrid((0, 0), cand.rows, cand.cols),
                       shape.m, shape.k, shape.n, shape.dtype,
                       k_split=cand.k_split,
                       use_multicast=cand.use_multicast)
        assert plan.k_split == cand.k_split
        assert plan.n_split == cand.cols // cand.k_split


@given(case=strat.mapping_candidates())
def test_cost_is_invariant_under_recanonicalisation(case):
    shape, cand = case
    base = candidate_cost(shape, cand)
    if shape.family == "fc":
        scrambled = _replace(cand, prefetch_rows=7, fused=False)
    else:
        scrambled = _replace(cand, k_split=3, use_multicast=False,
                             dual_core=False)
    again = candidate_cost(shape, scrambled)
    assert again.cost_s == base.cost_s
    assert again.candidate == base.candidate      # both canonical
    assert again.breakdown == base.breakdown
