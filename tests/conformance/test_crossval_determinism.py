"""Crossval shape rules + band logic, and the determinism pillar."""

import pytest
from hypothesis import given, settings

from repro.conformance import (CHECKS, CrossvalBand, crossval_fc,
                               fuzz_fc_shape, run_checks)
from repro.conformance import determinism
from repro.conformance.crossval import CrossvalResult, fuzz_tbe_shape
from tests import strategies as shared


@given(seed=shared.seeds)
def test_fuzzed_fc_shapes_satisfy_tiling_rules(seed):
    s = fuzz_fc_shape(seed)
    n_split = s["cols"] // s["k_split"]
    assert s["m"] % (64 * s["rows"]) == 0
    assert s["n"] % (64 * n_split) == 0
    assert s["k"] % (32 * s["k_split"]) == 0
    assert s["k_split"] <= s["cols"]


@given(seed=shared.seeds)
def test_fuzzed_tbe_shapes_are_bounded(seed):
    s = fuzz_tbe_shape(seed)
    assert 2 <= s["num_tables"] <= 4
    assert s["embedding_dim"] in (32, 64, 128)
    assert s["pooling_factor"] in (8, 16, 32)


def test_band_logic():
    band = CrossvalBand(lo=0.5, hi=2.0)
    assert band.contains(1.0)
    assert not band.contains(0.5) and not band.contains(2.5)
    zero_sim = CrossvalResult(kind="fc", shape={}, sim_seconds=0.0,
                              model_seconds=1.0, band=band)
    assert zero_sim.ratio == float("inf") and not zero_sim.in_band


@pytest.mark.parametrize("seed", [0, 1])
def test_crossval_fc_stays_in_band(seed):
    result = crossval_fc(fuzz_fc_shape(seed))
    assert result.in_band, result.to_dict()
    assert result.sim_seconds > 0 and result.model_seconds > 0


def _rows_of(kind):
    return tuple(row for row in CHECKS if row.kind == kind)


def test_sim_determinism_and_hooks_are_noops(monkeypatch):
    monkeypatch.setattr(determinism, "CHECKS", _rows_of("sim"))
    result = run_checks("determinism", 0)["sim"]
    assert result.ok, result.violations
    assert result.cycles > 0


@settings(max_examples=5)   # each example executes a fuzzed graph 4 times
@given(seed=shared.fuzz_seeds)
def test_graph_executor_replays_deterministically(seed):
    import numpy as np
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore"):
        patch.setattr(determinism, "CHECKS", _rows_of("graph"))
        result = run_checks("determinism", seed)["graph"]
    assert result.ok, result.violations
