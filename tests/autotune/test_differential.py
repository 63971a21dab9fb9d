"""Differential: the whole-space ranking against brute force.

Phase 1 costs every legal candidate, so on a space small enough to
cost by hand:

* the ranking's winner must be the winner of an independent brute
  force — the raw product of every axis value, filtered through
  :meth:`MappingSpace.legal` and costed one by one — over twelve small
  spaces per op family, and the two must cover the same candidates;
* the DES-validated set must be the first ``k`` candidates of the cost
  model's order over the whole space, and the report's ``space_size``
  must count every candidate.

Both sides break cost ties on the canonical candidate key, so "same
winner" is well-defined even with ties.
"""

import itertools

import pytest

from repro.autotune.cost import CostedCandidate, candidate_cost, rank_space
from repro.autotune.space import (PREFETCH_DEPTHS, FCShape, MappingCandidate,
                                  MappingSpace, TBEShape)
from repro.autotune.tuner import autotune

SMALL_FC = MappingSpace(
    shape=FCShape(m=256, k=256, n=256),
    restrict={"use_multicast": (True,), "dual_core": (True,)})

SMALL_TBE = MappingSpace(
    shape=TBEShape(num_tables=4, rows_per_table=1024, embedding_dim=64,
                   pooling_factor=8, batch_size=16),
    restrict={"prefetch_rows": (1, 4, 16), "fused": (True,)})


@pytest.mark.parametrize("space", [SMALL_FC, SMALL_TBE],
                         ids=["fc", "tbe"])
def test_space_is_small_enough_to_brute_force(space):
    assert 4 <= len(space) <= 120


#: axis restrictions crossed with the shapes below: the whole space, a
#: pinned-axes slice like the SMALL_* spaces, and a DRAM-only slice.
FC_RESTRICTS = ({}, {"use_multicast": (True,), "dual_core": (True,)},
                {"operands": ("dram",), "k_split": (1, 2)})
TBE_RESTRICTS = ({}, {"prefetch_rows": (1, 4, 16), "fused": (True,)},
                 {"operands": ("dram",)})

#: square, tall, wide and single-tile FC shapes (one is not int8).
FC_SHAPES = (FCShape(m=256, k=256, n=256), FCShape(m=512, k=128, n=128),
             FCShape(m=128, k=512, n=512, dtype="fp16"),
             FCShape(m=64, k=32, n=64))
#: a baseline TBE, tables too big for the SRAM, a dim so wide that the
#: deepest prefetch overflows local memory, and a single-table batch.
TBE_SHAPES = (
    TBEShape(num_tables=4, rows_per_table=1024, embedding_dim=64,
             pooling_factor=8, batch_size=16),
    TBEShape(num_tables=8, rows_per_table=1_000_000, embedding_dim=128,
             pooling_factor=32, batch_size=64),
    TBEShape(num_tables=2, rows_per_table=4096, embedding_dim=8192,
             pooling_factor=4, batch_size=8),
    TBEShape(num_tables=1, rows_per_table=512, embedding_dim=32,
             pooling_factor=1, batch_size=1))

SPACES = {
    "fc": [MappingSpace(shape=shape, restrict=restrict)
           for shape, restrict in itertools.product(FC_SHAPES,
                                                    FC_RESTRICTS)],
    "tbe": [MappingSpace(shape=shape, restrict=restrict)
            for shape, restrict in itertools.product(TBE_SHAPES,
                                                     TBE_RESTRICTS)],
}
VARIANTS = list(range(12))


def _allowed(space, axis, values):
    chosen = space.restrict.get(axis)
    return [v for v in values if chosen is None or v in chosen]


def _brute_force(space):
    """Every legal candidate, found without ``space.candidates()``."""
    grid = [1, 2, 4, 8, 16, 32]
    rows = _allowed(space, "rows", grid)
    cols = _allowed(space, "cols", grid)
    operands = _allowed(space, "operands", ("dram", "sram"))
    if space.shape.family == "fc":
        raw = (MappingCandidate(op="fc", rows=r, cols=c, k_split=ks,
                                use_multicast=mc, dual_core=dc,
                                operands=o)
               for r, c, ks, mc, dc, o in itertools.product(
                   rows, cols, _allowed(space, "k_split", grid),
                   _allowed(space, "use_multicast", (True, False)),
                   _allowed(space, "dual_core", (True, False)), operands))
    else:
        raw = (MappingCandidate(op="tbe", rows=r, cols=c, prefetch_rows=p,
                                operands=o, fused=f)
               for r, c, p, o, f in itertools.product(
                   rows, cols,
                   _allowed(space, "prefetch_rows", PREFETCH_DEPTHS),
                   operands, _allowed(space, "fused", (True, False))))
    legal = {c.canonical() for c in raw if space.legal(c)[0]}
    return [candidate_cost(space.shape, c, config=space.config)
            for c in legal]


@pytest.mark.parametrize("seed", VARIANTS)
@pytest.mark.parametrize("family", ["fc", "tbe"])
def test_search_finds_the_brute_force_winner(family, seed):
    space = SPACES[family][seed]
    oracle = _brute_force(space)
    ranked = rank_space(space)
    assert ({cc.candidate.key() for cc in ranked}
            == {cc.candidate.key() for cc in oracle})
    best = min(oracle, key=CostedCandidate.sort_key)
    found = ranked[0]
    assert found.candidate == best.candidate, (
        f"space {seed} ({space.shape.describe()}, {space.restrict}): "
        f"ranking picked {found.candidate.describe()} "
        f"({found.cost_s:.3e}s), brute force says "
        f"{best.candidate.describe()} ({best.cost_s:.3e}s)")
    assert found.cost_s == best.cost_s


@pytest.mark.parametrize("space", [SMALL_FC, SMALL_TBE],
                         ids=["fc", "tbe"])
def test_tuner_validates_the_models_top_k(space):
    k = 3
    oracle = sorted((candidate_cost(space.shape, c, config=space.config)
                     for c in space.candidates()),
                    key=CostedCandidate.sort_key)
    result = autotune(space.shape, topk=k, space=space)
    validated = sorted((v.predicted_s, v.candidate.key())
                       for v in result.validated)
    assert validated == [cc.sort_key() for cc in oracle[:k]]
    assert result.space_size == len(space)
