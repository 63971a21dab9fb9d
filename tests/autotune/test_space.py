"""MappingSpace enumeration, legality and canonicalisation."""

import pytest

from repro.autotune.space import (FCShape, MappingCandidate, MappingSpace,
                                  TBEShape, candidate_from_dict,
                                  shape_from_dict)

FC = FCShape(m=512, k=1024, n=256)
TBE = TBEShape(num_tables=8, rows_per_table=100_000, embedding_dim=64,
               pooling_factor=16, batch_size=32)


def test_enumeration_is_sorted_and_stable():
    space = MappingSpace(shape=FC)
    first = space.candidates()
    second = MappingSpace(shape=FC).candidates()
    assert first == second
    assert list(first) == sorted(first, key=MappingCandidate.key)
    assert len(set(c.key() for c in first)) == len(first)


def test_fc_space_respects_tiling_divisibility():
    space = MappingSpace(shape=FC)
    for cand in space.candidates():
        assert FC.m % (64 * cand.rows) == 0
        n_split = cand.cols // cand.k_split
        assert FC.n % (64 * n_split) == 0
        assert FC.k % (32 * cand.k_split) == 0


def test_fc_canonical_pins_tbe_axes():
    cand = MappingCandidate(op="fc", rows=2, cols=2, prefetch_rows=9,
                            fused=False)
    canon = cand.canonical()
    assert canon.prefetch_rows == 0
    assert canon.fused is True
    assert canon.key() == cand.key()


def test_tbe_canonical_pins_fc_axes():
    cand = MappingCandidate(op="tbe", rows=2, cols=2, prefetch_rows=4,
                            k_split=3, use_multicast=False,
                            dual_core=False)
    canon = cand.canonical()
    assert canon.k_split == 1
    assert canon.use_multicast is True
    assert canon.dual_core is True


def test_tbe_space_includes_placement_and_fusion_axes():
    space = MappingSpace(shape=TBE)
    operands = {c.operands for c in space.candidates()}
    fused = {c.fused for c in space.candidates()}
    depths = {c.prefetch_rows for c in space.candidates()}
    assert operands == {"dram", "sram"}
    assert fused == {True, False}
    assert depths == {1, 2, 4, 8, 16}


def test_sram_placement_requires_fit():
    huge = TBEShape(num_tables=8, rows_per_table=10_000_000,
                    embedding_dim=64, pooling_factor=16, batch_size=32)
    space = MappingSpace(shape=huge)
    assert {c.operands for c in space.candidates()} == {"dram"}
    ok, reason = space.legal(
        MappingCandidate(op="tbe", rows=1, cols=1, prefetch_rows=2,
                         operands="sram"))
    assert not ok and "SRAM" in reason


def test_oversized_subgrid_is_illegal():
    space = MappingSpace(shape=FC)
    ok, reason = space.legal(MappingCandidate(op="fc", rows=16, cols=1))
    assert not ok and "grid" in reason


def test_wrong_family_is_illegal():
    space = MappingSpace(shape=FC)
    ok, reason = space.legal(
        MappingCandidate(op="tbe", rows=1, cols=1, prefetch_rows=2))
    assert not ok


def test_restrict_prunes_axes():
    space = MappingSpace(shape=FC, restrict={"operands": ("dram",),
                                             "dual_core": (True,)})
    assert {c.operands for c in space.candidates()} == {"dram"}
    assert {c.dual_core for c in space.candidates()} == {True}
    assert len(space) < len(MappingSpace(shape=FC))


def test_shape_and_candidate_dict_round_trip():
    for shape in (FC, TBE):
        assert shape_from_dict(shape.to_dict()) == shape
    cand = MappingSpace(shape=TBE).candidates()[3]
    assert candidate_from_dict(cand.to_dict()) == cand
    with pytest.raises(ValueError):
        shape_from_dict({"family": "conv"})


def test_single_pe_grid_has_a_space():
    from repro.config import MTIA_V1
    tiny = MTIA_V1.scaled(grid_rows=1, grid_cols=1)
    space = MappingSpace(shape=FCShape(m=64, k=32, n=64), config=tiny)
    cands = space.candidates()
    assert cands
    assert all(c.rows == 1 and c.cols == 1 for c in cands)
