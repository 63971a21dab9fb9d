"""The Section 4 FC kernel, verified bit-exactly against numpy."""

import numpy as np
import pytest

from repro import Accelerator
from repro.config import MTIA_V1
from repro.kernels.fc import FCPlan, _auto_subgrid, plan_fc, run_fc
from repro.sim import SimulationError


def reference(m, k, n, dtype=np.int8, seed=0):
    rng = np.random.default_rng(seed)
    if dtype == np.int8:
        a = rng.integers(-128, 128, (m, k), dtype=np.int8)
        b_t = rng.integers(-128, 128, (n, k), dtype=np.int8)
        c_t = b_t.astype(np.int32) @ a.astype(np.int32).T
    else:
        a = rng.standard_normal((m, k)).astype(dtype)
        b_t = rng.standard_normal((n, k)).astype(dtype)
        c_t = b_t.astype(np.float32) @ a.astype(np.float32).T
    return a, b_t, c_t


class TestPlanning:
    def test_figure7_example_plan(self, accelerator):
        """The paper's example: 512x1024x256 on a 4x4 sub-grid with the
        reduction dimension split over two PEs per row."""
        sub = accelerator.subgrid((0, 0), 4, 4)
        plan = plan_fc(sub, 512, 1024, 256, k_split=2)
        assert plan.n_split == 2
        assert plan.m_per_row == 128
        assert plan.k_per_pe == 512
        assert plan.n_per_group == 128
        assert len(plan.work_items) == 16
        chains = {w.coord: (w.chain_index, w.chain_length)
                  for w in plan.work_items}
        assert chains[(0, 0)] == (0, 2)
        assert chains[(0, 1)] == (1, 2)

    def test_multicast_groups_follow_figure7(self, accelerator):
        sub = accelerator.subgrid((0, 0), 4, 4)
        plan = plan_fc(sub, 512, 1024, 256, k_split=2)
        by_coord = {w.coord: w for w in plan.work_items}
        # Columns 0 and 2 share the same k slice -> same A group.
        assert by_coord[(0, 0)].multicast_a is by_coord[(0, 2)].multicast_a
        assert by_coord[(0, 0)].multicast_a is not by_coord[(0, 1)].multicast_a
        # Every PE in a column shares the B group.
        assert by_coord[(0, 0)].multicast_b is by_coord[(3, 0)].multicast_b

    def test_shape_must_tile(self, accelerator):
        sub = accelerator.subgrid((0, 0), 2, 2)
        with pytest.raises(SimulationError, match="multiple"):
            plan_fc(sub, 100, 64, 64)
        with pytest.raises(SimulationError, match="multiple"):
            plan_fc(sub, 128, 48, 64, k_split=1)
        # no pass pads a GEMM to the tile: run_fc refuses an unaligned
        # shape before any simulation
        with pytest.raises(SimulationError,
                           match="m=100 must be a multiple of 64x1 rows"):
            run_fc(accelerator, m=100, k=50, n=37,
                   subgrid=accelerator.subgrid((0, 0), 1, 1))

    def test_local_memory_budget_enforced(self, accelerator):
        sub = accelerator.subgrid((0, 0), 1, 1)
        with pytest.raises(SimulationError, match="local memory"):
            plan_fc(sub, 64, 8192, 1024, k_split=1)

    def test_k_split_must_divide_cols(self, accelerator):
        sub = accelerator.subgrid((0, 0), 2, 4)
        with pytest.raises(SimulationError, match="divide"):
            plan_fc(sub, 128, 128, 256, k_split=3)

    def test_cb_sizing(self, accelerator):
        sub = accelerator.subgrid((0, 0), 1, 1)
        plan = plan_fc(sub, 64, 128, 64)
        cb_a, cb_b, cb_c = plan.cb_bytes()
        assert cb_a == (128 // 32) * 64 * 32      # one 64-row A stripe
        assert cb_b == (64 // 64) * (128 // 32) * 64 * 32
        assert cb_c == 64 * 64 * 4

    def test_auto_subgrid_prefers_large(self, accelerator):
        sub = _auto_subgrid(accelerator, 512, 1024, 512)
        assert sub.rows == 8 and sub.cols == 8


class TestCorrectness:
    @pytest.mark.parametrize("m,k,n,rows,cols,k_split", [
        (64, 32, 64, 1, 1, 1),          # minimal single PE
        (64, 64, 64, 1, 1, 1),
        (128, 64, 64, 2, 1, 1),         # m across rows
        (64, 128, 64, 1, 2, 2),         # k chain along a row
        (64, 64, 128, 1, 2, 1),         # n across column groups
        (128, 128, 128, 2, 2, 2),       # everything at once
        (128, 96, 64, 1, 1, 1),         # k not a power of two
    ])
    def test_int8_bit_exact(self, m, k, n, rows, cols, k_split):
        acc = Accelerator()
        a, b_t, c_t = reference(m, k, n)
        result = run_fc(acc, a, b_t, subgrid=acc.subgrid((0, 0), rows, cols),
                        k_split=k_split)
        np.testing.assert_array_equal(result.c_t, c_t)

    def test_figure7_shape_full(self):
        acc = Accelerator()
        a, b_t, c_t = reference(512, 1024, 256)
        result = run_fc(acc, a, b_t, subgrid=acc.subgrid((0, 0), 4, 4),
                        k_split=2)
        np.testing.assert_array_equal(result.c_t, c_t)
        assert result.macs == 512 * 1024 * 256

    def test_fp16_close_to_reference(self):
        acc = Accelerator()
        a, b_t, c_t = reference(128, 128, 128, dtype=np.float16)
        result = run_fc(acc, a, b_t, dtype="fp16",
                        subgrid=acc.subgrid((0, 0), 2, 2), k_split=2)
        np.testing.assert_allclose(result.c_t, c_t, rtol=2e-3, atol=1e-2)

    def test_c_property_transposes(self):
        acc = Accelerator()
        a, b_t, c_t = reference(64, 32, 64)
        result = run_fc(acc, a, b_t, subgrid=acc.subgrid((0, 0), 1, 1))
        np.testing.assert_array_equal(result.c, c_t.T)

    def test_deterministic_given_seed(self):
        r1 = run_fc(Accelerator(), m=64, k=64, n=64, seed=7,
                    subgrid=Accelerator().subgrid((0, 0), 1, 1))
        r2 = run_fc(Accelerator(), m=64, k=64, n=64, seed=7,
                    subgrid=Accelerator().subgrid((0, 0), 1, 1))
        np.testing.assert_array_equal(r1.c_t, r2.c_t)
        assert r1.cycles == r2.cycles

    def test_mismatched_operands_rejected(self):
        acc = Accelerator()
        with pytest.raises(ValueError, match="k mismatch"):
            run_fc(acc, np.zeros((64, 32), np.int8),
                   np.zeros((64, 64), np.int8))

    def test_dimensions_required_without_operands(self):
        with pytest.raises(ValueError, match="m, k, n"):
            run_fc(Accelerator(), m=64, k=64)


class TestPerformanceBehaviour:
    def test_more_pes_run_faster(self):
        shapes = dict(m=256, k=256, n=128)
        acc1 = Accelerator()
        t1 = run_fc(acc1, subgrid=acc1.subgrid((0, 0), 1, 1), **shapes).cycles
        acc2 = Accelerator()
        t2 = run_fc(acc2, subgrid=acc2.subgrid((0, 0), 4, 4), k_split=2,
                    **shapes).cycles
        assert t2 < t1 / 2

    def test_multicast_reduces_memory_traffic(self):
        """Figure 7's row/column sharing: with a 2x2 grid the same
        operand bytes are fetched once, not per PE."""
        shapes = dict(m=128, k=128, n=128)
        acc = Accelerator()
        run_fc(acc, subgrid=acc.subgrid((0, 0), 2, 2), k_split=1, **shapes)
        dram_read = acc.memory.dram.stats["read_bytes"]
        operand_bytes = 128 * 128 * 2   # A + B^T
        # B^T is shared down each column via multicast; A is fetched by
        # both column groups... total must stay well under 2x operands.
        assert dram_read < 2.01 * operand_bytes

    def test_reduction_network_used_when_k_split(self):
        acc = Accelerator()
        run_fc(acc, m=64, k=128, n=64, subgrid=acc.subgrid((0, 0), 1, 2),
               k_split=2)
        assert acc.reduction_network.stats["transfers"] > 0

    def test_no_reduction_traffic_without_k_split(self):
        acc = Accelerator()
        run_fc(acc, m=64, k=128, n=64, subgrid=acc.subgrid((0, 0), 1, 1))
        assert acc.reduction_network.stats.get("transfers", 0) == 0

    def test_achieved_tops_below_peak(self):
        acc = Accelerator()
        result = run_fc(acc, m=256, k=256, n=128,
                        subgrid=acc.subgrid((0, 0), 4, 4), k_split=2)
        tops = result.tops(MTIA_V1.frequency_ghz)
        sub_peak = MTIA_V1.gemm_tops("int8") * 16 / 64
        assert 0 < tops < sub_peak

    def test_dpe_operand_cache_hits_on_reuse(self):
        """Each 32x32 block is used twice by the 2x2 accumulator
        arrangement (Section 4)."""
        acc = Accelerator()
        run_fc(acc, m=128, k=64, n=128, subgrid=acc.subgrid((0, 0), 1, 1))
        pe = acc.grid.pe(0, 0)
        assert pe.dpe_unit.stats["operand_cache_hits"] > 0

