"""Table I: chip features derived from the micro-architecture model."""

import pytest
from conftest import emit

from repro.config import MTIA_V1
from repro.eval.tables import table_i


def test_table_i_summary():
    rows = table_i()
    emit("Table I: MTIA features and parameters",
         [f"{key}: {value}" for key, value in rows.items()])
    # Headline numbers from the paper, derived (not transcribed):
    assert rows["GEMM TOPS (INT8)"] == pytest.approx(104.9, abs=0.2)
    assert rows["GEMM TOPS (FP16)"] == pytest.approx(52.4, abs=0.2)
    assert rows["SIMD TOPS Vector (FP32)"] == pytest.approx(0.8, abs=0.05)
    assert rows["SIMD TOPS SE (INT8)"] == pytest.approx(3.3, abs=0.1)
    assert rows["Local memory BW (GB/s per PE)"] == pytest.approx(410, abs=2)
    assert rows["On-chip SRAM BW (GB/s)"] == pytest.approx(819, abs=2)
    assert rows["Off-chip DRAM BW (GB/s)"] == pytest.approx(176, abs=1)
    assert rows["Local memory capacity (KB per PE)"] == 128
    assert rows["On-chip SRAM capacity (MB)"] == 128
    assert rows["Off-chip DRAM capacity (GB)"] == 64


def test_grid_arithmetic_consistency():
    def derive():
        macs = MTIA_V1.dpe.int8_macs_per_cycle
        return macs * MTIA_V1.num_pes * MTIA_V1.frequency_ghz * 2 / 1e3

    tops = derive()
    # 1024 MACs x 64 PEs x 0.8 GHz x 2 = the Table I GEMM figure.
    assert tops == pytest.approx(MTIA_V1.gemm_tops("int8"))
