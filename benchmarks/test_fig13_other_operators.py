"""Figure 13: BatchMatMul/Concat/Transpose/Quantize/Dequantize/Tanh with
tensors placed in SRAM vs DRAM.

The analytical series reproduces the published fractions; the
cycle-level section runs the actual kernels (MLU/SE/DPE through the CP)
under both placements and checks the gap's direction and magnitude.
"""

import numpy as np
import pytest
from conftest import emit

from repro import Accelerator
from repro.eval.figures import other_operators_bench
from repro.kernels.elementwise import run_nonlinear
from repro.kernels.memory_ops import run_concat, run_transpose
from repro.kernels.quantize import run_quantize
from repro.memory import SRAMMode


def test_fig13_analytical():
    rows = other_operators_bench()
    lines = [f"{'operator':<14}{'placement':>10}{'GB/s':>8}{'%BW':>7}"]
    for r in rows:
        lines.append(f"{r.operator:<14}{r.placement:>10}"
                     f"{r.achieved_gbs:>8.0f}{100 * r.fraction_of_bw:>7.0f}")
    emit("Figure 13: other operators (analytical)", lines)
    by = {(r.operator, r.placement): r for r in rows}
    # "BatchMatMul and Tanh ... reach more than 90% and 80% of the SRAM
    # bandwidth, respectively"
    assert by[("BatchMatMul", "sram")].fraction_of_bw > 0.8
    assert by[("Tanh", "sram")].fraction_of_bw > 0.8
    # "When data is placed in the DRAM, the efficiency drops down to
    # around 40% on average"
    dram = [r.fraction_of_bw for r in rows if r.placement == "dram"]
    assert np.mean(dram) == pytest.approx(0.42, abs=0.08)
    # SRAM placement always wins on absolute bandwidth.
    for op in ("BatchMatMul", "Concat", "Transpose", "Quantize",
               "Dequantize", "Tanh"):
        assert by[(op, "sram")].achieved_gbs > by[(op, "dram")].achieved_gbs


def test_fig13_simulated_placement_gap():
    """Run real kernels under both placements on the DES.

    Both accelerators use scratchpad mode so the DRAM placement truly
    streams from DRAM (no memory-side cache behind it).
    """
    rng = np.random.default_rng(0)
    arr = rng.integers(-128, 128, (512, 512), dtype=np.int8)
    values = (rng.standard_normal(1 << 21) * 2).astype(np.float32)

    def run_all():
        results = {}
        for placement in ("sram", "dram"):
            in_sram = placement == "sram"
            acc = Accelerator(sram_mode=SRAMMode.SCRATCHPAD)
            results[("Transpose", placement)] = run_transpose(
                acc, arr, in_sram=in_sram,
                subgrid=acc.subgrid()).gbs(0.8)
            acc = Accelerator(sram_mode=SRAMMode.SCRATCHPAD)
            results[("Tanh", placement)] = run_nonlinear(
                acc, values, func="tanh", in_sram=in_sram,
                subgrid=acc.subgrid()).gbs(0.8)
            acc = Accelerator(sram_mode=SRAMMode.SCRATCHPAD)
            results[("Quantize", placement)] = run_quantize(
                acc, values, in_sram=in_sram,
                subgrid=acc.subgrid()).gbs(0.8)
            acc = Accelerator(sram_mode=SRAMMode.SCRATCHPAD)
            a = rng.integers(-128, 128, (256, 128), dtype=np.int8)
            b = rng.integers(-128, 128, (256, 128), dtype=np.int8)
            results[("Concat", placement)] = run_concat(
                acc, a, b, in_sram=in_sram,
                subgrid=acc.subgrid()).gbs(0.8)
        return results

    results = run_all()
    lines = [f"{'operator':<12}{'SRAM GB/s':>12}{'DRAM GB/s':>12}{'gap':>7}"]
    for op in ("Transpose", "Tanh", "Quantize", "Concat"):
        sram = results[(op, "sram")]
        dram = results[(op, "dram")]
        lines.append(f"{op:<12}{sram:>12.1f}{dram:>12.1f}{sram / dram:>7.1f}")
    emit("Figure 13 ground truth (DES kernels)", lines)
    for op in ("Transpose", "Tanh", "Quantize", "Concat"):
        assert results[(op, "sram")] > 1.3 * results[(op, "dram")], op
