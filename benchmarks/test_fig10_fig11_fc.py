"""Figures 10-11: FC (GEMM) perf/W across shapes, INT8 and FP16.

Two layers of evidence:

* the analytical sweep over the full GemmBench shape range (what the
  figures plot), asserting the MTIA-vs-GPU ratio shape;
* a cycle-level simulation of a mid-size shape, verifying the machine
  the analytical model abstracts actually computes the GEMM (bit-exact)
  at a plausible utilisation.
"""

import numpy as np
import pytest
from conftest import emit

from repro import Accelerator
from repro.config import MTIA_V1
from repro.eval.figures import fc_bench
from repro.kernels.fc import run_fc


def _emit_fc(title, rows):
    lines = [f"{'shape (m,k,n)':<20}{'GFLOP':>8}{'MTIA':>9}{'GPU':>9}"
             f"{'NNPI':>9}{'MTIA/GPU':>10}"]
    for r in rows:
        lines.append(f"{str(r.shape):<20}{r.gflops:>8.2f}"
                     f"{r.perf_w['mtia']:>9.4f}{r.perf_w['gpu']:>9.4f}"
                     f"{r.perf_w['nnpi']:>9.4f}{r.ratio_vs_gpu:>10.2f}")
    emit(title, lines)


def test_fig10_int8_fc():
    rows = fc_bench("int8")
    _emit_fc("Figure 10: INT8 FC perf/W (TFLOPS/s/W)", rows)
    ratios = [r.ratio_vs_gpu for r in rows]
    # "In many cases, MTIA achieves 2x or greater performance per Watt"
    assert sum(1 for x in ratios if x >= 2.0) >= len(ratios) // 2
    # "particularly effective for low batch sizes"
    assert ratios[0] == max(ratios)
    # "For large batch sizes ... the perf/W gains of MTIA are lower"
    assert ratios[-1] == min(ratios)
    assert 0.7 <= ratios[-1] <= 1.3
    # monotone decline across the sweep
    assert all(a >= b * 0.95 for a, b in zip(ratios, ratios[1:]))


def test_fig11_fp16_fc():
    rows = fc_bench("fp16")
    _emit_fc("Figure 11: FP16 FC perf/W (TFLOPS/s/W)", rows)
    ratios = [r.ratio_vs_gpu for r in rows]
    assert ratios[0] > 2.0
    assert 0.7 <= ratios[-1] <= 1.3
    # "the trend lines roughly track ... across INT8 and FP16"
    int8 = [r.ratio_vs_gpu for r in fc_bench("int8")]
    for r8, r16 in zip(int8, ratios):
        assert r16 == pytest.approx(r8, rel=0.25)


def test_fc_simulated_ground_truth():
    """The Figure 7 example shape on the cycle-level simulator."""
    def run():
        acc = Accelerator()
        result = run_fc(acc, m=512, k=1024, n=256,
                        subgrid=acc.subgrid((0, 0), 4, 4), k_split=2)
        return acc, result

    acc, result = run()
    rng = np.random.default_rng(0)
    a = rng.integers(-128, 128, (512, 1024), dtype=np.int8)
    b_t = rng.integers(-128, 128, (256, 1024), dtype=np.int8)
    assert np.array_equal(result.c_t,
                          b_t.astype(np.int32) @ a.astype(np.int32).T)
    tops = result.tops(MTIA_V1.frequency_ghz)
    subgrid_peak = MTIA_V1.gemm_tops("int8") * 16 / 64
    utilisation = tops / subgrid_peak
    emit("Figure 10 ground truth (DES, 512x1024x256 on 4x4)", [
        f"cycles: {result.cycles:.0f}",
        f"achieved TOPS: {tops:.2f} ({100 * utilisation:.0f}% of sub-grid "
        "peak)",
        f"DRAM bytes read: {acc.memory.dram.stats['read_bytes']:.0f}",
    ])
    assert 0.2 < utilisation < 0.95
