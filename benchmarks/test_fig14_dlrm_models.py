"""Figure 14: full-DLRM perf/W across the Table IV zoo on MTIA, GPU, NNPI."""

import numpy as np
import pytest
from conftest import emit

from repro.eval.figures import dlrm_bench
from repro.models.configs import MODEL_ZOO
from repro.models.dlrm import model_flops


def test_fig14_dlrm_perf_per_watt():
    rows = dlrm_bench(batch=256)
    lines = [f"{'model':<6}{'MTIA':>10}{'GPU':>10}{'NNPI':>10}"
             f"{'vs GPU':>9}{'vs NNPI':>9}"]
    for r in rows:
        lines.append(f"{r.model:<6}{r.tflops_w['mtia']:>10.4f}"
                     f"{r.tflops_w['gpu']:>10.4f}"
                     f"{r.tflops_w['nnpi']:>10.4f}"
                     f"{r.ratio_vs_gpu:>9.2f}{r.ratio_vs_nnpi:>9.2f}")
    weights = [model_flops(MODEL_ZOO[r.model]) for r in rows]
    gpu_avg = np.average([r.ratio_vs_gpu for r in rows], weights=weights)
    nnpi_avg = np.average([r.ratio_vs_nnpi for r in rows], weights=weights)
    lines.append(f"flops-weighted average: vs GPU {gpu_avg:.2f}, "
                 f"vs NNPI {nnpi_avg:.2f}")
    emit("Figure 14: DLRM TFLOPS/s/W (batch 256)", lines)

    by_model = {r.model: r for r in rows}
    # "LC2 shows nearly a 3x improvement" over the GPU.
    assert 2.2 <= by_model["LC2"].ratio_vs_gpu <= 3.8
    # "For medium complexity models, MTIA still sees an efficiency gain
    # over the GPU, but it is lower".
    for name in ("MC1", "MC2"):
        assert 1.0 < by_model[name].ratio_vs_gpu < by_model["LC2"].ratio_vs_gpu
    # "For high complexity models ... the GPU software stack is better
    # optimized for large shapes".
    assert by_model["HC"].ratio_vs_gpu < 0.8
    # Abstract: "We averaged 0.9x perf/W across various DLRMs".
    assert gpu_avg == pytest.approx(0.9, abs=0.15)
    # "Compared to NNPI, MTIA achieves 1.6x higher efficiency".
    assert nnpi_avg == pytest.approx(1.6, abs=0.35)
    assert all(r.ratio_vs_nnpi > 1.0 for r in rows)


def test_fig14_batch_sensitivity():
    """MTIA's advantage is largest at serving batch sizes."""
    def sweep():
        return {batch: dlrm_bench(batch=batch, model_names=["MC1"])[0]
                for batch in (64, 256, 1024)}

    rows = sweep()
    lines = [f"batch {batch}: MTIA/GPU = {row.ratio_vs_gpu:.2f}"
             for batch, row in rows.items()]
    emit("Figure 14 ablation: MC1 ratio vs batch", lines)
    assert rows[64].ratio_vs_gpu > rows[1024].ratio_vs_gpu
