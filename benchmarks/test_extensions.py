"""Extension experiments beyond the paper's figures.

These quantify stack behaviours the paper discusses but does not plot:

* eager vs compiled-graph execution (the fusion + placement payoff the
  Section 5 compiler exists for);
* multi-card scaling of the HC giant (Section 5's model partitioning);
* serving-fleet power per platform (the Motivation's perf/TCO argument
  turned into kilowatts).
"""

import numpy as np
import pytest
from conftest import emit

from repro.compiler.fusion import fuse_graph
from repro.eval.machines import MACHINES
from repro.eval.opmodel import estimate_graph
from repro.models.configs import MODEL_ZOO
from repro.models.dlrm import build_dlrm_graph
from repro.runtime import GraphExecutor
from repro.runtime.multi_card import estimate_multi_card


def test_eager_vs_graph_mode():
    """Section 5: graph compilation exists because eager execution
    leaves launch overhead and DRAM round trips on the table."""
    def measure():
        results = {}
        for model in ("LC2", "MC1"):
            graph_eager = build_dlrm_graph(MODEL_ZOO[model], 64)
            eager = estimate_graph(MACHINES["mtia"], graph_eager, None)
            graph_opt = build_dlrm_graph(MODEL_ZOO[model], 64)
            executor = GraphExecutor(MACHINES["mtia"], mode="graph")
            placement = executor.compile(graph_opt)
            compiled = estimate_graph(MACHINES["mtia"], graph_opt, placement)
            results[model] = (eager.total_seconds, compiled.total_seconds)
        return results

    results = measure()
    lines = []
    for model, (eager_s, graph_s) in results.items():
        lines.append(f"{model}: eager {eager_s * 1e6:.0f} us -> graph "
                     f"{graph_s * 1e6:.0f} us "
                     f"({eager_s / graph_s:.2f}x speedup)")
    emit("Extension: eager vs compiled-graph execution (MTIA)", lines)
    for model, (eager_s, graph_s) in results.items():
        assert graph_s < eager_s
    # The EB-heavy MC1 benefits most (550 launches merge into ~9 TBEs).
    assert (results["MC1"][0] / results["MC1"][1]
            > results["LC2"][0] / results["LC2"][1])


def test_multi_card_hc_scaling():
    """HC (725 GB) must span >=23 Yosemite-V3 cards; the gather over
    PCIe is the distribution tax."""
    def measure():
        graph = build_dlrm_graph(MODEL_ZOO["HC"], 64)
        fuse_graph(graph)
        pcie = estimate_multi_card(graph, MACHINES["mtia"], p2p_gbs=12.8)
        nvlink = estimate_multi_card(graph, MACHINES["mtia"], p2p_gbs=80.0)
        return pcie, nvlink

    pcie, nvlink = measure()
    emit("Extension: HC multi-card inference (batch 64)", [
        f"cards: {pcie.cards}",
        f"phases (PCIe 12.8 GB/s): sparse {pcie.sparse_seconds * 1e6:.0f} "
        f"us || gather {pcie.gather_seconds * 1e6:.0f} us "
        f"({pcie.gather_bytes / 1e6:.1f} MB) || dense "
        f"{pcie.dense_seconds * 1e6:.0f} us",
        f"with an 80 GB/s interconnect the gather drops to "
        f"{nvlink.gather_seconds * 1e6:.0f} us "
        f"(total {nvlink.total_seconds / pcie.total_seconds:.2f}x)",
    ])
    assert pcie.cards >= 23
    assert pcie.gather_seconds > nvlink.gather_seconds
    assert 0 < pcie.scaling_efficiency < 0.5


def test_serving_fleet_power():
    """Fleet kilowatts to serve 1M QPS of LC2 under a 2 ms p99 SLA."""
    from repro.serving import BatchingConfig, plan_capacity

    def measure():
        return plan_capacity(MODEL_ZOO["LC2"], target_qps=1_000_000,
                             sla_us=2_000,
                             batching=BatchingConfig(max_batch=128,
                                                     max_wait_us=300))

    plans = measure()
    lines = [f"{p.platform}: {p.cards} cards, "
             f"{p.total_watts / 1000:.1f} kW, {p.qps_per_watt:.0f} QPS/W"
             for p in plans.values()]
    emit("Extension: fleet sizing, LC2 @ 1M QPS, p99 <= 2 ms", lines)
    assert plans["mtia"].total_watts < plans["gpu"].total_watts
    assert plans["mtia"].total_watts < plans["nnpi"].total_watts
    for plan in plans.values():
        assert plan.cards * plan.card_qps >= 1_000_000
