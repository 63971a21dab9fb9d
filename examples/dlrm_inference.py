"""Serve a DLRM through the full software stack.

Builds the LC2 model from the Table IV zoo, compiles it (EB->TBE
merging, epilogue fusion, SRAM tensor placement), executes a batch of
synthetic requests functionally, and reports the operator-time
breakdown (Table III style) plus perf/W on all three platforms
(Figure 14 style).

Run:  python examples/dlrm_inference.py
"""

import numpy as np

from repro.eval.machines import MACHINES
from repro.eval.opmodel import estimate_graph
from repro.models.configs import MODEL_ZOO
from repro.models.dlrm import build_dlrm_graph, model_flops, operator_census
from repro.runtime import GraphExecutor


def main():
    config = MODEL_ZOO["LC2"]
    batch = 64
    print(f"model: {config.name} — {config.num_tables} tables x "
          f"{config.rows_per_table:,} rows x {config.embedding_dim} dims, "
          f"{model_flops(config) / 1e9 * 1000:.1f} MFLOPs/sample")

    graph = build_dlrm_graph(config, batch)
    census = operator_census(graph)
    print(f"graph: {census['total']} operators "
          f"({census['embedding_bag']} EmbeddingBag, {census['fc']} FC)")

    # one synthetic request: uniform sparse indices, normal dense features
    rng = np.random.default_rng(0)
    feeds = {}
    for node in graph:
        if node.op != "input":
            continue
        shape, dtype = node.meta.shape, node.meta.dtype.numpy_dtype
        if np.issubdtype(dtype, np.integer):
            feeds[node.name] = rng.integers(0, config.rows_per_table,
                                            size=shape, dtype=dtype)
        else:
            feeds[node.name] = rng.standard_normal(shape).astype(dtype)

    executor = GraphExecutor(MACHINES["mtia"], mode="graph")
    outputs, report = executor.run(graph, feeds)
    logits = outputs[graph.outputs[0]]
    print(f"\nserved one request: batch {batch}, "
          f"CTR predictions in [{logits.min():.3f}, {logits.max():.3f}]")
    print(f"modelled latency on MTIA: {report.seconds * 1e6:.0f} us "
          f"({batch / report.seconds:.0f} samples/s/card)")
    placement = report.placement
    print(f"tensor placement: {placement.sram_hit_fraction(graph) * 100:.0f}%"
          " of inter-operator traffic stays in on-chip SRAM")

    print("\noperator-time breakdown (Table III style):")
    for category, fraction in sorted(report.category_fractions.items(),
                                     key=lambda kv: -kv[1]):
        print(f"  {category:<12}{100 * fraction:6.1f} %")

    print("\nperf/W across platforms (Figure 14 style):")
    flops = model_flops(config) * batch
    mtia_perf = None
    for family, machine in MACHINES.items():
        est = estimate_graph(machine, graph,
                             placement if family == "mtia" else None)
        tflops_w = (flops / est.total_seconds / 1e12
                    / machine.provisioned_watts)
        if family == "mtia":
            mtia_perf = tflops_w
        note = ""
        if family != "mtia" and mtia_perf:
            note = f"   (MTIA = {mtia_perf / tflops_w:.2f}x)"
        print(f"  {machine.name:<22}{tflops_w:.4f} TFLOPS/s/W{note}")


if __name__ == "__main__":
    main()
