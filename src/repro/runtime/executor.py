"""Graph execution: functional numpy semantics + modelled timing.

Two execution modes, mirroring Section 5's "eager mode, as well as full
graph compilation and execution":

* ``mode="eager"`` — each operator is dispatched individually: no
  fusion, every intermediate round-trips through DRAM, full per-op
  launch overhead;
* ``mode="graph"`` — the compiler pipeline runs first (fusion, tensor
  placement), so epilogues fold into their producers and intermediates
  stay in SRAM when they fit.

Functionally both produce identical numpy results; the difference is in
the :class:`ExecutionReport` timing, which comes from the analytical
operator model.  (Individual operators can also be run on the
cycle-level simulator through :mod:`repro.kernels`; the executor is the
model-level path.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class ExecutionReport:
    """What one graph execution cost."""

    seconds: float
    per_op_seconds: Dict[str, float] = field(default_factory=dict)
    category_seconds: Dict[str, float] = field(default_factory=dict)
    placement: Optional["object"] = None  # PlacementResult

    @property
    def category_fractions(self) -> Dict[str, float]:
        total = sum(self.category_seconds.values())
        if total <= 0:
            return {}
        return {k: v / total for k, v in self.category_seconds.items()}


_EPILOGUES = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
}


class GraphExecutor:
    """Runs IR graphs functionally and reports modelled timing."""

    def __init__(self, machine=None, mode: str = "graph",
                 registry=None, spans=None, op_cache=None) -> None:
        from repro.eval.machines import MTIA_MACHINE  # late import (cycle)
        if mode not in ("eager", "graph"):
            raise ValueError(f"unknown execution mode {mode!r}")
        self.machine = machine or MTIA_MACHINE
        self.mode = mode
        #: optional repro.obs MetricRegistry; per-op timing spans land
        #: here (falls back to the opt-in process default registry)
        self.registry = registry
        #: optional microsecond :class:`~repro.sim.trace.Tracer`; each
        #: run() records a graph_execute span with per-op children,
        #: under whatever span is currently open (a serving batch span)
        self.spans = spans
        #: optional :class:`~repro.simcache.graph.GraphOpCache`; when
        #: set (explicitly or via ``REPRO_GRAPH_CACHE``), per-operator
        #: outputs are memoised under chained content fingerprints so a
        #: one-weight edit recomputes only its downstream cone.  Hits
        #: are bit-identical to recomputation (conformance cache pillar).
        self.op_cache = op_cache

    def compile(self, graph):
        """Run the compiler pipeline in graph mode; returns placement."""
        from repro.compiler.fusion import fuse_graph
        from repro.compiler.placement import place_tensors
        if self.mode == "graph":
            fuse_graph(graph)
            graph.validate()
        budget = (self.machine.onchip_capacity_bytes
                  if self.machine.family == "mtia" else 0)
        return place_tensors(graph, budget)

    def run(self, graph, feeds: Dict[str, np.ndarray],
            weights: Optional[Dict[str, np.ndarray]] = None):
        """Execute ``graph``; returns (outputs, ExecutionReport).

        ``feeds`` binds input nodes; ``weights`` binds weight nodes (a
        weight node may also carry ``data`` in its attrs).  Anything
        unbound reads as zeros: it is bound to a read-only zero-stride
        view (``np.broadcast_to`` of one zero), so perf-only runs of
        multi-hundred-GB models cost O(1) per weight and never touch
        table-sized memory.  Operators must not write to their inputs.
        """
        from repro.compiler.ops import execute_node
        from repro.eval.opmodel import estimate_graph
        from repro.simcache.graph import (leaf_fingerprint,
                                          node_fingerprint,
                                          resolve_graph_cache,
                                          zero_leaf_fingerprint)
        placement = self.compile(graph)
        weights = weights or {}
        cache = resolve_graph_cache(self.op_cache)

        values: Dict[str, np.ndarray] = {}
        fps: Dict[str, str] = {}
        for node in graph:
            if node.op == "input":
                if node.name not in feeds:
                    raise KeyError(f"missing feed for input {node.name!r}")
                values[node.name] = np.asarray(feeds[node.name])
                if cache is not None:
                    fps[node.name] = leaf_fingerprint(values[node.name])
            elif node.op == "weight":
                if node.name in weights:
                    values[node.name] = np.asarray(weights[node.name])
                elif node.attrs.get("data") is not None:
                    values[node.name] = np.asarray(node.attrs["data"])
                else:
                    meta = node.meta
                    values[node.name] = np.broadcast_to(
                        np.zeros((), meta.dtype.numpy_dtype), meta.shape)
                    if cache is not None:
                        fps[node.name] = zero_leaf_fingerprint(
                            tuple(meta.shape), str(meta.dtype))
                    continue
                if cache is not None:
                    fps[node.name] = leaf_fingerprint(values[node.name])
            else:
                if cache is not None:
                    fp = node_fingerprint(node, [fps[i]
                                                 for i in node.inputs])
                    fps[node.name] = fp
                    hit = cache.lookup(fp)
                    if hit is not None:
                        values[node.name] = hit
                        continue
                out = execute_node(node, [values[i] for i in node.inputs])
                epilogue = node.attrs.get("epilogue")
                if epilogue:
                    out = _EPILOGUES[epilogue](
                        out.astype(np.float32)).astype(np.float32)
                values[node.name] = out
                if cache is not None:
                    cache.store(fp, out)

        estimate = estimate_graph(self.machine, graph,
                                  placement if self.mode == "graph" else None)
        report = ExecutionReport(
            seconds=estimate.total_seconds,
            per_op_seconds={e.name: e.seconds for e in estimate.estimates},
            category_seconds=estimate.category_seconds(),
            placement=placement)
        self._record_metrics(estimate)
        self._record_spans(estimate)
        outputs = {name: values[name] for name in graph.outputs}
        return outputs, report

    def _record_metrics(self, estimate) -> None:
        """Emit per-op timing spans into the metric registry, if any."""
        registry = self.registry
        if registry is None:
            from repro.obs.metrics import default_registry
            registry = default_registry()
        if registry is None:
            return
        registry.counter("executor_runs",
                         "graph executions").labels(mode=self.mode).inc()
        op_seconds = registry.counter(
            "op_seconds", "modelled per-operator execution time")
        op_us = registry.histogram(
            "op_us", "per-operator latency distribution (us)")
        for op in estimate.estimates:
            op_seconds.labels(op=op.name, category=op.category,
                              bound=op.bound).inc(op.seconds)
            op_us.labels(category=op.category).observe(op.seconds * 1e6)

    def _record_spans(self, estimate) -> None:
        """Emit the graph-execution span tree, if a tracer is attached."""
        if self.spans is None or not self.spans.enabled:
            return
        parent = self.spans.current
        base = parent.start if parent is not None else 0.0
        record_graph_spans(self.spans, estimate, base_us=base,
                           pid=parent.pid if parent is not None else "")


def record_graph_spans(spans, estimate, base_us: float = 0.0,
                       pid: str = "") -> Optional["object"]:
    """Record a modelled graph execution as a span tree at ``base_us``.

    One ``graph_execute`` span covering the whole estimate, with one
    child span per operator laid out sequentially (the analytical model
    is serial: total = sum of per-op seconds).  Returns the root span
    (or ``None`` when tracing is disabled).  Shared by
    :class:`GraphExecutor` and ``python -m repro.serve_report``, which
    replays cached per-batch estimates into serving batch windows.
    """
    if spans is None or not spans.enabled:
        return None
    total_us = estimate.total_seconds * 1e6
    with spans.span("executor.graph", "graph_execute", base_us,
                    base_us + total_us, pid=pid,
                    ops=len(estimate.estimates)) as root:
        t = base_us
        for op in estimate.estimates:
            op_us = op.seconds * 1e6
            spans.record("executor.ops", op.name, t, t + op_us, pid=pid,
                         category=op.category, bound=op.bound)
            t += op_us
    return root
