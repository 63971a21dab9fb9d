"""Seeded random generator of valid DLRM-style compiler graphs.

Every case is a pure function of its integer seed: the graph topology,
the shapes/dtypes, *and* the bound input/weight data all come from one
``numpy`` generator, so a failing seed printed by the runner replays
bit-for-bit with ``python -m repro.conformance --replay SEED``.

The generator deliberately produces the structures the fusion passes
rewrite — same-shape EmbeddingBags feeding one concat (TBE merging),
unary activations directly after FC/BMM (epilogue folding), duplicated
pure subexpressions (CSE) — because fused vs. unfused disagreement is
exactly where silent numerical divergence creeps in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.ir import Graph, GraphBuilder

#: Operator families the fuzzer can draw from (``--ops`` filter keys).
OP_FAMILIES = ("fc", "eb", "bmm", "elementwise", "transpose", "quantize")

#: Epilogue-fusable activations (must match fusion.EPILOGUE_OPS).
_FUSABLE_ACTS = ("relu", "tanh", "sigmoid")
#: Activations fusion cannot fold (keep some unfused coverage).
_UNFUSABLE_ACTS = ("gelu",)

#: Bounds of the generated graphs.
MAX_FC_LAYERS = 3
MAX_TABLES = 5
MAX_ROWS = 192
MAX_POOLING = 8
MAX_WIDTH = 96
BATCHES = (4, 8, 16)
#: probability an FC layer gets an INT8 quantize/dequantize bracket
P_QUANTIZED = 0.5
#: probability a same-dim EB group is emitted (TBE-mergeable)
P_SAME_DIM_TABLES = 0.7


@dataclass
class FuzzConfig:
    """The operator families the generated graphs draw from."""

    ops: Tuple[str, ...] = OP_FAMILIES

    def __post_init__(self):
        unknown = set(self.ops) - set(OP_FAMILIES)
        if unknown:
            raise ValueError(f"unknown op families {sorted(unknown)}; "
                             f"choose from {OP_FAMILIES}")


@dataclass
class FuzzCase:
    """One generated graph plus its bound data."""

    seed: int
    graph: Graph
    feeds: Dict[str, np.ndarray] = field(default_factory=dict)
    weights: Dict[str, np.ndarray] = field(default_factory=dict)
    summary: Dict[str, object] = field(default_factory=dict)


def _rand_width(rng: np.random.Generator) -> int:
    return int(rng.integers(4, MAX_WIDTH + 1))


def _fc_stack(b: GraphBuilder, rng: np.random.Generator,
              config: FuzzConfig, x, prefix: str,
              weights: Dict[str, np.ndarray]):
    """An MLP chain with optional q/dq brackets and activations."""
    layers = int(rng.integers(1, MAX_FC_LAYERS + 1))
    for i in range(layers):
        in_width = x.meta.shape[-1]
        width = _rand_width(rng)
        quantized = ("quantize" in config.ops
                     and rng.random() < P_QUANTIZED)
        if quantized:
            scale = float(rng.choice([0.02, 0.05, 0.1]))
            x = b.add("quantize", (x.name,), scale=scale,
                      name=f"{prefix}_q{i}")
            w = b.weight((width, in_width), dtype="int8",
                         name=f"{prefix}_w{i}")
            weights[w.name] = rng.integers(-16, 16, (width, in_width),
                                           dtype=np.int8)
            x = b.add("fc", (x.name, w.name), out_dtype="fp32",
                      name=f"{prefix}_fc{i}")
            x = b.add("dequantize", (x.name,), scale=scale * 0.05,
                      name=f"{prefix}_dq{i}")
        else:
            w = b.weight((width, in_width), dtype="fp32",
                         name=f"{prefix}_w{i}")
            weights[w.name] = rng.standard_normal(
                (width, in_width)).astype(np.float32) * 0.2
            x = b.add("fc", (x.name, w.name), name=f"{prefix}_fc{i}")
        act_roll = rng.random()
        if act_roll < 0.6:      # fusable epilogue candidate
            act = str(rng.choice(_FUSABLE_ACTS))
            x = b.add(act, (x.name,), name=f"{prefix}_act{i}")
        elif act_roll < 0.75:   # unfusable nonlinearity
            act = str(rng.choice(_UNFUSABLE_ACTS))
            x = b.add(act, (x.name,), name=f"{prefix}_act{i}")
    return x


def _eb_group(b: GraphBuilder, rng: np.random.Generator,
              batch: int, prefix: str,
              feeds: Dict[str, np.ndarray],
              weights: Dict[str, np.ndarray]):
    """EmbeddingBags feeding one concat — the TBE merge candidate."""
    num_tables = int(rng.integers(2, MAX_TABLES + 1))
    pooling = int(rng.integers(2, MAX_POOLING + 1))
    same_dim = rng.random() < P_SAME_DIM_TABLES
    base_dim = int(rng.integers(4, 33))
    pooled = []
    for t in range(num_tables):
        dim = base_dim if same_dim else int(rng.integers(4, 33))
        rows = int(rng.integers(16, MAX_ROWS + 1))
        table = b.weight((rows, dim), dtype="int8",
                         name=f"{prefix}_table{t}")
        weights[table.name] = rng.integers(-64, 64, (rows, dim),
                                           dtype=np.int8)
        idx = b.input((batch, pooling), dtype="int32",
                      name=f"{prefix}_idx{t}")
        feeds[idx.name] = rng.integers(0, rows, (batch, pooling),
                                       dtype=np.int32)
        pooled.append(b.add("embedding_bag", (table.name, idx.name),
                            batch=batch, pooling=pooling,
                            scale=1.0 / 64.0, name=f"{prefix}_eb{t}"))
    return b.add("concat", [p.name for p in pooled], axis=1,
                 name=f"{prefix}_concat")


def _interaction(b: GraphBuilder, rng: np.random.Generator, batch: int,
                 x, prefix: str):
    """DLRM-style grouped pairwise interaction: reshape/transpose/BMM."""
    g = int(rng.choice([2, 4]))
    d = int(rng.choice([4, 8]))
    width = x.meta.shape[-1]
    if width < g * d:
        return None
    head = x
    if width > g * d:
        head = b.add("slice", (x.name,), axis=1, start=0, stop=g * d,
                     name=f"{prefix}_head")
    lhs = b.add("reshape", (head.name,), shape=(batch, g, d),
                name=f"{prefix}_lhs")
    rhs2d = b.add("reshape", (head.name,), shape=(batch * g, d),
                  name=f"{prefix}_rhs2d")
    rhs_t = b.add("transpose", (rhs2d.name,), name=f"{prefix}_t")
    rhs = b.add("reshape", (rhs_t.name,), shape=(batch, d, g),
                name=f"{prefix}_rhs")
    sims = b.add("batch_matmul", (lhs.name, rhs.name),
                 name=f"{prefix}_bmm")
    return b.add("reshape", (sims.name,), shape=(batch, g * g),
                 name=f"{prefix}_flat")


def fuzz_graph(seed: int, config: Optional[FuzzConfig] = None) -> FuzzCase:
    """Generate one valid graph + bound data, purely from ``seed``."""
    config = config or FuzzConfig()
    rng = np.random.default_rng(seed)
    batch = int(rng.choice(BATCHES))
    b = GraphBuilder(f"fuzz_{seed}")
    feeds: Dict[str, np.ndarray] = {}
    weights: Dict[str, np.ndarray] = {}

    dense_features = _rand_width(rng)
    dense = b.input((batch, dense_features), dtype="fp32", name="dense")
    feeds[dense.name] = rng.standard_normal(
        (batch, dense_features)).astype(np.float32)

    branches = []          # 2-D fp32 tensors with leading dim == batch
    bottom = dense
    if "fc" in config.ops:
        bottom = _fc_stack(b, rng, config, dense, "bot", weights)
    branches.append(bottom)

    if "eb" in config.ops:
        branches.append(_eb_group(b, rng, batch, "sp", feeds, weights))

    if len(branches) > 1:
        features = b.add("concat", [n.name for n in branches], axis=1,
                         name="features")
    else:
        features = branches[0]

    extra_outputs: List[str] = []
    if "bmm" in config.ops:
        flat = _interaction(b, rng, batch, features, "int")
        if flat is not None:
            features = b.add("concat", (features.name, flat.name), axis=1,
                             name="feat_bmm_concat")

    if "elementwise" in config.ops and rng.random() < 0.7:
        # A duplicated pure subexpression (CSE candidate) combined
        # elementwise with the original.
        kind = str(rng.choice(["add", "mul"]))
        twin = b.add("relu", (features.name,), name="ew_twin_a")
        twin2 = b.add("relu", (features.name,), name="ew_twin_b")
        mixed = b.add(kind, (twin.name, twin2.name), name="ew_mix")
        if rng.random() < 0.5:
            mixed = b.add("layernorm", (mixed.name,), name="ew_ln")
        if rng.random() < 0.3:
            mixed = b.add("softmax", (mixed.name,), name="ew_sm")
        features = mixed

    if "transpose" in config.ops and rng.random() < 0.4:
        # A transpose round-trip plus a relayout — the Table III
        # Transpose-bucket churn, semantically the identity.
        t1 = b.add("transpose", (features.name,), name="lay_t1")
        t2 = b.add("transpose", (t1.name,), name="lay_t2")
        features = b.add("relayout", (t2.name,), name="lay_rl")

    if "fc" in config.ops and rng.random() < 0.6:
        features = _fc_stack(b, rng, config, features, "top", weights)

    # Sometimes expose an intermediate as a second graph output, so the
    # fusion passes must keep rewritten output names consistent.
    if bottom is not features and rng.random() < 0.5:
        extra_outputs.append(bottom.name)

    graph = b.output(features.name, *extra_outputs)
    graph.validate()
    ops_used = sorted({n.op for n in graph})
    return FuzzCase(seed=seed, graph=graph, feeds=feeds, weights=weights,
                    summary={"batch": batch, "nodes": len(graph),
                             "ops": ops_used,
                             "outputs": list(graph.outputs)})
