"""Parametric DLRM construction (Naumov et al. [16], Section 1).

A DLRM combines:

* a *bottom MLP* over dense features;
* hundreds of *embedding bags* turning sparse categorical features into
  pooled dense vectors (the memory-capacity/bandwidth hogs);
* a *feature interaction* combining the two;
* a *top MLP* producing the click-through-rate logit.

``build_dlrm_graph`` emits the operator graph over the compiler IR,
including the quantize/dequantize brackets INT8 serving uses and the
transpose the interaction needs — so the resulting operator mix matches
Table III's breakdown buckets.  ``model_size_bytes`` / ``model_flops``
provide the Table IV accounting, and the configs in
:mod:`repro.models.configs` are solved against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.compiler.ir import Graph, GraphBuilder

#: bytes per embedding-table element: the rows are 8-bit quantised
TABLE_DTYPE_BYTES = 1


@dataclass
class DLRMConfig:
    """Architecture of one DLRM."""

    name: str
    num_tables: int
    rows_per_table: int
    embedding_dim: int
    pooling: int
    dense_features: int
    bottom_mlp: Tuple[int, ...]          #: hidden widths; last = emb dim
    top_mlp: Tuple[int, ...]             #: hidden widths; 1 appended
    #: group size for the BMM-based pairwise interaction; 0 disables it
    interaction_group: int = 16
    #: feature-group dense towers between interaction and top MLP —
    #: production recommendation models reach "approximately 750 layers"
    #: (Section 6.1) largely through many such small per-group MLPs.
    num_towers: int = 0
    tower_mlp: Tuple[int, ...] = ()
    #: insert an MLU relayout (k-major operand formatting) before each
    #: tower's first FC — the layout churn behind Table III's Transpose
    #: bucket.
    layout_ops: bool = False
    #: add a residual LayerNorm block per tower (unfusable elementwise
    #: work contributing to Table III's "Others").
    tower_residual: bool = False
    quantized: bool = True               #: INT8 MLPs with q/dq brackets

    def __post_init__(self):
        if self.bottom_mlp and self.bottom_mlp[-1] != self.embedding_dim:
            raise ValueError(
                "bottom MLP must end at embedding_dim so dense and sparse "
                "features concatenate into the interaction")

    @property
    def concat_width(self) -> int:
        return (self.num_tables + 1) * self.embedding_dim

    @property
    def interaction_width(self) -> int:
        """Width the interaction adds on top of the concatenated features."""
        if not self.interaction_group:
            return 0
        groups = math.ceil((self.num_tables + 1) / self.interaction_group)
        per_group = self.interaction_group * self.interaction_group
        return groups * per_group

    @property
    def full_feature_width(self) -> int:
        return self.concat_width + self.interaction_width

    def tower_slices(self) -> List[Tuple[int, int]]:
        """(start, stop) column ranges the towers split the features into."""
        if not self.num_towers:
            return []
        width = self.full_feature_width
        per = width // self.num_towers
        slices = []
        for t in range(self.num_towers):
            start = t * per
            stop = width if t == self.num_towers - 1 else (t + 1) * per
            slices.append((start, stop))
        return slices

    @property
    def top_input_width(self) -> int:
        if self.num_towers:
            return self.num_towers * self.tower_mlp[-1]
        return self.full_feature_width


def model_size_bytes(config: DLRMConfig) -> int:
    """Parameter bytes — embedding tables plus MLP weights (Table IV)."""
    tables = (config.num_tables * config.rows_per_table
              * config.embedding_dim * TABLE_DTYPE_BYTES)
    weight_bytes = 1 if config.quantized else 2
    mlp = 0
    prev = config.dense_features
    for width in config.bottom_mlp:
        mlp += prev * width * weight_bytes
        prev = width
    for start, stop in config.tower_slices():
        prev = stop - start
        for width in config.tower_mlp:
            mlp += prev * width * weight_bytes
            prev = width
    prev = config.top_input_width
    for width in tuple(config.top_mlp) + (1,):
        mlp += prev * width * weight_bytes
        prev = width
    return tables + mlp


def model_flops(config: DLRMConfig) -> float:
    """FLOPs per sample (Table IV's "Complexity (GFLOPS/batch)" x 1e9).

    MACs count as two operations; embedding pooling adds are included
    (they are a rounding error next to the MLPs).
    """
    flops = 0.0
    prev = config.dense_features
    for width in config.bottom_mlp:
        flops += 2.0 * prev * width
        prev = width
    flops += config.num_tables * config.pooling * config.embedding_dim
    if config.interaction_group:
        groups = math.ceil((config.num_tables + 1) / config.interaction_group)
        g, d = config.interaction_group, config.embedding_dim
        flops += groups * 2.0 * g * d * g
    for start, stop in config.tower_slices():
        prev = stop - start
        for width in config.tower_mlp:
            flops += 2.0 * prev * width
            prev = width
    prev = config.top_input_width
    for width in tuple(config.top_mlp) + (1,):
        flops += 2.0 * prev * width
        prev = width
    return flops


def build_dlrm_graph(config: DLRMConfig, batch_size: int) -> Graph:
    """Emit the operator graph for one inference batch."""
    b = GraphBuilder(f"{config.name}.b{batch_size}")
    act_dtype = "fp16"

    def mlp(x, widths, prefix):
        """FC stack with ReLU, bracketed by quantize/dequantize."""
        for i, width in enumerate(widths):
            in_width = x.meta.shape[-1]
            w = b.weight((width, in_width),
                         dtype="int8" if config.quantized else "fp16",
                         name=f"{prefix}_w{i}")
            if config.quantized:
                x = b.add("quantize", (x.name,), scale=0.05,
                          name=f"{prefix}_q{i}")
            x = b.add("fc", (x.name, w.name), out_dtype="fp32",
                      name=f"{prefix}_fc{i}")
            if config.quantized:
                x = b.add("dequantize", (x.name,), scale=0.0025,
                          name=f"{prefix}_dq{i}")
            last = (i == len(widths) - 1) and prefix == "top"
            x = b.add("sigmoid" if last else "relu", (x.name,),
                      name=f"{prefix}_act{i}")
        return x

    dense = b.input((batch_size, config.dense_features), dtype=act_dtype,
                    name="dense")
    bottom = mlp(dense, config.bottom_mlp, "bot")

    pooled = []
    for t in range(config.num_tables):
        table = b.weight((config.rows_per_table, config.embedding_dim),
                         dtype="int8", name=f"table{t}")
        idx = b.input((batch_size, config.pooling), dtype="int32",
                      name=f"indices{t}")
        pooled.append(b.add("embedding_bag", (table.name, idx.name),
                            batch=batch_size, pooling=config.pooling,
                            scale=1.0 / 64.0, name=f"eb{t}"))

    features = b.add("concat", [bottom.name] + [p.name for p in pooled],
                     axis=1, name="sparse_concat")

    inputs_to_top = [features.name]
    if config.interaction_group:
        # Grouped pairwise dot-product interaction: reshape feature
        # vectors into (batch, group, dim) stacks, BMM against their
        # transpose, and flatten the (group x group) similarity blocks.
        g, d = config.interaction_group, config.embedding_dim
        num_feat = config.num_tables + 1
        groups = math.ceil(num_feat / g)
        pad = groups * g - num_feat
        stacked = features
        if pad:
            zero_pad = b.weight((batch_size, pad * d), dtype=act_dtype,
                                name="int_pad")
            stacked = b.add("concat", (features.name, zero_pad.name), axis=1,
                            name="int_padded")
        lhs = b.add("reshape", (stacked.name,),
                    shape=(batch_size * groups, g, d), name="int_lhs")
        # The transposed operand: (batch*groups, d, g).  On MTIA the MLU
        # performs this layout change (Table III's Transpose bucket).
        rhs2d = b.add("reshape", (stacked.name,),
                      shape=(batch_size * groups * g, d), name="int_rhs2d")
        rhs_t = b.add("transpose", (rhs2d.name,), name="int_transpose")
        rhs = b.add("reshape", (rhs_t.name,),
                    shape=(batch_size * groups, d, g), name="int_rhs")
        sims = b.add("batch_matmul", (lhs.name, rhs.name), name="int_bmm")
        flat = b.add("reshape", (sims.name,),
                     shape=(batch_size, groups * g * g), name="int_flat")
        inputs_to_top.append(flat.name)

    if len(inputs_to_top) > 1:
        all_feat = b.add("concat", inputs_to_top, axis=1, name="feat_concat")
    else:
        all_feat = features

    if config.num_towers:
        tower_outs = []
        for t, (start, stop) in enumerate(config.tower_slices()):
            piece = b.add("slice", (all_feat.name,), axis=1,
                          start=start, stop=stop, name=f"tower{t}_in")
            if config.layout_ops:
                piece = b.add("relayout", (piece.name,),
                              name=f"tower{t}_layout")
            out = mlp(piece, config.tower_mlp, f"tw{t}")
            if config.tower_residual:
                skip = b.add("slice", (piece.name,), axis=1, start=0,
                             stop=out.meta.shape[1], name=f"tower{t}_skip")
                out = b.add("add", (out.name, skip.name),
                            name=f"tower{t}_res")
                out = b.add("layernorm", (out.name,), name=f"tower{t}_ln")
            tower_outs.append(out)
        top_in = b.add("concat", [o.name for o in tower_outs], axis=1,
                       name="tower_concat")
    else:
        top_in = all_feat
    logit = mlp(top_in, tuple(config.top_mlp) + (1,), "top")
    return b.output(logit.name)


def operator_census(graph: Graph) -> dict:
    """Operator counts by type — the "~750 layers with nearly 550 EB"
    characterisation of Section 6.1."""
    census: dict = {}
    for node in graph:
        if node.op in ("input", "weight"):
            continue
        census[node.op] = census.get(node.op, 0) + 1
    census["total"] = sum(census.values())
    return census
