"""Operator registry: shape inference, numpy semantics, and costs.

Every operator the DLRM workloads use is registered here with three
facets:

* ``infer``   — output :class:`TensorMeta` from the input metas/attrs;
* ``execute`` — functional numpy semantics (used by the eager/graph
  executor and by tests as the reference);
* ``costs``   — FLOPs and bytes moved, consumed by the analytical
  performance model and the placement pass.

The operator *category* groups ops the way Table III does (FC, EB,
Concat, Transpose, Quantize, Dequantize, BatchMatMul, Others).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.dtypes import dtype as resolve_dtype
from repro.runtime.tensor import TensorMeta


@dataclass(frozen=True)
class OpCosts:
    """Work and traffic of one operator instance."""

    flops: float            #: multiply-adds counted as 2 ops
    bytes_in: float         #: activation + weight bytes read
    bytes_out: float        #: activation bytes written
    category: str           #: Table III bucket

    @property
    def bytes_total(self) -> float:
        return self.bytes_in + self.bytes_out

    @property
    def arithmetic_intensity(self) -> float:
        return self.flops / self.bytes_total if self.bytes_total else 0.0


@dataclass(frozen=True)
class OpDef:
    infer: Callable
    execute: Callable
    costs: Callable
    category: str


OP_REGISTRY: Dict[str, OpDef] = {}


def register(name: str, category: str):
    """Class decorator-free registration helper."""
    def wrap(infer, execute, costs):
        OP_REGISTRY[name] = OpDef(infer, execute, costs, category)
    return wrap


def infer_meta(graph, node) -> TensorMeta:
    """Shape-infer ``node`` against its input nodes in ``graph``."""
    opdef = OP_REGISTRY.get(node.op)
    if opdef is None:
        raise ValueError(f"unknown operator {node.op!r}")
    input_metas = [graph.node(i).meta for i in node.inputs]
    return opdef.infer(input_metas, node.attrs)


def execute_node(node, inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Run ``node`` functionally on numpy inputs."""
    return OP_REGISTRY[node.op].execute(list(inputs), node.attrs, node.meta)


def op_costs(node, input_metas: Sequence[TensorMeta]) -> OpCosts:
    """Cost metadata for one node instance."""
    return OP_REGISTRY[node.op].costs(list(input_metas), node.attrs,
                                      node.meta)


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

def _source_infer(inputs, attrs):
    return TensorMeta(tuple(attrs["shape"]), attrs.get("dtype", "fp32"),
                      attrs.get("scale", 1.0), attrs.get("zero_point", 0))


def _source_execute(inputs, attrs, meta):
    data = attrs.get("data")
    if data is None:
        raise ValueError("source node executed without bound data")
    return np.asarray(data)


def _source_costs(inputs, attrs, meta):
    return OpCosts(0.0, 0.0, meta.nbytes, "other")


register("input", "other")(_source_infer, _source_execute, _source_costs)
register("weight", "other")(_source_infer, _source_execute, _source_costs)


# ---------------------------------------------------------------------------
# FC (fully connected): x (batch, k) @ w^T with w stored (n, k)
# ---------------------------------------------------------------------------

def _fc_infer(inputs, attrs):
    x, w = inputs[0], inputs[1]
    if x.shape[-1] != w.shape[1]:
        raise ValueError(f"FC k mismatch: {x.shape} @ {w.shape}^T")
    out_dtype = attrs.get("out_dtype", x.dtype)
    return TensorMeta(x.shape[:-1] + (w.shape[0],), out_dtype)


#: Bytes of float32 weight rows one FC casts at a time: the host's
#: version of the DPE streaming an FC's weights through local memory one
#: tile at a time (Section 4), instead of a full-size float32 copy.
FC_BLOCK_BYTES = 4 << 20
#: FC weight blocks start on multiples of this many rows (output
#: columns), and a shorter tail joins the block before it.  The GEMM's
#: bits then match the one-shot product: a block starting off a multiple
#: of 64, or a 1-column block (which numpy sends to gemv), changed fp16
#: results in the last place.
FC_BLOCK_ALIGN = 64


def fc_blocks(n: int, k: int) -> List[Tuple[int, int]]:
    """``[start, stop)`` row ranges an (n, k) FC weight is cast in."""
    rows = FC_BLOCK_BYTES // (4 * max(k, 1))
    rows = max(FC_BLOCK_ALIGN, rows - rows % FC_BLOCK_ALIGN)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] < FC_BLOCK_ALIGN:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _fc_execute(inputs, attrs, meta):
    x, w = inputs[0], inputs[1]
    x = x.astype(np.float32, copy=False)
    blocks = fc_blocks(*w.shape)
    if w.dtype == np.float32 or len(blocks) < 2:
        acc = x @ w.astype(np.float32, copy=False).T
    else:
        acc = np.empty(x.shape[:-1] + (w.shape[0],), np.float32)
        buf = np.empty((max(j - i for i, j in blocks), w.shape[1]),
                       np.float32)
        for i, j in blocks:
            block = buf[:j - i]
            block[...] = w[i:j]
            np.matmul(x, block.T, out=acc[..., i:j])
    if len(inputs) > 2:
        acc += inputs[2].astype(np.float32, copy=False)
    return acc.astype(meta.dtype.numpy_dtype, copy=False)


def _fc_costs(inputs, attrs, meta):
    x, w = inputs[0], inputs[1]
    batch = int(np.prod(x.shape[:-1]))
    k, n = x.shape[-1], w.shape[0]
    flops = 2.0 * batch * k * n
    return OpCosts(flops, x.nbytes + w.nbytes, meta.nbytes, "fc")


register("fc", "fc")(_fc_infer, _fc_execute, _fc_costs)


# ---------------------------------------------------------------------------
# EmbeddingBag and TBE
# ---------------------------------------------------------------------------

def _eb_infer(inputs, attrs):
    table = inputs[0]
    return TensorMeta((attrs["batch"], table.shape[1]), "fp32")


def _eb_execute(inputs, attrs, meta):
    table, indices = inputs[0], inputs[1]
    scale = attrs.get("scale", 1.0)
    rows = table[indices].astype(np.float32)
    if len(inputs) > 2:
        # Optional per-sample weights: shape (batch, pooling).
        rows = rows * inputs[2].astype(np.float32)[..., None]
    pooled = rows.sum(axis=1) * scale
    return pooled.astype(np.float32)


def _eb_costs(inputs, attrs, meta):
    table = inputs[0]
    batch = attrs["batch"]
    pooling = attrs["pooling"]
    dim = table.shape[1]
    row_bytes = dim * table.dtype.bytes
    lookups = batch * pooling * row_bytes
    index_bytes = batch * pooling * 4
    # Pooling is adds only: dim adds per row.
    return OpCosts(float(batch * pooling * dim), lookups + index_bytes,
                   meta.nbytes, "eb")


register("embedding_bag", "eb")(_eb_infer, _eb_execute, _eb_costs)


def _tbe_infer(inputs, attrs):
    # inputs: [table0, indices0, table1, indices1, ...]
    tables = inputs[0::2]
    batch = attrs["batch"]
    total_dim = sum(t.shape[1] for t in tables)
    return TensorMeta((batch, total_dim), "fp32")


def _tbe_execute(inputs, attrs, meta):
    tables = inputs[0::2]
    index_sets = inputs[1::2]
    out = np.empty(meta.shape, np.float32)
    col = 0
    for t, idx in zip(tables, index_sets):
        dim = t.shape[1]
        np.add.reduce(t[idx], axis=1, dtype=np.float32,
                      out=out[:, col:col + dim])
        col += dim
    out *= attrs.get("scale", 1.0)
    return out


def _tbe_costs(inputs, attrs, meta):
    tables = inputs[0::2]
    batch = attrs["batch"]
    pooling = attrs["pooling"]
    flops = bytes_in = 0.0
    for t in tables:
        dim = t.shape[1]
        flops += batch * pooling * dim
        bytes_in += batch * pooling * (dim * t.dtype.bytes + 4)
    return OpCosts(flops, bytes_in, meta.nbytes, "eb")


register("tbe", "eb")(_tbe_infer, _tbe_execute, _tbe_costs)


# ---------------------------------------------------------------------------
# Data movement
# ---------------------------------------------------------------------------

def _concat_infer(inputs, attrs):
    axis = attrs.get("axis", 1)
    base = list(inputs[0].shape)
    for m in inputs[1:]:
        for d, (a, b) in enumerate(zip(base, m.shape)):
            if d != axis and a != b:
                raise ValueError("concat shapes disagree off-axis")
        base[axis] += m.shape[axis]
    return TensorMeta(tuple(base), inputs[0].dtype)


def _concat_execute(inputs, attrs, meta):
    return np.concatenate(inputs, axis=attrs.get("axis", 1),
                          dtype=meta.dtype.numpy_dtype, casting="unsafe")


def _concat_costs(inputs, attrs, meta):
    total_in = sum(m.nbytes for m in inputs)
    return OpCosts(0.0, total_in, meta.nbytes, "concat")


register("concat", "concat")(_concat_infer, _concat_execute, _concat_costs)


def _transpose_infer(inputs, attrs):
    x = inputs[0]
    if len(x.shape) != 2:
        raise ValueError("transpose expects a 2D tensor")
    return TensorMeta((x.shape[1], x.shape[0]), x.dtype)


#: Input rows a transpose copies per block: a block's reads and writes
#: stay in cache, where one strided copy of the whole operand does not
#: (0.07 -> 0.03 s on HC's 41 MB interaction operand).
TRANSPOSE_BLOCK_ROWS = 512


def _transpose_execute(inputs, attrs, meta):
    x = inputs[0]
    out = np.empty(x.shape[::-1], x.dtype)
    for i in range(0, x.shape[0], TRANSPOSE_BLOCK_ROWS):
        out[:, i:i + TRANSPOSE_BLOCK_ROWS] = x[i:i + TRANSPOSE_BLOCK_ROWS].T
    return out


def _transpose_costs(inputs, attrs, meta):
    return OpCosts(0.0, inputs[0].nbytes, meta.nbytes, "transpose")


register("transpose", "transpose")(_transpose_infer, _transpose_execute,
                                   _transpose_costs)


def _relayout_infer(inputs, attrs):
    x = inputs[0]
    return TensorMeta(x.shape, x.dtype, x.scale, x.zero_point)


def _relayout_execute(inputs, attrs, meta):
    # A physical-layout change (row-major <-> k-major tiling for the
    # DPE's operand format) with identical logical contents — the MLU
    # work Section 3.1.1 describes and Table III's Transpose bucket
    # largely consists of.
    return np.ascontiguousarray(inputs[0])


def _relayout_costs(inputs, attrs, meta):
    return OpCosts(0.0, inputs[0].nbytes, meta.nbytes, "transpose")


register("relayout", "transpose")(_relayout_infer, _relayout_execute,
                                  _relayout_costs)


# ---------------------------------------------------------------------------
# BatchMatMul: (B, m, k) @ (B, k, n) -> (B, m, n)
# ---------------------------------------------------------------------------

def _bmm_infer(inputs, attrs):
    x, y = inputs
    if x.shape[0] != y.shape[0] or x.shape[2] != y.shape[1]:
        raise ValueError(f"bmm shape mismatch: {x.shape} @ {y.shape}")
    return TensorMeta((x.shape[0], x.shape[1], y.shape[2]), x.dtype)


def _bmm_execute(inputs, attrs, meta):
    x, y = inputs
    out = np.matmul(x.astype(np.float32, copy=False),
                    y.astype(np.float32, copy=False))
    return out.astype(meta.dtype.numpy_dtype, copy=False)


def _bmm_costs(inputs, attrs, meta):
    x, y = inputs
    b, m, k = x.shape
    n = y.shape[2]
    return OpCosts(2.0 * b * m * k * n, x.nbytes + y.nbytes, meta.nbytes,
                   "bmm")


register("batch_matmul", "bmm")(_bmm_infer, _bmm_execute, _bmm_costs)


# ---------------------------------------------------------------------------
# Quantisation
# ---------------------------------------------------------------------------

def _quantize_infer(inputs, attrs):
    x = inputs[0]
    return TensorMeta(x.shape, "int8", attrs.get("scale", 1.0),
                      attrs.get("zero_point", 0))


def _quantize_execute(inputs, attrs, meta):
    scale = attrs.get("scale", 1.0)
    zp = attrs.get("zero_point", 0)
    q = inputs[0].astype(np.float32, copy=False) / scale
    np.round(q, out=q)
    q += zp
    np.clip(q, -128, 127, out=q)
    return q.astype(np.int8)


def _quantize_costs(inputs, attrs, meta):
    n = inputs[0].numel
    return OpCosts(float(n), inputs[0].nbytes, meta.nbytes, "quantize")


register("quantize", "quantize")(_quantize_infer, _quantize_execute,
                                 _quantize_costs)


def _dequantize_infer(inputs, attrs):
    return TensorMeta(inputs[0].shape, "fp32")


def _dequantize_execute(inputs, attrs, meta):
    x = inputs[0]
    scale = attrs.get("scale", 1.0)
    zp = attrs.get("zero_point", 0)
    return ((x.astype(np.float32, copy=False) - zp) * scale).astype(
        np.float32, copy=False)


def _dequantize_costs(inputs, attrs, meta):
    n = inputs[0].numel
    return OpCosts(float(n), inputs[0].nbytes, meta.nbytes, "dequantize")


register("dequantize", "dequantize")(_dequantize_infer, _dequantize_execute,
                                     _dequantize_costs)


# ---------------------------------------------------------------------------
# Elementwise / normalisation
# ---------------------------------------------------------------------------

def _unary_infer(inputs, attrs):
    return TensorMeta(inputs[0].shape, "fp32")


def _make_unary(fn):
    def execute(inputs, attrs, meta):
        return fn(inputs[0].astype(np.float32, copy=False)).astype(
            np.float32, copy=False)
    return execute


def _unary_costs(inputs, attrs, meta):
    n = inputs[0].numel
    return OpCosts(4.0 * n, inputs[0].nbytes, meta.nbytes, "other")


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(
        np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


for _name, _fn in (("relu", lambda x: np.maximum(x, 0.0)),
                   ("tanh", np.tanh),
                   ("sigmoid", lambda x: 1.0 / (1.0 + np.exp(-x))),
                   ("gelu", _gelu)):
    register(_name, "other")(_unary_infer, _make_unary(_fn), _unary_costs)


def _softmax_execute(inputs, attrs, meta):
    x = inputs[0].astype(np.float64)
    axis = attrs.get("axis", -1)
    x = x - x.max(axis=axis, keepdims=True)
    e = np.exp(x)
    return (e / e.sum(axis=axis, keepdims=True)).astype(np.float32)


def _softmax_costs(inputs, attrs, meta):
    n = inputs[0].numel
    # exp + sum + divide: ~3 passes of SE work.
    return OpCosts(12.0 * n, inputs[0].nbytes, meta.nbytes, "other")


register("softmax", "other")(_unary_infer, _softmax_execute, _softmax_costs)


def _binary_infer(inputs, attrs):
    x, y = inputs
    if x.shape != y.shape:
        raise ValueError(f"elementwise shape mismatch {x.shape} vs {y.shape}")
    return TensorMeta(x.shape, x.dtype)


def _make_binary(fn):
    def execute(inputs, attrs, meta):
        out = fn(inputs[0].astype(np.float32), inputs[1].astype(np.float32))
        return out.astype(meta.dtype.numpy_dtype)
    return execute


def _binary_costs(inputs, attrs, meta):
    n = inputs[0].numel
    return OpCosts(float(n), inputs[0].nbytes + inputs[1].nbytes,
                   meta.nbytes, "other")


for _name, _fn in (("add", np.add), ("mul", np.multiply)):
    register(_name, "other")(_binary_infer, _make_binary(_fn), _binary_costs)


def _layernorm_infer(inputs, attrs):
    return TensorMeta(inputs[0].shape, "fp32")


def _layernorm_execute(inputs, attrs, meta):
    x = inputs[0].astype(np.float64)
    eps = attrs.get("eps", 1e-5)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return ((x - mean) / np.sqrt(var + eps)).astype(np.float32)


def _layernorm_costs(inputs, attrs, meta):
    n = inputs[0].numel
    return OpCosts(8.0 * n, inputs[0].nbytes, meta.nbytes, "other")


register("layernorm", "other")(_layernorm_infer, _layernorm_execute,
                               _layernorm_costs)


def _reshape_infer(inputs, attrs):
    x = inputs[0]
    shape = tuple(attrs["shape"])
    if int(np.prod(shape)) != x.numel:
        raise ValueError(f"reshape {x.shape} -> {shape} changes element count")
    return TensorMeta(shape, x.dtype, x.scale, x.zero_point)


def _reshape_execute(inputs, attrs, meta):
    return inputs[0].reshape(meta.shape)


def _reshape_costs(inputs, attrs, meta):
    return OpCosts(0.0, 0.0, 0.0, "other")


register("reshape", "other")(_reshape_infer, _reshape_execute, _reshape_costs)


def _slice_infer(inputs, attrs):
    x = inputs[0]
    axis = attrs.get("axis", 1)
    start, stop = attrs["start"], attrs["stop"]
    if not (0 <= start < stop <= x.shape[axis]):
        raise ValueError(f"slice [{start}:{stop}] outside axis {axis} "
                         f"of {x.shape}")
    shape = list(x.shape)
    shape[axis] = stop - start
    return TensorMeta(tuple(shape), x.dtype, x.scale, x.zero_point)


def _slice_execute(inputs, attrs, meta):
    axis = attrs.get("axis", 1)
    index = [slice(None)] * inputs[0].ndim
    index[axis] = slice(attrs["start"], attrs["stop"])
    return np.ascontiguousarray(inputs[0][tuple(index)])


def _slice_costs(inputs, attrs, meta):
    return OpCosts(0.0, meta.nbytes, meta.nbytes, "other")


register("slice", "other")(_slice_infer, _slice_execute, _slice_costs)
