"""Pure-numpy golden reference evaluator for compiler IR graphs.

This is a second, independent implementation of every operator's
functional semantics — deliberately *not* a call into
``repro.compiler.ops.execute_node`` — so the executor (eager or fused)
is checked against a third opinion rather than against itself.  The
implementations follow the documented precision contract (FP32
accumulation via ``np.matmul``, round-half-to-even quantisation), which
keeps quantized paths comparable bit-for-bit while the floating-point
paths are compared under an atol/rtol policy.

``evaluate_graph`` also understands the *post-fusion* vocabulary (TBE
nodes, ``epilogue`` attrs on FC/BMM), so any compiled-and-executed
graph can be replayed through the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.compiler.ir import Graph, Node

#: Epilogue semantics (kept in sync with the unary kernels of
#: ``repro.compiler.ops.OP_REGISTRY``, which the executor applies).
_EPILOGUES: Dict[str, Callable] = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
}


def _np_dtype(meta) -> np.dtype:
    return meta.dtype.numpy_dtype


# -- independent operator implementations -----------------------------------

def _g_fc(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    x, w = xs[0].astype(np.float32), xs[1].astype(np.float32)
    acc = np.matmul(x, w.T)
    if len(xs) > 2:
        acc = acc + xs[2].astype(np.float32)
    return acc.astype(_np_dtype(node.meta))


def _g_embedding_bag(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    table, indices = xs[0], xs[1]
    rows = table[indices].astype(np.float32)
    if len(xs) > 2:
        rows = rows * xs[2].astype(np.float32)[..., None]
    return (rows.sum(axis=1)
            * node.attrs.get("scale", 1.0)).astype(np.float32)


def _g_tbe(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    scale = node.attrs.get("scale", 1.0)
    pooled = [t[idx].astype(np.float32).sum(axis=1) * scale
              for t, idx in zip(xs[0::2], xs[1::2])]
    return np.concatenate(pooled, axis=1).astype(np.float32)


def _g_concat(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate(list(xs), axis=node.attrs.get("axis", 1)).astype(
        _np_dtype(node.meta))


def _g_transpose(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    return np.ascontiguousarray(np.swapaxes(xs[0], 0, 1))


def _g_relayout(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    return np.ascontiguousarray(xs[0])


def _g_batch_matmul(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    out = np.matmul(xs[0].astype(np.float32), xs[1].astype(np.float32))
    return out.astype(_np_dtype(node.meta))


def _g_quantize(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    scale = node.attrs.get("scale", 1.0)
    zp = node.attrs.get("zero_point", 0)
    levels = np.rint(xs[0].astype(np.float32) / np.float32(scale)) + zp
    return np.clip(levels, -128, 127).astype(np.int8)


def _g_dequantize(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    scale = node.attrs.get("scale", 1.0)
    zp = node.attrs.get("zero_point", 0)
    return ((xs[0].astype(np.float32) - zp) * scale).astype(np.float32)


def _g_unary(fn: Callable) -> Callable:
    def run(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
        return fn(xs[0].astype(np.float32)).astype(np.float32)
    return run


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(
        np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def _g_softmax(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    x = xs[0].astype(np.float64)
    axis = node.attrs.get("axis", -1)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return (e / e.sum(axis=axis, keepdims=True)).astype(np.float32)


def _g_layernorm(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    x = xs[0].astype(np.float64)
    eps = node.attrs.get("eps", 1e-5)
    centered = x - x.mean(axis=-1, keepdims=True)
    return (centered / np.sqrt(x.var(axis=-1, keepdims=True)
                               + eps)).astype(np.float32)


def _g_binary(fn: Callable) -> Callable:
    def run(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
        out = fn(xs[0].astype(np.float32), xs[1].astype(np.float32))
        return out.astype(_np_dtype(node.meta))
    return run


def _g_reshape(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    return xs[0].reshape(node.meta.shape)


def _g_slice(node: Node, xs: Sequence[np.ndarray]) -> np.ndarray:
    axis = node.attrs.get("axis", 1)
    index = [slice(None)] * xs[0].ndim
    index[axis] = slice(node.attrs["start"], node.attrs["stop"])
    return np.ascontiguousarray(xs[0][tuple(index)])


GOLDEN_OPS: Dict[str, Callable] = {
    "fc": _g_fc,
    "embedding_bag": _g_embedding_bag,
    "tbe": _g_tbe,
    "concat": _g_concat,
    "transpose": _g_transpose,
    "relayout": _g_relayout,
    "batch_matmul": _g_batch_matmul,
    "quantize": _g_quantize,
    "dequantize": _g_dequantize,
    "relu": _g_unary(lambda x: np.maximum(x, 0.0)),
    "tanh": _g_unary(np.tanh),
    "sigmoid": _g_unary(lambda x: 1.0 / (1.0 + np.exp(-x))),
    "gelu": _g_unary(_gelu),
    "softmax": _g_softmax,
    "layernorm": _g_layernorm,
    "add": _g_binary(np.add),
    "mul": _g_binary(np.multiply),
    "reshape": _g_reshape,
    "slice": _g_slice,
}


def evaluate_graph(graph: Graph, feeds: Dict[str, np.ndarray],
                   weights: Optional[Dict[str, np.ndarray]] = None
                   ) -> Dict[str, np.ndarray]:
    """Evaluate ``graph`` with the reference semantics.

    Returns ``{output_name: array}``.  Raises ``KeyError`` for an
    unbound input and ``ValueError`` for an operator the reference
    does not model (a safety net against silently skipping coverage).
    """
    weights = weights or {}
    values: Dict[str, np.ndarray] = {}
    for node in graph:
        if node.op == "input":
            values[node.name] = np.asarray(feeds[node.name])
        elif node.op == "weight":
            if node.name in weights:
                values[node.name] = np.asarray(weights[node.name])
            elif node.attrs.get("data") is not None:
                values[node.name] = np.asarray(node.attrs["data"])
            else:
                values[node.name] = np.zeros(node.meta.shape,
                                             _np_dtype(node.meta))
        else:
            impl = GOLDEN_OPS.get(node.op)
            if impl is None:
                raise ValueError(
                    f"golden reference has no semantics for {node.op!r}")
            out = impl(node, [values[i] for i in node.inputs])
            epilogue = node.attrs.get("epilogue")
            if epilogue:
                out = _EPILOGUES[epilogue](
                    out.astype(np.float32)).astype(np.float32)
            values[node.name] = out
    return {name: values[name] for name in graph.outputs}


# -- comparison --------------------------------------------------------------

@dataclass(frozen=True)
class TolerancePolicy:
    """How closely two executions must agree.

    Integer (quantized) outputs must match bit-for-bit; floating-point
    outputs within ``atol``/``rtol`` (numpy broadcasting rules).
    """

    atol: float = 1e-4
    rtol: float = 1e-4


@dataclass
class Divergence:
    """One output pair that disagreed."""

    output: str
    reason: str
    max_abs_err: float = float("nan")

    def to_dict(self) -> Dict:
        return {"output": self.output, "reason": self.reason,
                "max_abs_err": self.max_abs_err}


def compare_outputs(actual: Dict[str, np.ndarray],
                    expected: Dict[str, np.ndarray],
                    policy: TolerancePolicy = TolerancePolicy(),
                    actual_names: Optional[Sequence[str]] = None,
                    expected_names: Optional[Sequence[str]] = None
                    ) -> List[Divergence]:
    """Compare two output dicts; returns the list of divergences.

    Fusion may rename graph outputs (an epilogue-folded activation's
    output becomes its producer), so callers comparing a fused run
    against an unfused reference pass both graphs' ``outputs`` lists;
    the comparison is positional.  With the name sequences omitted the
    dicts are matched key-by-key.
    """
    if actual_names is None or expected_names is None:
        actual_names = expected_names = sorted(expected)
    divergences: List[Divergence] = []
    for a_name, e_name in zip(actual_names, expected_names):
        got, want = actual[a_name], expected[e_name]
        label = (e_name if a_name == e_name
                 else f"{e_name} (fused: {a_name})")
        if got.shape != want.shape:
            divergences.append(Divergence(
                label, f"shape {got.shape} != {want.shape}"))
            continue
        if got.dtype != want.dtype:
            divergences.append(Divergence(
                label, f"dtype {got.dtype} != {want.dtype}"))
            continue
        if np.issubdtype(want.dtype, np.integer):
            if not np.array_equal(got, want):
                err = float(np.max(np.abs(got.astype(np.int64)
                                          - want.astype(np.int64))))
                divergences.append(Divergence(
                    label, "quantized outputs differ (exact match "
                    "required)", err))
        else:
            close = np.isclose(got, want, atol=policy.atol,
                               rtol=policy.rtol, equal_nan=True)
            if not close.all():
                err = float(np.max(np.abs(got.astype(np.float64)
                                          - want.astype(np.float64))))
                divergences.append(Divergence(
                    label, f"{int((~close).sum())} elements outside "
                    f"atol={policy.atol}/rtol={policy.rtol}", err))
    return divergences
