"""Streaming operator kernels against the one-shot expressions they replaced.

The FC casts its weight to float32 in row blocks and GEMMs each block
into its output columns; TBE pools every table straight into its column
slice of one output; concat casts while it copies; transpose copies in
row blocks; quantize works in place on its own float32 copy.  The
one-shot expressions below are what those kernels computed before, kept
as oracles: every kernel must return the same bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.ir import GraphBuilder
from repro.compiler.ops import (FC_BLOCK_ALIGN, TRANSPOSE_BLOCK_ROWS,
                                execute_node, fc_blocks)

_NP = {"int8": np.int8, "int32": np.int32, "fp16": np.float16,
       "fp32": np.float32}
_NAMES = {np.dtype(v): k for k, v in _NP.items()}


# -- oracles ----------------------------------------------------------------

def oneshot_fc(x, w, bias=None):
    acc = x.astype(np.float32) @ w.astype(np.float32).T
    if bias is not None:
        acc = acc + bias.astype(np.float32)
    return acc.astype(np.float32)


def naive_row_block_fc(x, w, rows):
    """Blocks of ``rows`` weight rows with no tail folding."""
    acc = np.empty((x.shape[0], w.shape[0]), np.float32)
    for i in range(0, w.shape[0], rows):
        np.matmul(x.astype(np.float32), w[i:i + rows].astype(np.float32).T,
                  out=acc[:, i:i + rows])
    return acc


def oneshot_tbe(tables, index_sets, scale):
    pooled = [t[idx].astype(np.float32).sum(axis=1) * scale
              for t, idx in zip(tables, index_sets)]
    return np.concatenate(pooled, axis=1).astype(np.float32)


def oneshot_concat(inputs, axis, dtype):
    return np.concatenate(inputs, axis=axis).astype(dtype)


def oneshot_transpose(x):
    return np.ascontiguousarray(x.T)


def oneshot_quantize(x, scale, zp):
    q = np.round(x.astype(np.float32) / scale) + zp
    return np.clip(q, -128, 127).astype(np.int8)


# -- helpers ----------------------------------------------------------------

def _full_range(rng, shape, dtype: str) -> np.ndarray:
    np_dtype = np.dtype(_NP[dtype])
    if np_dtype.kind == "i":
        info = np.iinfo(np_dtype)
        return rng.integers(info.min, info.max, size=shape, dtype=np_dtype,
                            endpoint=True)
    return (rng.standard_normal(shape) * 4).astype(np_dtype)


def _run(op, arrays, **attrs):
    b = GraphBuilder(op)
    names = [b.input(a.shape, dtype=_NAMES[a.dtype], name=f"in{i}").name
             for i, a in enumerate(arrays)]
    return execute_node(b.add(op, names, **attrs), arrays)


def _same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


# -- FC ---------------------------------------------------------------------

#: (batch, k, n): one block; 1- and 10-column tails folded into the last
#: block; k so wide that each block is the 64-row minimum; a small batch
FC_SHAPES = {
    "one-block": (64, 1024, 300),
    "tail-1": (64, 4096, 513),
    "tail-10": (64, 4096, 778),
    "wide-k": (64, 32768, 200),
    "batch-5": (5, 4096, 769),
}


def test_fc_blocks_start_aligned_and_fold_short_tails():
    for (_, k, n) in FC_SHAPES.values():
        blocks = fc_blocks(n, k)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(i % FC_BLOCK_ALIGN == 0 for i, _ in blocks)
        assert all(j - i >= FC_BLOCK_ALIGN for i, j in blocks[1:])
    assert fc_blocks(300, 1024) == [(0, 300)]
    assert fc_blocks(513, 4096) == [(0, 256), (256, 513)]
    assert len(fc_blocks(200, 32768)) == 3


@pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
@pytest.mark.parametrize("shape", sorted(FC_SHAPES))
@pytest.mark.parametrize("dtype", ["int8", "fp16", "fp32"])
def test_fc_matches_the_one_shot_product(dtype, shape, bias):
    batch, k, n = FC_SHAPES[shape]
    rng = np.random.default_rng([batch, k, n])
    x = _full_range(rng, (batch, k), dtype)
    w = _full_range(rng, (n, k), dtype)
    arrays = [x, w] + ([_full_range(rng, (n,), "fp32")] if bias else [])
    got = _run("fc", arrays, out_dtype="fp32")
    _same_bytes(got, oneshot_fc(*arrays))


def test_naive_row_blocks_change_the_one_column_tail():
    """The fault the tail folding avoids: a 1-column block runs on gemv."""
    batch, k, n = FC_SHAPES["tail-1"]
    rng = np.random.default_rng([batch, k, n])
    x = _full_range(rng, (batch, k), "fp16")
    w = _full_range(rng, (n, k), "fp16")
    rows = fc_blocks(n, k)[0][1]
    assert n % rows == 1
    want = oneshot_fc(x, w)
    assert naive_row_block_fc(x, w, rows).tobytes() != want.tobytes()
    _same_bytes(_run("fc", [x, w], out_dtype="fp32"), want)


# -- TBE --------------------------------------------------------------------

@pytest.mark.parametrize("scale", [1.0 / 64.0, 0.3])
@pytest.mark.parametrize("dtype", ["int8", "fp16"])
def test_tbe_matches_per_table_sum_and_concat(dtype, scale):
    rng = np.random.default_rng(7)
    dims, batch, pooling, rows = (64, 1, 128, 5), 16, 20, 50
    tables = [_full_range(rng, (rows, d), dtype) for d in dims]
    index_sets = [rng.integers(0, rows, size=(batch, pooling), dtype=np.int32)
                  for _ in dims]
    assert all(t.any() for t in tables)
    arrays = [a for pair in zip(tables, index_sets) for a in pair]
    got = _run("tbe", arrays, batch=batch, pooling=pooling, scale=scale)
    _same_bytes(got, oneshot_tbe(tables, index_sets, scale))


# -- concat -----------------------------------------------------------------

@pytest.mark.parametrize("dtypes", [("fp32", "int8", "fp16"),
                                    ("fp16", "fp32", "int8"),
                                    ("int8", "int8", "fp16"),
                                    ("fp32", "int32", "fp32")],
                         ids="-".join)
def test_concat_casts_like_concatenate_then_astype(dtypes):
    rng = np.random.default_rng(3)
    arrays = [_full_range(rng, (6, 3 + i), dtype)
              for i, dtype in enumerate(dtypes)]
    got = _run("concat", arrays, axis=1)
    _same_bytes(got, oneshot_concat(arrays, 1, arrays[0].dtype))


# -- transpose ---------------------------------------------------------------

@pytest.mark.parametrize("rows", [1, 7, TRANSPOSE_BLOCK_ROWS - 1,
                                  TRANSPOSE_BLOCK_ROWS + 1,
                                  3 * TRANSPOSE_BLOCK_ROWS + 100])
@pytest.mark.parametrize("dtype", ["int8", "fp16", "fp32"])
def test_transpose_matches_a_contiguous_copy(dtype, rows):
    x = _full_range(np.random.default_rng(rows), (rows, 96), dtype)
    _same_bytes(_run("transpose", [x]), oneshot_transpose(x))


# -- quantize ---------------------------------------------------------------

@pytest.mark.parametrize("zero_point", [0, 3])
@pytest.mark.parametrize("dtype", ["fp16", "fp32"])
def test_quantize_in_place_matches_the_one_shot_expression(dtype, zero_point):
    x = (np.random.default_rng(zero_point).standard_normal((64, 300)) * 8
         ).astype(_NP[dtype])
    got = _run("quantize", [x], scale=0.05, zero_point=zero_point)
    _same_bytes(got, oneshot_quantize(x, 0.05, zero_point))
