"""Regression pin: the graph compiler and executor, byte for byte.

Each of the five ``MODEL_ZOO`` models is built at batch 64, bound to
seeded feeds and MLP weights (embedding tables are left to the
executor's zero synthesis) and run by :class:`GraphExecutor` in graph
and eager mode.  Four SHA-256 digests are taken per run:

* ``outputs`` — every output array (dtype, shape and bytes);
* ``graph`` — ``repr(graph)`` after the compiler pipeline ran;
* ``placement`` — every tensor's region plus the spilled names;
* ``timing`` — per-op seconds and ``report.seconds``, exact floats.

The literals were recorded before the fusion and placement passes were
made linear and before unbound weights became zero-stride views.  A
mismatch means the compiler's output or the modelled timing changed.
If that is intended, regenerate the literals with
``python -m tests.compiler.test_compiler_pin`` and say why in the change.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict

import numpy as np
import pytest

from repro.eval.machines import MACHINES
from repro.models.configs import MODEL_ZOO
from repro.models.dlrm import build_dlrm_graph
from repro.runtime.executor import GraphExecutor

BATCH = 64
SEED = 0
MODES = ("graph", "eager")

#: MLP weight nodes of a DLRM graph (``bot_w0``, ``tw3_w1``, ``top_w2``)
_MLP_WEIGHT = re.compile(r"_w\d+$")


def bindings(name: str, seed: int = SEED):
    """Seeded ``(feeds, weights)`` for one zoo model.

    Integer MLP weights are drawn from ``[-a, a]`` with
    ``a = round(24 / sqrt(fan_in))`` so no output saturates; float
    weights are scaled normals; index feeds are uniform over the table.
    """
    cfg = MODEL_ZOO[name]
    rng = np.random.default_rng(seed)
    feeds, weights = {}, {}
    for node in build_dlrm_graph(cfg, BATCH):
        shape = tuple(node.meta.shape)
        dtype = node.meta.dtype.numpy_dtype
        if node.op == "weight" and _MLP_WEIGHT.search(node.name):
            fan_in = shape[1]
            if np.issubdtype(dtype, np.integer):
                bound = max(1, round(24.0 / np.sqrt(fan_in)))
                weights[node.name] = rng.integers(
                    -bound, bound + 1, size=shape, dtype=dtype)
            else:
                weights[node.name] = (rng.standard_normal(shape)
                                      / np.sqrt(fan_in)).astype(dtype)
        elif node.op == "input":
            if np.issubdtype(dtype, np.integer):
                feeds[node.name] = rng.integers(
                    0, cfg.rows_per_table, size=shape, dtype=dtype)
            else:
                feeds[node.name] = rng.standard_normal(shape).astype(dtype)
    return feeds, weights


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def digests(name: str, mode: str, seed: int = SEED) -> Dict[str, str]:
    """The four digests of one zoo model run in ``mode``."""
    feeds, weights = bindings(name, seed)
    graph = build_dlrm_graph(MODEL_ZOO[name], BATCH)
    outputs, report = GraphExecutor(MACHINES["mtia"], mode=mode).run(
        graph, feeds, weights)
    h = hashlib.sha256()
    for out in graph.outputs:
        value = np.ascontiguousarray(outputs[out])
        h.update(f"{out}:{value.dtype.str}:{value.shape}".encode())
        h.update(value.tobytes())
    placement = report.placement
    return {
        "outputs": h.hexdigest()[:16],
        "graph": _sha(repr(graph).encode()),
        "placement": _sha(json.dumps(
            [sorted(placement.regions.items()), placement.spilled]).encode()),
        "timing": _sha(json.dumps(
            [list(report.per_op_seconds.items()),
             report.seconds]).encode()),
    }


PINNED: Dict[str, Dict[str, str]] = {
    "HC/graph": {
        "outputs": "27dccb3cc769dc6c", "graph": "c3f12865e3ea13bc",
        "placement": "9eef81fbe88719c6", "timing": "9de049b7a3838e8d"},
    "HC/eager": {
        "outputs": "27dccb3cc769dc6c", "graph": "769bb576030d9eec",
        "placement": "49feaef09c4ed9c1", "timing": "6fe2a21b08acc952"},
    "LC1/graph": {
        "outputs": "d872e17a904c3bcf", "graph": "9efe28c673b9b3a0",
        "placement": "b0553a0821fbffcd", "timing": "f08909b16cee8801"},
    "LC1/eager": {
        "outputs": "d872e17a904c3bcf", "graph": "cbef49e4657330a0",
        "placement": "2c9dc9f52c7c002f", "timing": "092621f1219aaf8e"},
    "LC2/graph": {
        "outputs": "2a54d4a23ca3c0b7", "graph": "f7e276feb31fc8d1",
        "placement": "7687a0115a219474", "timing": "cb3790bac09b07ea"},
    "LC2/eager": {
        "outputs": "2a54d4a23ca3c0b7", "graph": "946429ac78415f49",
        "placement": "01eb30fe52acff59", "timing": "7a0d1661fe741603"},
    "MC1/graph": {
        "outputs": "a2cd9d78196d073c", "graph": "492639917839a341",
        "placement": "b485a6aee698e52e", "timing": "f2bcc9133ea18f97"},
    "MC1/eager": {
        "outputs": "a2cd9d78196d073c", "graph": "e695b1e04465878a",
        "placement": "0d3803f8a3100f4a", "timing": "124ca667b78dee90"},
    "MC2/graph": {
        "outputs": "39b5981b576fc067", "graph": "5a7c0d7db58481fd",
        "placement": "d1fc4c15fc6e7380", "timing": "54b7361958b2ffc0"},
    "MC2/eager": {
        "outputs": "39b5981b576fc067", "graph": "dfe9125f191e0ce6",
        "placement": "1ae52741e8a865ce", "timing": "28abcadeb4d33e0d"},
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(MODEL_ZOO))
def test_zoo_compile_and_execute_is_pinned(name, mode):
    assert digests(name, mode) == PINNED[f"{name}/{mode}"]


if __name__ == "__main__":
    print("{")
    for name in sorted(MODEL_ZOO):
        for mode in MODES:
            parts = [f"{json.dumps(part)}: {json.dumps(value)}"
                     for part, value in digests(name, mode).items()]
            print(f"    {json.dumps(f'{name}/{mode}')}: {{\n"
                  f"        {parts[0]}, {parts[1]},\n"
                  f"        {parts[2]}, {parts[3]}}},")
    print("}")
