"""The executor drops each intermediate after its last reader.

``GraphExecutor.run`` frees values with the same last-use buckets the
placement pass expires SRAM tensors with (``Graph.last_uses``), so a
chain of large operators holds a few intermediates at a time, not one
per node.  Graph outputs are never dropped, even when a later node
reads them too.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.compiler.ir import GraphBuilder
from repro.runtime.executor import GraphExecutor

ROWS, WIDTH, DEPTH = 4096, 256, 8
#: bytes of one (ROWS, WIDTH) float32 intermediate: 4 MiB
INTERMEDIATE = ROWS * WIDTH * 4


def _chain(extra_outputs=()):
    """x -> (fc -> relu) x DEPTH; outputs: the last relu plus extras."""
    b = GraphBuilder("chain")
    x = b.input((ROWS, WIDTH), name="x")
    for i in range(DEPTH):
        w = b.weight((WIDTH, WIDTH), name=f"w{i}")
        x = b.add("fc", (x.name, w.name), name=f"fc{i}")
        x = b.add("relu", (x.name,), name=f"act{i}")
    return b.output(*extra_outputs, x.name)


def _bindings():
    rng = np.random.default_rng(0)
    feeds = {"x": rng.standard_normal((ROWS, WIDTH)).astype(np.float32)}
    weights = {f"w{i}": (rng.standard_normal((WIDTH, WIDTH)) / 16
                         ).astype(np.float32) for i in range(DEPTH)}
    return feeds, weights


def _reference(feeds, weights):
    """Every relu output of the chain, computed directly."""
    x, acts = feeds["x"], {}
    for i in range(DEPTH):
        x = np.maximum(x @ weights[f"w{i}"].T, 0.0)
        acts[f"act{i}"] = x
    return acts


#: allowed peak, in intermediates.  Eager runs each operator alone, so
#: it holds an operator's input and its output.  Graph mode folds each
#: relu into its FC as an epilogue, so a fused node briefly holds its
#: input, the FC's result and the epilogue's result.  Keeping every value
#: to the end holds all 16 (eager) or 8 (graph) of them.
PEAK_LIMIT = {"eager": 2.5, "graph": 3.5}


@pytest.mark.parametrize("mode", sorted(PEAK_LIMIT))
def test_a_chain_holds_only_its_live_intermediates(mode):
    feeds, weights = _bindings()
    executor, graph = GraphExecutor(mode=mode), _chain()
    tracemalloc.start()
    try:
        outputs, _ = executor.run(graph, feeds, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_LIMIT[mode] * INTERMEDIATE, peak / INTERMEDIATE
    want = _reference(feeds, weights)[f"act{DEPTH - 1}"]
    assert outputs[graph.outputs[-1]].tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["eager", "graph"])
def test_an_output_read_by_a_later_node_is_returned(mode):
    feeds, weights = _bindings()
    graph = _chain(extra_outputs=("act2",))
    outputs, _ = GraphExecutor(mode=mode).run(graph, feeds, weights)
    want = _reference(feeds, weights)
    assert sorted(outputs) == sorted(graph.outputs)
    # graph mode renames each fused relu's value to its FC
    assert outputs[graph.outputs[0]].tobytes() == want["act2"].tobytes()
    assert outputs[graph.outputs[1]].tobytes() == want["act7"].tobytes()


def test_a_node_reading_one_value_twice_frees_it_once():
    b = GraphBuilder("square")
    x = b.input((4, 8), name="x")
    h = b.add("relu", (x.name,), name="h")
    sq = b.add("mul", (h.name, h.name), name="sq")
    out = b.add("add", (sq.name, h.name), name="out")
    graph = b.output(out.name)
    assert graph.last_uses() == {1: ["x"], 3: ["h", "sq"], 4: ["out"]}
    value = np.random.default_rng(1).standard_normal((4, 8)).astype(
        np.float32)
    outputs, _ = GraphExecutor().run(graph, {"x": value})
    relu = np.maximum(value, 0.0)
    assert outputs["out"].tobytes() == (relu * relu + relu).tobytes()
