"""Linear-time compiler passes against their quadratic oracles.

The fusion passes look users up in one :meth:`Graph.consumers` snapshot
and placement expires SRAM tensors from per-index buckets.  The
reference implementations below are the straightforward versions they
replaced — a full-graph ``users()`` scan per node, a walk over every
``last_use`` entry at every node — kept here as oracles.  Both must
agree on every fuzzed graph, with and without pinned weights and under
SRAM budgets tight enough to force spills.

The executor binds unbound weights to read-only zero-stride views, so
the contract tests also run every registered operator on read-only
inputs.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Set

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compiler.fusion import (EPILOGUE_OPS, FusionReport,
                                   _eliminate_common_subexpressions,
                                   fuse_graph)
from repro.compiler.ir import Graph, GraphBuilder, Node
from repro.compiler.ops import OP_REGISTRY, execute_node, infer_meta
from repro.compiler.placement import PlacementResult, place_tensors
from repro.conformance import fuzz_graph
from repro.models.configs import MODEL_ZOO
from repro.models.dlrm import build_dlrm_graph
from repro.runtime.executor import GraphExecutor
from repro.simcache.graph import GraphOpCache
from tests import strategies as shared


# -- oracles ----------------------------------------------------------------

def reference_place_tensors(graph: Graph, sram_capacity: int,
                            pin_weights: Set[str] = frozenset()
                            ) -> PlacementResult:
    """``place_tensors`` with the O(N^2) expiry scan."""
    result = PlacementResult()
    last_use: Dict[str, int] = {}
    order = list(graph)
    for idx, node in enumerate(order):
        for inp in node.inputs:
            last_use[inp] = idx
    for out in graph.outputs:
        last_use[out] = len(order)

    live_sram: Dict[str, int] = {}
    used = 0
    for idx, node in enumerate(order):
        for name in [n for n, last in list(last_use.items())
                     if last <= idx and n in live_sram]:
            used -= live_sram.pop(name)
        nbytes = node.meta.nbytes
        if node.op == "weight":
            if node.name in pin_weights and used + nbytes <= sram_capacity:
                result.regions[node.name] = "sram"
                live_sram[node.name] = nbytes
                last_use[node.name] = len(order)
                used += nbytes
                result.sram_peak_bytes = max(result.sram_peak_bytes, used)
            else:
                result.regions[node.name] = "dram"
            continue
        if node.op == "input" or node.name in graph.outputs \
                or node.op in ("embedding_bag", "tbe"):
            result.regions[node.name] = "dram"
            continue
        if used + nbytes <= sram_capacity:
            result.regions[node.name] = "sram"
            live_sram[node.name] = nbytes
            used += nbytes
            result.sram_peak_bytes = max(result.sram_peak_bytes, used)
        else:
            result.regions[node.name] = "dram"
            result.spilled.append(node.name)
    return result


def _reference_merge_embedding_bags(graph: Graph, max_tables: int,
                                    report: FusionReport) -> None:
    groups: Dict[tuple, List[Node]] = {}
    for node in list(graph):
        if node.op != "embedding_bag":
            continue
        users = graph.users(node.name)
        if len(users) != 1 or users[0].op != "concat":
            continue
        key = (node.attrs["batch"], node.attrs["pooling"],
               node.attrs.get("scale", 1.0), users[0].name,
               node.meta.shape[1])
        groups.setdefault(key, []).append(node)

    tbe_index = 0
    for key, members in groups.items():
        if len(members) < 2:
            continue
        concat_name = key[3]
        concat = graph.node(concat_name)
        position = {name: i for i, name in enumerate(concat.inputs)}
        members.sort(key=lambda n: position[n.name])
        runs: List[List[Node]] = [[members[0]]]
        for prev, node in zip(members, members[1:]):
            if position[node.name] == position[prev.name] + 1:
                runs[-1].append(node)
            else:
                runs.append([node])
        chunks = [run[start:start + max_tables]
                  for run in runs
                  for start in range(0, len(run), max_tables)]
        for chunk in chunks:
            if len(chunk) < 2:
                continue
            tbe_inputs: List[str] = []
            for eb in chunk:
                tbe_inputs.extend(eb.inputs)
            tbe = Node(name=f"tbe_m{tbe_index}", op="tbe",
                       inputs=tbe_inputs,
                       attrs={"batch": chunk[0].attrs["batch"],
                              "pooling": chunk[0].attrs["pooling"],
                              "scale": chunk[0].attrs.get("scale", 1.0)})
            tbe_index += 1
            tbe.meta = infer_meta(graph, tbe)
            graph.insert_before(concat_name, tbe)
            graph.replace_uses(chunk[0].name, tbe.name)
            for eb in chunk[1:]:
                concat.inputs = [i for i in concat.inputs if i != eb.name]
            concat.meta = infer_meta(graph, concat)
            report.eb_merged += len(chunk)
            report.tbe_created += 1


def _reference_fuse_epilogues(graph: Graph, report: FusionReport) -> None:
    for node in list(graph):
        if node.op not in EPILOGUE_OPS:
            continue
        producer = graph.node(node.inputs[0])
        if producer.op not in ("fc", "batch_matmul"):
            continue
        if len(graph.users(producer.name)) != 1:
            continue
        if "epilogue" in producer.attrs:
            continue
        producer.attrs["epilogue"] = node.op
        graph.replace_uses(node.name, producer.name)
        report.epilogues_fused += 1


def _reference_prune_dead(graph: Graph) -> int:
    live = set(graph.outputs)
    for node in reversed(list(graph)):
        if node.name in live:
            live.update(node.inputs)
    dead = [n.name for n in graph if n.name not in live]
    for name in dead:
        del graph._nodes[name]
        graph._order.remove(name)
    return len(dead)


def reference_fuse_graph(graph: Graph, max_tables_per_tbe: int = 64):
    """``fuse_graph`` with a ``users()`` scan per looked-up node."""
    report = FusionReport()
    _eliminate_common_subexpressions(graph, report)
    _reference_merge_embedding_bags(graph, max_tables_per_tbe, report)
    _reference_fuse_epilogues(graph, report)
    report.dead_removed = _reference_prune_dead(graph)
    return graph, report


# -- equivalence ------------------------------------------------------------

def assert_same_placement(graph: Graph, capacity: int, pins: Set[str]):
    fast = place_tensors(graph, capacity, pins)
    slow = reference_place_tensors(graph, capacity, pins)
    assert fast.regions == slow.regions
    assert fast.spilled == slow.spilled
    assert fast.sram_peak_bytes == slow.sram_peak_bytes
    return fast


def assert_same_fusion(graph: Graph, max_tables: int) -> Graph:
    fast, fast_report = fuse_graph(graph.copy(),
                                   max_tables_per_tbe=max_tables)
    slow, slow_report = reference_fuse_graph(graph.copy(), max_tables)
    assert repr(fast) == repr(slow)
    assert [n.attrs for n in fast] == [n.attrs for n in slow]
    assert asdict(fast_report) == asdict(slow_report)
    return fast


def assert_consumers_match_users(graph: Graph) -> None:
    consumers = graph.consumers()
    assert list(consumers) == [n.name for n in graph]
    for node in graph:
        assert consumers[node.name] == graph.users(node.name)


def _intermediate_bytes(graph: Graph) -> List[int]:
    return [n.meta.nbytes for n in graph
            if n.op not in ("input", "weight") and n.name not in graph.outputs]


@given(seed=shared.fuzz_seeds, max_tables=st.sampled_from([2, 3, 64]))
def test_fusion_matches_the_users_scan_oracle(seed, max_tables):
    graph = fuzz_graph(seed).graph
    assert_consumers_match_users(graph)
    fused = assert_same_fusion(graph, max_tables)
    assert_consumers_match_users(fused)


@given(seed=shared.fuzz_seeds, fraction=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       pin_every=st.sampled_from([0, 1, 2, 3]))
def test_placement_matches_the_quadratic_oracle(seed, fraction, pin_every):
    """Budgets from 0 to the whole working set, with pinned weights.

    The budget is a fraction of the intermediates' total bytes, so the
    small fractions force spills; ``pin_every`` pins every k-th weight.
    """
    graph = fuzz_graph(seed).graph
    capacity = int(fraction * sum(_intermediate_bytes(graph)))
    weights = [n.name for n in graph if n.op == "weight"]
    pins = set(weights[::pin_every]) if pin_every else set()
    assert_same_placement(graph, capacity, pins)
    fused, _ = fuse_graph(graph.copy())
    assert_same_placement(fused, capacity, pins)


def test_placement_oracle_cases_spill_and_pin():
    """The seeded sweep reaches the branches it is meant to compare."""
    spilled = pinned = 0
    for seed in range(40):
        graph = fuzz_graph(seed).graph
        capacity = int(0.1 * sum(_intermediate_bytes(graph)))
        pins = {n.name for n in graph if n.op == "weight"}
        result = assert_same_placement(graph, capacity, pins)
        spilled += len(result.spilled)
        pinned += sum(result.region(p) == "sram" for p in pins)
    assert spilled > 0 and pinned > 0


def test_epilogue_fusion_edge_shapes_match_the_oracle():
    """Shared producers, activation chains and outputs, by hand.

    ``shared`` feeds two activations, so neither may fuse; ``chain``'s
    second relu must see ``chain`` already carrying an epilogue; a
    fused producer may also be a graph output.
    """
    b = GraphBuilder("epilogues")
    x = b.input((4, 8), name="x")
    w = b.weight((8, 8), name="w")
    shared_fc = b.add("fc", (x.name, w.name), name="shared")
    r1 = b.add("relu", (shared_fc.name,), name="r1")
    t1 = b.add("tanh", (shared_fc.name,), name="t1")
    chain = b.add("fc", (r1.name, w.name), name="chain")
    c1 = b.add("relu", (chain.name,), name="c1")
    c2 = b.add("relu", (c1.name,), name="c2")
    out_fc = b.add("fc", (t1.name, w.name), name="out_fc")
    s1 = b.add("sigmoid", (out_fc.name,), name="s1")
    total = b.add("add", (c2.name, s1.name), name="total")
    graph = b.output(total.name, s1.name)
    fused = assert_same_fusion(graph, 64)
    assert_consumers_match_users(fused)
    assert "epilogue" not in fused.node("shared").attrs
    assert fused.node("chain").attrs["epilogue"] == "relu"
    assert "c2" in fused
    assert fused.outputs == ["total", "out_fc"]


@pytest.mark.parametrize("name", ["LC1", "LC2"])
def test_zoo_graphs_match_the_oracles(name):
    graph = build_dlrm_graph(MODEL_ZOO[name], 64)
    assert_consumers_match_users(graph)
    fused = assert_same_fusion(graph, 64)
    tables = {n.name for n in fused if n.op == "weight"
              and n.name.startswith("table")}
    for capacity in (0, 1 << 20, 128 << 20):
        assert_same_placement(fused, capacity, tables)


# -- read-only operands -----------------------------------------------------

#: one small instance of every operator that takes operands (sources
#: have none): input (shape, dtype) list and attrs
SAMPLES = {
    "fc": ([((4, 8), "fp32"), ((6, 8), "int8"), ((6,), "fp32")],
           {"out_dtype": "fp32"}),
    "embedding_bag": ([((10, 8), "int8"), ((4, 3), "int32"),
                       ((4, 3), "fp32")], {"batch": 4, "pooling": 3}),
    "tbe": ([((10, 8), "fp16"), ((4, 3), "int32"), ((10, 4), "fp16"),
             ((4, 3), "int32")], {"batch": 4, "pooling": 3, "scale": 0.5}),
    "concat": ([((4, 3), "fp32"), ((4, 5), "fp32")], {"axis": 1}),
    "transpose": ([((4, 8), "fp32")], {}),
    "relayout": ([((4, 8), "fp16")], {}),
    "batch_matmul": ([((2, 4, 8), "fp32"), ((2, 8, 3), "fp32")], {}),
    "quantize": ([((4, 8), "fp32")], {"scale": 0.05}),
    "dequantize": ([((4, 8), "int8")], {"scale": 0.0025}),
    "relu": ([((4, 8), "fp32")], {}),
    "tanh": ([((4, 8), "fp32")], {}),
    "sigmoid": ([((4, 8), "fp32")], {}),
    "gelu": ([((4, 8), "fp32")], {}),
    "softmax": ([((4, 8), "fp32")], {"axis": -1}),
    "add": ([((4, 8), "fp32"), ((4, 8), "fp32")], {}),
    "mul": ([((4, 8), "fp32"), ((4, 8), "fp32")], {}),
    "layernorm": ([((4, 8), "fp32")], {}),
    "reshape": ([((4, 8), "fp32")], {"shape": (8, 4)}),
    "slice": ([((4, 8), "fp32")], {"axis": 1, "start": 2, "stop": 5}),
}


def test_every_registered_op_has_a_read_only_sample():
    assert sorted(SAMPLES) == sorted(set(OP_REGISTRY) - {"input", "weight"})


def _operand(rng: np.random.Generator, shape, dtype: str) -> np.ndarray:
    if dtype == "int32":                      # indices into 10-row tables
        return rng.integers(0, 10, size=shape, dtype=np.int32)
    if dtype == "int8":
        return rng.integers(-128, 128, size=shape, dtype=np.int8)
    return rng.standard_normal(shape).astype(
        np.float16 if dtype == "fp16" else np.float32)


def _read_only(value: np.ndarray) -> np.ndarray:
    view = value.view()
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("zero_stride", [False, True],
                         ids=["dense", "zero-stride"])
@pytest.mark.parametrize("op", sorted(SAMPLES))
def test_op_executes_on_read_only_inputs(op, zero_stride):
    """Same result from read-only operands as from private copies.

    The zero-stride variant feeds non-index operands the way the
    executor binds an unbound weight.
    """
    specs, attrs = SAMPLES[op]
    rng = np.random.default_rng(sorted(SAMPLES).index(op))
    b = GraphBuilder(op)
    names, arrays = [], []
    for i, (shape, dtype) in enumerate(specs):
        names.append(b.input(shape, dtype=dtype, name=f"in{i}").name)
        value = _operand(rng, shape, dtype)
        if zero_stride and dtype != "int32":
            value = np.broadcast_to(np.zeros((), value.dtype), shape)
        arrays.append(value)
    node = b.add(op, names, **attrs)
    expected = execute_node(node, [np.array(a) for a in arrays])
    out = execute_node(node, [_read_only(a) for a in arrays])
    assert out.dtype == expected.dtype
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("cache", [False, True], ids=["cold", "cached"])
def test_unbound_weights_read_as_explicit_zeros(seed, cache):
    """Zero-stride synthesis gives what binding ``np.zeros`` gives."""
    case = fuzz_graph(seed)
    zeros = {n.name: np.zeros(n.meta.shape, n.meta.dtype.numpy_dtype)
             for n in case.graph if n.op == "weight"}
    op_cache = GraphOpCache() if cache else False
    for _ in range(2 if cache else 1):        # cold, then warm hits
        synthesized, _ = GraphExecutor(op_cache=op_cache).run(
            case.graph.copy(), case.feeds)
    explicit, _ = GraphExecutor(op_cache=False).run(
        case.graph.copy(), case.feeds, zeros)
    assert sorted(synthesized) == sorted(explicit)
    for name in explicit:
        assert synthesized[name].dtype == explicit[name].dtype
        assert synthesized[name].tobytes() == explicit[name].tobytes()
