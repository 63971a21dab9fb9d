"""Metric names, the benchmark description and the layer map."""

import cProfile
import json
from pathlib import Path

import numpy as np
import pytest

from bench import layers, run
from bench.worker import measure
from bench.workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class Tiny(Workload):
    """A workload that costs nothing, to drive the worker quickly."""

    def inputs(self, seed):
        return [seed % 97]

    def run(self, op):
        return np.arange(op).sum()

    def check(self, op, out):
        return None


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metric_names_equal_benchmark_json(trace):
    result = measure(Tiny(), seed=0, seconds=0.0, trace=trace)
    if trace:
        emitted, specs = run.per_layer(result), SPEC["per_layer"]
    else:
        emitted, specs = run.end_to_end(result, [0.5]), SPEC["end_to_end"]
    assert sorted(emitted) == sorted(m["name"] for m in specs)
    # the warm-up, plus the profiled iteration when tracing
    assert result["attempted"] == len(result["wall_s"]) + 1 + trace
    assert result["failed"] == 0


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _source_modules():
    src = ROOT / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        yield module.removesuffix(".__init__")


def test_layer_map_covers_every_repro_module():
    unmapped = [m for m in _source_modules() if layers.module_layer(m) is None]
    assert unmapped == []


def test_layer_map_names_only_real_modules_and_layers():
    modules = set(_source_modules())
    assert set(layers.LAYERS) <= modules
    assert set(layers.LAYERS.values()) <= set(layers.LAYER_NAMES)


def test_rollup_conserves_self_time_and_calls():
    from repro.serving.fleet import uniform_fleet

    profiler = cProfile.Profile()
    profiler.enable()
    uniform_fleet(64, racks=4)
    profiler.disable()
    profiler.create_stats()
    rolled = layers.rollup(profiler.stats, str(ROOT / "src"))
    self_s = sum(rolled[f"{n}.self_s"] for n in layers.LAYER_NAMES)
    calls = sum(rolled[f"{n}.calls"] for n in layers.LAYER_NAMES)
    assert self_s == pytest.approx(sum(v[2] for v in profiler.stats.values()))
    assert calls == sum(v[0] for v in profiler.stats.values())
    # the dataclass-generated ReplicaSpec.__init__ is charged to its caller
    assert rolled["serving.fleet.calls"] >= 3 * 64
