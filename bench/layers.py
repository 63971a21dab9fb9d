"""Roll a cProfile of one iteration up into the simulator's layers.

Every module under ``src/repro`` belongs to one layer through ``LAYERS``:
a module takes the layer of its longest dotted prefix listed there, but
never falls back to the bare ``repro`` package, so a new top-level
module has to be added to the table before the self-tests pass.
NumPy's Python code and C methods form the ``numpy`` layer; the
interpreter, the standard library and this harness are ``python``.
"""

from __future__ import annotations

import importlib
import os
import sys
from typing import Dict, Optional, Tuple

import numpy as np

LAYER_NAMES = (
    "sim", "core", "core.units", "memory", "noc", "isa", "kernels",
    "compiler", "runtime", "eval", "models", "simcache",
    "serving.simulator", "serving.resilience", "serving.fleet",
    "serving.telemetry", "serving.traffic", "obs", "numpy", "python",
)

LAYERS: Dict[str, str] = {
    "repro": "core",                  # re-exports Accelerator and config
    "repro.config": "core",
    "repro.dtypes": "core",
    "repro.core": "core",
    "repro.core.units": "core.units",
    "repro.sim": "sim",
    "repro.memory": "memory",
    "repro.noc": "noc",
    "repro.isa": "isa",
    "repro.kernels": "kernels",
    "repro.quantization": "kernels",
    "repro.compiler": "compiler",
    "repro.autotune": "compiler",     # mapping search over compiler plans
    "repro.runtime": "runtime",
    "repro.firmware": "runtime",
    "repro.parallel": "runtime",
    "repro.eval": "eval",
    "repro.baselines": "eval",
    "repro.platforms": "eval",
    "repro.conformance": "eval",      # the oracles; run outside timing
    "repro.models": "models",
    "repro.simcache": "simcache",
    "repro.serving": "serving.simulator",  # simulator, capacity, slo, tail
    "repro.serving.resilience": "serving.resilience",
    "repro.faults": "serving.resilience",
    "repro.serving.fleet": "serving.fleet",
    "repro.serving.fleet_check": "serving.fleet",
    "repro.serving.telemetry": "serving.telemetry",
    "repro.serving.traffic": "serving.traffic",
    "repro.obs": "obs",
    "repro.bench": "obs",             # report and profiling CLIs
    "repro.critpath": "obs",
    "repro.profile": "obs",
    "repro.report": "obs",
    "repro.serve_report": "obs",
}

#: Entry points whose cumulative time the traced run reports, as
#: ``module:qualname``; a span sums its functions (none nest in another).
SPANS: Dict[str, Tuple[str, ...]] = {
    "span.accelerator_init_s": (
        "repro.core.accelerator:Accelerator.__init__",),
    "span.kernel_s": ("repro.kernels.fc:run_fc", "repro.kernels.tbe:run_tbe"),
    "span.engine_run_s": ("repro.sim.engine:Engine.run",),
    "span.build_graph_s": ("repro.models.dlrm:build_dlrm_graph",),
    "span.compile_s": ("repro.runtime.executor:GraphExecutor.compile",),
    "span.execute_nodes_s": ("repro.compiler.ops:execute_node",),
    "span.estimate_graph_s": ("repro.eval.opmodel:estimate_graph",),
    "span.latency_model_s": (
        "repro.serving.simulator:BatchLatencyModel.__call__",
        "repro.serving.fleet:TabularLatencyModel.__call__"),
    "span.simulate_serving_s": ("repro.serving.simulator:simulate_serving",),
    "span.arrivals_s": ("repro.serving.simulator:resolve_arrivals",
                        "repro.serving.traffic:TrafficTrace.arrivals"),
    "span.route_s": ("repro.serving.fleet:route_requests_vectorised",),
    "span.replica_serving_s": (
        "repro.serving.resilience:simulate_serving_resilient",),
    "span.telemetry_s": (
        "repro.serving.telemetry:ServingTelemetry.from_report",
        "repro.serving.telemetry:ServingTelemetry.merge_all"),
}

_NUMPY_DIR = os.path.dirname(np.__file__) + os.sep


def module_layer(module: str) -> Optional[str]:
    """The layer of a ``repro`` module, or ``None`` if the table lacks it."""
    parts = module.split(".")
    for end in range(len(parts), 1, -1):
        layer = LAYERS.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return LAYERS.get(module)


def _file_layer(filename: str, func: str, src: str) -> Optional[str]:
    """Layer of one profile entry; ``None`` for code generated at run time."""
    if filename.startswith(src):
        module = filename[len(src):].removesuffix(".py").replace(os.sep, ".")
        return module_layer(module.removesuffix(".__init__")) or "python"
    if filename.startswith(_NUMPY_DIR) or (filename == "~"
                                           and "numpy" in func):
        return "numpy"
    if filename == "<string>":
        # dataclass-generated methods: charged to the layer that calls them
        return None
    return "python"


def rollup(stats: Dict, src: str) -> Dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.calls`` from ``Profile.stats``.

    ``src`` is the directory holding the ``repro`` package.  Self time
    and primitive calls of generated code go to the callers' layers in
    proportion to what each call edge recorded.
    """
    src = os.path.join(src, "")
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    layer_of = {key: _file_layer(key[0], key[2], src) for key in stats}
    for key, (cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of[key]
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += cc
            continue
        for caller, (edge_cc, _enc, edge_tt, _ect) in callers.items():
            owner = layer_of.get(caller) or "python"
            self_s[owner] += edge_tt
            calls[owner] += edge_cc
    metrics: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    return metrics


def _code_key(target: str) -> Tuple[str, int, str]:
    module, qualname = target.split(":")
    obj = importlib.import_module(module)
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    code = getattr(obj, "__func__", obj).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def span_times(stats: Dict) -> Dict[str, float]:
    """Cumulative seconds of each entry-point span from ``Profile.stats``.

    A span whose function no longer exists reads 0 and is named on
    stderr: a refactor neither breaks the traced run nor goes unnoticed.
    """
    metrics = {}
    for name, targets in SPANS.items():
        total = 0.0
        for target in targets:
            try:
                key = _code_key(target)
            except (ImportError, AttributeError) as exc:
                print(f"span {name}: cannot resolve {target}: {exc}",
                      file=sys.stderr)
                continue
            if key in stats:
                total += stats[key][3]
        metrics[name] = total
    return metrics
