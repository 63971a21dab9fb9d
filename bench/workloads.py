"""The benchmark's five workloads, driven through the public ``repro`` API.

Each workload is a class with the same five steps, so the worker can put
only the simulator's own work inside the timed region:

* ``setup(seed)`` builds what every iteration shares (counted in
  ``setup_s``);
* ``inputs(seed)`` draws one iteration's operations from the iteration
  seed (untimed);
* ``run(op)`` performs one operation (timed);
* ``check(op, out)`` compares one output with an independent oracle and
  returns ``None`` or the reason it failed (untimed);
* ``stats(outputs)`` reads one iteration's simulated results and
  counters from the public stats.

Every iteration draws fresh inputs, so no result memo (sim cache,
graph-op cache, ``lru_cache``) filled by one iteration answers another.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

import numpy as np

from repro.conformance.golden import (TolerancePolicy, compare_outputs,
                                      evaluate_graph)
from repro.core.accelerator import Accelerator
from repro.eval.machines import MACHINES
from repro.kernels.fc import run_fc
from repro.kernels.tbe import TBEConfig, pooled_reference, run_tbe
from repro.models.configs import MODEL_ZOO
from repro.models.dlrm import build_dlrm_graph
from repro.runtime.executor import GraphExecutor
from repro.serving import BatchingConfig, simulate_serving
from repro.serving.fleet import (FleetConfig, RouterConfig,
                                 TabularLatencyModel, simulate_fleet,
                                 uniform_fleet)
from repro.serving.simulator import STATUS_NAMES, BatchLatencyModel
from repro.serving.traffic import trace_preset

#: Simulated results and counters that repeat exactly for a given seed;
#: a change meant only to speed the simulator up must leave them equal.
EXACT_METRICS = (
    "sim_cycles", "model_latency_us", "sim_p50_us", "sim_p99_us",
    "sim.events", "sim.peak_heap", "dram.read_bytes", "sram.hit_lines",
    "sram.miss_lines", "noc.link_bytes", "noc.coalesced", "compiler.nodes",
    "serving.requests", "serving.batches", "fleet.hedged",
)


class Workload:
    """Defaults shared by the workloads below."""

    def setup(self, seed: int) -> None:
        pass

    def stats(self, outputs: List) -> Dict[str, float]:
        return {}


def _chip_stats(acc: Accelerator, cycles: float) -> Dict[str, float]:
    chip = acc.collect_stats()
    engine = acc.engine
    return {"sim_cycles": float(cycles),
            "sim.events": engine.events_processed,
            "sim.peak_heap": engine.peak_heap_size,
            # host seconds inside Engine.run, for sim.events_per_s
            "sim.run_wall_s": engine.run_wall_s,
            "dram.read_bytes": chip.get("dram.read_bytes", 0.0),
            "sram.hit_lines": chip.get("sram.hit_lines", 0.0),
            "sram.miss_lines": chip.get("sram.miss_lines", 0.0),
            "noc.link_bytes": chip.get("noc.link_bytes", 0.0)}


class ChipFC(Workload):
    """Figure 7 FC: 512x1024x256 INT8 on a 4x4 sub-grid, ``k_split=2``."""

    M, K, N = 512, 1024, 256

    def inputs(self, seed: int) -> List:
        rng = np.random.default_rng(seed)
        a = rng.integers(-128, 128, size=(self.M, self.K), dtype=np.int8)
        b_t = rng.integers(-128, 128, size=(self.N, self.K), dtype=np.int8)
        return [(a, b_t)]

    def run(self, op):
        a, b_t = op
        acc = Accelerator()
        return acc, run_fc(acc, a, b_t, subgrid=acc.subgrid((0, 0), 4, 4),
                           k_split=2)

    def check(self, op, out) -> Optional[str]:
        a, b_t = op
        expected = b_t.astype(np.int32) @ a.T.astype(np.int32)
        if not np.array_equal(out[1].c_t, expected):
            return "FC output differs from the int32 matmul"
        return None

    def stats(self, outputs: List) -> Dict[str, float]:
        acc, result = outputs[0]
        stats = _chip_stats(acc, result.cycles)
        groups = {id(g): g for work in result.plan.work_items
                  for g in (work.multicast_a, work.multicast_b)
                  if g is not None}
        stats["noc.coalesced"] = sum(g.stats.get("coalesced")
                                     for g in groups.values())
        return stats


class ChipTBE(Workload):
    """Figure 12 TBE: 8 tables x 100k rows x dim 64, pooling 16, batch 32."""

    CONFIG = TBEConfig(num_tables=8, rows_per_table=100_000,
                       embedding_dim=64, pooling_factor=16, batch_size=32)

    def setup(self, seed: int) -> None:
        cfg = self.CONFIG
        self.tables = np.random.default_rng(seed).integers(
            -128, 128, dtype=np.int8,
            size=(cfg.num_tables, cfg.rows_per_table, cfg.embedding_dim))

    def inputs(self, seed: int) -> List:
        cfg = self.CONFIG
        return [np.random.default_rng(seed).integers(
            0, cfg.rows_per_table, dtype=np.int64,
            size=(cfg.num_tables, cfg.batch_size, cfg.pooling_factor))]

    def run(self, indices):
        acc = Accelerator()
        return acc, run_tbe(acc, self.CONFIG, self.tables, indices,
                            prefetch_rows=1)

    def check(self, indices, out) -> Optional[str]:
        expected = pooled_reference(self.tables, indices, self.CONFIG.scale)
        if not np.allclose(out[1].output, expected, rtol=1e-7, atol=1e-4):
            return "TBE output differs from pooled_reference"
        return None

    def stats(self, outputs: List) -> Dict[str, float]:
        acc, result = outputs[0]
        return _chip_stats(acc, result.cycles)


#: MLP weight nodes of a DLRM graph (``bot_w0``, ``tw3_w1``, ``top_w2``)
_MLP_WEIGHT = re.compile(r"_w\d+$")
#: Integer MLP weights are drawn from [-a, a] with a = this / sqrt(fan-in),
#: which keeps every zoo model's output off its saturation limits.
_INT_WEIGHT_GAIN = 24.0


def _mlp_weight(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    fan_in = shape[1]
    if np.issubdtype(dtype, np.integer):
        bound = max(1, round(_INT_WEIGHT_GAIN / np.sqrt(fan_in)))
        return rng.integers(-bound, bound + 1, size=shape, dtype=dtype)
    return (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(dtype)


class DLRMZoo(Workload):
    """Build, compile (graph mode) and execute all five MODEL_ZOO models.

    Feeds and MLP weights are seeded; embedding tables are left to the
    executor's zero synthesis (they are tens to hundreds of GB).
    """

    BATCH = 64

    def setup(self, seed: int) -> None:
        self.machine = MACHINES["mtia"]
        #: (node, op, shape, dtype) of each model's feeds and MLP weights
        self.bindings = {}
        for name, cfg in MODEL_ZOO.items():
            graph = build_dlrm_graph(cfg, self.BATCH)
            self.bindings[name] = [
                (node.name, node.op, tuple(node.meta.shape),
                 node.meta.dtype.numpy_dtype)
                for node in graph
                if node.op == "input"
                or (node.op == "weight" and _MLP_WEIGHT.search(node.name))]

    def inputs(self, seed: int) -> List:
        rng = np.random.default_rng(seed)
        ops = []
        for name, cfg in MODEL_ZOO.items():
            feeds, weights = {}, {}
            for node, op, shape, dtype in self.bindings[name]:
                if op == "weight":
                    weights[node] = _mlp_weight(rng, shape, dtype)
                elif np.issubdtype(dtype, np.integer):
                    feeds[node] = rng.integers(
                        0, cfg.rows_per_table, size=shape, dtype=dtype)
                else:
                    feeds[node] = rng.standard_normal(shape).astype(dtype)
            ops.append((name, feeds, weights))
        return ops

    def run(self, op):
        name, feeds, weights = op
        graph = build_dlrm_graph(MODEL_ZOO[name], self.BATCH)
        outputs, report = GraphExecutor(self.machine, mode="graph").run(
            graph, feeds, weights)
        return graph, outputs, report

    def check(self, op, out) -> Optional[str]:
        name, feeds, weights = op
        graph, outputs, _ = out
        reference = build_dlrm_graph(MODEL_ZOO[name], self.BATCH)
        expected = evaluate_graph(reference, feeds, weights)
        diverged = compare_outputs(outputs, expected, TolerancePolicy(),
                                   actual_names=graph.outputs,
                                   expected_names=reference.outputs)
        if diverged:
            return f"{name}: {diverged[0].output}: {diverged[0].reason}"
        if any(np.ptp(value) == 0 for value in outputs.values()):
            return f"{name}: constant output, so the check proves nothing"
        return None

    def stats(self, outputs: List) -> Dict[str, float]:
        return {"model_latency_us": sum(report.seconds * 1e6
                                        for _, _, report in outputs),
                "compiler.nodes": sum(len(graph) for graph, _, _ in outputs)}


#: Per-request latency phases; each report carries the ones it models.
_PHASES = ("queue_wait_us", "batch_wait_us", "retry_overhead_us",
           "route_overhead_us", "hedge_wait_us", "execute_us")


def _check_requests(report) -> Optional[str]:
    """Conservation and the per-request attribution identity."""
    n = report.arrivals_us.size
    status = (report.status if report.status.size
              else np.zeros(n, dtype=np.int8))
    if report.latencies_us.size != n or status.size != n:
        return "report arrays do not cover every request"
    if not np.isin(status, np.arange(len(STATUS_NAMES))).all():
        return "a request has no valid status"
    if sum(report.counts_by_status().values()) != n:
        return "status counts do not add up to the requests"
    phases = [getattr(report, p) for p in _PHASES
              if getattr(report, p, np.zeros(0)).size]
    if not np.allclose(np.sum(phases, axis=0), report.latencies_us,
                       rtol=0.0, atol=1e-6):
        return "latency phases do not sum to the latency"
    return None


def _served_latencies(report) -> np.ndarray:
    mask = report.served_mask
    return report.latencies_us if mask is None else report.latencies_us[mask]


class ServingLadder(Workload):
    """Plain ``simulate_serving`` of LC2 on MTIA at four offered loads."""

    QPS = (2_000, 10_000, 30_000, 60_000)
    REQUESTS = 50_000

    def setup(self, seed: int) -> None:
        self.latency = BatchLatencyModel(MODEL_ZOO["LC2"], MACHINES["mtia"])
        self.batching = BatchingConfig(max_batch=128, max_wait_us=300)

    def inputs(self, seed: int) -> List:
        seeds = np.random.default_rng(seed).integers(0, 2**31,
                                                     size=len(self.QPS))
        return [(qps, int(s)) for qps, s in zip(self.QPS, seeds)]

    def run(self, op):
        qps, seed = op
        return simulate_serving(self.latency, qps, self.batching,
                                num_requests=self.REQUESTS, seed=seed)

    def check(self, op, report) -> Optional[str]:
        return _check_requests(report)

    def stats(self, outputs: List) -> Dict[str, float]:
        latencies = np.concatenate([_served_latencies(r) for r in outputs])
        return {"sim_p50_us": float(np.percentile(latencies, 50)),
                "sim_p99_us": float(np.percentile(latencies, 99)),
                "serving.requests": sum(r.arrivals_us.size for r in outputs),
                "serving.batches": sum(len(r.batches) for r in outputs)}


class FleetDiurnal(Workload):
    """``simulate_fleet``: 1 s diurnal trace at 60k QPS over 6 replicas."""

    #: the latency table the fleet byte-identity check (fleet_check) uses
    MODEL = TabularLatencyModel(batches=(1, 4, 16, 64, 256),
                                latency_us=(60, 72, 110, 260, 860))
    TRACE = trace_preset("diurnal", target_qps=60_000)

    def inputs(self, seed: int) -> List:
        return [seed]

    def run(self, seed):
        config = FleetConfig(
            replicas=uniform_fleet(6),
            router=RouterConfig(policy="power_of_two", seed=seed,
                                hedge_backlog_us=400.0))
        return simulate_fleet(self.MODEL, self.TRACE, config, jobs=1,
                              collect_telemetry=True, seed=seed)

    def check(self, seed, report) -> Optional[str]:
        if not report.conservation()["conserved"]:
            return "fleet requests are not conserved across replicas"
        return _check_requests(report)

    def stats(self, outputs: List) -> Dict[str, float]:
        report = outputs[0]
        return {"sim_p50_us": report.p50_us,
                "sim_p99_us": report.p99_us,
                "serving.requests": report.arrivals_us.size,
                "serving.batches": sum(len(r.batches)
                                       for r in report.per_replica),
                "fleet.hedged": report.hedged_requests}


WORKLOADS = {"chip_fc": ChipFC, "chip_tbe": ChipTBE, "dlrm_zoo": DLRMZoo,
             "serving_ladder": ServingLadder, "fleet_diurnal": FleetDiurnal}
