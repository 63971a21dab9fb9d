"""Determinism / replay checking.

Two invariants every future perf PR must preserve:

* **Replay determinism** — the simulator and the graph executor are
  pure functions of their seed: the same seed run twice produces
  identical cycle counts, outputs, and stall attributions.  Without
  this, a "failing seed" printed by the fuzzer would be worthless.
* **Hooks are no-ops** — enabling tracing and stall attribution
  (``Accelerator(observe=True, trace=True)``) must not change a single
  cycle or output bit (the PR-1 observability contract: telemetry
  observes the machine, it never steers it).  The same contract covers
  the request-level :class:`~repro.obs.spans.SpanTracer`: attaching an
  enabled tracer to the serving simulator or the graph executor must
  leave latencies, modelled seconds, and outputs bit-identical, and a
  *disabled* tracer must record nothing at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class DeterminismResult:
    """Violations found while replaying one seed (empty == pass)."""

    seed: int
    kind: str                       #: "sim" or "graph"
    violations: List[str] = field(default_factory=list)
    cycles: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {"seed": self.seed, "kind": self.kind,
                "cycles": self.cycles, "violations": list(self.violations)}


def _fc_shape_for(seed: int) -> Dict[str, int]:
    """A tiny tileable FC shape — determinism needs 4 runs per seed."""
    rng = np.random.default_rng(seed)
    cols = int(rng.choice([1, 2]))
    return {"m": 64, "k": 32 * cols * int(rng.integers(1, 4)),
            "n": 64 * int(rng.integers(1, 3)), "rows": 1, "cols": cols,
            "k_split": cols}


#: every per-request array of a serving report
_SERVING_ARRAYS = ("latencies_us", "queue_wait_us", "batch_wait_us",
                   "execute_us", "arrivals_us", "batch_index", "status",
                   "retry_overhead_us", "attempts", "abort_us")


def check_sim_determinism(seed: int) -> DeterminismResult:
    """Replay one FC kernel on the DES; see module docstring."""
    from repro import Accelerator
    from repro.kernels.fc import run_fc

    shape = _fc_shape_for(seed)

    def once(observe: bool):
        acc = Accelerator(observe=observe, trace=observe)
        result = run_fc(acc, m=shape["m"], k=shape["k"], n=shape["n"],
                        dtype="int8",
                        subgrid=acc.subgrid((0, 0), shape["rows"],
                                            shape["cols"]),
                        k_split=shape["k_split"], seed=seed)
        stalls = acc.obs.stalls_by_cause() if observe else {}
        return result.cycles, result.c_t, stalls

    res = DeterminismResult(seed=seed, kind="sim")
    cycles_a, out_a, _ = once(observe=False)
    cycles_b, out_b, _ = once(observe=False)
    res.cycles = cycles_a
    if cycles_a != cycles_b:
        res.violations.append(
            f"replay cycles differ: {cycles_a} vs {cycles_b}")
    if not np.array_equal(out_a, out_b):
        res.violations.append("replay outputs differ bit-for-bit")

    cycles_obs, out_obs, stalls_1 = once(observe=True)
    if cycles_obs != cycles_a:
        res.violations.append(
            "enabling metrics/tracing changed cycles: "
            f"{cycles_a} plain vs {cycles_obs} observed")
    if not np.array_equal(out_obs, out_a):
        res.violations.append("enabling metrics/tracing changed outputs")

    _, _, stalls_2 = once(observe=True)
    if stalls_1 != stalls_2:
        res.violations.append(
            f"stall attributions differ between replays: "
            f"{stalls_1} vs {stalls_2}")
    return res


def check_cache_determinism(seed: int) -> DeterminismResult:
    """Cached sim results must be bit-identical to fresh simulation.

    Three runs of the same FC shape: one fresh (cache off), one cold
    through a :class:`~repro.simcache.SimCache` (miss → simulate →
    record), one warm (hit → replay).  Cycles, outputs, and stall
    attributions must match bit-for-bit across all three — the
    content-addressed cache may only change wall time, never results.
    """
    from repro import Accelerator
    from repro.kernels.fc import run_fc
    from repro.simcache import SimCache

    shape = _fc_shape_for(seed)

    def once(cache=None):
        acc = Accelerator(observe=True)
        result = run_fc(acc, m=shape["m"], k=shape["k"], n=shape["n"],
                        dtype="int8",
                        subgrid=acc.subgrid((0, 0), shape["rows"],
                                            shape["cols"]),
                        k_split=shape["k_split"], seed=seed, cache=cache)
        return result.cycles, result.c_t, acc.obs.stalls_by_track()

    res = DeterminismResult(seed=seed, kind="cache")
    cycles_fresh, out_fresh, stalls_fresh = once()
    res.cycles = cycles_fresh

    cache = SimCache()
    cycles_cold, out_cold, stalls_cold = once(cache=cache)
    cycles_warm, out_warm, stalls_warm = once(cache=cache)

    stats = cache.stats()
    if stats["misses"] != 1 or stats["hits"] != 1:
        res.violations.append(
            f"expected exactly one miss then one hit, got {stats}")
    for label, cycles, out, stalls in (
            ("cold (cache miss)", cycles_cold, out_cold, stalls_cold),
            ("warm (cache hit)", cycles_warm, out_warm, stalls_warm)):
        if cycles != cycles_fresh:
            res.violations.append(
                f"{label} cycles differ from fresh: "
                f"{cycles} vs {cycles_fresh}")
        if not np.array_equal(out, out_fresh):
            res.violations.append(
                f"{label} output differs from fresh bit-for-bit")
        if stalls != stalls_fresh:
            res.violations.append(
                f"{label} stall attributions differ from fresh")
    return res


def check_graph_cache_determinism(seed: int,
                                  fuzz_config=None) -> DeterminismResult:
    """Per-op graph cache: fresh / cold / warm / partial-warm, bitwise.

    Four executions of one fuzzed DLRM graph through the
    :class:`~repro.runtime.executor.GraphExecutor`:

    * **fresh** — no cache at all (the reference);
    * **cold** — empty :class:`~repro.simcache.GraphOpCache` (every op
      misses, is computed, and is recorded);
    * **warm** — same cache again (every compute op must hit);
    * **partial-warm** — one weight perturbed: exactly the downstream
      cone recomputes, everything else replays, and the outputs must be
      bit-identical to a fresh run with the same perturbed weight.

    Outputs and modelled seconds must match the reference bit-for-bit
    in every mode — the cache may only ever change wall time.
    """
    from repro.conformance.fuzzer import fuzz_graph
    from repro.runtime.executor import GraphExecutor
    from repro.simcache import GraphOpCache

    case = fuzz_graph(seed, fuzz_config)
    res = DeterminismResult(seed=seed, kind="graph-cache")

    def once(weights, cache=False):
        # ``False`` forces caching off for reference runs even if
        # REPRO_GRAPH_CACHE is set in the environment.
        executor = GraphExecutor(mode="graph", op_cache=cache)
        return executor.run(case.graph.copy(), case.feeds, weights)

    def compare(label, got, want):
        out_g, rep_g = got
        out_w, rep_w = want
        if rep_g.seconds != rep_w.seconds:
            res.violations.append(
                f"{label}: modelled seconds differ "
                f"({rep_g.seconds} vs {rep_w.seconds})")
        for name in out_w:
            if not np.array_equal(out_g[name], out_w[name]):
                res.violations.append(
                    f"{label}: output {name!r} differs bit-for-bit")

    fresh = once(case.weights)
    res.cycles = fresh[1].seconds
    cache = GraphOpCache()
    cold = once(case.weights, cache=cache)
    compare("cold (all misses)", cold, fresh)
    if cache.hits != 0 or cache.misses == 0:
        res.violations.append(
            f"cold run expected only misses, got {cache.stats()}")
    misses_cold = cache.misses

    warm = once(case.weights, cache=cache)
    compare("warm (all hits)", warm, fresh)
    if cache.misses != misses_cold:
        res.violations.append(
            f"warm run missed {cache.misses - misses_cold} ops; "
            "expected every compute op to hit")

    # Perturb one weight: downstream cone recomputes, the rest replays.
    # Pick the *last* weight in node order — its downstream cone is the
    # smallest, so the spared-operator assertion below has teeth even on
    # mostly-sequential DLRM chains.
    bound = [n.name for n in case.graph
             if n.op == "weight" and n.name in case.weights]
    if bound:
        name = bound[-1]
        edited = dict(case.weights)
        edited[name] = edited[name] + np.ones_like(edited[name])
        fresh_edited = once(edited)
        hits_before = cache.hits
        misses_before = cache.misses
        partial = once(edited, cache=cache)
        compare("partial-warm (one weight edited)", partial, fresh_edited)
        new_misses = cache.misses - misses_before
        new_hits = cache.hits - hits_before
        if new_misses == 0:
            res.violations.append(
                "editing a weight caused no recomputation — stale hit")
        if new_misses >= misses_cold:
            res.violations.append(
                f"editing one weight invalidated every op "
                f"({new_misses}/{misses_cold} recomputed); chained "
                "fingerprints should spare the off-cone operators")
        if new_hits == 0:
            res.violations.append(
                "partial-warm run replayed nothing from cache")
    return res


def check_graph_determinism(seed: int,
                            fuzz_config=None) -> DeterminismResult:
    """Replay one fuzzed graph through the GraphExecutor twice.

    A third run attaches an *enabled* span tracer: per-op span
    recording must not change the modelled seconds or any output bit
    (the hooks-are-no-ops contract, extended to spans).
    """
    from repro.conformance.fuzzer import fuzz_graph
    from repro.obs.spans import SpanTracer
    from repro.runtime.executor import GraphExecutor

    case = fuzz_graph(seed, fuzz_config)

    def once(spans=None):
        executor = GraphExecutor(mode="graph", spans=spans)
        return executor.run(case.graph.copy(), case.feeds, case.weights)

    out_a, report_a = once()
    out_b, report_b = once()
    res = DeterminismResult(seed=seed, kind="graph")
    if report_a.seconds != report_b.seconds:
        res.violations.append(
            f"modelled seconds differ: {report_a.seconds} vs "
            f"{report_b.seconds}")
    if sorted(out_a) != sorted(out_b):
        res.violations.append(
            f"output names differ: {sorted(out_a)} vs {sorted(out_b)}")
    else:
        for name in out_a:
            if not np.array_equal(out_a[name], out_b[name]):
                res.violations.append(f"output {name!r} differs between "
                                      "replays")

    spans = SpanTracer(enabled=True)
    out_s, report_s = once(spans=spans)
    if report_s.seconds != report_a.seconds:
        res.violations.append(
            "enabling span tracing changed modelled seconds: "
            f"{report_a.seconds} plain vs {report_s.seconds} traced")
    for name in out_a:
        if name in out_s and not np.array_equal(out_s[name], out_a[name]):
            res.violations.append(
                f"enabling span tracing changed output {name!r}")
    if not spans.spans:
        res.violations.append("enabled span tracer recorded nothing")
    return res


def check_fault_injection_noop(seed: int) -> DeterminismResult:
    """An armed-but-empty fault injector must be a perfect no-op.

    :mod:`repro.faults` threads penalty queries through every hardware
    hot path (DRAM, SRAM, NoC, reduction network, CP dispatch) and the
    serving engine's card model.  The contract mirrors PR 1's hooks-are-
    no-ops rule: attaching a :class:`~repro.faults.FaultInjector` whose
    plan is *empty* must leave cycles, outputs, stall attributions, and
    serving latencies bit-identical to no injector at all — faults are
    opt-in per event, never ambient.
    """
    from repro import Accelerator
    from repro.faults import FaultInjector, FaultPlan
    from repro.kernels.fc import run_fc
    from repro.kernels.tbe import TBEConfig, run_tbe
    from repro.obs.metrics import MetricRegistry
    from repro.serving.simulator import BatchingConfig, simulate_serving

    res = DeterminismResult(seed=seed, kind="faults")
    empty_plan = FaultPlan(events=())

    # -- cycle-level FC kernel -------------------------------------------
    shape = _fc_shape_for(seed)

    def fc_once(inject: bool):
        acc = Accelerator(observe=True)
        if inject:
            FaultInjector(empty_plan).attach(acc)
        result = run_fc(acc, m=shape["m"], k=shape["k"], n=shape["n"],
                        dtype="int8",
                        subgrid=acc.subgrid((0, 0), shape["rows"],
                                            shape["cols"]),
                        k_split=shape["k_split"], seed=seed)
        return result.cycles, result.c_t, acc.obs.stalls_by_track()

    cycles_plain, out_plain, stalls_plain = fc_once(inject=False)
    cycles_inj, out_inj, stalls_inj = fc_once(inject=True)
    res.cycles = cycles_plain
    if cycles_inj != cycles_plain:
        res.violations.append(
            "empty fault plan changed FC cycles: "
            f"{cycles_plain} plain vs {cycles_inj} injected")
    if not np.array_equal(out_inj, out_plain):
        res.violations.append("empty fault plan changed FC output bits")
    if stalls_inj != stalls_plain:
        res.violations.append(
            "empty fault plan changed FC stall attributions")

    # -- cycle-level TBE kernel (DRAM/SRAM gather paths) -----------------
    rng = np.random.default_rng(seed ^ 0x5EED)
    tbe_cfg = TBEConfig(num_tables=int(rng.integers(1, 3)),
                        rows_per_table=64,
                        embedding_dim=int(rng.choice([32, 64])),
                        pooling_factor=int(rng.integers(2, 6)),
                        batch_size=4)

    def tbe_once(inject: bool):
        acc = Accelerator(observe=True)
        if inject:
            FaultInjector(empty_plan).attach(acc)
        result = run_tbe(acc, tbe_cfg, subgrid=acc.subgrid((0, 0), 1, 1),
                         seed=seed)
        return result.cycles, result.output, acc.obs.stalls_by_track()

    t_cycles_a, t_out_a, t_stalls_a = tbe_once(inject=False)
    t_cycles_b, t_out_b, t_stalls_b = tbe_once(inject=True)
    if t_cycles_b != t_cycles_a:
        res.violations.append(
            "empty fault plan changed TBE cycles: "
            f"{t_cycles_a} plain vs {t_cycles_b} injected")
    if not np.array_equal(t_out_b, t_out_a):
        res.violations.append("empty fault plan changed TBE output bits")
    if t_stalls_b != t_stalls_a:
        res.violations.append(
            "empty fault plan changed TBE stall attributions")

    # -- request-level serving -------------------------------------------
    srng = np.random.default_rng(seed)
    qps = float(srng.uniform(2_000, 100_000))
    base = float(srng.uniform(50, 300))
    slope = float(srng.uniform(0.5, 5.0))
    batching = BatchingConfig(max_batch=int(srng.choice([16, 64, 256])),
                              max_wait_us=float(srng.uniform(50, 400)))

    def latency_model(batch: int) -> float:
        return base + slope * batch

    def serve(faults):
        return simulate_serving(latency_model, qps, batching,
                                num_requests=400, seed=seed, faults=faults,
                                registry=MetricRegistry())

    plain = serve(None)
    injected = serve(FaultInjector(empty_plan))
    for field_name in _SERVING_ARRAYS:
        if not np.array_equal(getattr(injected, field_name),
                              getattr(plain, field_name), equal_nan=True):
            res.violations.append(
                f"serving with an empty fault plan changed {field_name}")
    if injected.batch_sizes != plain.batch_sizes:
        res.violations.append(
            "serving with an empty fault plan changed batch boundaries")
    if injected.availability != 1.0:
        res.violations.append(
            f"empty fault plan aborted requests "
            f"(availability {injected.availability})")
    return res


def check_serving_determinism(seed: int) -> DeterminismResult:
    """Replay one serving simulation; spans/metrics must be no-ops.

    Four invariants: (a) the same seed replays bit-identically, (b)
    attaching an enabled SpanTracer + registry leaves every report
    array bit-identical, (c) a *disabled* SpanTracer records nothing,
    and (d) spans stay no-ops on a seeded run with deadlines, retries
    and load shedding, where every traced request must belong to the
    batch that served it.
    """
    from repro.obs.metrics import MetricRegistry
    from repro.obs.spans import SpanTracer
    from repro.serving.resilience import ResilienceConfig
    from repro.serving.simulator import (STATUS_SERVED, BatchingConfig,
                                         simulate_serving)

    rng = np.random.default_rng(seed)
    qps = float(rng.uniform(2_000, 200_000))
    base = float(rng.uniform(50, 300))
    slope = float(rng.uniform(0.5, 5.0))
    batching = BatchingConfig(max_batch=int(rng.choice([16, 64, 256])),
                              max_wait_us=float(rng.uniform(50, 400)))
    resilient = ResilienceConfig(
        deadline_us=float(rng.uniform(1.0, 4.0)) * (base + slope * 16),
        max_retries=int(rng.integers(1, 4)),
        retry_backoff_us=float(rng.uniform(20, 200)),
        shed_queue_depth=int(rng.choice([8, 32, 128])))

    def latency_model(batch: int) -> float:
        return base + slope * batch

    def once(spans=None, registry=None, resilience=ResilienceConfig()):
        return simulate_serving(latency_model, qps, batching,
                                num_requests=400, seed=seed,
                                registry=registry, spans=spans,
                                resilience=resilience)

    def compare(observed, reference, what: str) -> None:
        for field_name in _SERVING_ARRAYS:
            if not np.array_equal(getattr(observed, field_name),
                                  getattr(reference, field_name),
                                  equal_nan=True):
                res.violations.append(f"{what} changed {field_name}")

    res = DeterminismResult(seed=seed, kind="serving")
    plain_a = once()
    plain_b = once()
    res.cycles = float(plain_a.latencies_us.sum())
    compare(plain_b, plain_a, "serving replay")

    disabled = SpanTracer(enabled=False)
    compare(once(spans=SpanTracer(enabled=True), registry=MetricRegistry()),
            plain_a, "enabling spans/metrics")
    compare(once(spans=disabled), plain_a, "a disabled span tracer")
    if disabled.spans:
        res.violations.append(
            f"disabled span tracer recorded {len(disabled.spans)} spans")

    bare = once(resilience=resilient)
    spans = SpanTracer(enabled=True)
    traced = once(spans=spans, registry=MetricRegistry(),
                  resilience=resilient)
    compare(traced, bare, "enabling spans on a resilient run")
    requests = [s for s in spans.spans if s.name.startswith("req")]
    if not requests and traced.served_mask.any():
        res.violations.append("resilient run traced no served request")
    for span in requests:
        r = int(span.track.rsplit(".", 1)[1])
        if (traced.status[r] != STATUS_SERVED
                or traced.batch_index[r] != span.args["batch"]):
            res.violations.append(
                f"traced request {r} is not served by batch "
                f"{span.args['batch']}")
            break
    return res


def check_telemetry_determinism(seed: int) -> DeterminismResult:
    """Sketch/exemplar merges must be order-invariant, byte-for-byte.

    The fleet-telemetry contract: (a) collecting telemetry never
    perturbs the simulation; (b) sharding one value stream and merging
    the per-shard sketches — in *either* order — serializes
    byte-identically to single-stream ingest; (c) the same holds for
    exemplar stores; (d) merged per-replica telemetry is byte-identical
    at any merge grouping (what makes ``--jobs N`` reports stable).
    """
    import json

    from repro.serving.simulator import BatchingConfig, simulate_serving
    from repro.serving.telemetry import ServingTelemetry

    rng = np.random.default_rng(seed)
    qps = float(rng.uniform(2_000, 200_000))
    base = float(rng.uniform(50, 300))
    slope = float(rng.uniform(0.5, 5.0))
    batching = BatchingConfig(max_batch=int(rng.choice([16, 64, 256])),
                              max_wait_us=float(rng.uniform(50, 400)))

    def latency_model(batch: int) -> float:
        return base + slope * batch

    def run(collect: bool, replica: int = 0, run_seed: int = seed):
        return simulate_serving(latency_model, qps, batching,
                                num_requests=300, seed=run_seed,
                                registry=None, collect_telemetry=collect,
                                replica=replica)

    res = DeterminismResult(seed=seed, kind="telemetry")
    plain = run(collect=False)
    collected = run(collect=True)
    res.cycles = float(plain.latencies_us.sum())
    for field_name in ("latencies_us", "queue_wait_us", "batch_wait_us",
                       "execute_us", "arrivals_us"):
        if not np.array_equal(getattr(collected, field_name),
                              getattr(plain, field_name)):
            res.violations.append(
                f"collecting telemetry changed {field_name}")

    # (b) sketch shard merges, both orders, vs single-stream ingest
    from repro.obs.sketch import QuantileSketch
    values = plain.latencies_us
    cut = values.size // 2
    whole = QuantileSketch()
    whole.add_many(values)
    a, b = QuantileSketch(), QuantileSketch()
    a.add_many(values[:cut])
    b.add_many(values[cut:])
    ab = a.copy().merge(b)
    ba = b.copy().merge(a)
    dumps = [json.dumps(s.to_dict(), sort_keys=True)
             for s in (whole, ab, ba)]
    if len(set(dumps)) != 1:
        res.violations.append(
            "sketch merge is not order-invariant byte-for-byte "
            "(single-stream vs merge(a,b) vs merge(b,a))")

    # (c)+(d) replica telemetry merged in either grouping
    replicas = [collected] + [run(collect=True, replica=i,
                                  run_seed=seed + i) for i in (1, 2)]
    tels = [r.telemetry for r in replicas]

    def merged(order):
        import copy
        parts = [copy.deepcopy(tels[i]) for i in order]
        return ServingTelemetry.merge_all(parts)

    j_fwd = json.dumps(merged((0, 1, 2)).to_dict(include_state=True),
                       sort_keys=True)
    j_rev = json.dumps(merged((2, 1, 0)).to_dict(include_state=True),
                       sort_keys=True)
    if j_fwd != j_rev:
        res.violations.append(
            "merged fleet telemetry differs across merge orders")
    return res


def check_fleet_determinism(seed: int) -> DeterminismResult:
    """Replay one fleet run; jobs parallelism must be invisible.

    Three invariants: (a) the same ``(trace, config)`` replays
    byte-identically (canonical report JSON), (b) ``jobs=1`` and
    ``jobs=2`` produce the same bytes (worker fan-out never reorders or
    perturbs anything), (c) a 1-replica fleet with free round-robin
    routing is *bit-identical* to the bare per-replica engine — the
    fleet layer is a no-op wrapper at N=1.
    """
    import json
    from dataclasses import replace as _replace

    from repro.serving.fleet import (FleetConfig, RouterConfig,
                                     TabularLatencyModel, simulate_fleet,
                                     uniform_fleet)
    from repro.serving.resilience import ResilienceConfig
    from repro.serving.simulator import simulate_serving
    from repro.serving.traffic import trace_preset

    rng = np.random.default_rng(seed)
    base = float(rng.uniform(50, 300))
    slope = float(rng.uniform(0.5, 5.0))
    batches = (1, 4, 16, 64, 256)
    model = TabularLatencyModel(
        batches=batches,
        latency_us=tuple(base + slope * b for b in batches))
    policy = ("round_robin", "least_loaded", "power_of_two",
              "hedge")[int(rng.integers(0, 4))]
    qps = float(rng.uniform(50_000, 400_000))
    trace = _replace(trace_preset("diurnal", target_qps=qps),
                     duration_us=20_000.0)
    config = FleetConfig(
        replicas=uniform_fleet(3, racks=2, power_domains=2),
        router=RouterConfig(policy=policy, route_latency_us=15.0,
                            seed=seed),
        resilience=ResilienceConfig(deadline_us=8_000.0, max_retries=1),
        seed=seed)

    res = DeterminismResult(seed=seed, kind="fleet")

    def dump(report) -> str:
        return json.dumps(report.to_dict(), sort_keys=True)

    serial_a = simulate_fleet(model, trace, config, jobs=1)
    serial_b = simulate_fleet(model, trace, config, jobs=1)
    res.cycles = float(serial_a.latencies_us.sum())
    if dump(serial_a) != dump(serial_b):
        res.violations.append("fleet replay report JSON differs")
    parallel = simulate_fleet(model, trace, config, jobs=2)
    if dump(serial_a) != dump(parallel):
        res.violations.append("jobs=1 and jobs=2 report JSON differ")

    # (c) N=1 trivial fleet == bare per-replica engine, bit for bit
    solo = FleetConfig(replicas=uniform_fleet(1),
                       router=RouterConfig(policy="round_robin"),
                       resilience=config.resilience, seed=seed)
    arrivals = trace.arrivals(seed)
    fleet = simulate_fleet(model, arrivals, solo, jobs=1)
    bare = simulate_serving(
        model, qps=0.0, resilience=config.resilience, seed=0,
        collect_telemetry=True, arrivals=arrivals)
    for field_name in ("latencies_us", "queue_wait_us", "batch_wait_us",
                       "execute_us", "retry_overhead_us", "status"):
        if not np.array_equal(getattr(fleet, field_name),
                              getattr(bare, field_name)):
            res.violations.append(
                f"1-replica fleet diverges from the bare engine "
                f"on {field_name}")
    tele_fleet = json.dumps(fleet.telemetry.to_dict(include_state=True),
                            sort_keys=True)
    tele_bare = json.dumps(bare.telemetry.to_dict(include_state=True),
                           sort_keys=True)
    if tele_fleet != tele_bare:
        res.violations.append(
            "1-replica fleet telemetry serialization diverges from "
            "the bare engine")
    return res


def check_autotune_determinism(seed: int) -> DeterminismResult:
    """Seeded search replay identity + tuned-mapping re-simulation.

    The autotune contract (PR 10), three invariants per seed:

    * (a) **trace replay** — running the phase-1 search twice with the
      same seed produces byte-identical traces: same event sequence,
      same winner, same SHA-256 digest;
    * (b) **jobs invariance** — the full two-phase ``autotune`` report
      (JSON with ``sort_keys``) is byte-identical at ``jobs=1`` and
      ``jobs=2`` — worker fan-out may only change wall time;
    * (c) **re-simulation identity** — the tuned winner re-simulates to
      the reported cycle count bit-for-bit (the report is a claim about
      the DES, not about one lucky run).
    """
    import json

    from repro.autotune import (MappingSpace, SearchConfig, autotune,
                                run_search, simulate_candidate)
    from repro.autotune.space import FCShape

    rng = np.random.default_rng(seed)
    shape = FCShape(m=64 * int(rng.integers(1, 3)),
                    k=32 * int(rng.integers(1, 5)),
                    n=64 * int(rng.integers(1, 3)))
    # Keep the per-case space tiny: ablation axes pinned to their
    # defaults, placement still explored (it exercises both
    # accelerator modes in phase 2).
    space = MappingSpace(shape=shape,
                         restrict={"use_multicast": (True,),
                                   "dual_core": (True,)})
    config = SearchConfig(seed=seed, budget=24, init=8, beam_width=4,
                          generations=2, population=6)

    res = DeterminismResult(seed=seed, kind="autotune")

    # -- (a) search trace replay -----------------------------------------
    first = run_search(space, config)
    second = run_search(space, config)
    res.cycles = float(first.trace.budget_used)
    if first.trace.events != second.trace.events:
        res.violations.append(
            "search replay produced a different event sequence")
    if first.trace.digest() != second.trace.digest():
        res.violations.append(
            f"search trace digests differ: {first.trace.digest()} vs "
            f"{second.trace.digest()}")
    if first.trace.winner_key != second.trace.winner_key:
        res.violations.append(
            f"search replay picked a different winner: "
            f"{first.trace.winner_key} vs {second.trace.winner_key}")

    # -- (b) jobs invariance of the full two-phase report ----------------
    def report(jobs: int) -> str:
        result = autotune(shape, seed=seed, budget=config.budget,
                          topk=2, jobs=jobs, space=space,
                          search_config=config)
        return json.dumps(result.to_dict(), sort_keys=True)

    serial = report(jobs=1)
    parallel = report(jobs=2)
    if serial != parallel:
        res.violations.append(
            "autotune report JSON differs between jobs=1 and jobs=2")

    # -- (c) tuned winner re-simulates to the reported cycles ------------
    winner = json.loads(serial)["winner"]
    job = {"shape": shape.to_dict(), "candidate": winner["candidate"]}
    resim_a = simulate_candidate(job)["sim_cycles"]
    resim_b = simulate_candidate(job)["sim_cycles"]
    if resim_a != resim_b:
        res.violations.append(
            f"winner re-simulation is not stable: {resim_a} vs {resim_b}")
    if resim_a != winner["sim_cycles"]:
        res.violations.append(
            f"winner re-simulates to {resim_a} cycles, report claims "
            f"{winner['sim_cycles']}")
    return res


def check_critical_noop(seed: int) -> DeterminismResult:
    """Causal edge recording must be a bit-exact no-op, and paths exact.

    Four invariants, extending the hooks-are-no-ops contract to PR 8's
    :class:`~repro.obs.critical.EdgeRecorder`:

    * (a) running an FC kernel with ``record_edges=True`` leaves
      cycles, output bits, and stall attributions bit-identical to a
      plain run — the recorder observes the event order, never steers
      it;
    * (b) the extracted critical path tiles the run exactly: segments
      abut with zero gap, the path ends at ``engine.now``, and
      ``sum(critical segments) == elapsed cycles`` (exact float
      equality, not approximate);
    * (c) per-request serving critical paths — plain *and* resilient
      under a seeded fault plan — have totals bitwise equal to the
      stored ``latencies_us`` for every request, whatever its status;
    * (d) fleet critical paths under a seeded routing policy and a
      correlated rack/power fault plan do too, hedged copies included.
    """
    import math
    from dataclasses import replace as _replace

    from repro import Accelerator
    from repro.faults import (FaultInjector, FaultPlan, FaultProfile,
                              generate_fleet_plan)
    from repro.kernels.fc import run_fc
    from repro.obs.critical import (extract_critical_path,
                                    fleet_critical_path,
                                    serving_critical_path)
    from repro.serving.fleet import (ROUTING_POLICIES, FleetConfig,
                                     RouterConfig, TabularLatencyModel,
                                     simulate_fleet, uniform_fleet)
    from repro.serving.resilience import ResilienceConfig
    from repro.serving.simulator import BatchingConfig, simulate_serving
    from repro.serving.traffic import trace_preset

    res = DeterminismResult(seed=seed, kind="critical")

    # -- (a)+(b) cycle-level FC kernel -----------------------------------
    shape = _fc_shape_for(seed)

    def fc_once(record: bool):
        acc = Accelerator(observe=True, record_edges=record)
        result = run_fc(acc, m=shape["m"], k=shape["k"], n=shape["n"],
                        dtype="int8",
                        subgrid=acc.subgrid((0, 0), shape["rows"],
                                            shape["cols"]),
                        k_split=shape["k_split"], seed=seed)
        return acc, result

    acc_plain, fc_plain = fc_once(record=False)
    acc_rec, fc_rec = fc_once(record=True)
    res.cycles = fc_plain.cycles
    if fc_rec.cycles != fc_plain.cycles:
        res.violations.append(
            "edge recording changed FC cycles: "
            f"{fc_plain.cycles} plain vs {fc_rec.cycles} recorded")
    if not np.array_equal(fc_rec.c_t, fc_plain.c_t):
        res.violations.append("edge recording changed FC output bits")
    if acc_rec.obs.stalls_by_track() != acc_plain.obs.stalls_by_track():
        res.violations.append("edge recording changed stall attributions")

    try:
        path = extract_critical_path(acc_rec.edges).verify()
        if path.end != acc_rec.engine.now:
            res.violations.append(
                f"critical path ends at {path.end!r}, engine stopped at "
                f"{acc_rec.engine.now!r}")
        if math.fsum(s.duration for s in path.segments) != path.total:
            res.violations.append(
                "critical segment durations do not sum exactly to the "
                "path total")
    except Exception as exc:   # verify() raises CriticalPathError
        res.violations.append(f"FC critical path invalid: {exc}")

    # -- (c) serving paths, plain and faulted ----------------------------
    rng = np.random.default_rng(seed)
    qps = float(rng.uniform(2_000, 100_000))
    base = float(rng.uniform(50, 300))
    slope = float(rng.uniform(0.5, 5.0))
    batching = BatchingConfig(max_batch=int(rng.choice([16, 64, 256])),
                              max_wait_us=float(rng.uniform(50, 400)))

    def latency_model(batch: int) -> float:
        return base + slope * batch

    def check_paths(report, label: str, extractor) -> None:
        n = int(report.latencies_us.size)
        for i in range(n):
            try:
                p = extractor(report, i)
            except Exception as exc:
                res.violations.append(
                    f"{label}: request {i} path extraction failed: {exc}")
                return
            if p.total != float(report.latencies_us[i]):
                res.violations.append(
                    f"{label}: request {i} path total {p.total!r} != "
                    f"stored latency {report.latencies_us[i]!r}")
                return

    plain = simulate_serving(latency_model, qps, batching,
                             num_requests=300, seed=seed)
    check_paths(plain, "serving", serving_critical_path)

    fault_plan = FaultPlan.generate(
        seed, FaultProfile(horizon_us=30_000.0),
        kinds=("card.failure", "card.slowdown"))
    faulted = simulate_serving(
        latency_model, qps, batching, num_requests=300, seed=seed,
        resilience=ResilienceConfig(deadline_us=8_000.0, max_retries=1),
        faults=FaultInjector(fault_plan))
    check_paths(faulted, "resilient serving", serving_critical_path)

    # -- (d) fleet paths under a seeded policy + correlated faults -------
    batches = (1, 4, 16, 64, 256)
    model = TabularLatencyModel(
        batches=batches,
        latency_us=tuple(base + slope * b for b in batches))
    policy = ROUTING_POLICIES[seed % len(ROUTING_POLICIES)]
    trace = _replace(trace_preset("diurnal",
                                  target_qps=float(rng.uniform(50_000,
                                                               300_000))),
                     duration_us=15_000.0)
    specs = uniform_fleet(3, racks=2, power_domains=2)
    fleet_plan = generate_fleet_plan(seed, specs, horizon_us=15_000.0)
    config = FleetConfig(
        replicas=specs,
        router=RouterConfig(policy=policy, route_latency_us=15.0,
                            seed=seed, hedge_backlog_us=100.0,
                            hedge_delay_us=50.0),
        resilience=ResilienceConfig(deadline_us=8_000.0, max_retries=1),
        seed=seed)
    fleet = simulate_fleet(model, trace, config, fault_plan=fleet_plan,
                           jobs=1)
    check_paths(fleet, f"fleet[{policy}]", fleet_critical_path)
    return res
