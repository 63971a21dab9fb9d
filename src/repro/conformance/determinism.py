"""Determinism / replay checking, as one registry of checks.

Two invariants every future perf PR must preserve:

* **Replay determinism** — the simulator and the graph executor are
  pure functions of their seed: the same seed run twice produces
  identical cycle counts, outputs, and stall attributions.  Without
  this, a "failing seed" printed by the fuzzer would be worthless.
* **Hooks are no-ops** — enabling tracing and stall attribution
  (``Accelerator(observe=True, trace=True)``) must not change a single
  cycle or output bit (the PR-1 observability contract: telemetry
  observes the machine, it never steers it).  The same contract covers
  the graph executor's span tracer and the serving simulator's metric
  registry: attaching them must leave modelled seconds, outputs and
  latencies bit-identical.  The serving simulator records no spans;
  its request waterfalls are drawn from the finished report.

Every check is one :class:`Check` row of :data:`CHECKS`.  A row names a
seeded *subject* (an FC or TBE kernel, a fuzzed graph, a serving or
fleet scenario, an autotune space) and a *run* of it that returns an
observation: a dict of named fields, whose ``"cycles"`` entry is the
figure the report shows for the row's kind.  A *differential* row runs
the subject once as the reference and once under a named
:class:`Perturbation` (a replay, an observer, an empty fault plan, a
cache, a second worker) and reports every field both observations carry
that is not bit-identical.  An *invariant* row (perturbation ``None``)
is a property with no reference run; its ``run`` returns the violations
itself.  :func:`run_checks` is the one driver, so a new subsystem costs
one row.

The simcache, faults and autotune packages are imported where they are
used, so importing :mod:`repro.conformance` loads no module the
benchmark's workloads do not load already.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.conformance.fuzzer import fuzz_graph
from repro.core.accelerator import Accelerator
from repro.kernels.fc import run_fc
from repro.kernels.tbe import TBEConfig, run_tbe
from repro.obs.critical import (extract_critical_path, fleet_critical_path,
                                serving_critical_path)
from repro.obs.metrics import MetricRegistry
from repro.obs.sketch import QuantileSketch
from repro.runtime.executor import GraphExecutor
from repro.serving.fleet import (ROUTING_POLICIES, FleetConfig, RouterConfig,
                                 TabularLatencyModel, simulate_fleet,
                                 uniform_fleet)
from repro.serving.resilience import ResilienceConfig
from repro.serving.simulator import (STATUS_SERVED, BatchingConfig,
                                     BatchTable, simulate_serving)
from repro.serving.telemetry import ServingTelemetry, emit_exemplar_spans
from repro.serving.traffic import trace_preset
from repro.sim.trace import Tracer


@dataclass
class DeterminismResult:
    """Violations found while replaying one seed (empty == pass)."""

    seed: int
    kind: str                       #: the check kind, e.g. "cache"
    violations: List[str] = field(default_factory=list)
    cycles: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {"seed": self.seed, "kind": self.kind,
                "cycles": self.cycles, "violations": list(self.violations)}


class Perturbation(NamedTuple):
    """A named change to a run: ``apply(run)`` returns its observation.

    ``run`` is the row's run bound to its subject; it takes the run's
    keyword knobs.
    """

    name: str
    apply: Callable[[Callable[..., Dict]], Dict]


class Check(NamedTuple):
    """One registry row; see the module docstring."""

    kind: str                       #: the ``details`` key it reports under
    pillar: str                     #: determinism | cache | faults | autotune
    subject: str                    #: a key of :data:`SUBJECTS`
    run: Callable
    perturbation: Optional[Perturbation]
    reason: str


def _knobs(name: str, **knobs) -> Perturbation:
    return Perturbation(name, lambda run: run(**knobs))


def _fresh(name: str, warm: bool = False, **factories) -> Perturbation:
    """Knobs built anew for each perturbed run, such as a tracer or a
    cache; ``warm`` observes the second of two runs sharing them."""
    def apply(run):
        knobs = {knob: make() for knob, make in factories.items()}
        if warm:
            run(**knobs)
        return run(**knobs)
    return Perturbation(name, apply)


#: every per-request array of a serving report
_SERVING_ARRAYS = ("latencies_us", "queue_wait_us", "batch_wait_us",
                   "execute_us", "arrivals_us", "batch_index", "status",
                   "retry_overhead_us", "attempts", "abort_us")


def _differences(ref: Dict, obs: Dict) -> List[str]:
    """Every field both observations carry that is not bit-identical."""
    found = []
    for name, want in ref.items():
        if name not in obs:
            continue
        got = obs[name]
        if isinstance(want, np.ndarray):
            same = np.array_equal(want, got,
                                  equal_nan=want.dtype.kind in "fc")
        else:
            same = want == got
        if not same:
            found.append(f"{name}: {want!r} vs {got!r}"
                         if isinstance(want, (int, float)) else name)
    return found


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# -- subjects: one seeded builder each -------------------------------------
# Each makes the same random draws as the check it replaced, so a seed
# checks the same scenario as before.

def _fc_subject(seed: int, _fuzz_config=None) -> Dict[str, int]:
    """A tiny tileable FC shape — a case runs it several times."""
    rng = np.random.default_rng(seed)
    cols = int(rng.choice([1, 2]))
    return {"m": 64, "k": 32 * cols * int(rng.integers(1, 4)),
            "n": 64 * int(rng.integers(1, 3)), "rows": 1, "cols": cols,
            "k_split": cols, "seed": seed}


def _tbe_subject(seed: int, _fuzz_config=None) -> Dict:
    rng = np.random.default_rng(seed ^ 0x5EED)
    return {"seed": seed, "config": TBEConfig(
        num_tables=int(rng.integers(1, 3)), rows_per_table=64,
        embedding_dim=int(rng.choice([32, 64])),
        pooling_factor=int(rng.integers(2, 6)), batch_size=4)}


@dataclass(frozen=True)
class _Serving:
    """One card under Poisson load with a linear batch latency."""

    seed: int
    qps: float
    base: float
    slope: float
    batching: BatchingConfig
    resilient: Optional[ResilienceConfig] = None
    fleet: Any = None           #: the fleet the critical-path rows route

    def latency_us(self, batch: int) -> float:
        return self.base + self.slope * batch


def _draw_serving(rng, seed: int, qps_hi: float) -> _Serving:
    return _Serving(seed=seed, qps=float(rng.uniform(2_000, qps_hi)),
                    base=float(rng.uniform(50, 300)),
                    slope=float(rng.uniform(0.5, 5.0)),
                    batching=BatchingConfig(
                        max_batch=int(rng.choice([16, 64, 256])),
                        max_wait_us=float(rng.uniform(50, 400))))


def _draw_fleet(base: float, slope: float, policy: str, qps: float,
                duration_us: float, seed: int, **router) -> Dict:
    """Three replicas over two racks and two power domains."""
    batches = (1, 4, 16, 64, 256)
    return {
        "model": TabularLatencyModel(
            batches=batches,
            latency_us=tuple(base + slope * b for b in batches)),
        "trace": replace(trace_preset("diurnal", target_qps=qps),
                         duration_us=duration_us),
        "config": FleetConfig(
            replicas=uniform_fleet(3, racks=2, power_domains=2),
            router=RouterConfig(policy=policy, route_latency_us=15.0,
                                seed=seed, **router),
            resilience=ResilienceConfig(deadline_us=8_000.0,
                                        max_retries=1),
            seed=seed)}


def _serving_subject(seed: int, _fuzz_config=None) -> _Serving:
    rng = np.random.default_rng(seed)
    scenario = _draw_serving(rng, seed, 200_000.0)
    return replace(scenario, resilient=ResilienceConfig(
        deadline_us=float(rng.uniform(1.0, 4.0)) * scenario.latency_us(16),
        max_retries=int(rng.integers(1, 4)),
        retry_backoff_us=float(rng.uniform(20, 200)),
        shed_queue_depth=int(rng.choice([8, 32, 128]))))


def _light_serving_subject(seed: int, _fuzz_config=None) -> _Serving:
    """Up to 100k qps, plus a hedging fleet on the same latency line."""
    rng = np.random.default_rng(seed)
    scenario = _draw_serving(rng, seed, 100_000.0)
    return replace(scenario, fleet=_draw_fleet(
        scenario.base, scenario.slope,
        ROUTING_POLICIES[seed % len(ROUTING_POLICIES)],
        float(rng.uniform(50_000, 300_000)), 15_000.0, seed,
        hedge_backlog_us=100.0, hedge_delay_us=50.0))


def _fleet_subject(seed: int, _fuzz_config=None) -> Dict:
    rng = np.random.default_rng(seed)
    base = float(rng.uniform(50, 300))
    slope = float(rng.uniform(0.5, 5.0))
    policy = ROUTING_POLICIES[int(rng.integers(0, len(ROUTING_POLICIES)))]
    return _draw_fleet(base, slope, policy,
                       float(rng.uniform(50_000, 400_000)), 20_000.0, seed)


def _autotune_subject(seed: int, _fuzz_config=None) -> Dict:
    from repro.autotune import MappingSpace
    from repro.autotune.space import FCShape

    rng = np.random.default_rng(seed)
    shape = FCShape(m=64 * int(rng.integers(1, 3)),
                    k=32 * int(rng.integers(1, 5)),
                    n=64 * int(rng.integers(1, 3)))
    # Keep the per-case space tiny: ablation axes pinned to their
    # defaults, placement still explored (it exercises both
    # accelerator modes in phase 2).
    return {"shape": shape,
            "space": MappingSpace(shape=shape,
                                  restrict={"use_multicast": (True,),
                                            "dual_core": (True,)})}


SUBJECTS: Dict[str, Callable[[int, Any], Any]] = {
    "fc": _fc_subject,
    "tbe": _tbe_subject,
    "graph": lambda seed, fuzz_config=None: fuzz_graph(seed, fuzz_config),
    "serving": _serving_subject,
    "light serving": _light_serving_subject,
    "fleet": _fleet_subject,
    "autotune": _autotune_subject,
}


# -- runs: subject + knobs -> observation ----------------------------------

def _accelerator(faults=None, **options) -> Accelerator:
    acc = Accelerator(**options)
    if faults is not None:
        faults.attach(acc)
    return acc


def _kernel_fields(acc: Accelerator, cycles: float, output) -> Dict:
    obs = {"cycles": cycles, "output bits": output}
    if acc.obs.enabled:
        obs["stall attributions"] = acc.obs.stalls_by_track()
    return obs


def _run_fc(shape: Dict, cache=None, **accelerator):
    acc = _accelerator(**accelerator)
    result = run_fc(acc, m=shape["m"], k=shape["k"], n=shape["n"],
                    dtype="int8",
                    subgrid=acc.subgrid((0, 0), shape["rows"],
                                        shape["cols"]),
                    k_split=shape["k_split"], seed=shape["seed"],
                    cache=cache)
    return acc, result


def _fc(shape: Dict, **knobs) -> Dict:
    acc, result = _run_fc(shape, **knobs)
    return _kernel_fields(acc, result.cycles, result.c_t)


def _tbe(subject: Dict, **accelerator) -> Dict:
    acc = _accelerator(**accelerator)
    result = run_tbe(acc, subject["config"],
                     subgrid=acc.subgrid((0, 0), 1, 1),
                     seed=subject["seed"])
    return _kernel_fields(acc, result.cycles, result.output)


def _graph(case, **executor) -> Dict:
    """Execute a fuzzed graph; ``cycles`` is the modelled seconds."""
    outputs, report = GraphExecutor(**{"mode": "graph", **executor}).run(
        case.graph.copy(), case.feeds, case.weights)
    obs = {"cycles": report.seconds, "output names": sorted(outputs)}
    obs.update((f"output {name!r}", out) for name, out in outputs.items())
    return obs


def _serve_report(s: _Serving, **knobs):
    return simulate_serving(s.latency_us, s.qps, s.batching,
                            **{"num_requests": 400, "seed": s.seed,
                               **knobs})


def _serving_fields(report) -> Dict:
    """Every serving array the report carries, plus its telemetry."""
    obs = {"cycles": float(report.latencies_us.sum())}
    obs.update((name, getattr(report, name))
               for name in _SERVING_ARRAYS if hasattr(report, name))
    if hasattr(report, "batches"):
        obs.update((f"batches.{name}", getattr(report.batches, name))
                   for name in BatchTable.fields)
    if report.telemetry is not None:
        obs["telemetry JSON"] = _canonical(
            report.telemetry.to_dict(include_state=True))
    return obs


def _serve(s: _Serving, **knobs) -> Dict:
    return _serving_fields(_serve_report(s, **knobs))


def _serve_resilient(s: _Serving, **knobs) -> Dict:
    return _serve(s, resilience=s.resilient, **knobs)


def _fleet(f: Dict, **knobs) -> Dict:
    report = simulate_fleet(f["model"], f["trace"], f["config"],
                            **{"jobs": 1, **knobs})
    return {"cycles": float(report.latencies_us.sum()),
            "report JSON": _canonical(report.to_dict())}


def _rank(t: Dict, **restrict) -> Dict:
    """Phase 1 over the subject's space, axes narrowed by ``restrict``;
    ``cycles`` is the number of candidates costed."""
    from repro.autotune import key_str, rank_space

    space = t["space"]
    space = replace(space, restrict={**space.restrict, **restrict})
    ranked = rank_space(space)
    return {"cycles": float(len(ranked)),
            "ranking": [(key_str(c.candidate), c.cost_s) for c in ranked]}


def _autotune(t: Dict, **knobs) -> Dict:
    from repro.autotune import autotune

    return {"report JSON": _canonical(autotune(
        t["shape"], **{"topk": 2, "jobs": 1, "space": t["space"],
                       **knobs}).to_dict())}


_fc_observed = partial(_fc, observe=True)
_tbe_observed = partial(_tbe, observe=True)
_serve_300 = partial(_serve, num_requests=300)


# -- perturbations ---------------------------------------------------------

def _empty_fault_plan():
    from repro.faults import FaultInjector, FaultPlan

    return FaultInjector(FaultPlan(events=()))


def _sim_cache():
    from repro.simcache import SimCache

    return SimCache()


REPLAY = _knobs("replay")
OBSERVE = _knobs("metrics/tracing", observe=True, trace=True)
JOBS_2 = _knobs("jobs=2", jobs=2)
EMPTY_FAULT_PLAN = _fresh("an empty fault plan", faults=_empty_fault_plan)
SPANS_AND_METRICS = _fresh("spans and metrics", registry=MetricRegistry,
                           spans=partial(Tracer, enabled=True))
METRICS = _fresh("metrics", registry=MetricRegistry)


# -- invariants: subject -> violations -------------------------------------

def _graph_tracer_records(case) -> List[str]:
    """Invariant: an enabled span tracer records the graph's spans."""
    spans = Tracer(enabled=True)
    _graph(case, spans=spans)
    return [] if spans.spans else ["enabled span tracer recorded 0 spans"]


def _traced_requests_name_their_batch(s: _Serving) -> List[str]:
    """Waterfalls drawn from a resilient run's report name the batch
    that served each request."""
    traced = _serve_report(s, registry=MetricRegistry(),
                           resilience=s.resilient)
    spans = Tracer(enabled=True)
    emit_exemplar_spans(traced, range(traced.latencies_us.size), spans)
    requests = [span for span in spans.spans if span.name.startswith("req")]
    if not requests and traced.served_mask.any():
        return ["resilient run traced no served request"]
    for span in requests:
        r = int(span.track.rsplit(".", 1)[1])
        if (traced.status[r] != STATUS_SERVED
                or traced.batch_index[r] != span.args["batch"]):
            return [f"traced request {r} is not served by batch "
                    f"{span.args['batch']}"]
    return []


def _telemetry_merges_are_order_free(s: _Serving) -> List[str]:
    """Sharded sketches and per-replica telemetry merge to the same bytes
    in any order (what makes ``--jobs N`` reports stable)."""
    found = []
    values = _serve_report(s, num_requests=300).latencies_us
    cut = values.size // 2
    whole, a, b = QuantileSketch(), QuantileSketch(), QuantileSketch()
    whole.add_many(values)
    a.add_many(values[:cut])
    b.add_many(values[cut:])
    if len({_canonical(sketch.to_dict())
            for sketch in (whole, a.copy().merge(b), b.copy().merge(a))}) != 1:
        found.append("sketch merge is not order-invariant byte-for-byte "
                     "(single-stream vs merge(a,b) vs merge(b,a))")
    tels = [_serve_report(replace(s, seed=s.seed + i), num_requests=300,
                          collect_telemetry=True, replica=i).telemetry
            for i in range(3)]
    if len({_canonical(ServingTelemetry.merge_all(
            [tels[i] for i in order]).to_dict(include_state=True))
            for order in ((0, 1, 2), (2, 1, 0))}) != 1:
        found.append("merged fleet telemetry differs across merge orders")
    return found


def _solo_fleet_is_the_bare_engine(f: Dict) -> List[str]:
    config = f["config"]
    solo = FleetConfig(replicas=uniform_fleet(1),
                       router=RouterConfig(policy="round_robin"),
                       resilience=config.resilience, seed=config.seed)
    arrivals = f["trace"].arrivals(config.seed)
    fleet = simulate_fleet(f["model"], arrivals, solo, jobs=1)
    bare = simulate_serving(f["model"], qps=0.0,
                            resilience=config.resilience, seed=0,
                            collect_telemetry=True, arrivals=arrivals)
    return [f"1-replica fleet diverges from the bare engine on {name}"
            for name in _differences(_serving_fields(bare),
                                     _serving_fields(fleet))]


def _winner_resimulates(t: Dict) -> List[str]:
    from repro.autotune import simulate_candidate

    winner = json.loads(_autotune(t)["report JSON"])["winner"]
    job = {"shape": t["shape"].to_dict(), "candidate": winner["candidate"]}
    resim_a = simulate_candidate(job)["sim_cycles"]
    resim_b = simulate_candidate(job)["sim_cycles"]
    found = []
    if resim_a != resim_b:
        found.append(
            f"winner re-simulation is not stable: {resim_a} vs {resim_b}")
    if resim_a != winner["sim_cycles"]:
        found.append(f"winner re-simulates to {resim_a} cycles, report "
                     f"claims {winner['sim_cycles']}")
    return found


def _sim_cache_misses_once_then_hits(shape: Dict) -> List[str]:
    cache = _sim_cache()
    _run_fc(shape, observe=True, cache=cache)
    _run_fc(shape, observe=True, cache=cache)
    stats = cache.stats()
    if stats["misses"] != 1 or stats["hits"] != 1:
        return [f"expected exactly one miss then one hit, got {stats}"]
    return []


def _empty_plan_aborts_nothing(s: _Serving) -> List[str]:
    report = _serve_report(s, faults=_empty_fault_plan())
    return ([] if report.availability == 1.0 else
            [f"empty fault plan aborted requests "
             f"(availability {report.availability})"])


def _fc_critical_path_is_exact(shape: Dict) -> List[str]:
    acc, _ = _run_fc(shape, observe=True, record_edges=True)
    try:
        path = extract_critical_path(acc.edges).verify()
    except Exception as exc:   # verify() raises CriticalPathError
        return [f"FC critical path invalid: {exc}"]
    found = []
    if path.end != acc.engine.now:
        found.append(f"critical path ends at {path.end!r}, engine stopped "
                     f"at {acc.engine.now!r}")
    if math.fsum(s.duration for s in path.segments) != path.total:
        found.append("critical segment durations do not sum exactly to "
                     "the path total")
    return found


def _paths_sum_exactly(report, label: str, extractor) -> List[str]:
    for i in range(int(report.latencies_us.size)):
        try:
            p = extractor(report, i)
        except Exception as exc:
            return [f"{label}: request {i} path extraction failed: {exc}"]
        if p.total != float(report.latencies_us[i]):
            return [f"{label}: request {i} path total {p.total!r} != "
                    f"stored latency {report.latencies_us[i]!r}"]
    return []


def _request_paths_sum_exactly(s: _Serving) -> List[str]:
    """Per-request critical paths of a plain run, a resilient run under a
    seeded fault plan, and a hedging fleet under correlated faults."""
    from repro.faults import (FaultInjector, FaultPlan, FaultProfile,
                              generate_fleet_plan)

    config = s.fleet["config"]
    plan = FaultPlan.generate(s.seed, FaultProfile(horizon_us=30_000.0),
                              kinds=("card.failure", "card.slowdown"))
    faulted = _serve_report(s, num_requests=300,
                            resilience=config.resilience,
                            faults=FaultInjector(plan))
    fleet = simulate_fleet(s.fleet["model"], s.fleet["trace"], config,
                           jobs=1, fault_plan=generate_fleet_plan(
                               s.seed, config.replicas, horizon_us=15_000.0))
    return (_paths_sum_exactly(_serve_report(s, num_requests=300),
                               "serving", serving_critical_path)
            + _paths_sum_exactly(faulted, "resilient serving",
                                 serving_critical_path)
            + _paths_sum_exactly(fleet, f"fleet[{config.router.policy}]",
                                 fleet_critical_path))


# -- the registry ----------------------------------------------------------

#: Every check, in report order.  A kind's first row is differential: its
#: reference observation supplies the kind's reported ``cycles``.
CHECKS = (
    Check("sim", "determinism", "fc", _fc, REPLAY,
          "the DES is a pure function of its seed"),
    Check("sim", "determinism", "fc", _fc, OBSERVE,
          "metrics and tracing observe the machine, never steer it"),
    Check("sim", "determinism", "fc", _fc_observed, REPLAY,
          "stall attribution replays exactly"),
    Check("sim", "determinism", "tbe", _tbe, REPLAY,
          "the gather paths replay exactly"),
    Check("sim", "determinism", "tbe", _tbe, OBSERVE,
          "observing the gather paths never steers them"),
    Check("graph", "determinism", "graph", _graph, REPLAY,
          "the executor is a pure function of the graph"),
    Check("graph", "determinism", "graph", _graph, SPANS_AND_METRICS,
          "per-op spans and metrics never steer the executor"),
    Check("graph", "determinism", "graph", _graph_tracer_records, None,
          "an enabled tracer really traces"),
    Check("serving", "determinism", "serving", _serve, REPLAY,
          "the batching loop is a pure function of its seed"),
    Check("serving", "determinism", "serving", _serve, METRICS,
          "metrics never steer the batching loop"),
    Check("serving", "determinism", "serving", _serve_resilient, METRICS,
          "metrics stay no-ops under deadlines, retries and shedding"),
    Check("serving", "determinism", "serving",
          _traced_requests_name_their_batch, None,
          "every traced request belongs to the batch that served it"),
    Check("telemetry", "determinism", "serving", _serve_300,
          _knobs("telemetry collection", collect_telemetry=True),
          "collecting telemetry never perturbs the simulation"),
    Check("telemetry", "determinism", "serving",
          _telemetry_merges_are_order_free, None,
          "sketches and replica telemetry merge identically in any order"),
    Check("fleet", "determinism", "fleet", _fleet, REPLAY,
          "a (trace, config) pair replays byte-identically"),
    Check("fleet", "determinism", "fleet", _fleet, JOBS_2,
          "worker fan-out never reorders or perturbs the fleet"),
    Check("fleet", "determinism", "fleet", _solo_fleet_is_the_bare_engine,
          None, "the fleet layer is a no-op wrapper at N=1"),
    Check("critical", "determinism", "fc", _fc_observed,
          _knobs("edge recording", record_edges=True),
          "the edge recorder observes the event order, never steers it"),
    Check("critical", "determinism", "fc", _fc_critical_path_is_exact, None,
          "the critical path tiles the run exactly"),
    Check("critical", "determinism", "light serving",
          _request_paths_sum_exactly, None,
          "request critical paths sum to the stored latencies, always"),
    Check("cache", "cache", "fc", _fc_observed,
          _fresh("a cold sim cache", cache=_sim_cache),
          "a cache miss simulates and records the fresh result"),
    Check("cache", "cache", "fc", _fc_observed,
          _fresh("a warm sim cache", warm=True, cache=_sim_cache),
          "a cache hit replays the fresh result bit for bit"),
    Check("cache", "cache", "fc", _sim_cache_misses_once_then_hits, None,
          "the sim cache is content-addressed"),
    Check("faults", "faults", "fc", _fc_observed, EMPTY_FAULT_PLAN,
          "faults are opt-in per event, never ambient"),
    Check("faults", "faults", "tbe", _tbe_observed, EMPTY_FAULT_PLAN,
          "the DRAM/SRAM gather hooks are inert without events"),
    Check("faults", "faults", "light serving", _serve, EMPTY_FAULT_PLAN,
          "the card model is inert without events"),
    Check("faults", "faults", "light serving", _empty_plan_aborts_nothing,
          None, "an empty plan aborts nothing"),
    Check("autotune", "autotune", "autotune", _rank, REPLAY,
          "the cost-model ranking of the whole space replays bit for bit"),
    Check("autotune", "autotune", "autotune", _autotune, JOBS_2,
          "worker fan-out never changes the two-phase report"),
    Check("autotune", "autotune", "autotune", _winner_resimulates, None,
          "the reported winner is a claim about the DES, not one run"),
)

#: The pillars the registry serves, in report order.
CHECK_PILLARS = tuple(dict.fromkeys(row.pillar for row in CHECKS))


def run_checks(pillar: str, seed: int,
               fuzz_config=None) -> Dict[str, DeterminismResult]:
    """Run every :data:`CHECKS` row of ``pillar`` for one seed.

    Subjects are built once per seed and reference runs once per
    (subject, run); results are keyed by kind, in registry order.
    """
    subjects: Dict[str, Any] = {}
    refs: Dict[Any, Dict] = {}
    results: Dict[str, DeterminismResult] = {}
    for row in CHECKS:
        if row.pillar != pillar:
            continue
        if row.subject not in subjects:
            subjects[row.subject] = SUBJECTS[row.subject](seed, fuzz_config)
        subject = subjects[row.subject]
        if row.perturbation is None:
            found = row.run(subject)
        else:
            key = (row.subject, row.run)
            if key not in refs:
                refs[key] = row.run(subject)
            observed = row.perturbation.apply(partial(row.run, subject))
            found = [f"{row.subject} {row.perturbation.name} changed {name}"
                     for name in _differences(refs[key], observed)]
            if row.kind not in results:
                results[row.kind] = DeterminismResult(
                    seed=seed, kind=row.kind, cycles=refs[key]["cycles"])
        results[row.kind].violations.extend(found)
    return results
