"""Fleet-scale serving: a router in front of N multi-card replicas.

The paper's Section 5 scales one MTIA card to multi-card partitions;
a datacenter tier scales *that* to many replicas behind a router.  This
module composes the per-replica engines
(:func:`~repro.serving.simulator.simulate_serving`, fed an explicit
routed arrival vector) into one fleet simulation:

* **routing policies** — seeded and pluggable: ``round_robin``,
  ``least_loaded`` (router-visible backlog), ``power_of_two``
  (two seeded samples, pick the shorter queue), and ``hedge``
  (power-of-two plus a delayed duplicate to the losing sample when the
  chosen backlog is deep; first served copy wins, the loser is wasted
  replica work);
* **sharding vs. replication** — a :class:`ReplicaSpec` is either a
  replicated single-card model or an embedding-sharded multi-card
  group whose batch latency is *max over shards + gather merge*,
  derived from :func:`repro.runtime.multi_card.estimate_multi_card`
  scaling curves (:func:`sharded_latency_table`);
* **traffic** — any sorted arrival vector, usually a seeded
  :class:`~repro.serving.traffic.TrafficTrace` (diurnal/bursty,
  millions-of-users scale);
* **correlated failures** — a :class:`~repro.faults.FaultPlan` whose
  serving-domain events target *replica indices*; rack/power-domain
  plans (:func:`repro.faults.plan.generate_fleet_plan`) take down every
  replica in a blast radius at once;
* **autoscaling** — :func:`simulate_fleet_autoscaled` re-sizes the
  fleet between epochs, driven by the SLO error-budget burn signal
  (:mod:`repro.serving.slo`).

Every routed request keeps an exact attribution identity::

    queue_wait + batch_wait + retry_overhead
        + route_overhead [+ hedge_wait] + execute == latency

measured from the *fleet* arrival: ``route_overhead`` is the router
hop, ``hedge_wait`` the hedge-launch delay when the duplicate won, and
the remaining phases are the winning replica copy's own attribution
(which the per-replica invariant already guarantees sums exactly).

Determinism contract: a fleet run is a pure function of
``(trace, FleetConfig, fault plan)`` — per-replica runs are pure, the
router's randomness is pre-drawn from ``RouterConfig.seed``, and
assembly is in fixed replica order — so reports are **byte-identical
at any ``jobs`` count** (the conformance ``fleet`` check rows and the
CI fleet job pin this), and a 1-replica fleet with trivial
routing is **bit-identical** to the bare per-replica engine.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serving.resilience import ResilienceConfig
from repro.serving.simulator import (PHASES, STATUS_SERVED,
                                     BatchingConfig, OutcomeQueries,
                                     ServingReport, simulate_serving)
from repro.serving.traffic import TrafficTrace

__all__ = [
    "ROUTING_POLICIES", "TabularLatencyModel", "ShardedLatencyModel",
    "sharded_latency_table", "ReplicaSpec", "RouterConfig", "FleetConfig",
    "AutoscaleConfig", "RoutingDecision", "route_requests",
    "route_requests_vectorised",
    "ObservedLatencyFeed", "FleetReport", "simulate_fleet", "EpochRecord",
    "FleetAutoscaleReport", "simulate_fleet_autoscaled", "uniform_fleet",
]

#: Pluggable router policies, in documentation order.
ROUTING_POLICIES: Tuple[str, ...] = (
    "round_robin", "least_loaded", "power_of_two", "hedge")


# ---------------------------------------------------------------------------
# latency models the fleet can ship to worker processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TabularLatencyModel:
    """A picklable batch→latency table (ceil to the next candidate).

    The fleet fans replicas out over worker processes, so its latency
    models must pickle; this is the frozen-table twin of
    :class:`~repro.serving.simulator.BatchLatencyModel` (build one from
    it with :meth:`from_batch_model`).
    """

    batches: Tuple[int, ...]
    latency_us: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.batches or len(self.batches) != len(self.latency_us):
            raise ValueError("batches and latency_us must align and be "
                             "non-empty")
        if list(self.batches) != sorted(self.batches):
            raise ValueError("batches must be sorted ascending")

    @classmethod
    def from_batch_model(cls, model) -> "TabularLatencyModel":
        """Freeze a ``BatchLatencyModel`` into a picklable table."""
        batches = tuple(sorted(model.latency_us))
        return cls(batches=batches,
                   latency_us=tuple(model.latency_us[b] for b in batches))

    def __call__(self, batch: int) -> float:
        idx = bisect.bisect_left(self.batches, batch)
        idx = min(idx, len(self.batches) - 1)
        return self.latency_us[idx]


@dataclass(frozen=True)
class ShardedLatencyModel:
    """Embedding-sharded batch latency: max over shards + merge.

    Splits a base batch latency into a sparse part that fans out over
    ``shards`` embedding shards (the slowest shard gates — modelled as
    the 1/shards share inflated by ``imbalance``) and a dense part that
    does not scale, plus a per-shard gather/merge cost.  The analytical
    twin is :func:`sharded_latency_table`, which derives the same curve
    from :func:`repro.runtime.multi_card.estimate_multi_card` for a
    real model graph.
    """

    base: TabularLatencyModel
    shards: int = 1
    sparse_fraction: float = 0.45
    merge_us_per_shard: float = 8.0
    imbalance: float = 0.1

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not 0.0 <= self.sparse_fraction <= 1.0:
            raise ValueError("sparse_fraction must be in [0, 1]")
        if self.merge_us_per_shard < 0 or self.imbalance < 0:
            raise ValueError("merge/imbalance must be non-negative")

    def __call__(self, batch: int) -> float:
        base = self.base(batch)
        if self.shards == 1:
            return base
        sparse = base * self.sparse_fraction
        dense = base - sparse
        # slowest shard gates the fan-out; gather serialises behind it
        fanout = (sparse / self.shards) * (1.0 + self.imbalance)
        merge = self.merge_us_per_shard * (self.shards - 1)
        return dense + fanout + merge


def sharded_latency_table(model_config, machine, shards: int,
                          candidate_batches: Sequence[int] = (
                              1, 2, 4, 8, 16, 32, 64, 128, 256),
                          p2p_gbs: float = 12.8) -> TabularLatencyModel:
    """Batch→latency table for an embedding-sharded replica group.

    Round-robins the model's embedding tables across ``shards`` cards
    and prices each candidate batch with
    :func:`~repro.runtime.multi_card.estimate_multi_card` — sparse
    lookups overlap across shards (max gates), pooled outputs gather to
    the dense card, the dense pipeline serialises behind the gather.
    This is the paper's Section 5 multi-card partitioning expressed as
    a serving latency model.
    """
    from repro.compiler.partitioner import Partition
    from repro.models.dlrm import build_dlrm_graph
    from repro.runtime.multi_card import estimate_multi_card

    if shards < 1:
        raise ValueError("shards must be >= 1")
    batches = tuple(sorted(candidate_batches))
    table: List[float] = []
    for batch in batches:
        graph = build_dlrm_graph(model_config, batch)
        tables: List[str] = []
        for node in graph:
            if node.op in ("embedding_bag", "tbe"):
                for name in node.inputs[0::2]:
                    if name not in tables:
                        tables.append(name)
        parts = [Partition(card=i, weight_nodes=[], weight_bytes=0,
                           owns_dense=(i == 0)) for i in range(shards)]
        for j, name in enumerate(tables):
            parts[j % shards].weight_nodes.append(name)
        est = estimate_multi_card(graph, machine, p2p_gbs=p2p_gbs,
                                  partitions=parts)
        table.append(est.total_seconds * 1e6)
    return TabularLatencyModel(batches=batches, latency_us=tuple(table))


# ---------------------------------------------------------------------------
# fleet configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicaSpec:
    """One replica of the fleet: a (possibly multi-card) serving group."""

    replica: int
    #: identical cards behind the replica's queue (failover capacity)
    num_cards: int = 1
    #: embedding shards inside the replica (1 = pure replication)
    shards: int = 1
    #: physical blast radii for correlated faults
    rack: int = 0
    power_domain: int = 0
    #: router's per-request service estimate override (us); None derives
    #: it from the latency model at the full batch size
    service_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.replica < 0 or self.num_cards < 1 or self.shards < 1:
            raise ValueError("replica >= 0, num_cards >= 1, shards >= 1")

    def to_dict(self) -> Dict:
        return {"replica": self.replica, "num_cards": self.num_cards,
                "shards": self.shards, "rack": self.rack,
                "power_domain": self.power_domain}


def uniform_fleet(num_replicas: int, num_cards: int = 1, shards: int = 1,
                  racks: int = 1,
                  power_domains: int = 1) -> Tuple[ReplicaSpec, ...]:
    """N identical replicas spread over racks and power domains.

    Racks are contiguous blocks (replicas 0..k-1 share rack 0);
    power domains stripe (replica i is on domain ``i % power_domains``)
    so the two blast radii overlap differently — a rack kill and a
    power kill never silence the same replica set.
    """
    if num_replicas < 1:
        raise ValueError("num_replicas must be >= 1")
    racks = max(1, min(racks, num_replicas))
    power_domains = max(1, min(power_domains, num_replicas))
    per_rack = -(-num_replicas // racks)  # ceil
    return tuple(
        ReplicaSpec(replica=i, num_cards=num_cards, shards=shards,
                    rack=i // per_rack, power_domain=i % power_domains)
        for i in range(num_replicas))


@dataclass(frozen=True)
class RouterConfig:
    """Routing policy and its knobs (all randomness from ``seed``)."""

    policy: str = "round_robin"
    #: router hop added to every request's path (0 = free routing)
    route_latency_us: float = 0.0
    #: policy seed: power-of-two sample pairs are pre-drawn from it
    seed: int = 0
    #: hedge policy: duplicate when the chosen backlog exceeds this
    hedge_backlog_us: float = 2_000.0
    #: the duplicate launches this long after the primary
    hedge_delay_us: float = 200.0

    def __post_init__(self) -> None:
        if self.policy not in ROUTING_POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; expected "
                             f"one of {ROUTING_POLICIES}")
        if (self.route_latency_us < 0 or self.hedge_backlog_us < 0
                or self.hedge_delay_us < 0):
            raise ValueError("router latencies must be non-negative")

    def to_dict(self) -> Dict:
        return {"policy": self.policy,
                "route_latency_us": self.route_latency_us,
                "seed": self.seed,
                "hedge_backlog_us": self.hedge_backlog_us,
                "hedge_delay_us": self.hedge_delay_us}


@dataclass(frozen=True)
class FleetConfig:
    """Everything one fleet run needs besides traffic and models."""

    replicas: Tuple[ReplicaSpec, ...]
    router: RouterConfig = RouterConfig()
    batching: BatchingConfig = BatchingConfig()
    resilience: ResilienceConfig = ResilienceConfig()
    #: topology hints so autoscaling can regenerate specs at any count
    racks: int = 1
    power_domains: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("a fleet needs at least one replica")
        if [s.replica for s in self.replicas] != list(
                range(len(self.replicas))):
            raise ValueError("replica specs must be numbered 0..N-1 "
                             "in order")

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    def with_replica_count(self, n: int) -> "FleetConfig":
        """The same fleet re-sized to ``n`` replicas (autoscaling)."""
        template = self.replicas[0]
        return replace(self, replicas=uniform_fleet(
            n, num_cards=template.num_cards, shards=template.shards,
            racks=self.racks, power_domains=self.power_domains))

    def to_dict(self) -> Dict:
        return {"replicas": [s.to_dict() for s in self.replicas],
                "router": self.router.to_dict(),
                "batching": {"max_batch": self.batching.max_batch,
                             "max_wait_us": self.batching.max_wait_us},
                "racks": self.racks,
                "power_domains": self.power_domains,
                "seed": self.seed}


@dataclass(frozen=True)
class AutoscaleConfig:
    """Error-budget-burn driven fleet sizing between epochs."""

    epoch_us: float = 200_000.0
    min_replicas: int = 1
    max_replicas: int = 16
    #: add ``step`` replicas when an epoch burns above this
    upscale_burn: float = 1.0
    #: remove one when an epoch burns below this (with hysteresis gap)
    downscale_burn: float = 0.25
    step: int = 1

    def __post_init__(self) -> None:
        if self.epoch_us <= 0:
            raise ValueError("epoch_us must be positive")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if self.downscale_burn >= self.upscale_burn:
            raise ValueError("downscale_burn must sit below upscale_burn")
        if self.step < 1:
            raise ValueError("step must be >= 1")

    def to_dict(self) -> Dict:
        return {"epoch_us": self.epoch_us,
                "min_replicas": self.min_replicas,
                "max_replicas": self.max_replicas,
                "upscale_burn": self.upscale_burn,
                "downscale_burn": self.downscale_burn,
                "step": self.step}


# ---------------------------------------------------------------------------
# the router
# ---------------------------------------------------------------------------

@dataclass
class RoutingDecision:
    """The router's verdict for every arrival (pure, replayable)."""

    #: primary replica per request
    assigned: np.ndarray
    #: hedge replica per request (-1 = not hedged)
    hedged: np.ndarray
    #: pre-drawn (n, 2) sample pairs for power-of-two/hedge, else None
    probes: Optional[np.ndarray] = None
    #: router-visible backlog of each probe at decision time
    probe_backlogs: Optional[np.ndarray] = None
    #: backlog of the chosen replica at decision time
    chosen_backlog: Optional[np.ndarray] = None

    @property
    def num_hedged(self) -> int:
        return int(np.count_nonzero(self.hedged >= 0))


def _service_estimates(specs: Sequence[ReplicaSpec],
                       models: Sequence[Callable[[int], float]],
                       batching: BatchingConfig) -> np.ndarray:
    """Router-visible per-request device cost of each replica (us)."""
    out = np.zeros(len(specs))
    for i, (spec, model) in enumerate(zip(specs, models)):
        if spec.service_us is not None:
            out[i] = spec.service_us
        else:
            out[i] = model(batching.max_batch) / batching.max_batch
    return out


def _draw_probes(router: RouterConfig, n: int,
                 num: int) -> Optional[np.ndarray]:
    """Pre-drawn (n, 2) distinct sample pairs for power-of-two/hedge."""
    if router.policy not in ("power_of_two", "hedge"):
        return None
    rng = np.random.default_rng(router.seed)
    probes = rng.integers(0, num, size=(n, 2))
    same = probes[:, 0] == probes[:, 1]
    probes[same, 1] = (probes[same, 0] + 1) % num
    return probes


def route_requests(arrivals: np.ndarray, router: RouterConfig,
                   specs: Sequence[ReplicaSpec],
                   service_us: np.ndarray,
                   record_probes: bool = False) -> RoutingDecision:
    """Assign every arrival to a replica under one routing policy.

    The router tracks an *estimated* backlog per replica (device-time
    microseconds still queued), drained at each replica's card count
    per wall-microsecond and charged the replica's per-request service
    estimate on every assignment — the load signal a real router
    actually has, not the simulator's ground truth.  All sampling
    randomness (power-of-two probe pairs) is pre-drawn from
    ``router.seed``, so the assignment vector is a pure function of
    ``(arrivals, router, specs, service_us)``.

    Backlog is *charge-time anchored*: each replica keeps its backlog
    as of the last time it was charged, and an arrival at ``t``
    observes ``max(backlog - (t - charged_at) * drain, 0)`` in one
    expression.  That makes the observation a pure function of the
    replica's last charge — the property
    :func:`route_requests_vectorised` exploits — instead of a running
    per-arrival decay chain whose float rounding depends on every
    intervening arrival.

    This is the *reference* implementation: a plain per-arrival loop
    kept deliberately simple so the fast router can be differential-
    tested against it (``tests/serving/test_fleet_vectorised.py``
    asserts bit-identical decisions on every policy).
    """
    n = int(arrivals.size)
    num = len(specs)
    assigned = np.zeros(n, dtype=np.int64)
    hedged = np.full(n, -1, dtype=np.int64)
    backlog = np.zeros(num)
    charged_at = np.full(num, float(arrivals[0]) if n else 0.0)
    drain = np.array([float(s.num_cards) for s in specs])
    policy = router.policy

    probes = _draw_probes(router, n, num)
    probe_backlogs = (np.zeros((n, 2)) if record_probes and probes is not None
                      else None)
    chosen_backlog = np.zeros(n) if record_probes else None

    def observe(r: int, t: float) -> float:
        value = backlog[r] - (t - charged_at[r]) * drain[r]
        return value if value > 0.0 else 0.0

    rr = 0
    for i in range(n):
        t = float(arrivals[i])
        if policy == "round_robin":
            r = rr
            rr = rr + 1 if rr + 1 < num else 0
            obs_r = observe(r, t)
        elif policy == "least_loaded":
            obs = np.maximum(backlog - (t - charged_at) * drain, 0.0)
            r = int(np.argmin(obs))          # ties -> lowest index
            obs_r = float(obs[r])
        else:
            a, b = int(probes[i, 0]), int(probes[i, 1])
            obs_a = observe(a, t)
            obs_b = observe(b, t)
            if probe_backlogs is not None:
                probe_backlogs[i, 0] = obs_a
                probe_backlogs[i, 1] = obs_b
            if obs_a < obs_b or (obs_a == obs_b and a <= b):
                r, obs_r = a, obs_a
            else:
                r, obs_r = b, obs_b
            if (policy == "hedge" and num > 1
                    and obs_r > router.hedge_backlog_us):
                other = b if r == a else a
                if other != r:
                    hedged[i] = other
                    obs_other = obs_b if other == b else obs_a
                    backlog[other] = obs_other + service_us[other]
                    charged_at[other] = t
        if chosen_backlog is not None:
            chosen_backlog[i] = obs_r
        assigned[i] = r
        backlog[r] = obs_r + service_us[r]
        charged_at[r] = t
    return RoutingDecision(assigned=assigned, hedged=hedged, probes=probes,
                           probe_backlogs=probe_backlogs,
                           chosen_backlog=chosen_backlog)


def route_requests_vectorised(arrivals: np.ndarray, router: RouterConfig,
                              specs: Sequence[ReplicaSpec],
                              service_us: np.ndarray,
                              record_probes: bool = False
                              ) -> RoutingDecision:
    """:func:`route_requests`, restructured for throughput.

    Bit-identical to the reference router — same anchored-backlog
    arithmetic, same tie-breaks, same pre-drawn probes — but shaped per
    policy instead of one generic loop:

    * ``round_robin`` ignores backlog entirely, so the assignment
      vector is one numpy expression (``arange(n) % num``); the
      anchored backlog is only replayed (per replica, not per arrival)
      when ``record_probes`` asks for it;
    * ``power_of_two`` / ``hedge`` observe exactly two replicas per
      arrival, so each decision is O(1) python-float work against the
      anchored ``(backlog, charged_at)`` state — no per-arrival
      full-fleet numpy decay;
    * ``least_loaded`` must scan every replica per arrival (argmin is
      inherently sequential against its own charges), but on the
      anchored state with python floats, which beats the former
      whole-array ``np.maximum`` chain for fleet-sized replica counts.

    The differential test runs every policy (with hedging and fault
    plans downstream) through both routers and asserts the decisions —
    and the final fleet JSON — are byte-identical.
    """
    n = int(arrivals.size)
    num = len(specs)
    policy = router.policy
    hedged = np.full(n, -1, dtype=np.int64)
    probes = _draw_probes(router, n, num)
    probe_backlogs = (np.zeros((n, 2)) if record_probes and probes is not None
                      else None)
    chosen_backlog = np.zeros(n) if record_probes else None

    times = np.asarray(arrivals, dtype=float)
    t0 = float(times[0]) if n else 0.0
    drain = [float(s.num_cards) for s in specs]
    service = [float(v) for v in service_us]

    if policy == "round_robin":
        assigned = np.arange(n, dtype=np.int64) % num
        if chosen_backlog is not None:
            # Backlog never steers round-robin; replay it per replica
            # (each replica's state only changes at its own arrivals).
            for r in range(num):
                ts = times[r::num].tolist()
                b, last, d, s = 0.0, t0, drain[r], service[r]
                for j, t in enumerate(ts):
                    obs = b - (t - last) * d
                    if obs < 0.0:
                        obs = 0.0
                    chosen_backlog[r + j * num] = obs
                    b = obs + s
                    last = t
        return RoutingDecision(assigned=assigned, hedged=hedged,
                               probes=probes,
                               probe_backlogs=probe_backlogs,
                               chosen_backlog=chosen_backlog)

    assigned = np.zeros(n, dtype=np.int64)
    assigned_l = [0] * n
    hedged_l = None
    backlog = [0.0] * num
    charged_at = [t0] * num
    ts = times.tolist()

    if policy == "least_loaded":
        for i, t in enumerate(ts):
            r, obs_r = 0, 0.0
            first = True
            for k in range(num):
                obs = backlog[k] - (t - charged_at[k]) * drain[k]
                if obs < 0.0:
                    obs = 0.0
                if first or obs < obs_r:    # strict: ties keep lowest
                    r, obs_r, first = k, obs, False
            if chosen_backlog is not None:
                chosen_backlog[i] = obs_r
            assigned_l[i] = r
            backlog[r] = obs_r + service[r]
            charged_at[r] = t
        assigned[:] = assigned_l
        return RoutingDecision(assigned=assigned, hedged=hedged,
                               probes=probes,
                               probe_backlogs=probe_backlogs,
                               chosen_backlog=chosen_backlog)

    # power_of_two / hedge: O(1) per arrival against the two probes
    pa = probes[:, 0].tolist()
    pb = probes[:, 1].tolist()
    do_hedge = policy == "hedge" and num > 1
    hedge_backlog = router.hedge_backlog_us
    if do_hedge:
        hedged_l = [-1] * n
    for i, t in enumerate(ts):
        a = pa[i]
        b = pb[i]
        obs_a = backlog[a] - (t - charged_at[a]) * drain[a]
        if obs_a < 0.0:
            obs_a = 0.0
        obs_b = backlog[b] - (t - charged_at[b]) * drain[b]
        if obs_b < 0.0:
            obs_b = 0.0
        if probe_backlogs is not None:
            probe_backlogs[i, 0] = obs_a
            probe_backlogs[i, 1] = obs_b
        if obs_a < obs_b or (obs_a == obs_b and a <= b):
            r, obs_r = a, obs_a
        else:
            r, obs_r = b, obs_b
        if do_hedge and obs_r > hedge_backlog:
            other = b if r == a else a
            if other != r:
                hedged_l[i] = other
                obs_other = obs_b if other == b else obs_a
                backlog[other] = obs_other + service[other]
                charged_at[other] = t
        if chosen_backlog is not None:
            chosen_backlog[i] = obs_r
        assigned_l[i] = r
        backlog[r] = obs_r + service[r]
        charged_at[r] = t
    assigned[:] = assigned_l
    if hedged_l is not None:
        hedged[:] = hedged_l
    return RoutingDecision(assigned=assigned, hedged=hedged, probes=probes,
                           probe_backlogs=probe_backlogs,
                           chosen_backlog=chosen_backlog)


# ---------------------------------------------------------------------------
# the fleet report
# ---------------------------------------------------------------------------

def _empty() -> np.ndarray:
    return np.zeros(0)


@dataclass
class ObservedLatencyFeed:
    """Per-replica *measured* completion feed from one fleet run.

    The router's ``least_loaded`` / ``power_of_two`` / ``hedge``
    policies steer by a static per-request service estimate
    (:func:`_service_estimates`).  This feed is the measured
    alternative: for every replica, a mergeable
    :class:`~repro.obs.sketch.QuantileSketch` over the fleet-view
    latencies of the requests it served, a
    :class:`~repro.obs.timeseries.WindowedSeries` of the same values
    keyed by *completion* time (the instant a real router would learn
    them), and a per-request device-cost estimate derived from observed
    batch execution (``execute_us / batch_size`` per served copy) — the
    like-for-like replacement for :attr:`ReplicaSpec.service_us`.
    """

    window_us: float
    #: replica -> sketch of fleet-view latencies it served
    sketches: Dict[int, "object"]
    #: replica -> windowed series of the same values at completion time
    series: Dict[int, "object"]
    #: replica -> measured per-request device cost (us); absent when the
    #: replica served nothing this run
    service_us: Dict[int, float]

    def observed_service_estimates(
            self, fallback: Sequence[float]) -> np.ndarray:
        """Per-replica service estimate, measured where available.

        ``fallback`` supplies the static estimate for replicas that
        served nothing (a dead or fully-drained replica reports no
        completions, so the router must keep its prior).
        """
        out = np.asarray(fallback, dtype=float).copy()
        for replica, value in self.service_us.items():
            out[replica] = value
        return out

    def to_dict(self, max_windows: int = 16) -> Dict:
        rows = []
        for replica in sorted(self.sketches):
            sketch = self.sketches[replica]
            series = self.series[replica]
            rows.append({
                "replica": replica,
                "served": int(sketch.count),
                "latency_us": {"p50": sketch.p50, "p95": sketch.p95,
                               "p99": sketch.p99, "max": sketch.max},
                "service_us": self.service_us.get(replica),
                "windows": series.resampled(max_windows).to_dict(),
            })
        return {"window_us": self.window_us, "replicas": rows}


@dataclass
class FleetReport(OutcomeQueries):
    """What one fleet simulation measured, per routed request.

    Shares :class:`~repro.serving.simulator.OutcomeQueries` with
    :class:`~repro.serving.simulator.ServingReport` and carries the same
    per-request arrays (``arrivals_us`` / ``latencies_us`` / ``status``
    / ``abort_us``), so :func:`repro.serving.slo.slo_from_report` and the
    telemetry layer consume it unchanged.
    """

    config: FleetConfig
    arrivals_us: np.ndarray
    latencies_us: np.ndarray
    queue_wait_us: np.ndarray
    batch_wait_us: np.ndarray
    execute_us: np.ndarray
    retry_overhead_us: np.ndarray
    route_overhead_us: np.ndarray
    hedge_wait_us: np.ndarray
    status: np.ndarray
    #: replica whose copy served (or finally aborted) each request
    replica: np.ndarray
    #: the router's primary assignment (== ``replica`` unless a hedge won)
    assigned: np.ndarray
    hedged: np.ndarray
    #: winning copy's local index inside ``per_replica[replica[i]]``
    replica_pos: np.ndarray = field(default_factory=_empty)
    abort_us: np.ndarray = field(default_factory=_empty)
    per_replica: List[ServingReport] = field(default_factory=list)
    telemetry: Optional[object] = None
    hedged_requests: int = 0
    hedge_wins: int = 0

    #: the replica phases plus the router's two
    phases = PHASES + ("route_overhead", "hedge_wait")

    # -- conservation ----------------------------------------------------
    def conservation(self) -> Dict:
        """Every arrival is served, shed, or aborted — and adds up.

        Fleet totals count each request once (the winning copy); the
        per-replica engines additionally processed the hedge
        duplicates, so ``sum(replica requests) == fleet requests +
        hedged copies`` exactly.
        """
        fleet_counts = self.counts_by_status()
        replica_totals = sum(r.arrivals_us.size for r in self.per_replica)
        n = int(self.arrivals_us.size)
        return {
            "fleet_requests": n,
            "fleet_counts": fleet_counts,
            "accounted": sum(fleet_counts.values()),
            "replica_requests": int(replica_totals),
            "hedged_copies": int(self.hedged_requests),
            "conserved": bool(
                sum(fleet_counts.values()) == n
                and replica_totals == n + self.hedged_requests),
        }

    def replica_rows(self) -> List[Dict]:
        """Per-replica summary table (JSON-ready, replica order)."""
        rows = []
        for spec, report in zip(self.config.replicas, self.per_replica):
            counts = report.counts_by_status()
            rows.append({
                "replica": spec.replica,
                "num_cards": spec.num_cards,
                "shards": spec.shards,
                "rack": spec.rack,
                "power_domain": spec.power_domain,
                "requests": int(report.arrivals_us.size),
                "served": counts["served"],
                "shed": counts["shed"],
                "timeout": counts["timeout"],
                "failed": counts["failed"],
                "p50_us": report.percentile(50),
                "p99_us": report.percentile(99),
                "busy_fraction": report.busy_fraction,
                "qps_offered": report.qps_offered,
            })
        return rows

    # -- observed-latency completion feed --------------------------------
    def observed_latency(self, window_us: float = 5_000.0,
                         relative_accuracy: float = 0.01
                         ) -> ObservedLatencyFeed:
        """Measured per-replica latency feed (see
        :class:`ObservedLatencyFeed`).

        Ingests every *served* request into its winning replica's
        sketch and windowed series in completion-time order — the
        stream a live router would observe — so repeated calls (and any
        ``jobs`` count) produce bit-identical feeds.  The per-replica
        ``service_us`` estimate divides each served copy's batch
        execution time by its batch size, over *all* copies the replica
        processed (hedge duplicates included: they cost device time
        whether or not they won).
        """
        from repro.obs.sketch import QuantileSketch
        from repro.obs.timeseries import WindowedSeries

        sketches: Dict[int, QuantileSketch] = {}
        series: Dict[int, WindowedSeries] = {}
        for spec in self.config.replicas:
            sketches[spec.replica] = QuantileSketch(relative_accuracy)
            series[spec.replica] = WindowedSeries(
                window_us, track_quantiles=True,
                relative_accuracy=relative_accuracy,
                name=f"replica{spec.replica}.observed_latency_us")

        completion = self.arrivals_us + self.latencies_us
        order = np.argsort(completion, kind="stable")
        order = order[self.served_mask[order]]
        replicas = self.replica[order]
        for r in sketches:
            mine = order[replicas == r]   # still in completion order
            values = self.latencies_us[mine]
            sketches[r].add_many(values)
            series[r].record_many(completion[mine], values)

        service: Dict[int, float] = {}
        for spec, report in zip(self.config.replicas, self.per_replica):
            local = report.served_mask
            indices = report.batch_index[local]
            if indices.size == 0:
                continue
            sizes = np.asarray(report.batch_sizes, dtype=float)[indices]
            per_request = report.execute_us[local] / sizes
            service[spec.replica] = float(np.median(per_request))
        return ObservedLatencyFeed(window_us=window_us, sketches=sketches,
                                   series=series, service_us=service)

    def with_observed_service(self,
                              window_us: float = 5_000.0) -> FleetConfig:
        """This run's config with measured service estimates plugged in.

        The closed loop: simulate once, then re-route the next run with
        each :attr:`ReplicaSpec.service_us` overridden by the observed
        per-request device cost (static estimates stay wherever a
        replica served nothing).
        """
        feed = self.observed_latency(window_us=window_us)
        estimates = feed.service_us
        specs = tuple(
            replace(spec, service_us=estimates.get(spec.replica,
                                                   spec.service_us))
            for spec in self.config.replicas)
        return replace(self.config, replicas=specs)

    def to_dict(self, max_windows: int = 64) -> Dict:
        """Canonical JSON-ready dump (stable keys and ordering)."""
        span_us = (float(self.arrivals_us[-1] - self.arrivals_us[0])
                   if self.arrivals_us.size > 1 else 0.0)
        served = self.counts_by_status()["served"]
        return {
            "config": self.config.to_dict(),
            "policy": self.config.router.policy,
            "requests": int(self.arrivals_us.size),
            "qps_offered": (self.arrivals_us.size / (span_us / 1e6)
                            if span_us > 0 else 0.0),
            "qps_served": (served / (span_us / 1e6) if span_us > 0
                           else 0.0),
            "availability": self.availability,
            "counts": self.counts_by_status(),
            "latency_us": {"p50": self.percentile(50),
                           "p95": self.percentile(95),
                           "p99": self.percentile(99)},
            "breakdown_us": self.breakdown_means(),
            "routing": {
                "policy": self.config.router.policy,
                "route_latency_us": self.config.router.route_latency_us,
                "hedged_requests": int(self.hedged_requests),
                "hedge_wins": int(self.hedge_wins),
                "requests_per_replica": [
                    int(np.count_nonzero(self.assigned == r))
                    for r in range(self.config.num_replicas)],
            },
            "conservation": self.conservation(),
            "replicas": self.replica_rows(),
            "observed_latency": self.observed_latency().to_dict(
                max_windows=min(max_windows, 16)),
            "telemetry": (self.telemetry.to_dict(max_windows=max_windows)
                          if self.telemetry is not None else None),
        }


# ---------------------------------------------------------------------------
# the fleet simulation
# ---------------------------------------------------------------------------

def _replica_plan_events(fault_plan, replica: int):
    """This replica's serving-domain windows, retargeted replica-wide.

    Fleet-level plans target *replica* indices; inside the replica the
    event covers every card (a rack or power-domain loss does not spare
    card 1), so the local plan uses the wildcard target.
    """
    if fault_plan is None:
        return ()
    events = []
    for event in fault_plan.serving_events:
        if event.target in (replica, -1):
            events.append(replace(event, target=-1))
    return tuple(events)


def _replica_job(task) -> ServingReport:
    """One replica's serving run (module-level: survives ``spawn``)."""
    (replica, model, batching, resilience, arrivals, plan_events,
     collect_telemetry) = task
    faults = None
    if plan_events:
        from repro.faults import FaultInjector, FaultPlan
        faults = FaultInjector(FaultPlan(events=plan_events))
    return simulate_serving(
        model, qps=0.0, batching=batching, resilience=resilience,
        num_requests=0, seed=0, faults=faults, registry=None,
        collect_telemetry=collect_telemetry, replica=replica,
        arrivals=arrivals)


def simulate_fleet(latency_model, traffic, config: FleetConfig,
                   fault_plan=None, jobs: int = 1,
                   collect_telemetry: bool = True,
                   seed: Optional[int] = None) -> FleetReport:
    """Route one traffic trace across the fleet and simulate every replica.

    ``latency_model`` is one picklable callable (replication: every
    replica runs it) or a sequence of one per replica (heterogeneous
    fleets, sharded groups via :class:`ShardedLatencyModel`).
    ``traffic`` is a :class:`~repro.serving.traffic.TrafficTrace`
    (arrivals drawn from ``seed``, default ``config.seed``) or an
    explicit sorted arrival vector.  ``fault_plan`` is a
    :class:`~repro.faults.FaultPlan` whose serving events target
    replica indices.  ``jobs > 1`` fans replicas out over worker
    processes; the report is byte-identical at any job count.
    """
    specs = config.replicas
    num = len(specs)
    models: List[Callable[[int], float]]
    if callable(latency_model):
        models = [latency_model] * num
    else:
        models = list(latency_model)
        if len(models) != num:
            raise ValueError(f"{len(models)} latency models for "
                             f"{num} replicas")

    if isinstance(traffic, TrafficTrace):
        arrivals = traffic.arrivals(config.seed if seed is None else seed)
    else:
        arrivals = np.asarray(traffic, dtype=float)
    n = int(arrivals.size)
    if n == 0:
        raise ValueError("the traffic trace produced no arrivals")
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrivals must be sorted")

    router = config.router
    service_us = _service_estimates(specs, models, config.batching)
    decision = route_requests_vectorised(arrivals, router, specs,
                                         service_us)

    # -- per-replica arrival vectors + local-position maps ----------------
    route_us = router.route_latency_us
    hedge_us = router.hedge_delay_us
    local_arrivals: List[np.ndarray] = []
    #: per replica: (fleet request index, is_hedge) per local position
    local_owner: List[np.ndarray] = []
    local_is_hedge: List[np.ndarray] = []
    for r in range(num):
        primary = np.flatnonzero(decision.assigned == r)
        hedge = np.flatnonzero(decision.hedged == r)
        times = np.concatenate([arrivals[primary] + route_us,
                                arrivals[hedge] + route_us + hedge_us])
        owners = np.concatenate([primary, hedge])
        flags = np.concatenate([np.zeros(primary.size, dtype=bool),
                                np.ones(hedge.size, dtype=bool)])
        order = np.argsort(times, kind="stable")
        local_arrivals.append(times[order])
        local_owner.append(owners[order])
        local_is_hedge.append(flags[order])

    resilience = config.resilience
    tasks = [(r, models[r], config.batching,
              replace(resilience, num_cards=specs[r].num_cards),
              local_arrivals[r], _replica_plan_events(fault_plan, r),
              collect_telemetry)
             for r in range(num)]
    from repro.parallel import parallel_map
    reports = parallel_map(_replica_job, tasks, jobs=jobs)

    # -- assemble the fleet view (winner per request, fixed order) --------
    copy_latency = np.full((n, 2), np.nan)   # [:, 0] primary, [:, 1] hedge
    copy_status = np.full((n, 2), -1, dtype=np.int64)
    copy_pos = np.full((n, 2), -1, dtype=np.int64)
    for r in range(num):
        report = reports[r]
        owners = local_owner[r]
        flags = local_is_hedge[r]
        which = flags.astype(np.int64)
        copy_latency[owners, which] = report.latencies_us
        copy_status[owners, which] = report.status
        copy_pos[owners, which] = np.arange(owners.size)

    has_hedge = decision.hedged >= 0
    primary_finish = route_us + copy_latency[:, 0]
    hedge_finish = np.where(has_hedge,
                            route_us + hedge_us + copy_latency[:, 1],
                            np.inf)
    primary_served = copy_status[:, 0] == STATUS_SERVED
    hedge_served = has_hedge & (copy_status[:, 1] == STATUS_SERVED)
    # the first *served* copy wins; primary wins ties and no-winner cases
    use_hedge = np.where(
        primary_served & hedge_served, hedge_finish < primary_finish,
        hedge_served & ~primary_served)
    winner_replica = np.where(use_hedge, decision.hedged, decision.assigned)
    hedge_wins = int(np.count_nonzero(use_hedge))

    latencies = np.zeros(n)
    phases = {name: np.zeros(n) for name in PHASES}
    status = np.zeros(n, dtype=np.int8)
    route_overhead = np.full(n, route_us)
    hedge_wait = np.where(use_hedge, hedge_us, 0.0)
    winner_pos = np.zeros(n, dtype=np.int64)
    for r in range(num):
        report = reports[r]
        mine = np.flatnonzero(winner_replica == r)
        if mine.size == 0:
            continue
        pos = copy_pos[mine, use_hedge[mine].astype(np.int64)]
        winner_pos[mine] = pos
        latencies[mine] = (route_overhead[mine] + hedge_wait[mine]
                           + report.latencies_us[pos])
        for name, values in phases.items():
            values[mine] = getattr(report, f"{name}_us")[pos]
        status[mine] = report.status[pos]

    abort_us = np.where(status == STATUS_SERVED, np.nan,
                        arrivals + latencies)

    telemetry = None
    if collect_telemetry:
        from repro.serving.telemetry import ServingTelemetry
        parts = [report.telemetry for report in reports
                 if report.telemetry is not None]
        if parts:
            telemetry = ServingTelemetry.merge_all(parts)

    return FleetReport(
        config=config,
        arrivals_us=arrivals,
        latencies_us=latencies,
        route_overhead_us=route_overhead,
        hedge_wait_us=hedge_wait,
        status=status,
        replica=winner_replica,
        assigned=decision.assigned,
        hedged=decision.hedged,
        replica_pos=winner_pos,
        abort_us=abort_us,
        per_replica=list(reports),
        telemetry=telemetry,
        hedged_requests=decision.num_hedged,
        hedge_wins=hedge_wins,
        **{f"{name}_us": values for name, values in phases.items()},
    )


# ---------------------------------------------------------------------------
# autoscaling
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    """One autoscaling epoch: load, standing, and the scaler's verdict."""

    index: int
    start_us: float
    end_us: float
    replicas: int
    requests: int
    p99_us: float
    availability: float
    burn: float
    action: str                     #: "up" | "down" | "hold"

    def to_dict(self) -> Dict:
        return {"index": self.index, "start_us": self.start_us,
                "end_us": self.end_us, "replicas": self.replicas,
                "requests": self.requests, "p99_us": self.p99_us,
                "availability": self.availability, "burn": self.burn,
                "action": self.action}


@dataclass
class FleetAutoscaleReport:
    """An autoscaled run: per-epoch fleet reports plus the size timeline."""

    sla_us: float
    availability_target: float
    autoscale: AutoscaleConfig
    epochs: List[EpochRecord] = field(default_factory=list)
    reports: List[FleetReport] = field(default_factory=list)

    @property
    def replica_timeline(self) -> List[int]:
        return [e.replicas for e in self.epochs]

    @property
    def total_requests(self) -> int:
        return sum(e.requests for e in self.epochs)

    def to_dict(self) -> Dict:
        return {
            "sla_us": self.sla_us,
            "availability_target": self.availability_target,
            "autoscale": self.autoscale.to_dict(),
            "epochs": [e.to_dict() for e in self.epochs],
            "replica_timeline": self.replica_timeline,
            "total_requests": self.total_requests,
        }


def simulate_fleet_autoscaled(latency_model, traffic,
                              config: FleetConfig,
                              autoscale: AutoscaleConfig,
                              sla_us: float,
                              availability_target: float = 0.999,
                              fault_plan=None, jobs: int = 1,
                              collect_telemetry: bool = False
                              ) -> FleetAutoscaleReport:
    """Serve a trace epoch by epoch, re-sizing on error-budget burn.

    Each epoch runs a fixed-size fleet over its arrival slice; the SLO
    monitor's burn rate for the epoch then drives the scaler: burn
    above ``upscale_burn`` adds ``step`` replicas, burn below
    ``downscale_burn`` removes one (the asymmetry is deliberate — scale
    up fast, down slowly), clamped to the configured range.  The whole
    loop is deterministic: same trace, same config, same timeline.
    """
    from repro.serving.slo import slo_from_report

    if isinstance(traffic, TrafficTrace):
        arrivals = traffic.arrivals(config.seed)
    else:
        arrivals = np.asarray(traffic, dtype=float)
    if arrivals.size == 0:
        raise ValueError("the traffic trace produced no arrivals")

    out = FleetAutoscaleReport(sla_us=sla_us,
                               availability_target=availability_target,
                               autoscale=autoscale)
    replicas = max(autoscale.min_replicas,
                   min(config.num_replicas, autoscale.max_replicas))
    t0 = float(arrivals[0])
    t_end = float(arrivals[-1])
    start = t0
    index = 0
    while start <= t_end:
        end = start + autoscale.epoch_us
        lo = int(np.searchsorted(arrivals, start, side="left"))
        hi = int(np.searchsorted(arrivals, end, side="left"))
        chunk = arrivals[lo:hi]
        if chunk.size:
            epoch_config = config.with_replica_count(replicas)
            report = simulate_fleet(latency_model, chunk, epoch_config,
                                    fault_plan=fault_plan, jobs=jobs,
                                    collect_telemetry=collect_telemetry)
            slo = slo_from_report(report, sla_us,
                                  availability_target=availability_target,
                                  window_us=autoscale.epoch_us)
            burn = slo.burn_rate
            if burn > autoscale.upscale_burn:
                action = "up"
                replicas = min(autoscale.max_replicas,
                               replicas + autoscale.step)
            elif burn < autoscale.downscale_burn:
                action = "down"
                replicas = max(autoscale.min_replicas, replicas - 1)
            else:
                action = "hold"
            out.reports.append(report)
            out.epochs.append(EpochRecord(
                index=index, start_us=start, end_us=end,
                replicas=report.config.num_replicas,
                requests=int(chunk.size), p99_us=report.percentile(99),
                availability=report.availability, burn=burn,
                action=action))
        index += 1
        start = end
    return out
