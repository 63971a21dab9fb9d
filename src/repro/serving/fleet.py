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
* **traffic** — any sorted arrival vector, usually a seeded
  :class:`~repro.serving.traffic.TrafficTrace` (diurnal/bursty,
  millions-of-users scale);
* **correlated failures** — a :class:`~repro.faults.FaultPlan` whose
  serving-domain events target *replica indices*; rack/power-domain
  plans (:func:`repro.faults.plan.generate_fleet_plan`) take down every
  replica in a blast radius at once.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import require_positive
from repro.serving.resilience import ResilienceConfig
from repro.serving.simulator import (PHASES, STATUS_SERVED,
                                     BatchingConfig, OutcomeQueries,
                                     ServingReport, simulate_serving)
from repro.serving.traffic import TrafficTrace

__all__ = [
    "ROUTING_POLICIES", "TabularLatencyModel", "ReplicaSpec",
    "RouterConfig", "FleetConfig", "RoutingDecision", "route_requests",
    "route_requests_vectorised", "ObservedLatencyFeed", "FleetReport",
    "simulate_fleet", "uniform_fleet",
]

#: Pluggable router policies, in documentation order.
ROUTING_POLICIES: Tuple[str, ...] = (
    "round_robin", "least_loaded", "power_of_two", "hedge")


# ---------------------------------------------------------------------------
# latency models the fleet can ship to worker processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TabularLatencyModel:
    """A picklable batch→latency table (ceil to the next candidate;
    a batch above the largest candidate raises ``ValueError``).

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
        if idx == len(self.batches):
            raise ValueError(f"batch {batch} exceeds the largest modelled "
                             f"batch {self.batches[-1]}")
        return self.latency_us[idx]


# ---------------------------------------------------------------------------
# fleet configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicaSpec:
    """One replica of the fleet: a (possibly multi-card) serving group."""

    replica: int
    #: identical cards behind the replica's queue (failover capacity)
    num_cards: int = 1
    #: physical blast radii for correlated faults
    rack: int = 0
    power_domain: int = 0

    def __post_init__(self) -> None:
        if self.replica < 0 or self.num_cards < 1:
            raise ValueError("replica >= 0, num_cards >= 1")

    def to_dict(self) -> Dict:
        return {"replica": self.replica, "num_cards": self.num_cards,
                "rack": self.rack, "power_domain": self.power_domain}


def uniform_fleet(num_replicas: int, num_cards: int = 1, racks: int = 1,
                  power_domains: int = 1) -> Tuple[ReplicaSpec, ...]:
    """N identical replicas spread over racks and power domains.

    Racks are contiguous blocks (replicas 0..k-1 share rack 0);
    power domains stripe (replica i is on domain ``i % power_domains``)
    so the two blast radii overlap differently — a rack kill and a
    power kill never silence the same replica set.  A count below 1
    raises ``ValueError``; more racks or power domains than replicas
    are clamped to ``num_replicas``.
    """
    require_positive(num_replicas=num_replicas, racks=racks,
                     power_domains=power_domains)
    racks = min(racks, num_replicas)
    power_domains = min(power_domains, num_replicas)
    per_rack = -(-num_replicas // racks)  # ceil
    return tuple(
        ReplicaSpec(replica=i, num_cards=num_cards, rack=i // per_rack,
                    power_domain=i % power_domains)
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
    #: topology hints so capacity planning (:meth:`with_replica_count`)
    #: can regenerate specs at any count
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
        """The same fleet re-sized to ``n`` replicas (capacity planning)."""
        return replace(self, replicas=uniform_fleet(
            n, num_cards=self.replicas[0].num_cards, racks=self.racks,
            power_domains=self.power_domains))

    def to_dict(self) -> Dict:
        return {"replicas": [s.to_dict() for s in self.replicas],
                "router": self.router.to_dict(),
                "batching": {"max_batch": self.batching.max_batch,
                             "max_wait_us": self.batching.max_wait_us},
                "racks": self.racks,
                "power_domains": self.power_domains,
                "seed": self.seed}


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


def _service_estimates(models: Sequence[Callable[[int], float]],
                       batching: BatchingConfig) -> np.ndarray:
    """Router-visible per-request device cost of each replica (us)."""
    return np.array([model(batching.max_batch) / batching.max_batch
                     for model in models], dtype=float)


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
    (:func:`_service_estimates`).  This feed is what the run measured
    instead: for every replica, a mergeable
    :class:`~repro.obs.sketch.QuantileSketch` over the fleet-view
    latencies of the requests it served, a
    :class:`~repro.obs.timeseries.WindowedSeries` of the same values
    keyed by *completion* time (the instant a real router would learn
    them), and a per-request device-cost estimate derived from observed
    batch execution (``execute_us / batch_size`` per served copy), the
    measured counterpart of the static estimate.
    """

    window_us: float
    #: replica -> sketch of fleet-view latencies it served
    sketches: Dict[int, "object"]
    #: replica -> windowed series of the same values at completion time
    series: Dict[int, "object"]
    #: replica -> measured per-request device cost (us); absent when the
    #: replica served nothing this run
    service_us: Dict[int, float]

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
            keys = sketches[r].bucket_keys(values)
            sketches[r].add_many(values, keys)
            series[r].record_many(completion[mine], values, keys)

        service: Dict[int, float] = {}
        for spec, report in zip(self.config.replicas, self.per_replica):
            local = report.served_mask
            indices = report.batch_index[local]
            if indices.size == 0:
                continue
            per_request = (report.execute_us[local]
                           / report.batches.size[indices])
            service[spec.replica] = float(np.median(per_request))
        return ObservedLatencyFeed(window_us=window_us, sketches=sketches,
                                   series=series, service_us=service)

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
    fleets).
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
    service_us = _service_estimates(models, config.batching)
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
    # every copy, concatenated in replica order; ``start[r]`` is replica
    # r's first copy
    start = np.cumsum([0] + [owners.size for owners in local_owner])
    owner = np.concatenate(local_owner)
    is_hedge = np.concatenate(local_is_hedge)
    copy_latency = np.concatenate([report.latencies_us
                                   for report in reports])
    copy_status = np.concatenate([report.status for report in reports])
    # each request's winning copy: its primary, unless it was hedged and
    # the hedge copy won
    winner = np.empty(n, dtype=np.int64)
    primary = np.flatnonzero(~is_hedge)
    winner[owner[primary]] = primary
    hedge = np.flatnonzero(is_hedge)
    hedged = owner[hedge]
    primary_finish = route_us + copy_latency[winner[hedged]]
    hedge_finish = route_us + hedge_us + copy_latency[hedge]
    primary_served = copy_status[winner[hedged]] == STATUS_SERVED
    hedge_served = copy_status[hedge] == STATUS_SERVED
    # the first *served* copy wins; primary wins ties and no-winner cases
    won = np.where(primary_served & hedge_served,
                   hedge_finish < primary_finish,
                   hedge_served & ~primary_served)
    winner[hedged[won]] = hedge[won]
    use_hedge = np.zeros(n, dtype=bool)
    use_hedge[hedged[won]] = True
    winner_replica = np.where(use_hedge, decision.hedged, decision.assigned)
    hedge_wins = int(np.count_nonzero(won))

    winner_pos = winner - start[winner_replica]
    route_overhead = np.full(n, route_us)
    hedge_wait = np.where(use_hedge, hedge_us, 0.0)
    latencies = route_overhead + hedge_wait + copy_latency[winner]
    phases = {name: np.concatenate([getattr(report, f"{name}_us")
                                    for report in reports])[winner]
              for name in PHASES}
    status = copy_status[winner]

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
