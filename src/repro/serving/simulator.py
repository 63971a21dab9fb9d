"""Request-level serving simulation.

A serving tier of one or more identical accelerator cards serves a
Poisson stream (or an injected arrival vector) of single-sample
inference requests through a batching front end: requests accumulate
until either ``max_batch`` are waiting or the oldest has waited
``max_wait_us``; the batch then executes for the model's batch-dependent
latency (from the analytical operator model), during which further
arrivals queue.

This is the mechanism behind the paper's latency/batch-size tension:
larger batches raise hardware utilisation ("the kernels are able to
better amortize the setup costs", Section 6.1) but serving "under
stringent latency requirements" caps how large a batch the SLA allows.

On top of batching, a
:class:`~repro.serving.resilience.ResilienceConfig` switches on the
failure handling of a production serving tier (deadlines, retries,
hedging, load shedding and card failover), all off by default.

The simulation attributes *every* request microsecond to one phase (so
tail requests can be explained, not just counted — see
:mod:`repro.serving.tail`):

* ``retry_overhead`` — time burned before the final attempt was
  enqueued (failed attempts plus backoff; 0 for a first-try request);
* ``batch_wait`` — enqueue until the batch is complete-and-eligible
  (the window expired or ``max_batch`` attempts are in);
* ``queue_wait`` — batch ready but the device still busy with its
  predecessor (head-of-line blocking);
* ``execute`` — dispatch to finish.

``queue_wait + batch_wait + retry_overhead + execute == latency``
exactly, per request; for aborted requests the phases are truncated at
the abort instant, so the identity holds for them too.  Request
waterfalls are drawn from these arrays after the run
(:func:`~repro.serving.telemetry.emit_exemplar_spans`).
"""

from __future__ import annotations

import bisect
import heapq
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.serving.resilience import ResilienceConfig


def resolve_arrivals(qps: float, num_requests: int, seed: int,
                     arrivals=None):
    """The arrival stream of one serving run: drawn or injected.

    With ``arrivals=None`` (the historical path) a Poisson stream is
    drawn from ``seed`` at rate ``qps`` — bit-identical to what the
    simulators always produced.  A fleet router instead *injects* the
    arrival subsequence it assigned to this replica; the replica engine
    then consumes it verbatim (sorted, in microseconds).  Returns
    ``(arrivals, qps)`` where ``qps`` falls back to the stream's own
    offered rate when the caller passed ``qps <= 0`` alongside explicit
    arrivals (an empty replica simply offers 0).

    Raises ``ValueError`` for a NaN or infinite ``qps``, a negative
    ``num_requests``, and non-finite or decreasing ``arrivals``.
    """
    if math.isnan(qps) or math.isinf(qps):
        raise ValueError(f"qps must be finite, got {qps!r}")
    if arrivals is None:
        if qps <= 0:
            raise ValueError(f"qps must be positive, got {qps!r}")
        if num_requests < 0:
            raise ValueError(
                f"num_requests must be >= 0, got {num_requests!r}")
        rng = np.random.default_rng(seed)
        inter_us = rng.exponential(1e6 / qps, size=num_requests)
        return np.cumsum(inter_us), qps
    arrivals = np.asarray(arrivals, dtype=float)
    if not np.isfinite(arrivals).all():
        raise ValueError("injected arrivals must be finite")
    if arrivals.size > 1 and np.any(np.diff(arrivals) < 0):
        raise ValueError("injected arrivals must be non-decreasing")
    if qps <= 0:
        span_us = (float(arrivals[-1] - arrivals[0])
                   if arrivals.size > 1 else 0.0)
        qps = (arrivals.size / (span_us / 1e6) if span_us > 0
               else float(arrivals.size))
    return arrivals, qps


@dataclass(frozen=True)
class BatchingConfig:
    max_batch: int = 256
    max_wait_us: float = 200.0

    def __post_init__(self) -> None:
        if not self.max_batch >= 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch!r}")
        if not (math.isfinite(self.max_wait_us) and self.max_wait_us >= 0):
            raise ValueError("max_wait_us must be finite and >= 0, got "
                             f"{self.max_wait_us!r}")


#: Request outcome codes (``ServingReport.status``).  Anything but
#: SERVED is an *abort*: excluded from latency quantiles, counted
#: against availability (see ``ServingReport.availability``).
STATUS_SERVED = 0      #: completed and delivered in time
STATUS_SHED = 1        #: dropped at admission (queue saturation)
STATUS_TIMEOUT = 2     #: missed its deadline, retry budget exhausted
STATUS_FAILED = 3      #: lost to a card failure, retry budget exhausted
STATUS_NAMES = ("served", "shed", "timeout", "failed")

#: The request phases, each stored as a ``{phase}_us`` per-request array;
#: they tile every request's latency (the attribution identity above).
#: The order they tile a request in is :mod:`repro.obs.critical`'s.
PHASES = ("queue_wait", "batch_wait", "execute", "retry_overhead")


@dataclass
class BatchRecord:
    """One dispatched batch: when it formed, ran, and what it held."""

    index: int
    size: int
    first_arrival_us: float    #: arrival of the oldest member
    ready_us: float            #: complete-and-eligible (window/full)
    dispatch_us: float         #: device actually started
    finish_us: float
    queue_depth: int           #: requests still waiting at dispatch

    @property
    def execute_us(self) -> float:
        return self.finish_us - self.dispatch_us

    def to_dict(self) -> Dict:
        return {"index": self.index, "size": self.size,
                "first_arrival_us": self.first_arrival_us,
                "ready_us": self.ready_us,
                "dispatch_us": self.dispatch_us,
                "finish_us": self.finish_us,
                "execute_us": self.execute_us,
                "queue_depth": self.queue_depth}


class OutcomeQueries:
    """Outcome queries of a report that carries per-request ``status``.

    Aborted requests (shed/timeout/failed) count against availability
    but are *excluded* from latency quantiles — a shed request has no
    meaningful latency, and folding abort times into percentiles would
    let load shedding "improve" the p99.
    """

    #: phases whose ``{phase}_us`` arrays :meth:`breakdown_means` averages
    phases = PHASES

    @property
    def served_mask(self) -> np.ndarray:
        """Boolean mask of served requests."""
        return self.status == STATUS_SERVED

    @property
    def availability(self) -> float:
        """Fraction of offered requests actually served (1.0 = no aborts)."""
        n = self.arrivals_us.size
        if n == 0:
            return 1.0
        return float(np.count_nonzero(self.served_mask)) / n

    def counts_by_status(self) -> Dict[str, int]:
        """Request counts keyed by outcome name."""
        return {name: int(np.count_nonzero(self.status == code))
                for code, name in enumerate(STATUS_NAMES)}

    def percentile(self, q: float) -> float:
        """Latency percentile over *served* requests only."""
        lat = self.latencies_us[self.served_mask]
        if lat.size == 0:
            return float("nan")
        return float(np.percentile(lat, q))

    @property
    def p50_us(self) -> float:
        return self.percentile(50)

    @property
    def p99_us(self) -> float:
        return self.percentile(99)

    def meets_sla(self, sla_us: float, q: float = 99.0) -> bool:
        p = self.percentile(q)
        return bool(p <= sla_us)   # NaN (empty run) never meets an SLA

    def breakdown_means(self, rows: Optional[np.ndarray] = None
                        ) -> Dict[str, float]:
        """Mean microseconds per phase over ``rows`` (an index array or
        mask; default: the served requests), 0.0 for an empty set."""
        if rows is None:
            rows = self.served_mask
        out: Dict[str, float] = {}
        for name in self.phases:
            values = getattr(self, f"{name}_us")[rows]
            out[name] = float(values.mean()) if values.size else 0.0
        return out


@dataclass
class ServingReport(OutcomeQueries):
    """What one serving simulation measured.

    The per-request arrays all align with ``arrivals_us``; the phase
    arrays sum to ``latencies_us`` request by request.
    """

    qps_offered: float
    qps_served: float
    latencies_us: np.ndarray
    batch_sizes: List[int]
    busy_fraction: float
    queue_wait_us: np.ndarray
    batch_wait_us: np.ndarray
    execute_us: np.ndarray
    arrivals_us: np.ndarray
    #: index into ``batches`` of the batch that served each request
    #: (-1 for aborted requests)
    batch_index: np.ndarray
    batches: List[BatchRecord]
    #: per-request outcome (``STATUS_*``)
    status: np.ndarray
    #: microseconds a request spent on attempts that did *not* serve it
    #: (timeout/failure + backoff before the successful attempt)
    retry_overhead_us: np.ndarray
    #: dispatch attempts per request (1 = first try succeeded)
    attempts: np.ndarray
    #: abort instant for non-served requests (NaN for served ones)
    abort_us: np.ndarray
    #: batches dispatched twice (hedged) and how often the hedge won
    hedged_batches: int = 0
    hedge_wins: int = 0
    #: bounded mergeable telemetry (:class:`ServingTelemetry`), attached
    #: when the simulation ran with ``collect_telemetry=True``
    telemetry: Optional[object] = None

    @property
    def mean_batch(self) -> float:
        return float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0

    def queue_depth_series(self) -> Dict[str, List[float]]:
        """Queue depth sampled at each dispatch instant."""
        return {"time_us": [b.dispatch_us for b in self.batches],
                "depth": [float(b.queue_depth) for b in self.batches]}

    def batch_occupancy_series(self, max_batch: int) -> Dict[str, List[float]]:
        """Dispatched batch size as a fraction of ``max_batch``."""
        return {"time_us": [b.dispatch_us for b in self.batches],
                "occupancy": [b.size / max_batch for b in self.batches]}

    def request_rows(self, limit: Optional[int] = None) -> List[Dict]:
        """Per-request breakdown rows (JSON-ready), optionally capped."""
        n = self.latencies_us.size
        if limit is not None:
            n = min(n, limit)
        rows = []
        for r in range(n):
            b = int(self.batch_index[r])
            rows.append({
                "request": r,
                "arrival_us": float(self.arrivals_us[r]),
                **{f"{name}_us": float(getattr(self, f"{name}_us")[r])
                   for name in PHASES},
                "latency_us": float(self.latencies_us[r]),
                "batch": b,
                "batch_size": self.batches[b].size if 0 <= b < len(
                    self.batches) else 0,
                "status": STATUS_NAMES[int(self.status[r])],
                "attempts": int(self.attempts[r]),
            })
        return rows


class BatchLatencyModel:
    """Caches per-batch-size model latency from the analytical stack.

    Also retains each candidate batch's :class:`GraphEstimate`, so the
    tail-attribution layer can ask "what *operator mix* did a batch of
    this size execute" without re-running the model.
    """

    def __init__(self, model_config, machine,
                 candidate_batches=(1, 2, 4, 8, 16, 32, 64, 128, 256)):
        from repro.eval.opmodel import estimate_graph
        from repro.models.dlrm import build_dlrm_graph
        from repro.runtime.executor import GraphExecutor

        self.latency_us: Dict[int, float] = {}
        self.estimates: Dict[int, object] = {}
        for batch in candidate_batches:
            graph = build_dlrm_graph(model_config, batch)
            executor = GraphExecutor(machine, mode="graph")
            placement = executor.compile(graph)
            estimate = estimate_graph(
                machine, graph,
                placement if machine.family == "mtia" else None)
            self.latency_us[batch] = estimate.total_seconds * 1e6
            self.estimates[batch] = estimate
        self._batches = sorted(self.latency_us)

    def candidate_for(self, batch: int) -> int:
        """The candidate batch size used for an arbitrary batch."""
        idx = bisect.bisect_left(self._batches, batch)
        idx = min(idx, len(self._batches) - 1)
        return self._batches[idx]

    def __call__(self, batch: int) -> float:
        """Latency for an arbitrary batch (ceil to the next candidate)."""
        return self.latency_us[self.candidate_for(batch)]

    def estimate_for(self, batch: int):
        """The :class:`GraphEstimate` behind ``self(batch)``."""
        return self.estimates[self.candidate_for(batch)]

    def category_fractions(self, batch: int) -> Dict[str, float]:
        """Operator-category time mix for a batch of this size."""
        return self.estimate_for(batch).category_fractions()


#: one queued attempt: (enqueue time, tie-break seq, request, attempt#)
_Attempt = Tuple[float, int, int, int]


def simulate_serving(latency_model: Callable[[int], float],
                     qps: float,
                     batching: BatchingConfig = BatchingConfig(),
                     num_requests: int = 5000,
                     seed: int = 0,
                     registry=None,
                     collect_telemetry: bool = False,
                     replica: int = 0,
                     arrivals: Optional[np.ndarray] = None,
                     resilience: ResilienceConfig = ResilienceConfig(),
                     faults=None) -> ServingReport:
    """Simulate serving ``num_requests`` Poisson arrivals at ``qps``.

    ``latency_model(batch_size)`` returns the execution latency in
    microseconds.  It must be a pure function of the batch size (every
    model in :mod:`repro.serving` is): the engine calls it once per
    distinct size and reuses the value, and raises ``ValueError`` if a
    value is NaN, infinite or negative.  Fault slowdowns scale the
    looked-up value per dispatch.  Each card runs one batch at a time;
    attempts queue FIFO in (enqueue time, arrival order).
    ``resilience`` sets the failure handling (the default turns all of
    it off: one card, no deadlines, no retries, no hedging, no
    shedding).

    ``faults`` is an optional :class:`~repro.faults.FaultInjector`
    whose ``card.failure`` / ``card.slowdown`` events (microsecond
    domain) drive card outages and slow cards.  All randomness lives in
    the arrival stream (``seed``) and the injector's *pre-drawn* plan,
    so a (seed, plan) pair replays exactly; an injector armed with an
    empty plan is bit-identical to ``faults=None``.

    ``registry`` (or the opt-in :func:`repro.obs.default_registry`)
    receives the request-latency histogram (p50/p95/p99 via the
    ``serving_latency_us`` instrument), per-phase wait histograms,
    batch-size/occupancy histograms, queue-depth samples, outcome
    counts, and a device-busy-fraction gauge.

    ``collect_telemetry=True`` attaches a
    :class:`~repro.serving.telemetry.ServingTelemetry` (quantile
    sketches, windowed series, tail exemplars tagged ``replica``) to
    ``report.telemetry``.  Telemetry is derived *from* the finished
    report, so it can never perturb the simulation either.

    ``arrivals`` injects an explicit (sorted, microsecond) arrival
    vector instead of drawing a Poisson stream — the fleet layer routes
    a traffic trace and hands each replica its assigned subsequence.
    """
    cfg = resilience
    arrivals, qps = resolve_arrivals(qps, num_requests, seed, arrivals)
    n = int(arrivals.size)
    deadline = cfg.deadline_us
    max_batch = batching.max_batch

    latencies = np.zeros(n)
    queue_wait = np.zeros(n)
    batch_wait = np.zeros(n)
    execute = np.zeros(n)
    retry_overhead = np.zeros(n)
    attempts_out = np.ones(n, dtype=np.int64)
    status = np.zeros(n, dtype=np.int8)
    abort_us = np.full(n, np.nan)
    batch_index = np.full(n, -1, dtype=np.int64)

    batch_sizes: List[int] = []
    batches: List[BatchRecord] = []
    free = [0.0] * cfg.num_cards
    busy_us = 0.0
    span_end = float(arrivals[0]) if n else 0.0
    served = 0
    hedged_batches = 0
    hedge_wins = 0
    retry_seq = n

    # The loop reads arrival times from a list (Python floats: no numpy
    # scalar or call per batch) and records each batch's served
    # first-attempt run; one array pass after the loop fills their rows.
    times = arrivals.tolist()
    runs = _ServedRuns()

    # First attempts are consumed in arrival order by the cursor ``i``;
    # their tie-break seq is the request index.  ``pending`` is a heap
    # of the other queued attempts: retries (seq >= n, so an original
    # wins a same-instant tie) and originals a shed pass left waiting.
    i = 0
    pending: List[_Attempt] = []

    def originals(lo: int, hi: int) -> List[_Attempt]:
        return [(t, r, r, 0) for r, t in enumerate(times[lo:hi], lo)]

    def cursor_waiting(at: float) -> int:
        """End of the first attempts enqueued by ``at`` (never < ``i``)."""
        return max(i, bisect.bisect_right(times, at))

    def start_on(card: int, at: float) -> float:
        """Earliest instant ``card`` can start work requested at ``at``."""
        t = max(at, free[card])
        if faults is not None:
            t = faults.card_available_at(card, t)
        return t

    latency_of: Dict[int, float] = {}

    def batch_latency(size: int) -> float:
        """``latency_model(size)``, looked up and checked once per size."""
        value = latency_of.get(size)
        if value is None:
            value = latency_model(size)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"latency_model({size}) returned {value!r}; a batch "
                    "latency must be finite and >= 0 microseconds")
            latency_of[size] = value
        return value

    def finish_attempt(r: int, attempt: int, attempt_t: float,
                       fail_t: float, failed_status: int,
                       ready: float, dispatch: float) -> None:
        """Retry the attempt or record its final abort."""
        nonlocal retry_seq, span_end
        if attempt < cfg.max_retries:
            next_t = fail_t + cfg.backoff_us(attempt)
            heapq.heappush(pending, (next_t, retry_seq, r, attempt + 1))
            retry_seq += 1
            return
        status[r] = failed_status
        attempts_out[r] = attempt + 1
        retry_overhead[r] = attempt_t - times[r]
        abort_us[r] = fail_t
        # phases truncated at the abort instant, so the attribution
        # invariant holds for aborted requests too
        batch_wait[r] = max(0.0, min(ready, fail_t) - attempt_t)
        queue_wait[r] = max(0.0, min(dispatch, fail_t)
                            - max(ready, attempt_t))
        execute[r] = max(0.0, fail_t - max(dispatch, attempt_t))
        latencies[r] = fail_t - times[r]
        span_end = max(span_end, fail_t)

    def run_copy(card: int, at: float, size: int
                 ) -> Tuple[float, float, float, Optional[float]]:
        """Dispatch one batch copy: (start, exec_us, finish, death)."""
        nonlocal busy_us, span_end
        start = start_on(card, at)
        if not math.isfinite(start):
            # the card died for good between batch formation and
            # dispatch; the serving tier discovers it at dispatch time
            return math.inf, 0.0, math.inf, at
        exec_us = batch_latency(size)
        if faults is not None:
            exec_us *= faults.card_slowdown(card, start)
        finish = start + exec_us
        death = (faults.card_failure_in(card, start, finish)
                 if faults is not None else None)
        if death is not None:
            # the in-flight batch dies with the card; the card comes
            # back (or not) on the fault plan's schedule
            free[card] = faults.card_available_at(card, death)
            busy_us += death - start
            span_end = max(span_end, death)
            return start, exec_us, finish, death
        free[card] = finish
        busy_us += exec_us
        span_end = max(span_end, finish)
        return start, exec_us, finish, None

    def deadline_cut(lo: int, hi: int, at: float) -> int:
        """End of the first attempts in ``lo:hi`` whose deadline is
        before ``at`` (a prefix: arrival times are sorted)."""
        while lo < hi and times[lo] + deadline < at:
            lo += 1
        return lo

    while i < n or pending:
        head_t = min(times[i] if i < n else math.inf,
                     pending[0][0] if pending else math.inf)
        # fault-aware earliest-free card (deterministic tie: lowest index)
        eff = [start_on(c, head_t) for c in range(cfg.num_cards)]
        device_free = min(eff)
        card = eff.index(device_free)

        window_end = head_t + batching.max_wait_us
        dispatch_at = max(window_end, device_free)

        # -- batch members: queued attempts ``held`` (in queue order)
        #    plus the first attempts ``lo:hi`` under the cursor
        held: List[_Attempt] = []
        lo = i
        if pending and pending[0][0] <= dispatch_at:
            hi = i
            while len(held) + hi - lo < max_batch:
                if pending and pending[0][0] <= dispatch_at and (
                        hi >= n or pending[0][:2] < (times[hi], hi)):
                    held.append(heapq.heappop(pending))
                elif hi < n and times[hi] <= dispatch_at:
                    hi += 1
                else:
                    break
        else:
            hi = min(lo + max_batch, bisect.bisect_right(times, dispatch_at))
        i = hi
        last_t = max(held[-1][0] if held else -math.inf,
                     times[hi - 1] if hi > lo else -math.inf)
        full = len(held) + hi - lo == max_batch
        if full:
            dispatch_at = max(last_t, device_free)
        ready = min(dispatch_at, last_t if full else window_end)

        # -- load shedding: attempts still waiting beyond the depth cap
        if cfg.shed_queue_depth:
            end = cursor_waiting(dispatch_at)
            waiting = sorted(e for e in pending if e[0] <= dispatch_at)
            if end - i + len(waiting) > cfg.shed_queue_depth:
                # keep the first shed_queue_depth in queue order
                a, h = i, 0
                for _ in range(cfg.shed_queue_depth):
                    if h < len(waiting) and (
                            a >= end or waiting[h][:2] < (times[a], a)):
                        h += 1
                    else:
                        a += 1
                for t, _seq, r, attempt in waiting[h:]:
                    status[r] = STATUS_SHED
                    attempts_out[r] = attempt + 1
                    retry_overhead[r] = t - times[r]
                    abort_us[r] = dispatch_at
                    batch_wait[r] = max(0.0, min(ready, dispatch_at) - t)
                    queue_wait[r] = dispatch_at - max(ready, t)
                    latencies[r] = dispatch_at - times[r]
                arr = arrivals[a:end]
                status[a:end] = STATUS_SHED
                abort_us[a:end] = dispatch_at
                batch_wait[a:end] = np.maximum(
                    min(ready, dispatch_at) - arr, 0.0)
                queue_wait[a:end] = dispatch_at - np.maximum(arr, ready)
                latencies[a:end] = dispatch_at - arr
                span_end = max(span_end, dispatch_at)
                pending = ([e for e in pending if e[0] > dispatch_at]
                           + waiting[:h] + originals(i, a))
                heapq.heapify(pending)
                i = end

        # -- dispatch-time deadline check: don't waste device time on
        #    members that have already missed (a queue-order prefix)
        if deadline:
            late = [m for m in held if dispatch_at > m[0] + deadline]
            held = held[len(late):]
            cut = deadline_cut(lo, hi, dispatch_at)
            for t, _seq, r, attempt in sorted(late + originals(lo, cut)):
                finish_attempt(r, attempt, t, t + deadline,
                               STATUS_TIMEOUT, ready, math.inf)
            lo = cut
            if not held and lo == hi:
                continue

        size = len(held) + hi - lo

        if not math.isfinite(device_free):
            # every card is gone for good: the batch can never dispatch
            for t, _seq, r, attempt in sorted(held + originals(lo, hi)):
                finish_attempt(r, attempt, t, max(ready, t),
                               STATUS_FAILED, ready, math.inf)
            continue

        # -- dispatch (possibly hedged on the two earliest-free cards)
        copies = [run_copy(card, dispatch_at, size)]
        if (cfg.hedge_after_us and cfg.num_cards > 1
                and dispatch_at - ready > cfg.hedge_after_us):
            others = [c for c in range(cfg.num_cards)
                      if c != card and math.isfinite(start_on(c, dispatch_at))]
            if others:
                hedge = min(others,
                            key=lambda c: (start_on(c, dispatch_at), c))
                copies.append(run_copy(hedge, dispatch_at, size))
                hedged_batches += 1

        alive = [(fin, idx) for idx, (_s, _e, fin, death)
                 in enumerate(copies) if death is None]
        if not alive:
            # every copy died with its card mid-execute
            lost_at = max(death for _s, _e, _f, death in copies)
            for t, _seq, r, attempt in sorted(held + originals(lo, hi)):
                finish_attempt(r, attempt, t, lost_at, STATUS_FAILED,
                               ready, copies[0][0])
            continue
        finish, winner = min(alive)
        start, exec_us = copies[winner][0], copies[winner][1]
        if winner != 0:
            hedge_wins += 1
        first_t = min(held[0][0] if held else math.inf,
                      times[lo] if hi > lo else math.inf)

        # -- completion-time deadline check (again a queue-order prefix)
        if deadline:
            late = [m for m in held if finish > m[0] + deadline]
            held = held[len(late):]
            cut = deadline_cut(lo, hi, finish)
            for t, _seq, r, attempt in sorted(late + originals(lo, cut)):
                finish_attempt(r, attempt, t, t + deadline,
                               STATUS_TIMEOUT, ready, start)
            lo = cut

        # -- served members: queued attempts one by one here, the first
        #    attempts ``lo:hi`` by the fill pass after the loop
        k = len(batches)
        for t, _seq, r, attempt in held:
            attempts_out[r] = attempt + 1
            retry_overhead[r] = t - times[r]
            latencies[r] = finish - times[r]
            batch_wait[r] = max(0.0, ready - t)
            queue_wait[r] = start - max(t, ready)
            execute[r] = exec_us
            batch_index[r] = k
        if lo < hi:
            runs.add(lo, hi, k, ready, start, finish, exec_us)
        served += len(held) + hi - lo

        depth = cursor_waiting(dispatch_at) - i
        if pending:
            depth += sum(1 for e in pending if e[0] <= dispatch_at)
        batch_sizes.append(size)
        batches.append(BatchRecord(
            index=k, size=size, first_arrival_us=first_t,
            ready_us=float(ready), dispatch_us=float(start),
            finish_us=float(finish), queue_depth=depth))

    del times
    runs.fill(arrivals, latencies, batch_wait, queue_wait, execute,
              batch_index)

    span_us = span_end - arrivals[0] if n else 0.0
    report = ServingReport(
        qps_offered=qps,
        qps_served=served / (span_us / 1e6) if span_us > 0 else 0.0,
        latencies_us=latencies,
        batch_sizes=batch_sizes,
        busy_fraction=(min(1.0, busy_us / (span_us * cfg.num_cards))
                       if span_us > 0 else 0.0),
        queue_wait_us=queue_wait,
        batch_wait_us=batch_wait,
        execute_us=execute,
        arrivals_us=arrivals,
        batch_index=batch_index,
        batches=batches,
        status=status,
        retry_overhead_us=retry_overhead,
        attempts=attempts_out,
        abort_us=abort_us,
        hedged_batches=hedged_batches,
        hedge_wins=hedge_wins,
    )
    if collect_telemetry:
        from repro.serving.telemetry import ServingTelemetry
        report.telemetry = ServingTelemetry.from_report(report,
                                                        replica=replica)
    if registry is None:
        from repro.obs.metrics import default_registry
        registry = default_registry()
    if registry is not None:
        _record_metrics(registry, report, batching)
    return report


class _ServedRuns:
    """The served first-attempt runs of one simulation, filled at once.

    Run ``j`` is the requests ``lo:hi`` that batch ``k`` served, with
    that batch's ready, start, finish and execute times.  :meth:`fill`
    writes the phases of every member of every run in one elementwise
    pass after the batching loop.
    """

    def __init__(self) -> None:
        self.bounds = array("q")   #: (lo, hi, k) per run
        self.times = array("d")    #: (ready, start, finish, exec_us) per run

    def add(self, lo: int, hi: int, k: int, ready: float, start: float,
            finish: float, exec_us: float) -> None:
        self.bounds.extend((lo, hi, k))
        self.times.extend((ready, start, finish, exec_us))

    def fill(self, arrivals: np.ndarray, latencies: np.ndarray,
             batch_wait: np.ndarray, queue_wait: np.ndarray,
             execute: np.ndarray, batch_index: np.ndarray) -> None:
        if not self.bounds:
            return
        lo, hi, k = np.frombuffer(self.bounds, dtype=np.int64
                                  ).reshape(-1, 3).T
        counts = hi - lo
        total = int(counts.sum())
        rows = (np.arange(total)
                + np.repeat(lo - (np.cumsum(counts) - counts), counts))
        ready, start, finish, exec_us = np.repeat(
            np.frombuffer(self.times, dtype=np.float64).reshape(-1, 4),
            counts, axis=0).T
        arr = arrivals[rows]
        latencies[rows] = finish - arr
        batch_wait[rows] = np.maximum(ready - arr, 0.0)
        queue_wait[rows] = start - np.maximum(arr, ready)
        execute[rows] = exec_us
        batch_index[rows] = np.repeat(k, counts)


def _record_metrics(registry, report: ServingReport,
                    batching: BatchingConfig) -> None:
    """Bulk-record one serving run into a metric registry."""
    registry.histogram(
        "serving_latency_us",
        "end-to-end request latency (arrival to batch finish)"
    ).labels().observe_many(report.latencies_us)
    for phase, values in (("queue_wait", report.queue_wait_us),
                          ("batch_wait", report.batch_wait_us),
                          ("execute", report.execute_us)):
        registry.histogram(
            "serving_phase_us",
            "per-request phase attribution (queue/batch/execute)"
        ).labels(phase=phase).observe_many(values)
    registry.histogram(
        "serving_batch_size", "dispatched batch sizes"
    ).labels().observe_many(report.batch_sizes)
    registry.histogram(
        "serving_queue_depth", "queue depth sampled at dispatch"
    ).labels().observe_many([b.queue_depth for b in report.batches])
    registry.counter("serving_requests", "requests served").labels().inc(
        report.latencies_us.size)
    registry.gauge("serving_availability",
                   "fraction of offered requests served").labels().set(
                       report.availability)
    for name, count in report.counts_by_status().items():
        if count:
            registry.counter(
                "serving_outcomes", "requests by outcome"
            ).labels(status=name).inc(count)
    registry.gauge("serving_busy_fraction",
                   "device busy fraction").labels().set(
                       report.busy_fraction)
    registry.gauge("serving_batch_occupancy",
                   "mean batch size / max_batch").labels().set(
                       report.mean_batch / batching.max_batch)
    if report.telemetry is not None:
        report.telemetry.record_into(registry)
