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
load shedding and card failover), all off by default.

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
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

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
        if not (isinstance(self.max_batch, numbers.Integral)
                and not isinstance(self.max_batch, bool)
                and self.max_batch >= 1):
            raise ValueError(
                f"max_batch must be an integer >= 1, got {self.max_batch!r}")
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


class BatchTable:
    """The dispatched batches of one run, one numpy column per field.

    Row ``k`` is batch ``k`` in dispatch order.  Readers that walk many
    batches read the columns; ``table[k]`` (negative ``k`` counts from
    the end) builds that batch's :class:`BatchRecord` on demand, and
    iterating yields every record in order.
    """

    #: the columns, in :meth:`from_records` tuple order
    fields = ("size", "first_arrival_us", "ready_us", "dispatch_us",
              "finish_us", "queue_depth")

    def __init__(self, size, first_arrival_us, ready_us, dispatch_us,
                 finish_us, queue_depth) -> None:
        self.size = np.asarray(size, dtype=np.int64)
        self.first_arrival_us = np.asarray(first_arrival_us, dtype=float)
        self.ready_us = np.asarray(ready_us, dtype=float)
        self.dispatch_us = np.asarray(dispatch_us, dtype=float)
        self.finish_us = np.asarray(finish_us, dtype=float)
        self.queue_depth = np.asarray(queue_depth, dtype=np.int64)

    @classmethod
    def from_records(cls, records) -> "BatchTable":
        """The table of ``(size, first_arrival_us, ready_us,
        dispatch_us, finish_us, queue_depth)`` tuples, one per batch."""
        columns = list(zip(*records)) or [()] * len(cls.fields)
        return cls(*columns)

    def __len__(self) -> int:
        return self.size.size

    def __getitem__(self, k: int) -> BatchRecord:
        k = range(len(self))[k]     # IndexError past either end
        return BatchRecord(k, *(getattr(self, name)[k].item()
                                for name in self.fields))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


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
    busy_fraction: float
    queue_wait_us: np.ndarray
    batch_wait_us: np.ndarray
    execute_us: np.ndarray
    arrivals_us: np.ndarray
    #: index into ``batches`` of the batch that served each request
    #: (-1 for aborted requests)
    batch_index: np.ndarray
    batches: BatchTable
    #: per-request outcome (``STATUS_*``)
    status: np.ndarray
    #: microseconds a request spent on attempts that did *not* serve it
    #: (timeout/failure + backoff before the successful attempt)
    retry_overhead_us: np.ndarray
    #: dispatch attempts per request (1 = first try succeeded)
    attempts: np.ndarray
    #: abort instant for non-served requests (NaN for served ones)
    abort_us: np.ndarray
    #: bounded mergeable telemetry (:class:`ServingTelemetry`), attached
    #: when the simulation ran with ``collect_telemetry=True``
    telemetry: Optional[object] = None

    @property
    def mean_batch(self) -> float:
        sizes = self.batches.size
        return float(sizes.mean()) if sizes.size else 0.0

    def queue_depth_series(self) -> Dict[str, List[float]]:
        """Queue depth sampled at each dispatch instant."""
        return {"time_us": self.batches.dispatch_us.tolist(),
                "depth": self.batches.queue_depth.astype(float).tolist()}

    def batch_occupancy_series(self, max_batch: int) -> Dict[str, List[float]]:
        """Dispatched batch size as a fraction of ``max_batch``."""
        return {"time_us": self.batches.dispatch_us.tolist(),
                "occupancy": (self.batches.size / max_batch).tolist()}

    def request_rows(self, limit: Optional[int] = None) -> List[Dict]:
        """Per-request breakdown rows (JSON-ready), optionally capped."""
        n = self.latencies_us.size
        if limit is not None:
            n = min(n, limit)
        sizes = self.batches.size.tolist()
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
                "batch_size": sizes[b] if 0 <= b < len(sizes) else 0,
                "status": STATUS_NAMES[int(self.status[r])],
                "attempts": int(self.attempts[r]),
            })
        return rows


#: The batch sizes :class:`BatchLatencyModel` prices by default.
CANDIDATE_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class BatchLatencyModel:
    """Caches per-batch-size model latency from the analytical stack.

    Also retains each candidate batch's :class:`GraphEstimate`, so the
    tail-attribution layer can ask "what *operator mix* did a batch of
    this size execute" without re-running the model.
    """

    def __init__(self, model_config, machine,
                 candidate_batches=CANDIDATE_BATCHES):
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
        """The candidate batch size used for an arbitrary batch.

        A batch above the largest candidate raises ``ValueError``: the
        table cannot price it.
        """
        idx = bisect.bisect_left(self._batches, batch)
        if idx == len(self._batches):
            raise ValueError(f"batch {batch} exceeds the largest modelled "
                             f"batch {self._batches[-1]}")
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
    it off: one card, no deadlines, no retries, no shedding).  Without
    ``faults``, deadlines or shedding on one card, nothing can abort,
    so the run takes a straight-line batching pass
    (:func:`_batching_window`); everything else takes the general loop,
    which gives the same report for that configuration.

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

    # the general loop's batches, one ``BatchTable.from_records`` tuple each
    records: List[Tuple[int, float, float, float, float, int]] = []
    free = [0.0] * cfg.num_cards
    busy_us = 0.0
    span_end = float(arrivals[0]) if n else 0.0
    served = 0
    retry_seq = n

    # The loop reads arrival times from a list (Python floats: no numpy
    # scalar or call per batch) and records each batch's served
    # first-attempt run; one array pass after the loop fills their rows.
    times = arrivals.tolist()
    runs: List[Tuple[int, int, int, float]] = []

    # First attempts are consumed in arrival order by the cursor ``i``;
    # their tie-break seq is the request index.  ``pending`` is a heap
    # of the other queued attempts: retries (seq >= n, so an original
    # wins a same-instant tie) and originals a shed pass left waiting.
    i = 0
    pending: List[_Attempt] = []
    straight_line = (faults is None and cfg.num_cards == 1
                     and not deadline and not cfg.shed_queue_depth)
    if straight_line:
        # nothing can time out, fail or be shed: every
        # request is served on its first attempt by the plain window,
        # and the general loop below has nothing left to do
        busy_us, finish, batches, served_runs = _batching_window(
            arrivals, times, batching, latency_model)
        span_end = max(span_end, finish)
        served = i = n

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
            value = latency_of[size] = _priced(latency_model, size)
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

        # -- dispatch on the earliest-free card
        start = start_on(card, dispatch_at)
        death = None
        if not math.isfinite(start):
            # the card died for good between batch formation and
            # dispatch; the serving tier discovers it at dispatch time
            death = dispatch_at
        elif faults is not None:
            exec_us = batch_latency(size) * faults.card_slowdown(card, start)
            death = faults.card_failure_in(card, start, start + exec_us)
            if death is not None:
                # the in-flight batch dies with the card; the card comes
                # back (or not) on the fault plan's schedule
                free[card] = faults.card_available_at(card, death)
                busy_us += death - start
                span_end = max(span_end, death)
        else:
            exec_us = batch_latency(size)
        if death is not None:
            for t, _seq, r, attempt in sorted(held + originals(lo, hi)):
                finish_attempt(r, attempt, t, death, STATUS_FAILED,
                               ready, start)
            continue
        finish = free[card] = start + exec_us
        busy_us += exec_us
        span_end = max(span_end, finish)
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
        k = len(records)
        for t, _seq, r, attempt in held:
            attempts_out[r] = attempt + 1
            retry_overhead[r] = t - times[r]
            latencies[r] = finish - times[r]
            batch_wait[r] = max(0.0, ready - t)
            queue_wait[r] = start - max(t, ready)
            execute[r] = exec_us
            batch_index[r] = k
        if lo < hi:
            runs.append((lo, hi, k, exec_us))
        served += len(held) + hi - lo

        depth = cursor_waiting(dispatch_at) - i
        if pending:
            depth += sum(1 for e in pending if e[0] <= dispatch_at)
        records.append((size, first_t, ready, start, finish, depth))

    del times
    if not straight_line:
        batches = BatchTable.from_records(records)
        served_runs = _ServedRuns.from_rows(runs)
    served_runs.fill(batches, arrivals, latencies, batch_wait, queue_wait,
                     execute, batch_index)

    span_us = span_end - arrivals[0] if n else 0.0
    report = ServingReport(
        qps_offered=qps,
        qps_served=served / (span_us / 1e6) if span_us > 0 else 0.0,
        latencies_us=latencies,
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


def _priced(latency_model: Callable[[int], float], size: int) -> float:
    """``latency_model(size)``, refused unless finite and >= 0."""
    value = latency_model(size)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(
            f"latency_model({size}) returned {value!r}; a batch "
            "latency must be finite and >= 0 microseconds")
    return value


def _batching_window(arrivals: np.ndarray, times: List[float],
                     batching: BatchingConfig,
                     latency_model: Callable[[int], float]
                     ) -> Tuple[float, float, BatchTable, "_ServedRuns"]:
    """The default configuration's batching loop, straight-line.

    One card, no faults, deadlines or shedding: every request is served
    on its first attempt, so a batch is just the arrivals ``lo:hi``
    under the cursor.  It takes what arrived by the time the card is
    free and the oldest's window has closed, at most ``max_batch``; a
    full batch is ready at its last arrival and starts once the card is
    free, any other is ready when the window closes.  The loop keeps
    only each batch's ``lo`` and start (pricing a size the first time it
    occurs, and summing busy time in batch order); every other column
    is derived from those afterwards, value for value what
    :func:`simulate_serving`'s general loop records
    (``tests/serving/test_resilience.py`` compares the two).  Returns
    ``(busy_us, finish_us, batches, runs)``: the card's busy time, the
    last batch's finish (0.0 without requests), the batch table and
    its served runs.
    """
    n = len(times)
    max_batch = batching.max_batch
    max_wait = batching.max_wait_us
    bisect_right = bisect.bisect_right
    los: List[int] = []
    starts: List[float] = []
    add_lo, add_start = los.append, starts.append
    latency_of: Dict[int, float] = {}
    free = busy = 0.0
    i = 0
    while i < n:
        window_end = times[i] + max_wait
        at = free if free > window_end else window_end
        cap = i + max_batch
        hi = bisect_right(times, at, i, cap if cap < n else n)
        size = hi - i
        if size == max_batch:
            ready = times[hi - 1]
            at = free if free > ready else ready
        exec_us = latency_of.get(size)
        if exec_us is None:
            exec_us = latency_of[size] = _priced(latency_model, size)
        free = at + exec_us
        busy += exec_us
        add_lo(i)
        add_start(at)
        i = hi

    lo = np.array(los, dtype=np.int64)
    hi = np.append(lo[1:], n)[:lo.size]     # the next batch's lo
    size = hi - lo
    priced = np.zeros(max(latency_of, default=0) + 1)
    priced[list(latency_of)] = list(latency_of.values())
    exec_us = priced[size]
    start = np.array(starts, dtype=float)
    ready = np.where(size == max_batch, arrivals[hi - 1],
                     arrivals[lo] + max_wait)
    batches = BatchTable(size, arrivals[lo], ready, start, start + exec_us,
                         np.searchsorted(arrivals, start, "right") - hi)
    return busy, free, batches, _ServedRuns(lo, hi, np.arange(lo.size),
                                            exec_us)


class _ServedRuns(NamedTuple):
    """The served first-attempt runs of one simulation, filled at once.

    Run ``j`` is the requests ``lo[j]:hi[j]`` that batch ``k[j]``
    served in ``exec_us[j]``.  :meth:`fill` writes the phases of every
    member of every run in one elementwise pass after the batching loop.
    """

    lo: np.ndarray
    hi: np.ndarray
    k: np.ndarray
    exec_us: np.ndarray

    @classmethod
    def from_rows(cls, rows: List[Tuple[int, int, int, float]]
                  ) -> "_ServedRuns":
        """From the general loop's ``(lo, hi, k, exec_us)`` per run."""
        lo, hi, k, exec_us = list(zip(*rows)) or [()] * 4
        return cls(np.array(lo, dtype=np.int64),
                   np.array(hi, dtype=np.int64),
                   np.array(k, dtype=np.int64),
                   np.array(exec_us, dtype=float))

    def fill(self, batches: BatchTable, arrivals: np.ndarray,
             latencies: np.ndarray, batch_wait: np.ndarray,
             queue_wait: np.ndarray, execute: np.ndarray,
             batch_index: np.ndarray) -> None:
        counts = self.hi - self.lo
        total = int(counts.sum())
        rows = (np.arange(total)
                + np.repeat(self.lo - (np.cumsum(counts) - counts), counts))
        ready = np.repeat(batches.ready_us[self.k], counts)
        start = np.repeat(batches.dispatch_us[self.k], counts)
        arr = arrivals[rows]
        latencies[rows] = np.repeat(batches.finish_us[self.k], counts) - arr
        batch_wait[rows] = np.maximum(ready - arr, 0.0)
        queue_wait[rows] = start - np.maximum(arr, ready)
        execute[rows] = np.repeat(self.exec_us, counts)
        batch_index[rows] = np.repeat(self.k, counts)


def _record_metrics(registry, report: ServingReport,
                    batching: BatchingConfig) -> None:
    """Bulk-record one serving run into a metric registry.

    Latencies, phases and the request count cover served requests only,
    like :meth:`OutcomeQueries.percentile`; aborts are counted by
    ``serving_outcomes``.
    """
    served = report.served_mask
    registry.histogram(
        "serving_latency_us",
        "end-to-end request latency (arrival to batch finish)"
    ).labels().observe_many(report.latencies_us[served])
    phases = registry.histogram(
        "serving_phase_us", "per-request phase attribution")
    for phase in PHASES:
        phases.labels(phase=phase).observe_many(
            getattr(report, f"{phase}_us")[served])
    registry.histogram(
        "serving_batch_size", "dispatched batch sizes"
    ).labels().observe_many(report.batches.size)
    registry.histogram(
        "serving_queue_depth", "queue depth sampled at dispatch"
    ).labels().observe_many(report.batches.queue_depth)
    registry.counter("serving_requests", "requests served").labels().inc(
        int(np.count_nonzero(served)))
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
