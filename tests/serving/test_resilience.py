"""Resilient serving: deadlines, retries, hedging, shedding, failover."""

import pickle

import numpy as np
import pytest

from repro.eval.machines import MACHINES
from repro.faults import PERMANENT, FaultEvent, FaultPlan, FaultInjector
from repro.models.configs import MODEL_ZOO
from repro.obs import MetricRegistry
from repro.serving import (BatchingConfig, BatchTable, ResilienceConfig,
                           STATUS_FAILED, STATUS_SERVED, STATUS_SHED,
                           STATUS_TIMEOUT, simulate_serving, simulator)
from repro.serving.fleet import TabularLatencyModel
from repro.serving.simulator import BatchLatencyModel, resolve_arrivals
from repro.serving.slo import slo_from_report


def linear_latency(batch):
    """150us + 2us per sample — min batch latency 152us."""
    return 150.0 + 2.0 * batch


#: max_batch=4 caps one card's service rate at ~25k qps, so the
#: overload scenarios here actually overload
TIGHT_BATCHING = BatchingConfig(max_batch=4, max_wait_us=200.0)


def resilient(qps=10_000, batching=BatchingConfig(), res=None, n=600,
              seed=0, plan=None):
    faults = FaultInjector(plan) if plan is not None else None
    return simulate_serving(
        linear_latency, qps, batching, resilience=res or ResilienceConfig(),
        num_requests=n, seed=seed, faults=faults,
        registry=MetricRegistry())


def plain_batching(latency_model, qps, batching=BatchingConfig(),
                   num_requests=5000, seed=0):
    """Reference single-card batching window: no retries, no faults.

    The textbook loop the engine's default configuration must reproduce
    bit for bit: a batch closes when ``max_batch`` arrivals are in or
    the oldest has waited ``max_wait_us``, and dispatches when the card
    is free.  Returns the per-request arrays and the batch table.
    """
    arrivals, _ = resolve_arrivals(qps, num_requests, seed)
    n = arrivals.size
    out = {name: np.zeros(n) for name in ("latencies_us", "queue_wait_us",
                                          "batch_wait_us", "execute_us")}
    out["batch_index"] = np.zeros(n, dtype=np.int64)
    records, device_free, i = [], 0.0, 0
    while i < n:
        window_end = arrivals[i] + batching.max_wait_us
        dispatch = max(window_end, device_free)
        j = i
        while (j < n and j - i < batching.max_batch
               and arrivals[j] <= dispatch):
            j += 1
        full = j - i == batching.max_batch
        if full:
            dispatch = max(arrivals[j - 1], device_free)
        ready = min(dispatch, arrivals[j - 1] if full else window_end)
        execute = latency_model(j - i)
        finish = dispatch + execute
        span = arrivals[i:j]
        out["latencies_us"][i:j] = finish - span
        out["batch_wait_us"][i:j] = np.clip(ready - span, 0.0, None)
        out["queue_wait_us"][i:j] = dispatch - np.maximum(span, ready)
        out["execute_us"][i:j] = execute
        out["batch_index"][i:j] = len(records)
        records.append((
            j - i, float(arrivals[i]), float(ready), float(dispatch),
            float(finish),
            int(np.searchsorted(arrivals, dispatch, side="right")) - j))
        device_free = finish
        i = j
    out["arrivals_us"] = arrivals
    return out, BatchTable.from_records(records)


#: every per-request array of a :class:`ServingReport`
REPORT_ARRAYS = ("arrivals_us", "latencies_us", "queue_wait_us",
                 "batch_wait_us", "execute_us", "retry_overhead_us",
                 "batch_index", "status", "attempts", "abort_us")


def both_passes(latency_model, qps, batching, **kwargs):
    """The same run twice: ``faults=None`` takes the straight-line
    batching pass, an armed but empty injector the general loop.
    Returns ``[(report, registry)]`` in that order."""
    runs = []
    for faults in (None, FaultInjector(FaultPlan(events=()))):
        registry = MetricRegistry()
        report = simulate_serving(latency_model, qps, batching,
                                  faults=faults, registry=registry, **kwargs)
        runs.append((report, registry))
    return runs


def assert_same_columns(a, b):
    """Two batch tables hold the same columns, dtype and bits."""
    for name in BatchTable.fields:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)


def assert_same_report(a, b, a_metrics, b_metrics):
    """Every array, batch column and record, scalar and recorded
    metric agrees."""
    for name in REPORT_ARRAYS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)
    assert_same_columns(a.batches, b.batches)
    assert [r.to_dict() for r in a.batches] == \
        [r.to_dict() for r in b.batches]
    assert (a.busy_fraction, a.qps_served, a.qps_offered) == \
        (b.busy_fraction, b.qps_served, b.qps_offered)
    assert a_metrics.to_dict() == b_metrics.to_dict()


def assert_attribution_invariant(report):
    """queue_wait + batch_wait + retry_overhead + execute == latency."""
    total = (report.queue_wait_us + report.batch_wait_us
             + report.retry_overhead_us + report.execute_us)
    np.testing.assert_allclose(total, report.latencies_us, atol=1e-6)


class TestBitIdentityWithPlainSimulator:
    """Default config + no faults is the plain batching window, bit for bit.

    ``plain_batching`` above is the reference: one card, FIFO, no
    failure handling.
    """

    @pytest.mark.parametrize("qps", [500, 10_000, 300_000])
    def test_arrays_bit_identical(self, qps):
        reference, records = plain_batching(linear_latency, qps,
                                            num_requests=800, seed=qps)
        report = simulate_serving(linear_latency, qps, num_requests=800,
                                  seed=qps, registry=MetricRegistry())
        for name, values in reference.items():
            np.testing.assert_array_equal(getattr(report, name), values,
                                          err_msg=name)
        assert_same_columns(report.batches, records)
        span_us = records[-1].finish_us - report.arrivals_us[0]
        assert report.qps_served == 800 / (span_us / 1e6)

    def test_batch_records_identical(self):
        batching = BatchingConfig(max_batch=16, max_wait_us=100.0)
        _, records = plain_batching(linear_latency, 50_000, batching,
                                    num_requests=500)
        report = simulate_serving(linear_latency, 50_000, batching,
                                  num_requests=500,
                                  registry=MetricRegistry())
        assert [b.to_dict() for b in report.batches] == \
            [b.to_dict() for b in records]

    def test_empty_injector_is_bit_identical(self):
        (bare, bare_metrics), (armed, armed_metrics) = both_passes(
            linear_latency, 40_000, BatchingConfig(), num_requests=600)
        assert_same_report(bare, armed, bare_metrics, armed_metrics)
        assert armed.availability == 1.0

    def test_all_served_when_no_failure_features(self):
        report = resilient(qps=20_000, n=400)
        assert report.availability == 1.0
        assert (report.status == STATUS_SERVED).all()
        assert (report.attempts == 1).all()
        assert (report.retry_overhead_us == 0.0).all()
        assert np.isnan(report.abort_us).all()


@pytest.fixture(scope="module")
def lc2_latency():
    return BatchLatencyModel(MODEL_ZOO["LC2"], MACHINES["mtia"])


#: injected arrivals with same-instant ties, some landing on a window
#: edge: 1 to 5 requests at each of 300 instants 40us apart
TIED_ARRIVALS = np.repeat(np.arange(300) * 40.0,
                          np.arange(300) % 5 + 1)

#: (name, batching, qps, simulate_serving keywords) run by both passes
SCENARIOS = [
    ("window-zero", BatchingConfig(16, 0.0), 50_000, {"num_requests": 3000}),
    ("batch-one", BatchingConfig(1, 100.0), 20_000, {"num_requests": 3000}),
    ("batch-one-window-zero", BatchingConfig(1, 0.0), 20_000,
     {"num_requests": 3000}),
    ("ties", BatchingConfig(4, 40.0), 0.0, {"arrivals": TIED_ARRIVALS}),
    ("ties-window-zero", BatchingConfig(3, 0.0), 0.0,
     {"arrivals": TIED_ARRIVALS}),
    ("no-requests", BatchingConfig(), 0.0, {"arrivals": []}),
    ("drawn-no-requests", BatchingConfig(), 1_000, {"num_requests": 0}),
    ("one-request", BatchingConfig(), 0.0, {"arrivals": [7.5]}),
    # with one card and no deadline, retries cannot act
    ("inert-retries-one-card", BatchingConfig(8, 100.0), 40_000,
     {"num_requests": 3000, "resilience": ResilienceConfig(max_retries=3)}),
]


class TestStraightLinePassMatchesGeneralLoop:
    """The default configuration's straight-line pass against the
    general loop, which an armed but empty injector selects: the same
    report, field for field, and the same errors."""

    @pytest.mark.parametrize("qps", [2_000, 10_000, 30_000, 60_000,
                                     400_000])
    def test_serving_ladder(self, lc2_latency, qps):
        (fast, fast_metrics), (general, general_metrics) = both_passes(
            lc2_latency, qps, BatchingConfig(128, 300),
            num_requests=50_000, seed=qps)
        assert_same_report(fast, general, fast_metrics, general_metrics)

    @pytest.mark.parametrize("batching, qps, kwargs",
                             [case[1:] for case in SCENARIOS],
                             ids=[case[0] for case in SCENARIOS])
    def test_edge_cases(self, batching, qps, kwargs):
        (fast, fast_metrics), (general, general_metrics) = both_passes(
            linear_latency, qps, batching, **kwargs)
        assert_same_report(fast, general, fast_metrics, general_metrics)

    @pytest.mark.parametrize("latency_model, match", [
        (lambda b: float("nan") if b > 2 else 10.0,
         r"latency_model\(\d+\) returned nan"),
        (TabularLatencyModel(batches=(1, 4, 16), latency_us=(50, 60, 90)),
         r"batch \d+ exceeds the largest modelled batch 16"),
    ], ids=["nan-latency", "above-table"])
    def test_same_error(self, latency_model, match):
        messages = []
        for faults in (None, FaultInjector(FaultPlan(events=()))):
            with pytest.raises(ValueError, match=match) as exc:
                simulate_serving(latency_model, 200_000,
                                 BatchingConfig(32, 200.0),
                                 num_requests=2000, faults=faults,
                                 registry=MetricRegistry())
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("case, straight_line", [
        ({}, True),
        ({"faults": FaultInjector(FaultPlan(events=()))}, False),
        ({"resilience": ResilienceConfig(deadline_us=5_000.0)}, False),
        ({"resilience": ResilienceConfig(shed_queue_depth=64)}, False),
        ({"resilience": ResilienceConfig(num_cards=2)}, False),
        ({"resilience": ResilienceConfig(max_retries=3)}, True),
    ], ids=["default", "empty-injector", "deadline", "shedding",
            "two-cards", "inert-retries-one-card"])
    def test_selection_rule(self, monkeypatch, case, straight_line):
        calls = []
        real = simulator._batching_window
        monkeypatch.setattr(simulator, "_batching_window",
                            lambda *args: calls.append(1) or real(*args))
        simulate_serving(linear_latency, 10_000, num_requests=200,
                         registry=MetricRegistry(), **case)
        assert bool(calls) is straight_line


class TestBatchTableColumns:
    """The report's batch table on both passes: bit-identical columns at
    the edges, records built on demand, and a pickled round trip."""

    def test_no_arrivals(self):
        (fast, fast_metrics), (general, general_metrics) = both_passes(
            linear_latency, 0.0, BatchingConfig(), arrivals=[])
        assert_same_report(fast, general, fast_metrics, general_metrics)
        for report in (fast, general):
            assert len(report.batches) == 0
            assert not report.batches
            assert list(report.batches) == []
            assert report.mean_batch == 0.0

    def test_max_batch_one(self):
        (fast, fast_metrics), (general, general_metrics) = both_passes(
            linear_latency, 50_000, BatchingConfig(1, 100.0),
            num_requests=500)
        assert_same_report(fast, general, fast_metrics, general_metrics)
        assert (fast.batches.size == 1).all()
        np.testing.assert_array_equal(fast.batches.first_arrival_us,
                                      fast.arrivals_us)

    def test_saturated_every_batch_full(self):
        # 1M QPS against one card that needs 182us per 16: every batch
        # fills, so each is ready at its last member's arrival
        (fast, fast_metrics), (general, general_metrics) = both_passes(
            linear_latency, 1_000_000, BatchingConfig(16, 200.0),
            num_requests=16 * 100)
        assert_same_report(fast, general, fast_metrics, general_metrics)
        table = fast.batches
        assert (table.size == 16).all()
        np.testing.assert_array_equal(table.ready_us,
                                      fast.arrivals_us[15::16])
        assert (table.queue_depth[1:-1] > 0).all()   # a backlog

    def test_negative_index_and_past_end(self):
        report = simulate_serving(linear_latency, 20_000, num_requests=300,
                                  registry=MetricRegistry())
        table = report.batches
        n = len(table)
        assert table[-1] == table[n - 1]
        assert table[-1].index == n - 1
        assert table[-n] == table[0]
        assert table[0].to_dict()["size"] == int(table.size[0])
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                table[k]

    def test_survives_pickling(self):
        # simulate_fleet(jobs=2) ships replica reports between processes
        report = simulate_serving(linear_latency, 20_000, num_requests=300,
                                  registry=MetricRegistry())
        again = pickle.loads(pickle.dumps(report))
        assert_same_columns(report.batches, again.batches)
        assert [b.to_dict() for b in again.batches] == \
            [b.to_dict() for b in report.batches]


class TestDeadlines:
    def test_deadline_shorter_than_min_batch_latency_aborts_all(self):
        # 100us deadline < 152us best-case service: nothing can serve,
        # and each request burns its full retry budget first
        res = ResilienceConfig(deadline_us=100.0, max_retries=2)
        report = resilient(qps=5_000, res=res, n=200)
        assert report.availability == 0.0
        assert (report.status == STATUS_TIMEOUT).all()
        assert (report.attempts == 3).all()
        assert np.isnan(report.p99_us)       # percentiles are served-only
        assert np.isfinite(report.abort_us).all()
        assert_attribution_invariant(report)

    def test_loose_deadline_serves_everything(self):
        res = ResilienceConfig(deadline_us=100_000.0, max_retries=2)
        report = resilient(qps=5_000, res=res, n=400)
        assert report.availability == 1.0

    def test_retry_storm_recovers_some_requests(self):
        # over capacity + tight deadline: timeouts spawn retries, some
        # of which land in luckier batches and serve
        res = ResilienceConfig(deadline_us=450.0, max_retries=3,
                               retry_backoff_us=50.0, backoff_cap_us=400.0)
        report = resilient(qps=30_000, batching=TIGHT_BATCHING, res=res,
                           n=800)
        counts = report.counts_by_status()
        assert counts["served"] > 0
        assert counts["timeout"] > 0
        assert float(report.attempts.mean()) > 1.0
        retried = report.attempts > 1
        assert (report.retry_overhead_us[retried] > 0).all()
        assert (report.retry_overhead_us[~retried] == 0).all()
        assert_attribution_invariant(report)

    def test_backoff_is_capped(self):
        res = ResilienceConfig(deadline_us=100.0, max_retries=6,
                               retry_backoff_us=100.0, backoff_cap_us=800.0)
        assert res.backoff_us(0) == 100.0
        assert res.backoff_us(2) == 400.0
        assert res.backoff_us(5) == 800.0   # capped, not 3200


class TestCardFailures:
    def test_all_cards_dead_from_start(self):
        plan = FaultPlan(events=(
            FaultEvent(start=0.0, kind="card.failure", target=-1,
                       duration=PERMANENT),))
        res = ResilienceConfig(num_cards=2, max_retries=1)
        report = resilient(qps=10_000, res=res, n=150, plan=plan)
        assert report.availability == 0.0
        assert (report.status == STATUS_FAILED).all()
        assert (report.attempts == 2).all()
        assert report.qps_served == 0.0
        assert_attribution_invariant(report)

    def test_one_card_dies_survivors_absorb(self):
        # one of two cards dies permanently mid-run; requests arriving
        # after the failure still serve on the survivor
        fail_at = 15_000.0
        plan = FaultPlan(events=(
            FaultEvent(start=fail_at, kind="card.failure", target=0,
                       duration=PERMANENT),))
        res = ResilienceConfig(num_cards=2, max_retries=2)
        report = resilient(qps=15_000, batching=TIGHT_BATCHING, res=res,
                           n=600, plan=plan)
        late = report.arrivals_us > fail_at
        assert late.any()
        assert report.availability == 1.0
        assert (report.status[late] == STATUS_SERVED).all()
        assert_attribution_invariant(report)

    def test_transient_failure_kills_inflight_batch_then_recovers(self):
        # a mid-execute outage: the in-flight batch dies and retries
        plan = FaultPlan(events=(
            FaultEvent(start=300.0, kind="card.failure", target=0,
                       duration=400.0),))
        res = ResilienceConfig(num_cards=1, max_retries=2)
        report = resilient(qps=20_000, batching=TIGHT_BATCHING, res=res,
                           n=60, plan=plan)
        assert report.availability == 1.0
        assert (report.attempts > 1).any()
        assert_attribution_invariant(report)

    def test_card_slowdown_stretches_execute(self):
        plan = FaultPlan(events=(
            FaultEvent(start=0.0, kind="card.slowdown", target=-1,
                       duration=PERMANENT, magnitude=3.0),))
        slow = resilient(qps=1_000, n=300, plan=plan)
        # batch composition may shift (slower service backs the queue
        # up), so check per-request against each batch's own size
        sizes = slow.batches.size[slow.batch_index]
        np.testing.assert_allclose(slow.execute_us,
                                   3.0 * (150.0 + 2.0 * sizes))
        assert slow.availability == 1.0


class TestShedding:
    def test_overload_sheds_beyond_depth(self):
        res = ResilienceConfig(shed_queue_depth=32)
        report = resilient(qps=80_000, batching=TIGHT_BATCHING, res=res,
                           n=800)
        counts = report.counts_by_status()
        assert counts["shed"] > 0
        assert counts["served"] + counts["shed"] == 800
        assert report.availability < 1.0
        assert_attribution_invariant(report)

    def test_shedding_bounds_served_latency(self):
        res = ResilienceConfig(shed_queue_depth=32)
        shed = resilient(qps=80_000, batching=TIGHT_BATCHING, res=res,
                         n=800)
        unshed = resilient(qps=80_000, batching=TIGHT_BATCHING, n=800)
        # the shed run serves fewer requests but far faster
        assert shed.availability < 1.0
        assert shed.p99_us < 0.5 * unshed.p99_us


class TestAbortedRequestAccounting:
    """Satellite regression: aborts are excluded from percentiles but
    counted against availability (and always burn SLO budget)."""

    @pytest.fixture()
    def mixed(self):
        res = ResilienceConfig(deadline_us=450.0, max_retries=1,
                               retry_backoff_us=50.0)
        return resilient(qps=30_000, batching=TIGHT_BATCHING, res=res,
                         n=800)

    def test_percentiles_are_served_only(self, mixed):
        mask = mixed.served_mask
        assert 0 < mask.sum() < mask.size
        expected = float(np.percentile(mixed.latencies_us[mask], 99.0))
        assert mixed.p99_us == expected
        # aborted latencies would otherwise drag the percentile around
        polluted = float(np.percentile(mixed.latencies_us, 99.0))
        assert mixed.p99_us != polluted

    def test_availability_counts_aborts(self, mixed):
        counts = mixed.counts_by_status()
        assert mixed.availability == counts["served"] / 800.0
        assert sum(counts.values()) == 800

    def test_slo_counts_aborts_as_violations(self, mixed):
        slo = slo_from_report(mixed, sla_us=1_000.0)
        counts = mixed.counts_by_status()
        aborted = 800 - counts["served"]
        assert slo.aborted == aborted
        assert slo.total == 800
        assert slo.violations >= aborted
        window_aborts = sum(w.count for w in slo.windows)
        assert window_aborts == 800

    def test_breakdown_means_are_served_only(self, mixed):
        mask = mixed.served_mask
        means = mixed.breakdown_means()
        assert means["execute"] == pytest.approx(
            float(mixed.execute_us[mask].mean()))
        assert means["retry_overhead"] == pytest.approx(
            float(mixed.retry_overhead_us[mask].mean()))

    def test_request_rows_carry_status(self, mixed):
        rows = mixed.request_rows(limit=50)
        assert {"status", "attempts", "retry_overhead_us"} <= rows[0].keys()
        assert {r["status"] for r in rows} <= {"served", "shed", "timeout",
                                               "failed"}


class TestConfigValidation:
    def test_bad_num_cards_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(num_cards=0)

    @pytest.mark.parametrize("field", ["deadline_us", "max_retries",
                                       "retry_backoff_us", "backoff_cap_us",
                                       "shed_queue_depth"])
    def test_negative_knobs_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            ResilienceConfig(**{field: -1})

    @pytest.mark.parametrize("field, value", [
        ("retry_backoff_us", float("nan")), ("deadline_us", float("nan")),
        ("backoff_cap_us", float("inf")), ("deadline_us", float("inf")),
        ("max_retries", 1.5), ("shed_queue_depth", 2.5),
        ("num_cards", 2.0), ("max_retries", True)])
    def test_non_finite_times_and_fractional_counts_rejected(self, field,
                                                             value):
        # a NaN backoff used to spin simulate_serving forever, a NaN
        # deadline silently disabled timeouts
        with pytest.raises(ValueError, match=field):
            ResilienceConfig(**{field: value})

    def test_invalid_qps_rejected(self):
        with pytest.raises(ValueError):
            simulate_serving(linear_latency, qps=0.0,
                             registry=MetricRegistry())


class TestDeterminism:
    def test_same_seed_and_plan_replay_exactly(self):
        plan = FaultPlan.generate(5, kinds=("card.failure",
                                            "card.slowdown"))
        res = ResilienceConfig(num_cards=2, deadline_us=2_000.0,
                               max_retries=2, shed_queue_depth=64)
        a = resilient(qps=40_000, batching=TIGHT_BATCHING, res=res,
                      n=500, plan=plan)
        b = resilient(qps=40_000, batching=TIGHT_BATCHING, res=res,
                      n=500, plan=plan)
        for name in ("latencies_us", "status", "attempts",
                     "retry_overhead_us", "abort_us", "batch_index"):
            np.testing.assert_array_equal(getattr(a, name),
                                          getattr(b, name), err_msg=name)

    def test_metrics_record_availability_and_outcomes(self):
        registry = MetricRegistry()
        res = ResilienceConfig(deadline_us=100.0, max_retries=0)
        simulate_serving(linear_latency, qps=5_000, resilience=res,
                         num_requests=100, registry=registry)
        text = registry.to_prometheus()
        assert "serving_availability" in text
        assert "serving_outcomes" in text
