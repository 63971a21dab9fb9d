"""Request-level serving observability: phase attribution, SLO, tail."""

import numpy as np
import pytest

from repro.obs.metrics import MetricRegistry
from repro.serving import (BatchingConfig, ResilienceConfig, SLOMonitor,
                           attribute_tail, simulate_serving,
                           slo_from_report)
from repro.serving.slo import SLOSummary
from repro.serving.telemetry import emit_exemplar_spans
from repro.sim.trace import Tracer


def linear_latency(batch):
    return 100.0 + 2.0 * batch


def run(qps=10_000, n=2000, seed=0, **kw):
    return simulate_serving(linear_latency, qps, num_requests=n,
                            seed=seed, **kw)


class TestPhaseAttribution:
    def test_phases_sum_to_latency_exactly(self):
        for qps in (500, 10_000, 400_000):
            report = run(qps=qps)
            total = (report.queue_wait_us + report.batch_wait_us
                     + report.execute_us)
            np.testing.assert_allclose(total, report.latencies_us,
                                       rtol=0, atol=1e-6)

    def test_phases_nonnegative(self):
        report = run(qps=300_000)
        assert (report.queue_wait_us >= 0).all()
        assert (report.batch_wait_us >= 0).all()
        assert (report.execute_us >= 0).all()

    def test_low_load_has_no_queueing(self):
        # At 100 QPS with ~102us service, the device is idle when each
        # window expires: all pre-dispatch wait is batch formation.
        report = run(qps=100, n=500)
        assert float(report.queue_wait_us.max()) == pytest.approx(0.0)
        assert report.batch_wait_us.max() > 0

    def test_overload_shows_queueing(self):
        report = run(qps=400_000)
        assert report.breakdown_means()["queue_wait"] > 0

    def test_execute_matches_batch_latency(self):
        report = run()
        for r in range(0, 2000, 97):
            batch = report.batches[int(report.batch_index[r])]
            assert report.execute_us[r] == pytest.approx(
                linear_latency(batch.size))

    def test_breakdown_means_keys(self):
        means = run(n=200).breakdown_means()
        assert set(means) == {"queue_wait", "batch_wait", "execute",
                              "retry_overhead"}


class TestBatchRecords:
    def test_records_consistent(self):
        report = run()
        assert len(report.batches) == len(report.batch_sizes)
        for k, b in enumerate(report.batches):
            assert b.index == k
            assert b.size == report.batch_sizes[k]
            assert b.first_arrival_us <= b.ready_us <= b.dispatch_us
            assert b.finish_us == pytest.approx(
                b.dispatch_us + linear_latency(b.size))
            assert b.queue_depth >= 0

    def test_batch_index_covers_all_requests(self):
        report = run(n=1234)
        sizes = np.bincount(report.batch_index.astype(int),
                            minlength=len(report.batches))
        np.testing.assert_array_equal(sizes, report.batch_sizes)

    def test_queue_depth_series_aligned(self):
        report = run()
        series = report.queue_depth_series()
        assert len(series["time_us"]) == len(series["depth"]) == len(
            report.batches)

    def test_occupancy_series_bounded(self):
        report = run(qps=400_000,
                     batching=BatchingConfig(max_batch=32, max_wait_us=100))
        occ = report.batch_occupancy_series(32)["occupancy"]
        assert occ and all(0 < o <= 1.0 for o in occ)
        assert max(occ) == pytest.approx(1.0)   # overload fills batches

    def test_request_rows_capped_and_complete(self):
        report = run(n=500)
        rows = report.request_rows(limit=10)
        assert len(rows) == 10
        row = rows[0]
        assert row["latency_us"] == pytest.approx(
            row["queue_wait_us"] + row["batch_wait_us"]
            + row["execute_us"])
        assert len(report.request_rows()) == 500


class TestEmptyAndEdgeCases:
    def test_percentile_nan_on_empty(self):
        report = run(n=0)
        assert np.isnan(report.percentile(99))
        assert report.qps_served == 0.0
        assert report.busy_fraction == 0.0
        assert not report.meets_sla(1e9)
        assert report.breakdown_means() == {"queue_wait": 0.0,
                                            "batch_wait": 0.0,
                                            "retry_overhead": 0.0,
                                            "execute": 0.0}

    def test_tail_attribution_empty(self):
        tail = attribute_tail(run(n=0))
        assert tail.tail_requests == 0
        assert np.isnan(tail.tail_threshold_us)


def batch0_waterfall(report):
    """The waterfalls of batch 0's requests, drawn after the run."""
    spans = Tracer(enabled=True)
    emit_exemplar_spans(report, np.flatnonzero(report.batch_index == 0),
                        spans)
    return spans


class TestSpansFromServing:
    def test_traced_batches_emit_waterfall(self):
        report = run(n=300)
        spans = batch0_waterfall(report)
        batch0 = spans.find("batch0")
        assert len(batch0) == 1
        req_spans = spans.find("req0")
        assert len(req_spans) == 1
        children = {s.name for s in spans.children_of(req_spans[0])}
        assert "execute" in children
        assert children <= {"batch_wait", "queue_wait", "execute"}
        # request flow-links into the batch's device span
        assert set(batch0[0].flow_in) & set(req_spans[0].flow_out)
        # untraced batches left nothing
        assert not spans.find(f"batch{len(report.batches) - 1}")

    def test_request_phase_spans_tile_the_request(self):
        spans = batch0_waterfall(run(n=300))
        req = spans.find("req0")[0]
        children = sorted(spans.children_of(req),
                          key=lambda s: s.start)
        assert children[0].start == pytest.approx(req.start)
        assert children[-1].end == pytest.approx(req.end)
        for a, b in zip(children, children[1:]):
            assert a.end == pytest.approx(b.start)


class TestMetricsRecording:
    def test_registry_receives_serving_instruments(self):
        reg = MetricRegistry()
        report = run(registry=reg)
        lat = reg.histogram("serving_latency_us").labels()
        assert lat.count == 2000
        assert lat.p99 == pytest.approx(report.p99_us, rel=0.02)
        phases = reg.histogram("serving_phase_us")
        assert phases.labels(phase="execute").count == 2000
        assert reg.counter("serving_requests").labels().value == 2000
        assert (reg.histogram("serving_queue_depth").labels().count
                == len(report.batches))
        occ = reg.gauge("serving_batch_occupancy").labels().value
        assert occ == pytest.approx(report.mean_batch / 256)


class TestSLO:
    def test_burn_rate_zero_when_all_meet_sla(self):
        slo = slo_from_report(run(), sla_us=1e9)
        assert slo.violations == 0
        assert slo.burn_rate == 0.0
        assert slo.budget_remaining == 1.0

    def test_burn_rate_scales_with_violation_rate(self):
        # SLA below every latency: 100% violations vs 0.1% allowed.
        slo = slo_from_report(run(), sla_us=1.0,
                              availability_target=0.999)
        assert slo.violation_rate == 1.0
        assert slo.burn_rate == pytest.approx(1000.0)
        assert slo.budget_remaining < 0

    def test_windows_partition_all_requests(self):
        report = run()
        slo = slo_from_report(report, sla_us=2000, window_us=20_000)
        assert sum(w.count for w in slo.windows) == 2000
        for w in slo.windows:
            assert w.end_us - w.start_us == pytest.approx(20_000)
            assert 0 <= w.violations <= w.count

    def test_peak_window_burn_at_least_mean(self):
        slo = slo_from_report(run(qps=300_000), sla_us=2_000)
        assert slo.peak_window_burn >= slo.burn_rate

    def test_streaming_monitor_matches_one_shot(self):
        report = run(n=500)
        monitor = SLOMonitor(sla_us=700.0)
        for finish, lat in zip(report.arrivals_us + report.latencies_us,
                               report.latencies_us):
            monitor.observe(finish, lat)
        assert monitor.summary().to_dict() == slo_from_report(
            report, 700.0).to_dict()

    def test_empty_monitor(self):
        summary = SLOMonitor(sla_us=100.0).summary()
        assert isinstance(summary, SLOSummary)
        assert summary.total == 0
        assert summary.burn_rate == 0.0
        assert summary.windows == []

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SLOMonitor(sla_us=100.0, availability_target=1.5)
        with pytest.raises(ValueError):
            SLOMonitor(sla_us=100.0, window_us=0)


class TestTailAttribution:
    def test_cohorts_and_threshold(self):
        report = run()
        tail = attribute_tail(report)
        assert tail.tail_threshold_us == pytest.approx(report.p99_us)
        assert 0 < tail.tail_requests <= report.latencies_us.size * 0.02
        assert tail.median_requests > tail.tail_requests

    def test_tail_slower_in_every_phase_total(self):
        tail = attribute_tail(run(qps=200_000))
        t = sum(tail.phase_us["tail"].values())
        m = sum(tail.phase_us["median"].values())
        assert t > m
        assert tail.phase_us["delta"] == {
            k: pytest.approx(tail.phase_us["tail"][k]
                             - tail.phase_us["median"][k])
            for k in tail.phase_us["delta"]}

    def test_category_mix_requires_model(self):
        tail = attribute_tail(run())
        assert tail.category_mix == {}

        class FakeModel:
            def category_fractions(self, batch):
                return {"fc": 0.75, "eb": 0.25}

        tail = attribute_tail(run(), FakeModel())
        assert tail.category_mix["tail"]["fc"] == pytest.approx(0.75)
        assert sum(tail.category_mix["median"].values()) == pytest.approx(1)

    def test_stall_mix_passthrough_with_delta(self):
        mix = {"tail": {"dram_queue": 0.6, "dep_interlock": 0.4},
               "median": {"dram_queue": 0.2, "dep_interlock": 0.8}}
        tail = attribute_tail(run(), stall_mix=mix)
        assert tail.stall_mix["delta"]["dram_queue"] == pytest.approx(0.4)

    def test_exemplar_batches_valid(self):
        report = run()
        tail = attribute_tail(report)
        for k in tail.exemplar_batches.values():
            assert 0 <= k < len(report.batches)
        worst = int(np.argmax(report.latencies_us))
        assert tail.exemplar_batches["tail"] == int(
            report.batch_index[worst])

    def test_to_text_renders_diff_tables(self):
        tail = attribute_tail(run(), stall_mix={
            "tail": {"dram_queue": 1.0}, "median": {"dram_queue": 1.0}})
        text = tail.to_text()
        assert "queue_wait" in text
        assert "batch size" in text
        assert "dram_queue" in text

    def test_cohorts_cover_served_requests_only(self):
        # 1 656 of these 3 000 requests are shed at admission: they have
        # no batch and no latency a cohort could use
        report = simulate_serving(
            lambda b: 150.0 + 2.0 * b, 200_000.0, BatchingConfig(16, 100.0),
            resilience=ResilienceConfig(shed_queue_depth=16,
                                        deadline_us=600.0, max_retries=1,
                                        retry_backoff_us=50.0),
            num_requests=3000, seed=3, registry=None)
        served = np.flatnonzero(report.served_mask)
        assert 0 < served.size < report.latencies_us.size
        tail = attribute_tail(report)
        assert tail.tail_threshold_us == report.p99_us
        assert tail.tail_requests + tail.median_requests <= served.size
        for k in tail.exemplar_batches.values():
            assert 0 <= k < len(report.batches)
        assert set(tail.phase_us["tail"]) == set(report.phases)
