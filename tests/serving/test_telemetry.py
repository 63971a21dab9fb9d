"""ServingTelemetry: derivation, merging, exemplar span fidelity."""

import json

import numpy as np
import pytest

from repro.serving.resilience import ResilienceConfig
from repro.serving.simulator import BatchingConfig, simulate_serving
from repro.serving.telemetry import (PHASES, ServingTelemetry,
                                     emit_exemplar_spans)
from repro.sim.trace import Tracer


def model(batch: int) -> float:
    return 120.0 + 2.0 * batch


BATCHING = BatchingConfig(max_batch=32, max_wait_us=150.0)


def run(seed=7, n=2_000, **kwargs):
    kwargs.setdefault("registry", None)
    return simulate_serving(model, qps=30_000, batching=BATCHING,
                            num_requests=n, seed=seed, **kwargs)


class TestDerivation:
    def test_from_report_counts_and_quantiles(self):
        report = run()
        tel = ServingTelemetry.from_report(report)
        assert tel.num_requests == 2_000
        assert tel.latency.count == 2_000
        for q in (50, 95, 99):
            exact = float(np.percentile(report.latencies_us, q))
            assert abs(tel.latency.percentile(q) - exact) <= 0.0101 * exact

    def test_phase_sketches_cover_attribution(self):
        report = run()
        tel = ServingTelemetry.from_report(report)
        for name in PHASES:
            assert tel.phases[name].count == 2_000
        # no retries without a resilience config: the phase is all zeros
        assert tel.phases["retry_overhead"].max == 0.0
        assert set(PHASES) == set(tel.phases)

    def test_collect_telemetry_flag_attaches_and_is_noop(self):
        plain = run(collect_telemetry=False)
        collected = run(collect_telemetry=True, replica=3)
        assert plain.telemetry is None
        assert collected.telemetry is not None
        assert collected.telemetry.replicas == [3]
        assert np.array_equal(plain.latencies_us, collected.latencies_us)
        assert np.array_equal(plain.arrivals_us, collected.arrivals_us)

    def test_aborted_requests_excluded_from_latency_counted_in_status(self):
        report = simulate_serving(
            model, qps=60_000, batching=BatchingConfig(max_batch=4),
            resilience=ResilienceConfig(shed_queue_depth=8),
            num_requests=2_000, seed=1, registry=None,
            collect_telemetry=True)
        tel = report.telemetry
        counts = report.counts_by_status()
        assert counts["shed"] > 0
        assert tel.status_counts == counts
        assert tel.latency.count == counts["served"]
        assert all(r.status == "served" for r in tel.exemplars.slowest)

    def test_series_signals(self):
        report = run(collect_telemetry=True)
        tel = report.telemetry
        assert tel.series["requests"].count == 2_000
        assert tel.series["latency_us"].count == 2_000
        assert tel.series["queue_depth"].count == len(report.batches)

    def test_sketch_vs_exact_within_bound(self):
        report = run()
        tel = ServingTelemetry.from_report(report)
        deltas = tel.sketch_vs_exact(report)
        assert set(deltas) == {"p50", "p95", "p99"}
        for row in deltas.values():
            assert row["relative_error"] <= 0.0101


class TestMerge:
    def make_parts(self, count=3):
        parts = []
        for i in range(count):
            report = run(seed=10 + i, n=800)
            parts.append(ServingTelemetry.from_report(report, replica=i))
        return parts

    def test_merge_all_any_order_is_byte_identical(self):
        parts = self.make_parts()

        def merged(order):
            tel = ServingTelemetry.merge_all([parts[i] for i in order])
            return json.dumps(tel.to_dict(include_state=True),
                              sort_keys=True)

        assert merged((0, 1, 2)) == merged((2, 1, 0)) == merged((1, 0, 2))

    def test_merge_sums_requests_and_replicas(self):
        parts = self.make_parts()
        tel = ServingTelemetry.merge_all(parts)
        assert tel.num_requests == 2_400
        assert tel.replicas == [0, 1, 2]
        assert tel.latency.count == 2_400

    def test_merge_all_leaves_its_parts_alone(self):
        parts = self.make_parts()
        before = [json.dumps(p.to_dict(include_state=True), sort_keys=True)
                  for p in parts]
        merged = ServingTelemetry.merge_all(parts)
        assert all(merged is not p for p in parts)
        assert [json.dumps(p.to_dict(include_state=True), sort_keys=True)
                for p in parts] == before

    def test_merge_rejects_mismatched_windows(self):
        a = ServingTelemetry(window_us=50_000.0)
        b = ServingTelemetry(window_us=10_000.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_all_empty_raises(self):
        with pytest.raises(ValueError):
            ServingTelemetry.merge_all([])


class TestExemplarSpans:
    def test_slowest_k_spans_match_full_tracer(self):
        """The slowest-k waterfalls are the rows a trace of every
        request draws for them."""
        report = run(collect_telemetry=True)
        slow_ids = [rid for _rep, rid
                    in report.telemetry.exemplars.slowest_ids()]
        assert len(slow_ids) == 8

        live = Tracer(enabled=True)
        emit_exemplar_spans(report, range(report.latencies_us.size), live)
        post = Tracer(enabled=True)
        emitted = emit_exemplar_spans(report, slow_ids, post)
        assert emitted == sorted(slow_ids)

        for rid in slow_ids:
            track = f"request.{rid}"
            expect = sorted((s.name, s.start, s.end)
                            for s in live.spans_on(track))
            got = sorted((s.name, s.start, s.end)
                         for s in post.spans_on(track))
            assert got == expect, f"request {rid} waterfall differs"

    def test_phase_spans_match_the_report_arrays(self):
        """Retried requests get a retry_overhead span; every phase span
        is as wide as the report's attribution."""
        report = run(resilience=ResilienceConfig(
            deadline_us=250.0, max_retries=2, retry_backoff_us=50.0))
        spans = Tracer(enabled=True)
        drawn = emit_exemplar_spans(report, range(report.latencies_us.size),
                                    spans)
        assert drawn == list(np.flatnonzero(report.batch_index >= 0))
        assert report.retry_overhead_us[drawn].max() > 0
        for req in spans.spans:
            if not req.name.startswith("req"):
                continue
            r = int(req.name[3:])
            widths = {s.name: s.duration for s in spans.children_of(req)}
            for phase in PHASES:
                want = getattr(report, f"{phase}_us")[r]
                assert widths.get(phase, 0.0) == pytest.approx(want,
                                                               abs=1e-6)

    def test_spans_sum_to_latency(self):
        report = run(collect_telemetry=True)
        for record in report.telemetry.exemplars.slowest:
            total = (record.queue_wait_us + record.batch_wait_us
                     + record.execute_us + record.retry_overhead_us)
            assert total == pytest.approx(record.latency_us, abs=1e-6)

    def test_disabled_tracer_is_noop(self):
        report = run(collect_telemetry=True)
        tracer = Tracer(enabled=False)
        assert emit_exemplar_spans(report, [0, 1], tracer) == []
        assert not tracer.spans

    def test_out_of_range_ids_skipped(self):
        report = run(collect_telemetry=True, n=100)
        tracer = Tracer(enabled=True)
        emitted = emit_exemplar_spans(report, [-1, 5, 10 ** 6], tracer)
        assert emitted == [5]


class TestExportAndDetection:
    def test_to_dict_canonical(self):
        report = run(collect_telemetry=True)
        d = report.telemetry.to_dict()
        assert set(d["series"]) == {"requests", "latency_us",
                                    "queue_depth"}
        assert d["num_requests"] == 2_000
        assert d["latency"]["count"] == 2_000
        # stable under repeated export
        assert json.dumps(d, sort_keys=True) == json.dumps(
            report.telemetry.to_dict(), sort_keys=True)

    def test_record_into_registry_prometheus(self):
        from repro.obs.metrics import MetricRegistry
        registry = MetricRegistry()
        report = run(collect_telemetry=True, registry=registry)
        prom = registry.to_prometheus()
        assert "repro_serving_latency_sketch_us" in prom
        assert 'quantile="0.99"' in prom
        assert "repro_serving_request_rate" in prom

    def test_anomaly_sweep_deterministic(self):
        report = run(collect_telemetry=True)
        first = [r.to_dict() for r in report.telemetry.anomalies()]
        second = [r.to_dict() for r in report.telemetry.anomalies()]
        assert first == second
        assert [r["stat"] for r in first] == [
            "requests.rate", "latency_us.p99", "queue_depth.mean"]

    def test_to_text_smoke(self):
        report = run(collect_telemetry=True)
        text = report.telemetry.to_text()
        assert "latency sketch" in text
        assert "slowest requests" in text
