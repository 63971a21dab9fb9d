"""Serving/fleet critical paths and the observed-latency feed.

The load-bearing claim: ``path.total`` reproduces the simulator's own
latency arithmetic *bit-for-bit* — for every request, every routing
policy, faults, retries, and hedged duplicates included.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, FaultProfile, \
    generate_fleet_plan
from repro.obs.critical import (fleet_critical_path,
                                serving_critical_path,
                                slowest_critical_paths)
from repro.serving.fleet import (ROUTING_POLICIES, FleetConfig,
                                 RouterConfig, TabularLatencyModel,
                                 simulate_fleet, uniform_fleet)
from repro.serving.resilience import ResilienceConfig
from repro.serving.simulator import BatchingConfig, simulate_serving
from repro.serving.traffic import trace_preset


def model(batch: int) -> float:
    return 120.0 + 2.0 * batch


BATCHING = BatchingConfig(max_batch=32, max_wait_us=150.0)

#: saturating hedge fleet: router-view utilisation > 1 so the hedge
#: policy actually fires (185 hedge wins at these settings)
HEDGE_MODEL = TabularLatencyModel(
    batches=(1, 4, 16, 64, 256),
    latency_us=tuple(150.0 + 2.0 * b for b in (1, 4, 16, 64, 256)))


def hedge_fleet():
    config = FleetConfig(
        replicas=uniform_fleet(3, racks=2, power_domains=2),
        router=RouterConfig(policy="hedge", route_latency_us=15.0,
                            seed=7, hedge_backlog_us=50.0,
                            hedge_delay_us=25.0),
        batching=BatchingConfig(max_batch=16, max_wait_us=200.0),
        resilience=ResilienceConfig(deadline_us=20_000.0, max_retries=1))
    trace = replace(trace_preset("flash_crowd", target_qps=300_000.0),
                    duration_us=20_000.0)
    return simulate_fleet(HEDGE_MODEL, trace, config)


def assert_paths_exact(report, extractor, indices):
    for i in indices:
        path = extractor(report, int(i)).verify()
        assert path.total == float(report.latencies_us[i]), \
            f"request {i}: path total diverges from stored latency"
        assert math.fsum(s.duration for s in path.segments) \
            == pytest.approx(path.total, abs=1e-9)


class TestServingPaths:
    def test_every_request_sums_bitwise(self):
        report = simulate_serving(model, qps=30_000, batching=BATCHING,
                                  num_requests=500, seed=7,
                                  registry=None)
        assert_paths_exact(report, serving_critical_path,
                           range(report.latencies_us.size))

    def test_resilient_with_faults_and_sheds(self):
        plan = FaultPlan.generate(
            3, FaultProfile(horizon_us=30_000.0),
            kinds=("card.failure", "card.slowdown"))
        report = simulate_serving(
            model, qps=60_000, batching=BatchingConfig(max_batch=4),
            resilience=ResilienceConfig(shed_queue_depth=8,
                                        deadline_us=4_000.0,
                                        max_retries=1),
            num_requests=800, seed=1, registry=None,
            faults=FaultInjector(plan))
        statuses = set(report.counts_by_status())
        assert "served" in statuses
        assert_paths_exact(report, serving_critical_path,
                           range(report.latencies_us.size))
        # non-served paths end at the abort stamp, not a batch finish
        for i in np.flatnonzero(~report.served_mask)[:20]:
            path = serving_critical_path(report, int(i))
            assert path.attrs["status"] != "served"
            assert path.segments[-1].resource == "abort"

    def test_out_of_range_rejected(self):
        report = simulate_serving(model, qps=30_000, batching=BATCHING,
                                  num_requests=10, seed=7, registry=None)
        with pytest.raises(IndexError):
            serving_critical_path(report, 10)


class TestFleetPaths:
    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_every_policy_sums_bitwise(self, policy):
        config = FleetConfig(
            replicas=uniform_fleet(3, racks=2, power_domains=2),
            router=RouterConfig(policy=policy, route_latency_us=10.0,
                                seed=2),
            resilience=ResilienceConfig(deadline_us=6_000.0,
                                        max_retries=1))
        trace = replace(trace_preset("steady", target_qps=300_000.0),
                        duration_us=10_000.0)
        plan = generate_fleet_plan(5, config.replicas,
                                   horizon_us=10_000.0)
        report = simulate_fleet(HEDGE_MODEL, trace, config,
                                fault_plan=plan)
        assert_paths_exact(report, fleet_critical_path,
                           range(report.latencies_us.size))

    def test_hedge_wins_carry_hedge_segment(self):
        report = hedge_fleet()
        assert report.hedged_requests > 0
        assert report.hedge_wins > 0
        assert_paths_exact(report, fleet_critical_path,
                           range(report.latencies_us.size))
        won = np.flatnonzero(report.hedge_wait_us > 0)
        assert won.size == report.hedge_wins
        for i in won[:25]:
            path = fleet_critical_path(report, int(i))
            assert path.attrs["hedge_won"] is True
            kinds = {s.kind for s in path.segments}
            assert "hedge_wait" in kinds and "route_overhead" in kinds

    def test_router_hop_is_first_segment(self):
        report = hedge_fleet()
        path = fleet_critical_path(report, 0)
        assert path.segments[0].resource == "router"
        assert path.segments[0].duration == 15.0


class TestSlowestPaths:
    def test_serving_selection_is_descending_and_served_only(self):
        report = simulate_serving(model, qps=30_000, batching=BATCHING,
                                  num_requests=400, seed=7,
                                  registry=None)
        paths = slowest_critical_paths(report, k=6)
        assert len(paths) == 6
        totals = [p.total for p in paths]
        assert totals == sorted(totals, reverse=True)
        assert totals[0] == float(report.latencies_us.max())

    def test_fleet_dispatch(self):
        report = hedge_fleet()
        paths = slowest_critical_paths(report, k=4)
        assert len(paths) == 4
        assert all("replica" in p.attrs for p in paths)
        served = report.latencies_us[report.served_mask]
        assert paths[0].total == float(served.max())

    def test_k_zero_and_empty(self):
        report = simulate_serving(model, qps=30_000, batching=BATCHING,
                                  num_requests=10, seed=7, registry=None)
        assert slowest_critical_paths(report, k=0) == []


def observed_by_loop(report, window_us):
    """Reference feed: every served request, one ``add``/``record`` each,
    in completion order (the array path must give the same state)."""
    from repro.obs.sketch import QuantileSketch
    from repro.obs.timeseries import WindowedSeries
    sketches, series = {}, {}
    for spec in report.config.replicas:
        sketches[spec.replica] = QuantileSketch(0.01)
        series[spec.replica] = WindowedSeries(
            window_us, track_quantiles=True, relative_accuracy=0.01,
            name=f"replica{spec.replica}.observed_latency_us")
    completion = report.arrivals_us + report.latencies_us
    for i in np.argsort(completion, kind="stable").tolist():
        if report.served_mask[i]:
            r = int(report.replica[i])
            value = float(report.latencies_us[i])
            sketches[r].add(value)
            series[r].record(float(completion[i]), value)
    return sketches, series


class TestObservedFeed:
    @pytest.fixture(scope="class")
    def report(self):
        return hedge_fleet()

    @pytest.mark.parametrize("window_us", [5_000.0, 2_000.0, 130.0])
    def test_feed_equals_the_per_request_loop(self, report, window_us):
        feed = report.observed_latency(window_us=window_us)
        sketches, series = observed_by_loop(report, window_us)
        assert set(feed.sketches) == set(sketches)
        for r in sketches:
            assert feed.sketches[r].to_dict() == sketches[r].to_dict()
            assert (feed.series[r].to_dict(include_sketch_state=True)
                    == series[r].to_dict(include_sketch_state=True))

    def test_feed_matches_exact_quantiles(self, report):
        feed = report.observed_latency()
        served = report.served_mask
        for replica, sketch in feed.sketches.items():
            mask = served & (report.replica == replica)
            exact = report.latencies_us[mask]
            assert sketch.count == int(mask.sum())
            if exact.size:
                for q, got in ((50, sketch.p50), (95, sketch.p95),
                               (99, sketch.p99)):
                    want = float(np.percentile(exact, q))
                    assert abs(got - want) <= 0.0101 * want
                assert sketch.max == float(exact.max())

    def test_all_served_requests_counted_once(self, report):
        feed = report.observed_latency()
        total = sum(s.count for s in feed.sketches.values())
        assert total == int(report.served_mask.sum())

    def test_series_keyed_by_completion_time(self, report):
        feed = report.observed_latency(window_us=2_000.0)
        for replica, series in feed.series.items():
            assert series.count == feed.sketches[replica].count
            assert len(series) > 1   # completions span many windows
        assert feed.window_us == 2_000.0

    def test_service_estimates_cover_all_replicas(self, report):
        feed = report.observed_latency()
        assert set(feed.service_us) == {0, 1, 2}
        for value in feed.service_us.values():
            assert 0.0 < value < HEDGE_MODEL(16)

    def test_to_dict_shape_and_determinism(self, report):
        feed = report.observed_latency()
        data = feed.to_dict(max_windows=8)
        assert {row["replica"] for row in data["replicas"]} == {0, 1, 2}
        for row in data["replicas"]:
            assert set(row["latency_us"]) == {"p50", "p95", "p99", "max"}
            assert row["served"] > 0
        import json
        again = hedge_fleet().observed_latency().to_dict(max_windows=8)
        assert json.dumps(data, sort_keys=True) != ""
        assert json.dumps(feed.to_dict(max_windows=8), sort_keys=True) \
            == json.dumps(again, sort_keys=True)

    def test_fleet_to_dict_carries_feed(self, report):
        data = report.to_dict()
        assert "observed_latency" in data
        assert len(data["observed_latency"]["replicas"]) == 3
