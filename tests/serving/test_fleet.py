"""Fleet serving: router, replicas, faults, capacity."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultPlan, generate_fleet_plan
from repro.serving.capacity import plan_fleet_capacity
from repro.serving.fleet import (ROUTING_POLICIES, FleetConfig,
                                 ReplicaSpec, RouterConfig,
                                 TabularLatencyModel, route_requests,
                                 simulate_fleet, uniform_fleet)
from repro.serving.resilience import ResilienceConfig
from repro.serving.simulator import (STATUS_SERVED, BatchingConfig,
                                     simulate_serving)
from repro.serving.traffic import trace_preset

MODEL = TabularLatencyModel(batches=(1, 2, 4, 8, 16, 32, 64, 128, 256),
                            latency_us=(60, 65, 72, 85, 110, 160, 260,
                                        460, 860))


def short_trace(qps=300_000.0, name="steady", duration_us=15_000.0):
    return replace(trace_preset(name, target_qps=qps),
                   duration_us=duration_us)


def fleet_config(policy="round_robin", replicas=3, **router_kw):
    router_kw.setdefault("route_latency_us", 10.0)
    return FleetConfig(
        replicas=uniform_fleet(replicas, racks=2, power_domains=2),
        router=RouterConfig(policy=policy, **router_kw),
        resilience=ResilienceConfig(deadline_us=6_000.0, max_retries=1),
        racks=2, power_domains=2)


def assert_fleet_invariant(report):
    """queue + batch + retry + route + hedge + execute == latency."""
    total = (report.queue_wait_us + report.batch_wait_us
             + report.retry_overhead_us + report.route_overhead_us
             + report.hedge_wait_us + report.execute_us)
    np.testing.assert_allclose(total, report.latencies_us, atol=1e-6)


class TestLatencyModels:
    def test_tabular_rounds_up_to_next_candidate(self):
        assert MODEL(3) == 72.0
        assert MODEL(64) == 260.0
        assert MODEL(256) == 860.0
        with pytest.raises(ValueError, match="batch 257 exceeds the "
                           "largest modelled batch 256"):
            MODEL(257)

    def test_tabular_from_batch_model_matches(self):
        from repro.eval.machines import MACHINES
        from repro.models.configs import MODEL_ZOO
        from repro.serving.simulator import BatchLatencyModel
        base = BatchLatencyModel(MODEL_ZOO["LC2"], MACHINES["mtia"],
                                 candidate_batches=(1, 16, 256))
        table = TabularLatencyModel.from_batch_model(base)
        for batch in (1, 16, 256):
            assert table(batch) == pytest.approx(base(batch))

    def test_engine_refuses_batches_above_the_table(self):
        # saturated, the engine forms 257-request batches it cannot price
        with pytest.raises(ValueError, match="batch 257 exceeds"):
            simulate_serving(MODEL, qps=2_000_000.0,
                             batching=BatchingConfig(max_batch=257),
                             num_requests=2_000)

    def test_tabular_validation(self):
        with pytest.raises(ValueError):
            TabularLatencyModel(batches=(4, 1), latency_us=(1.0, 2.0))
        with pytest.raises(ValueError):
            TabularLatencyModel(batches=(), latency_us=())


class TestRouter:
    def test_round_robin_cycles(self):
        arrivals = np.arange(9, dtype=float) * 10.0
        specs = uniform_fleet(3)
        decision = route_requests(arrivals, RouterConfig(), specs,
                                  np.ones(3))
        assert list(decision.assigned) == [0, 1, 2] * 3

    def test_least_loaded_avoids_expensive_replica(self):
        arrivals = np.arange(40, dtype=float)  # near-simultaneous
        specs = uniform_fleet(2)
        cost = np.array([1000.0, 1.0])         # replica 0 is 1000x slower
        decision = route_requests(
            arrivals, RouterConfig(policy="least_loaded"), specs, cost)
        counts = np.bincount(decision.assigned, minlength=2)
        assert counts[1] > counts[0]

    def test_power_of_two_probes_are_recorded_and_distinct(self):
        arrivals = np.arange(200, dtype=float)
        specs = uniform_fleet(4)
        decision = route_requests(
            arrivals, RouterConfig(policy="power_of_two", seed=5), specs,
            np.ones(4), record_probes=True)
        assert decision.probes.shape == (200, 2)
        assert np.all(decision.probes[:, 0] != decision.probes[:, 1])
        # chosen replica is always one of the two probes
        chosen = decision.assigned
        assert np.all((chosen == decision.probes[:, 0])
                      | (chosen == decision.probes[:, 1]))

    def test_hedge_duplicates_only_above_backlog_threshold(self):
        arrivals = np.zeros(50)                # all at t=0: backlog piles up
        specs = uniform_fleet(2)
        decision = route_requests(
            arrivals, RouterConfig(policy="hedge", hedge_backlog_us=5.0),
            specs, np.ones(2) * 10.0)
        assert decision.num_hedged > 0
        no_hedge = route_requests(
            arrivals, RouterConfig(policy="hedge", hedge_backlog_us=1e9),
            specs, np.ones(2) * 10.0)
        assert no_hedge.num_hedged == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            RouterConfig(policy="random")


class TestFleetSimulation:
    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_attribution_invariant_all_policies(self, policy):
        report = simulate_fleet(MODEL, short_trace(),
                                fleet_config(policy, hedge_backlog_us=50.0))
        assert_fleet_invariant(report)
        assert report.conservation()["conserved"]

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_attribution_invariant_under_faults(self, policy):
        config = fleet_config(policy, hedge_backlog_us=50.0)
        plan = generate_fleet_plan(11, config.replicas,
                                   horizon_us=15_000.0,
                                   rack_failure_rate=1.0,
                                   power_failure_rate=1.0)
        assert not plan.empty
        report = simulate_fleet(MODEL, short_trace(), config,
                                fault_plan=plan)
        assert_fleet_invariant(report)
        assert report.conservation()["conserved"]

    def test_fleet_spreads_load_across_replicas(self):
        report = simulate_fleet(MODEL, short_trace(), fleet_config())
        per_replica = [r.arrivals_us.size for r in report.per_replica]
        assert all(n > 0 for n in per_replica)
        assert sum(per_replica) == report.arrivals_us.size

    def test_route_latency_shifts_every_latency(self):
        trace = short_trace()
        free = simulate_fleet(MODEL, trace.arrivals(0),
                              fleet_config(route_latency_us=0.0))
        tolled = simulate_fleet(MODEL, trace.arrivals(0),
                                fleet_config(route_latency_us=40.0))
        served = ((free.status == STATUS_SERVED)
                  & (tolled.status == STATUS_SERVED))
        np.testing.assert_allclose(
            tolled.latencies_us[served] - free.latencies_us[served], 40.0,
            atol=1e-6)

    def test_more_replicas_cut_the_tail_under_overload(self):
        trace = short_trace(qps=700_000.0)
        small = simulate_fleet(MODEL, trace,
                               fleet_config(policy="least_loaded",
                                            replicas=2))
        big = simulate_fleet(MODEL, trace,
                             fleet_config(policy="least_loaded",
                                          replicas=6))
        assert big.percentile(99) < small.percentile(99)

    def test_jobs_count_is_invisible_in_the_bytes(self):
        config = fleet_config("power_of_two")
        trace = short_trace()
        serial = simulate_fleet(MODEL, trace, config, jobs=1)
        parallel = simulate_fleet(MODEL, trace, config, jobs=4)
        assert (json.dumps(serial.to_dict(), sort_keys=True)
                == json.dumps(parallel.to_dict(), sort_keys=True))

    def test_heterogeneous_models_one_per_replica(self):
        slow = TabularLatencyModel(
            batches=MODEL.batches,
            latency_us=tuple(2.0 * x for x in MODEL.latency_us))
        report = simulate_fleet([MODEL, slow, MODEL],
                                short_trace(qps=500_000.0),
                                fleet_config("least_loaded"))
        counts = np.bincount(report.assigned, minlength=3)
        assert counts[1] < counts[0]  # router shuns the slow replica
        with pytest.raises(ValueError, match="latency models"):
            simulate_fleet([MODEL, slow], short_trace(), fleet_config())

    def test_telemetry_merges_all_replicas(self):
        report = simulate_fleet(MODEL, short_trace(), fleet_config())
        assert report.telemetry is not None
        total = sum(r.arrivals_us.size for r in report.per_replica)
        assert sum(report.telemetry.status_counts.values()) == total

    def test_correlated_rack_failure_degrades_availability(self):
        config = fleet_config(policy="round_robin", replicas=4)
        # one rack = replicas {0, 1}: both dark for most of the trace
        plan = FaultPlan(events=tuple(
            FaultEvent(start=1_000.0, kind="card.failure", target=t,
                       duration=13_000.0) for t in (0, 1)))
        clean = simulate_fleet(MODEL, short_trace(qps=400_000.0), config)
        faulted = simulate_fleet(MODEL, short_trace(qps=400_000.0),
                                 config, fault_plan=plan)
        assert faulted.availability < clean.availability
        faulted_rows = faulted.replica_rows()
        assert faulted_rows[0]["served"] < faulted_rows[2]["served"]

    def test_slo_from_report_consumes_fleet_report(self):
        from repro.serving.slo import slo_from_report
        report = simulate_fleet(MODEL, short_trace(), fleet_config())
        slo = slo_from_report(report, sla_us=2_000.0)
        assert slo.total == report.arrivals_us.size


class TestFaultPlanGeneration:
    def test_fleet_plan_is_seed_deterministic(self):
        specs = uniform_fleet(6, racks=3, power_domains=2)
        a = generate_fleet_plan(5, specs)
        b = generate_fleet_plan(5, specs)
        assert a.events == b.events
        assert a.events != generate_fleet_plan(6, specs).events

    def test_rack_failures_are_correlated(self):
        specs = uniform_fleet(6, racks=3, power_domains=1)
        plan = generate_fleet_plan(1, specs, rack_failure_rate=2.0,
                                   power_failure_rate=0.0,
                                   replica_slowdown_rate=0.0)
        failures = [e for e in plan.events if e.kind == "card.failure"]
        assert failures
        by_window = {}
        for event in failures:
            by_window.setdefault((event.start, event.duration),
                                 set()).add(event.target)
        racks = {s.rack: {p.replica for p in specs if p.rack == s.rack}
                 for s in specs}
        # every failure window covers exactly one whole rack
        assert all(targets in racks.values()
                   for targets in by_window.values())


class TestFleetCapacity:
    def test_returns_minimum_passing_size(self):
        trace = short_trace(qps=600_000.0)
        plan = plan_fleet_capacity(MODEL, trace, sla_us=1_200.0,
                                   policy="power_of_two",
                                   max_replicas=16)
        assert plan.feasible
        # the size below the answer must have failed its probe
        failed = {p["replicas"] for p in plan.probes if not p["ok"]}
        assert plan.replicas - 1 in failed or plan.replicas == 1
        assert plan.p99_us <= 1_200.0
        assert plan.availability >= 0.999

    def test_infeasible_is_reported_not_hidden(self):
        trace = short_trace(qps=600_000.0)
        plan = plan_fleet_capacity(MODEL, trace, sla_us=50.0,
                                   max_replicas=2)
        assert not plan.feasible
        assert plan.replicas == 2

    def test_capacity_answer_is_jobs_invariant(self):
        trace = short_trace(qps=500_000.0)
        a = plan_fleet_capacity(MODEL, trace, sla_us=1_500.0, jobs=1)
        b = plan_fleet_capacity(MODEL, trace, sla_us=1_500.0, jobs=4)
        assert (json.dumps(a.to_dict(), sort_keys=True)
                == json.dumps(b.to_dict(), sort_keys=True))


class TestConfigValidation:
    def test_replicas_must_be_numbered_in_order(self):
        with pytest.raises(ValueError, match="numbered"):
            FleetConfig(replicas=(ReplicaSpec(replica=1),))

    def test_uniform_fleet_topology(self):
        specs = uniform_fleet(6, racks=2, power_domains=3)
        assert [s.rack for s in specs] == [0, 0, 0, 1, 1, 1]
        assert [s.power_domain for s in specs] == [0, 1, 2, 0, 1, 2]

    @pytest.mark.parametrize("name", ["num_replicas", "racks",
                                      "power_domains"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_uniform_fleet_rejects_non_positive_counts(self, name, value):
        counts = {"num_replicas": 4, "racks": 2, "power_domains": 2}
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            uniform_fleet(**{**counts, name: value})

    def test_uniform_fleet_clamps_topology_to_the_replica_count(self):
        specs = uniform_fleet(3, racks=8, power_domains=5)
        assert [s.rack for s in specs] == [0, 1, 2]
        assert [s.power_domain for s in specs] == [0, 1, 2]

