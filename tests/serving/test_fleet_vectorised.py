"""The fast fleet router is bit-identical to the reference loop."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults import generate_fleet_plan
from repro.serving import fleet as fleet_mod
from repro.serving.fleet import (ROUTING_POLICIES, FleetConfig,
                                 RouterConfig, TabularLatencyModel,
                                 route_requests, route_requests_vectorised,
                                 simulate_fleet, uniform_fleet)
from repro.serving.resilience import ResilienceConfig
from repro.serving.traffic import trace_preset

MODEL = TabularLatencyModel(batches=(1, 4, 16, 64, 256),
                            latency_us=(60, 72, 110, 260, 860))


def _decisions_equal(a, b):
    np.testing.assert_array_equal(a.assigned, b.assigned)
    np.testing.assert_array_equal(a.hedged, b.hedged)
    if a.probes is None:
        assert b.probes is None
    else:
        np.testing.assert_array_equal(a.probes, b.probes)
    for name in ("probe_backlogs", "chosen_backlog"):
        left, right = getattr(a, name), getattr(b, name)
        if left is None:
            assert right is None
        else:
            # bitwise: the two routers share one arithmetic contract
            np.testing.assert_array_equal(left, right)


def _arrivals(seed, n=4000, spread_us=20_000.0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0.0, spread_us, n))


class TestDifferential:
    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    @pytest.mark.parametrize("record_probes", [False, True])
    def test_routers_agree_bitwise(self, policy, record_probes):
        specs = uniform_fleet(5, num_cards=2)
        service = np.array([3.0, 5.0, 2.0, 7.0, 4.0])
        config = RouterConfig(policy=policy, seed=11,
                              hedge_backlog_us=40.0)
        arrivals = _arrivals(seed=policy.encode()[0])
        ref = route_requests(arrivals, config, specs, service,
                             record_probes=record_probes)
        fast = route_requests_vectorised(arrivals, config, specs, service,
                                         record_probes=record_probes)
        _decisions_equal(ref, fast)

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_routers_agree_under_bursts_and_ties(self, policy):
        # Simultaneous arrivals (dt == 0) and equal service costs force
        # every tie-break branch in both routers.
        arrivals = np.repeat(np.arange(50, dtype=float) * 5.0, 8)
        specs = uniform_fleet(3)
        config = RouterConfig(policy=policy, seed=2,
                              hedge_backlog_us=10.0)
        ref = route_requests(arrivals, config, specs, np.ones(3) * 6.0,
                             record_probes=True)
        fast = route_requests_vectorised(arrivals, config, specs,
                                         np.ones(3) * 6.0,
                                         record_probes=True)
        _decisions_equal(ref, fast)

    def test_single_replica_and_empty_trace(self):
        specs = uniform_fleet(1)
        for policy in ROUTING_POLICIES:
            config = RouterConfig(policy=policy)
            for arrivals in (np.zeros(0), np.array([1.0, 2.0, 3.0])):
                ref = route_requests(arrivals, config, specs, np.ones(1))
                fast = route_requests_vectorised(arrivals, config, specs,
                                                 np.ones(1))
                _decisions_equal(ref, fast)


class TestFleetByteIdentity:
    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_fleet_json_identical_under_reference_router(self, policy,
                                                         monkeypatch):
        """The whole fleet report is byte-identical under either router,
        with a correlated fault plan in the path."""
        trace = replace(trace_preset("diurnal", target_qps=150_000.0),
                        duration_us=40_000.0)
        config = FleetConfig(
            replicas=uniform_fleet(4, racks=2, power_domains=2),
            router=RouterConfig(policy=policy, route_latency_us=8.0,
                                hedge_backlog_us=500.0),
            resilience=ResilienceConfig(deadline_us=8_000.0,
                                        max_retries=1),
            racks=2, power_domains=2)
        plan = generate_fleet_plan(7, config.replicas,
                                   horizon_us=40_000.0)
        fast = simulate_fleet(MODEL, trace, config, fault_plan=plan)
        monkeypatch.setattr(fleet_mod, "route_requests_vectorised",
                            route_requests)
        ref = simulate_fleet(MODEL, trace, config, fault_plan=plan)
        assert (json.dumps(fast.to_dict(), sort_keys=True)
                == json.dumps(ref.to_dict(), sort_keys=True))

    def test_fleet_check_cli_smoke(self, capsys):
        """The CI gate driver passes on a short trace and reports
        per-policy byte-identity."""
        from repro.serving.fleet_check import main
        assert main(["--duration-us", "8000", "--target-qps", "150000",
                     "--jobs", "1", "--replicas", "3"]) == 0
        out = capsys.readouterr().out
        for policy in ROUTING_POLICIES:
            assert f"ok {policy}" in out
        assert "byte-identity held" in out

    def test_fleet_check_fails_on_a_mismatching_report(self, monkeypatch,
                                                       capsys):
        """A vectorised report one key away from the reference fails the
        gate with an exception, not an ``assert`` that ``python -O``
        strips, and the CLI exits non-zero."""
        from repro.serving import fleet_check

        real = fleet_check.simulate_fleet

        class Tampered:
            def __init__(self, report):
                self.arrivals_us = report.arrivals_us
                self._report = report.to_dict()

            def to_dict(self):
                return {**self._report, "tampered": True}

        def tampered_fast_run(model, trace, config, jobs=1):
            report = real(model, trace, config, jobs=jobs)
            if fleet_mod.route_requests_vectorised is route_requests:
                return report           # the scalar reference run
            return Tampered(report)

        monkeypatch.setattr(fleet_check, "simulate_fleet",
                            tampered_fast_run)
        trace = replace(trace_preset("diurnal", target_qps=150_000.0),
                        duration_us=4_000.0)
        with pytest.raises(fleet_check.RouterMismatch,
                           match="round_robin report differs .* --jobs 2"):
            fleet_check.check_policy("round_robin", trace, [2],
                                     replicas=3)
        assert fleet_check.main(["--duration-us", "4000",
                                 "--target-qps", "150000", "--jobs", "1",
                                 "--replicas", "3",
                                 "--policies", "round_robin"]) == 1
        assert "FAIL round_robin report differs" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs_list", [[4, 2], [2, 1]])
    def test_fleet_check_times_the_vectorised_router_at_one_job(
            self, monkeypatch, jobs_list):
        """The speed-up compares both routers at ``jobs=1``: a larger
        job count would add pool start-up to the vectorised side."""
        from repro.serving import fleet_check

        clock = [0.0]
        real = fleet_check.simulate_fleet

        def one_second_per_job(model, trace, config, jobs=1):
            clock[0] += jobs
            return real(model, trace, config, jobs=1)

        monkeypatch.setattr(fleet_check, "simulate_fleet",
                            one_second_per_job)
        monkeypatch.setattr(fleet_check, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        trace = replace(trace_preset("diurnal", target_qps=150_000.0),
                        duration_us=4_000.0)
        row = fleet_check.check_policy("round_robin", trace, jobs_list,
                                       replicas=3)
        assert (row["ref_wall_s"], row["fast_wall_s"]) == (1.0, 1.0)

    def test_fleet_json_identical_across_jobs(self):
        trace = replace(trace_preset("spike", target_qps=120_000.0),
                        duration_us=30_000.0)
        config = FleetConfig(
            replicas=uniform_fleet(4),
            router=RouterConfig(policy="power_of_two", seed=3))
        serial = simulate_fleet(MODEL, trace, config, jobs=1)
        parallel = simulate_fleet(MODEL, trace, config, jobs=4)
        assert (json.dumps(serial.to_dict(), sort_keys=True)
                == json.dumps(parallel.to_dict(), sort_keys=True))
