"""Serving simulation and capacity planning."""

import numpy as np
import pytest

from repro.eval.machines import MACHINES
from repro.models.configs import MODEL_ZOO
from repro.serving import BatchingConfig, plan_capacity, simulate_serving
from repro.serving.capacity import max_qps_per_card
from repro.serving.simulator import BatchLatencyModel


def linear_latency(batch):
    """A simple synthetic latency model: 100us + 2us per sample."""
    return 100.0 + 2.0 * batch


class TestServingSimulator:
    def test_low_load_latency_near_window_plus_service(self):
        report = simulate_serving(
            linear_latency, qps=100,
            batching=BatchingConfig(max_batch=64, max_wait_us=200),
            num_requests=2000)
        # At 100 QPS requests mostly ride alone: wait ~200us + ~102us.
        assert report.mean_batch < 2.0
        assert 250 <= report.p50_us <= 400

    def test_high_load_builds_batches(self):
        low = simulate_serving(linear_latency, qps=1_000,
                               num_requests=2000)
        high = simulate_serving(linear_latency, qps=200_000,
                                num_requests=2000)
        assert high.mean_batch > 5 * low.mean_batch

    def test_latency_grows_with_load(self):
        p99 = [simulate_serving(linear_latency, qps, num_requests=3000).p99_us
               for qps in (1_000, 100_000, 400_000)]
        assert p99[0] < p99[1] < p99[2]

    def test_max_batch_respected(self):
        report = simulate_serving(
            linear_latency, qps=1_000_000,
            batching=BatchingConfig(max_batch=32, max_wait_us=100),
            num_requests=3000)
        assert max(report.batches.size) <= 32

    def test_all_requests_accounted(self):
        report = simulate_serving(linear_latency, qps=10_000,
                                  num_requests=1234)
        assert report.latencies_us.size == 1234
        assert (report.latencies_us > 0).all()
        assert sum(report.batches.size) == 1234

    def test_busy_fraction_bounds(self):
        report = simulate_serving(linear_latency, qps=5_000,
                                  num_requests=1000)
        assert 0.0 < report.busy_fraction <= 1.0

    def test_deterministic_given_seed(self):
        a = simulate_serving(linear_latency, qps=10_000, seed=3,
                             num_requests=500)
        b = simulate_serving(linear_latency, qps=10_000, seed=3,
                             num_requests=500)
        np.testing.assert_array_equal(a.latencies_us, b.latencies_us)

    def test_invalid_qps_rejected(self):
        with pytest.raises(ValueError):
            simulate_serving(linear_latency, qps=0)

    def test_sla_check(self):
        report = simulate_serving(linear_latency, qps=1_000,
                                  num_requests=1000)
        assert report.meets_sla(10_000)
        assert not report.meets_sla(1.0)


class TestBatchingConfigValidation:
    """Configs that used to hang or crash the batching loop are refused."""

    @pytest.mark.parametrize("max_batch", [0, -4])
    def test_max_batch_below_one_rejected(self, max_batch):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingConfig(max_batch=max_batch)

    @pytest.mark.parametrize("max_batch", [2.5, 4.0, "4", True, None])
    def test_non_integer_max_batch_rejected(self, max_batch):
        # these used to pass and then crash inside the batching loop
        with pytest.raises(ValueError, match="max_batch"):
            BatchingConfig(max_batch=max_batch)

    def test_numpy_integer_max_batch_accepted(self):
        report = simulate_serving(
            linear_latency, qps=10_000, num_requests=50,
            batching=BatchingConfig(max_batch=np.int64(4)))
        assert max(report.batches.size) <= 4

    def test_negative_max_wait_rejected(self):
        with pytest.raises(ValueError, match="max_wait_us"):
            BatchingConfig(max_wait_us=-1.0)

    @pytest.mark.parametrize("max_wait_us", [float("nan"), float("inf")])
    def test_non_finite_max_wait_rejected(self, max_wait_us):
        with pytest.raises(ValueError, match="max_wait_us"):
            BatchingConfig(max_wait_us=max_wait_us)

    def test_edge_values_accepted_and_run(self):
        batching = BatchingConfig(max_batch=1, max_wait_us=0.0)
        report = simulate_serving(linear_latency, qps=10_000,
                                  batching=batching, num_requests=50)
        assert report.batches.size.tolist() == [1] * 50


class TestServingInputValidation:
    """Inputs that used to yield NaN or negative results are refused."""

    @pytest.mark.parametrize("qps", [float("nan"), float("inf")])
    def test_non_finite_qps_rejected(self, qps):
        with pytest.raises(ValueError, match="qps"):
            simulate_serving(linear_latency, qps=qps, num_requests=10)

    def test_negative_num_requests_rejected(self):
        with pytest.raises(ValueError, match="num_requests"):
            simulate_serving(linear_latency, qps=1_000, num_requests=-1)

    @pytest.mark.parametrize("arrivals", [[0.0, float("nan"), 5.0],
                                          [0.0, float("inf")]])
    def test_non_finite_arrivals_rejected(self, arrivals):
        with pytest.raises(ValueError, match="arrivals"):
            simulate_serving(linear_latency, qps=0, arrivals=arrivals)

    def test_nan_latency_rejected_naming_the_size(self):
        with pytest.raises(ValueError, match=r"latency_model\(3\)"):
            simulate_serving(lambda b: float("nan"), qps=0,
                             arrivals=[0.0, 1.0, 2.0])

    def test_negative_latency_rejected_naming_the_size(self):
        with pytest.raises(ValueError, match=r"latency_model\(1\)"):
            simulate_serving(lambda b: -5.0, qps=1_000, num_requests=10,
                             batching=BatchingConfig(max_batch=1))

    def test_zero_latency_accepted(self):
        report = simulate_serving(lambda b: 0.0, qps=1_000,
                                  num_requests=10)
        assert report.availability == 1.0
        assert report.busy_fraction == 0.0


class TestBatchLatencyModel:
    @pytest.fixture(scope="class")
    def model(self):
        return BatchLatencyModel(MODEL_ZOO["LC2"], MACHINES["mtia"])

    def test_latency_increases_with_batch(self, model):
        assert model(256) > model(64) > model(1)

    def test_sublinear_scaling(self, model):
        """Per-sample latency falls with batch — the amortisation the
        paper's Section 6.1 describes."""
        assert model(256) / 256 < model(8) / 8

    def test_rounds_up_to_candidate(self, model):
        assert model(3) == model(4)
        # a batch above the table is refused, not priced as the top entry
        with pytest.raises(ValueError, match="batch 1000 exceeds the "
                           "largest modelled batch 256"):
            model(1000)


class TestCapacityPlanning:
    def test_max_qps_respects_sla(self):
        qps, report = max_qps_per_card(linear_latency, sla_us=1_000,
                                       num_requests=1500)
        assert qps > 0
        assert report.p99_us <= 1_000

    def test_tighter_sla_means_less_throughput(self):
        loose, _ = max_qps_per_card(linear_latency, sla_us=5_000,
                                    num_requests=1500)
        tight, _ = max_qps_per_card(linear_latency, sla_us=400,
                                    num_requests=1500)
        assert tight < loose

    def test_fleet_power_ordering_on_lc2(self):
        """The TCO thesis: for the small-FC-dominated LC2 at a serving
        SLA, the MTIA fleet burns the least provisioned power."""
        plans = plan_capacity(MODEL_ZOO["LC2"], target_qps=200_000,
                              sla_us=2_000)
        assert plans["mtia"].total_watts < plans["gpu"].total_watts
        assert plans["mtia"].qps_per_watt > plans["gpu"].qps_per_watt
        assert plans["mtia"].qps_per_watt > plans["nnpi"].qps_per_watt

    def test_plans_cover_target(self):
        plans = plan_capacity(MODEL_ZOO["LC2"], target_qps=100_000,
                              sla_us=2_000)
        for plan in plans.values():
            assert plan.cards * plan.card_qps >= 100_000
            assert plan.p99_us <= plan.sla_us
