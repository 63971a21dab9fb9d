"""Chaos properties: any drawn fault plan keeps the core invariants."""

import numpy as np
from hypothesis import given, settings

from repro.faults import FaultInjector, FaultPlan
from repro.obs import MetricRegistry
from repro.serving import (BatchingConfig, BatchTable, ResilienceConfig,
                           simulate_serving)
from tests import strategies as shared

#: ~300 requests at 20k qps spans ~15ms — inside FAULT_HORIZON_US, so
#: drawn windows actually intersect the run
_QPS = 20_000.0
_N = 300
_BATCHING = BatchingConfig(max_batch=4, max_wait_us=200.0)
#: no deadline and no shedding: the only abort path is a card failure
#: outliving the retry budget, so the empty plan serves everything
_RES = ResilienceConfig(num_cards=4, max_retries=2,
                        retry_backoff_us=50.0, backoff_cap_us=400.0)


def _run(plan, seed):
    return simulate_serving(
        lambda b: 150.0 + 2.0 * b, _QPS, _BATCHING, resilience=_RES,
        num_requests=_N, seed=seed, faults=FaultInjector(plan),
        registry=MetricRegistry())


class TestServingChaosProperties:
    @settings(max_examples=25, deadline=None)
    @given(plan=shared.fault_plans(), seed=shared.seeds)
    def test_seed_replay_is_bit_identical(self, plan, seed):
        a = _run(plan, seed)
        b = _run(plan, seed)
        for name in ("latencies_us", "queue_wait_us", "batch_wait_us",
                     "execute_us", "retry_overhead_us", "status",
                     "attempts", "abort_us", "batch_index"):
            np.testing.assert_array_equal(getattr(a, name),
                                          getattr(b, name), err_msg=name)
        for name in BatchTable.fields:
            np.testing.assert_array_equal(getattr(a.batches, name),
                                          getattr(b.batches, name),
                                          err_msg=name)

    @settings(max_examples=25, deadline=None)
    @given(plan=shared.fault_plans(), seed=shared.seeds)
    def test_attribution_invariant_under_any_plan(self, plan, seed):
        report = _run(plan, seed)
        total = (report.queue_wait_us + report.batch_wait_us
                 + report.retry_overhead_us + report.execute_us)
        np.testing.assert_allclose(total, report.latencies_us, atol=1e-6)
        # phases are individually non-negative, not just in sum
        for name in ("queue_wait_us", "batch_wait_us",
                     "retry_overhead_us", "execute_us"):
            assert (getattr(report, name) >= 0).all(), name

    @settings(max_examples=25, deadline=None)
    @given(plan=shared.fault_plans(), seed=shared.seeds)
    def test_faults_never_improve_availability(self, plan, seed):
        faulted = _run(plan, seed)
        clean = _run(FaultPlan(events=()), seed)
        assert clean.availability == 1.0
        assert faulted.availability <= clean.availability
        # every request is accounted for exactly once
        assert sum(faulted.counts_by_status().values()) == _N
        served = int(faulted.status.size - (faulted.status != 0).sum())
        assert faulted.availability == served / _N

    @settings(max_examples=25, deadline=None)
    @given(plan=shared.fault_plans(), seed=shared.seeds)
    def test_abort_bookkeeping_is_consistent(self, plan, seed):
        report = _run(plan, seed)
        mask = report.served_mask
        # served requests have no abort stamp; aborted ones have one
        assert np.isnan(report.abort_us[mask]).all()
        assert np.isfinite(report.abort_us[~mask]).all()
        # aborted requests never land in a batch; attempts stay within
        # the retry budget
        assert (report.batch_index[~mask] == -1).all()
        assert (report.attempts <= _RES.max_retries + 1).all()


class TestHardwareChaosProperties:
    @settings(max_examples=5, deadline=None)   # each example runs 2 DES sims
    @given(plan=shared.hardware_fault_plans())
    def test_faulted_kernel_replay_is_bit_identical(self, plan):
        from repro import Accelerator
        from repro.kernels.fc import run_fc

        def once():
            acc = Accelerator(observe=True)
            injector = FaultInjector(plan).attach(acc)
            result = run_fc(acc, m=64, k=64, n=64, dtype="int8",
                            subgrid=acc.subgrid((0, 0), 1, 1), seed=0)
            return (result.cycles, result.c_t, acc.obs.stalls_by_track(),
                    dict(injector.activations))

        cycles_a, out_a, stalls_a, acts_a = once()
        cycles_b, out_b, stalls_b, acts_b = once()
        assert cycles_a == cycles_b
        assert np.array_equal(out_a, out_b)
        assert stalls_a == stalls_b
        assert acts_a == acts_b
