"""Guard: the serving passes and their readers build no ``BatchRecord``.

A report keeps its batches as a :class:`~repro.serving.BatchTable` of
columns; ``table[k]`` builds a :class:`~repro.serving.BatchRecord` only
when a caller asks for one batch.  This counts ``BatchRecord.__init__``
calls, which does not depend on host load, through both batching passes
(the serving_ladder shape, and a run with faults and a deadline that
takes the general loop), a fleet with telemetry, the tail attribution,
the per-request critical paths and the report's series and rows.  Any
reader that walks batches by building records again fails here.
"""

from dataclasses import replace

import pytest

from repro.eval.machines import MACHINES
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.models.configs import MODEL_ZOO
from repro.obs import MetricRegistry
from repro.obs.critical import fleet_critical_path, serving_critical_path
from repro.serving import (BatchingConfig, BatchRecord, ResilienceConfig,
                           attribute_tail, simulate_serving)
from repro.serving.fleet import (FleetConfig, RouterConfig,
                                 TabularLatencyModel, simulate_fleet,
                                 uniform_fleet)
from repro.serving.simulator import BatchLatencyModel
from repro.serving.traffic import trace_preset

#: the fleet_check / fleet_diurnal latency table
FLEET_MODEL = TabularLatencyModel(batches=(1, 4, 16, 64, 256),
                                  latency_us=(60, 72, 110, 260, 860))


@pytest.fixture(scope="module")
def lc2_latency():
    return BatchLatencyModel(MODEL_ZOO["LC2"], MACHINES["mtia"])


@pytest.fixture
def built(monkeypatch):
    """The list that grows by one per ``BatchRecord`` construction."""
    calls = []
    real = BatchRecord.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(BatchRecord, "__init__", counting)
    return calls


def read_everything(report, latency_model=None):
    """Every batch-walking reader of a serving report."""
    report.queue_depth_series()
    report.batch_occupancy_series(128)
    report.request_rows()
    attribute_tail(report, latency_model)
    for r in range(0, report.latencies_us.size, 97):
        serving_critical_path(report, r)


def test_counter_sees_a_record(built):
    report = simulate_serving(lambda b: 100.0, 10_000, num_requests=50,
                              registry=MetricRegistry())
    assert not built
    report.batches[0]
    assert len(built) == 1


@pytest.mark.parametrize("qps", [2_000, 10_000, 30_000, 60_000])
def test_straight_line_pass(built, lc2_latency, qps):
    report = simulate_serving(lc2_latency, qps, BatchingConfig(128, 300),
                              num_requests=5_000, seed=qps,
                              registry=MetricRegistry(),
                              collect_telemetry=True)
    read_everything(report, lc2_latency)
    assert len(report.batches) > 0
    assert len(built) == 0


def test_general_loop_with_faults_and_deadline(built, lc2_latency):
    plan = FaultPlan(events=(
        FaultEvent(start=20_000.0, kind="card.failure", target=0,
                   duration=5_000.0),
        FaultEvent(start=60_000.0, kind="card.slowdown", target=1,
                   duration=40_000.0, magnitude=2.0)))
    report = simulate_serving(
        lc2_latency, 30_000, BatchingConfig(128, 300), num_requests=5_000,
        registry=MetricRegistry(), collect_telemetry=True,
        resilience=ResilienceConfig(num_cards=2, deadline_us=1_000.0,
                                    max_retries=2),
        faults=FaultInjector(plan))
    read_everything(report, lc2_latency)
    counts = report.counts_by_status()
    assert counts["timeout"] > 0 and counts["served"] > 0
    assert len(built) == 0


def test_fleet_with_telemetry(built):
    trace = replace(trace_preset("diurnal", target_qps=60_000),
                    duration_us=200_000.0)
    config = FleetConfig(
        replicas=uniform_fleet(6),
        router=RouterConfig(policy="power_of_two", seed=3,
                            hedge_backlog_us=400.0))
    report = simulate_fleet(FLEET_MODEL, trace, config, jobs=1,
                            collect_telemetry=True, seed=3)
    report.observed_latency()
    for i in range(0, report.arrivals_us.size, 211):
        fleet_critical_path(report, i)
    assert all(len(replica.batches) for replica in report.per_replica)
    assert len(built) == 0
