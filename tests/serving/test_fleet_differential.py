"""Differential test: a 1-replica fleet is a no-op wrapper.

The fleet layer must add *nothing* at N=1 with free routing: the same
arrival vector through ``simulate_fleet`` and through bare
``simulate_serving`` must agree bit-for-bit on every report
field, the telemetry serialization, and the stall attributions — that
is what licenses every fleet result to be read as "the per-replica
engine, composed".
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.serving.fleet import (FleetConfig, RouterConfig,
                                 TabularLatencyModel, simulate_fleet,
                                 uniform_fleet)
from repro.serving.resilience import ResilienceConfig
from repro.serving.simulator import simulate_serving
from repro.serving.traffic import trace_preset

MODEL = TabularLatencyModel(batches=(1, 4, 16, 64, 256),
                            latency_us=(60.0, 75.0, 110.0, 260.0, 860.0))

RESILIENCE = ResilienceConfig(deadline_us=5_000.0, max_retries=1,
                              shed_queue_depth=128)

ARRAY_FIELDS = ("latencies_us", "queue_wait_us", "batch_wait_us",
                "execute_us", "retry_overhead_us", "status", "attempts",
                "batch_index")


def trivial_fleet(resilience=RESILIENCE):
    return FleetConfig(replicas=uniform_fleet(1),
                       router=RouterConfig(policy="round_robin",
                                           route_latency_us=0.0),
                       resilience=resilience)


def arrivals_for(seed):
    trace = replace(trace_preset("diurnal", target_qps=250_000.0),
                    duration_us=15_000.0)
    return trace.arrivals(seed)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_single_replica_fleet_is_bit_identical(seed):
    arrivals = arrivals_for(seed)
    fleet = simulate_fleet(MODEL, arrivals, trivial_fleet(), jobs=1)
    bare = simulate_serving(MODEL, qps=0.0,
                            resilience=RESILIENCE, seed=0,
                            collect_telemetry=True,
                            arrivals=arrivals)
    for name in ARRAY_FIELDS:
        fleet_values = getattr(fleet.per_replica[0], name)
        assert np.array_equal(fleet_values, getattr(bare, name)), name
    # the fleet view itself adds zero overhead with free routing
    assert np.array_equal(fleet.latencies_us, bare.latencies_us)
    assert np.array_equal(fleet.queue_wait_us, bare.queue_wait_us)
    assert np.array_equal(fleet.execute_us, bare.execute_us)
    assert np.all(fleet.route_overhead_us == 0.0)
    assert np.all(fleet.hedge_wait_us == 0.0)
    assert fleet.hedged_requests == 0


def test_telemetry_serialization_is_bit_identical():
    arrivals = arrivals_for(5)
    fleet = simulate_fleet(MODEL, arrivals, trivial_fleet(), jobs=1)
    bare = simulate_serving(MODEL, qps=0.0,
                            resilience=RESILIENCE, seed=0,
                            collect_telemetry=True,
                            arrivals=arrivals)
    assert (json.dumps(fleet.telemetry.to_dict(include_state=True),
                       sort_keys=True)
            == json.dumps(bare.telemetry.to_dict(include_state=True),
                          sort_keys=True))


def test_batch_boundaries_and_stall_attribution_survive():
    """Batch records (the stall attribution substrate) are identical."""
    arrivals = arrivals_for(7)
    fleet = simulate_fleet(MODEL, arrivals, trivial_fleet(), jobs=1)
    bare = simulate_serving(MODEL, qps=0.0,
                            resilience=RESILIENCE, seed=0,
                            arrivals=arrivals)
    local = fleet.per_replica[0]
    assert len(local.batches) == len(bare.batches)
    for ours, theirs in zip(local.batches, bare.batches):
        assert ours.dispatch_us == theirs.dispatch_us
        assert ours.finish_us == theirs.finish_us
        assert ours.size == theirs.size


def test_faulted_single_replica_matches_bare_engine():
    """Per-replica fault splitting preserves bit-identity at N=1."""
    arrivals = arrivals_for(4)
    plan = FaultPlan(events=(
        FaultEvent(start=2_000.0, kind="card.failure", target=0,
                   duration=3_000.0),))
    fleet = simulate_fleet(MODEL, arrivals, trivial_fleet(),
                           fault_plan=plan, jobs=1)
    # the fleet retargets replica events to the whole card pool
    local_plan = FaultPlan(events=(
        FaultEvent(start=2_000.0, kind="card.failure", target=-1,
                   duration=3_000.0),))
    bare = simulate_serving(MODEL, qps=0.0,
                            resilience=RESILIENCE, seed=0,
                            faults=FaultInjector(local_plan),
                            arrivals=arrivals)
    assert np.array_equal(fleet.latencies_us, bare.latencies_us)
    assert np.array_equal(fleet.status, bare.status)
    assert (fleet.counts_by_status() == bare.counts_by_status())
