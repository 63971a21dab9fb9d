"""The fleet request waterfall is the request's critical path.

``build_fleet_chrome_trace`` draws each chosen request's phases from
:func:`~repro.obs.critical.fleet_critical_path`: the phase spans must
tile ``[arrival, path end]`` in the path's order, and each must be as
wide as the report's own ``{phase}_us`` attribution.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.faults import generate_fleet_plan
from repro.obs.critical import fleet_critical_path
from repro.serve_report import build_fleet_chrome_trace
from repro.serving.fleet import (FleetConfig, RouterConfig,
                                 TabularLatencyModel, simulate_fleet,
                                 uniform_fleet)
from repro.serving.resilience import ResilienceConfig
from repro.serving.simulator import BatchingConfig
from repro.serving.traffic import trace_preset

MODEL = TabularLatencyModel(
    batches=(1, 4, 16, 64, 256),
    latency_us=tuple(150.0 + 2.0 * b for b in (1, 4, 16, 64, 256)))

#: policy -> (replicas, offered QPS, deadline): both runs retry under a
#: correlated fault plan; the hedge run also has hedge winners
FLEETS = {
    "power_of_two": (4, 200_000.0, 2_000.0),
    "hedge": (3, 300_000.0, 20_000.0),
}


def faulted_fleet(policy):
    replicas, qps, deadline_us = FLEETS[policy]
    config = FleetConfig(
        replicas=uniform_fleet(replicas, racks=2, power_domains=2),
        router=RouterConfig(policy=policy, route_latency_us=15.0, seed=0,
                            hedge_backlog_us=50.0, hedge_delay_us=25.0),
        batching=BatchingConfig(max_batch=16, max_wait_us=200.0),
        resilience=ResilienceConfig(deadline_us=deadline_us,
                                    max_retries=1))
    trace = replace(trace_preset("flash_crowd", target_qps=qps),
                    duration_us=20_000.0)
    plan = generate_fleet_plan(0, config.replicas, horizon_us=20_000.0)
    return simulate_fleet(MODEL, trace, config, fault_plan=plan,
                          collect_telemetry=False)


def drawn_waterfalls(trace):
    """``request id -> (request event, its phase events in draw order)``."""
    pids = {e["pid"] for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["args"]["name"] == "fleet.requests"}
    events = [e for e in trace["traceEvents"]
              if e.get("ph") == "X" and e["pid"] in pids]
    out = {}
    for event in events:
        if "parent_id" not in event["args"]:
            children = [e for e in events if e["args"].get("parent_id")
                        == event["args"]["span_id"]]
            out[int(event["tid"].split(".")[1])] = (event, children)
    return out


@pytest.mark.parametrize("policy", sorted(FLEETS))
def test_phase_spans_tile_the_critical_path(policy):
    report = faulted_fleet(policy)
    waterfalls = drawn_waterfalls(build_fleet_chrome_trace(report))
    assert len(waterfalls) >= 32
    drawn = np.array(sorted(waterfalls))
    assert (report.retry_overhead_us[drawn] > 0).any()
    if policy == "hedge":
        assert (report.hedge_wait_us[drawn] > 0).any()
    for i, (request, children) in waterfalls.items():
        path = fleet_critical_path(report, i)
        order = list(dict.fromkeys(seg.kind for seg in path.segments))
        expected = [kind for kind in order if kind == "execute"
                    or getattr(report, f"{kind}_us")[i] > 0]
        assert [c["name"] for c in children] == expected, f"request {i}"
        assert request["ts"] == children[0]["ts"] == path.start
        cursor = path.start
        for child in children:
            assert child["ts"] == pytest.approx(cursor, abs=1e-9)
            width = float(getattr(report, f"{child['name']}_us")[i])
            assert child["dur"] == pytest.approx(width, abs=1e-9)
            cursor = child["ts"] + child["dur"]
        assert cursor == pytest.approx(path.end, abs=1e-9)

