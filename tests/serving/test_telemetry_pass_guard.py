"""Guard: fleet telemetry keys and sketches each replica in a fixed number
of passes, however many time windows its requests span.

``ServingTelemetry.from_report`` keys every served latency once and
shares the keys between the run-wide latency sketch and the windowed
``latency_us`` series; the series counts every (window, key) pair with
one ``np.bincount`` instead of one ``QuantileSketch.add_many`` per
window.  This counts ``QuantileSketch._keys`` and
``QuantileSketch.add_many`` calls, which do not depend on host load,
through ``simulate_fleet(collect_telemetry=True)`` at two trace lengths
(0.2 s and 2 s: 5 and 41 windows of 50 ms) and asserts the same
per-replica count for both.
"""

from dataclasses import replace

import pytest

from repro.obs.sketch import QuantileSketch
from repro.serving.fleet import (FleetConfig, RouterConfig,
                                 TabularLatencyModel, simulate_fleet,
                                 uniform_fleet)
from repro.serving.simulator import PHASES
from repro.serving.traffic import trace_preset

#: the fleet_check / fleet_diurnal latency table
FLEET_MODEL = TabularLatencyModel(batches=(1, 4, 16, 64, 256),
                                  latency_us=(60, 72, 110, 260, 860))
REPLICAS = 6


@pytest.fixture
def calls(monkeypatch):
    """Per-method call counts of the two sketch passes."""
    counts = {"_keys": 0, "add_many": 0}
    for name in counts:
        real = getattr(QuantileSketch, name)

        def counting(self, *args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(QuantileSketch, name, counting)
    return counts


def run_fleet(duration_us: float):
    trace = replace(trace_preset("diurnal", target_qps=60_000),
                    duration_us=duration_us)
    config = FleetConfig(
        replicas=uniform_fleet(REPLICAS),
        router=RouterConfig(policy="power_of_two", seed=3,
                            hedge_backlog_us=400.0))
    return simulate_fleet(FLEET_MODEL, trace, config, jobs=1,
                          collect_telemetry=True, seed=3)


def sketched_arrays(report) -> int:
    """Arrays ``from_report`` keys: the latency, each phase with a
    non-zero served value (an all-zero array needs no keys) and the
    batch size, summed over replicas."""
    total = 0
    for replica in report.per_replica:
        served = replica.served_mask
        total += 2 + sum(bool(getattr(replica, f"{name}_us")[served].any())
                         for name in PHASES)
    return total


def per_replica_calls(calls, duration_us: float):
    before = dict(calls)
    report = run_fleet(duration_us)
    got = {name: calls[name] - before[name] for name in calls}
    # the latency series reuses the latency sketch's keys
    assert got["_keys"] == sketched_arrays(report)
    windows = len(report.telemetry.series["latency_us"])
    return {name: count / REPLICAS for name, count in got.items()}, windows


def test_sketch_passes_are_constant_per_replica(calls):
    short, short_windows = per_replica_calls(calls, 200_000.0)
    long, long_windows = per_replica_calls(calls, 2_000_000.0)
    assert long_windows >= 8 * short_windows
    assert short == long
    # one add_many for the latency, each phase and the batch size
    assert long["add_many"] == 1 + len(PHASES) + 1


def test_counter_sees_a_call(calls):
    QuantileSketch().add_many([1.0, 2.0])
    assert calls == {"_keys": 1, "add_many": 1}
