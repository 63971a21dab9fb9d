"""Regression pin: fleet serving telemetry, byte for byte.

Runs ``simulate_fleet`` on the ``fleet_diurnal`` configuration (a 1 s
diurnal trace at 60 k QPS over 6 ``power_of_two``-routed replicas, the
tabular latency model at batches 1/4/16/64/256) at seeds 0-2 and hashes,
with SHA-256 over canonical JSON:

* ``to_dict(include_state=True)`` of every replica's telemetry, rebuilt
  from its finished report, and of the merged fleet telemetry;
* every series, per replica and merged, as
  ``to_dict(include_sketch_state=True)``;
* the fleet report's ``to_dict()``.

It also checks that ``merge_all`` over the replica parts in a shuffled
order gives the fleet telemetry's exact bytes.

A mismatch means telemetry arithmetic changed.  If that is intended,
regenerate the literals with ``python -m tests.serving.test_telemetry_pin``
and say why in the change.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from typing import Dict, List

import pytest

from repro.serving.fleet import (FleetConfig, RouterConfig,
                                 TabularLatencyModel, simulate_fleet,
                                 uniform_fleet)
from repro.serving.telemetry import SERIES_NAMES, ServingTelemetry
from repro.serving.traffic import trace_preset

SEEDS = (0, 1, 2)

MODEL = TabularLatencyModel(batches=(1, 4, 16, 64, 256),
                            latency_us=(60, 72, 110, 260, 860))
TRACE = trace_preset("diurnal", target_qps=60_000)


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def fleet_report(seed: int):
    config = FleetConfig(
        replicas=uniform_fleet(6),
        router=RouterConfig(policy="power_of_two", seed=seed,
                            hedge_backlog_us=400.0))
    return simulate_fleet(MODEL, TRACE, config, jobs=1,
                          collect_telemetry=True, seed=seed)


def replica_parts(seed: int) -> List[ServingTelemetry]:
    """Fresh per-replica telemetry, rebuilt from each replica's report."""
    return [ServingTelemetry.from_report(rep, replica=r)
            for r, rep in enumerate(fleet_report(seed).per_replica)]


def digests(seed: int) -> Dict[str, str]:
    report = fleet_report(seed)
    out = {}
    for r, part in enumerate(replica_parts(seed)):
        out[f"replica{r}"] = _sha(part.to_dict(include_state=True))
        out[f"replica{r}.series"] = _sha(
            [part.series[name].to_dict(include_sketch_state=True)
             for name in SERIES_NAMES])
    out["fleet"] = _sha(report.telemetry.to_dict(include_state=True))
    for name in SERIES_NAMES:
        out[f"series.{name}"] = _sha(
            report.telemetry.series[name].to_dict(include_sketch_state=True))
    out["report"] = _sha(report.to_dict())
    return out


PINNED: Dict[int, Dict[str, str]] = {
    0: {
        "replica0": "c946bff1c35927a7",
        "replica0.series": "80fac2e627d52d6b",
        "replica1": "fa11dcc1751d5a30",
        "replica1.series": "362558d93f8db740",
        "replica2": "d453bd6f7bafbbff",
        "replica2.series": "c64942575c3180e0",
        "replica3": "2a641b233c64945c",
        "replica3.series": "51c726a55b2e5197",
        "replica4": "800751571e0fda1d",
        "replica4.series": "56d4883038e26e97",
        "replica5": "5cc52f1ab2adefdd",
        "replica5.series": "36ec61a11592f400",
        "fleet": "cca983c2238c45dd",
        "series.requests": "1502b853973f167f",
        "series.latency_us": "35a314886c2a2688",
        "series.queue_depth": "aa42f8a07a30161c",
        "report": "78720f90e2f760b7",
    },
    1: {
        "replica0": "caeeab29fc327ac8",
        "replica0.series": "27f026e864485202",
        "replica1": "e56c4c10ed58533a",
        "replica1.series": "66a23e808611fd4c",
        "replica2": "aa4bdd1a5d0690d4",
        "replica2.series": "80e0af9ed7f0ba32",
        "replica3": "b7f884723efb9403",
        "replica3.series": "588ebd3e9f09f878",
        "replica4": "a3bfbe30dbaac967",
        "replica4.series": "ea785abde66c39a2",
        "replica5": "77b1e2197df340e5",
        "replica5.series": "cda348bd6b597d82",
        "fleet": "ba653122d35a7412",
        "series.requests": "d2fb5dcdada45edf",
        "series.latency_us": "4fac3585c5ecc94a",
        "series.queue_depth": "40e67f4fa02ae5dc",
        "report": "f7c53710455e1dd2",
    },
    2: {
        "replica0": "0370440ae43014c6",
        "replica0.series": "de3a31545711fb1e",
        "replica1": "7ab13d17ada5407e",
        "replica1.series": "380d9379f243670a",
        "replica2": "57e4f7e69bedc510",
        "replica2.series": "182b897ff9180ee1",
        "replica3": "cb272b6d6e1de19d",
        "replica3.series": "b193ac50b18d3333",
        "replica4": "55bb48546d286c5a",
        "replica4.series": "487657e371197b1a",
        "replica5": "12e45a59952c1b5d",
        "replica5.series": "c16c59a728f37def",
        "fleet": "6a6a8a536665bd80",
        "series.requests": "c4d1fe077dff560d",
        "series.latency_us": "54df2ef089c53dc0",
        "series.queue_depth": "7c66810f5aa02067",
        "report": "1bc9f13635aa697a",
    },
}


@pytest.mark.parametrize("seed", SEEDS)
def test_telemetry_is_pinned(seed):
    assert digests(seed) == PINNED[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_all_is_order_invariant(seed):
    parts = replica_parts(seed)
    random.Random(seed).shuffle(parts)
    merged = ServingTelemetry.merge_all(parts)
    expected = fleet_report(seed).telemetry.to_dict(include_state=True)
    assert (json.dumps(merged.to_dict(include_state=True), sort_keys=True)
            == json.dumps(expected, sort_keys=True))


@pytest.mark.parametrize("seed", SEEDS)
def test_replica_telemetry_survives_the_fleet_merge(seed):
    """After ``simulate_fleet`` each replica report's telemetry is its
    own, not the fleet aggregate ``merge_all`` built from it."""
    report = fleet_report(seed)
    for rep, part in zip(report.per_replica, replica_parts(seed)):
        assert (json.dumps(rep.telemetry.to_dict(include_state=True),
                           sort_keys=True)
                == json.dumps(part.to_dict(include_state=True),
                              sort_keys=True))


if __name__ == "__main__":
    print("{")
    for seed in SEEDS:
        print(f"    {seed}: {{")
        for key, value in digests(seed).items():
            print(f"        {json.dumps(key)}: {json.dumps(value)},")
        print("    },")
    print("}")
