"""Regression pin: the serving engine's outputs, byte for byte.

Every report array, every ``BatchRecord.to_dict()`` and the headline
scalars of a small seeded grid are hashed with SHA-256 and compared
against digests recorded before the plain and resilient batching loops
were folded into one engine.  The grid crosses four resilience
configurations with three fault plans, two offered loads and two
batching windows; a second set draws request waterfalls from the
reports of default-configuration runs, so the span trees are pinned too.

Two larger sets reach long served runs: the ``serving_ladder`` benchmark
shape (50 000 requests, ``max_batch`` 128, at its four offered loads
plus a 400 k QPS overload, where the ``shed`` configuration first sheds,
with the default, ``retry`` and ``shed`` resilience), and every
per-replica report of the ``fleet_diurnal`` fleet at seeds 0-2.

A mismatch means the engine's arithmetic changed.  If that is intended,
regenerate the literals with ``python -m tests.serving.test_engine_pin``
and say why in the change.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, FaultProfile
from repro.obs.metrics import MetricRegistry
from repro.serving import BatchingConfig, ResilienceConfig, simulate_serving
from repro.serving.telemetry import emit_exemplar_spans
from repro.sim.trace import Tracer
from tests.serving.test_telemetry_pin import fleet_report

REQUESTS = 300

RESILIENCE = {
    "default": ResilienceConfig(),
    "retry": ResilienceConfig(deadline_us=450.0, max_retries=2,
                              retry_backoff_us=50.0, backoff_cap_us=400.0),
    "shed": ResilienceConfig(shed_queue_depth=16, deadline_us=600.0,
                             max_retries=1, retry_backoff_us=50.0),
    "hedge": ResilienceConfig(num_cards=3, hedge_after_us=30.0,
                              max_retries=1, deadline_us=2_000.0),
}
PLANS = ("none", "card.failure", "card.slowdown")
QPS = (20_000.0, 80_000.0)
BATCHING = {"b4": BatchingConfig(max_batch=4, max_wait_us=200.0),
            "b32": BatchingConfig(max_batch=32, max_wait_us=100.0)}

#: (qps, batching, drawn batches or None for all) of the waterfall runs;
#: each drawn batch contributes its first 5 served requests
TRACED = {
    "q20k-b16": (20_000.0, BatchingConfig(16, 100.0), None),
    "q200k-b16": (200_000.0, BatchingConfig(16, 100.0), None),
    "q200k-b256": (200_000.0, BatchingConfig(256, 300.0), None),
    "q80k-b32-some": (80_000.0, BatchingConfig(32, 100.0), {0, 3, 7}),
}

#: the ``serving_ladder`` benchmark shape, plus an overload point
LADDER_QPS = (2_000.0, 10_000.0, 30_000.0, 60_000.0, 400_000.0)
LADDER_BATCHING = BatchingConfig(max_batch=128, max_wait_us=300.0)
LADDER_REQUESTS = 50_000
LADDER_RESILIENCE = ("default", "retry", "shed")
FLEET_SEEDS = (0, 1, 2)

ARRAYS = ("latencies_us", "queue_wait_us", "batch_wait_us", "execute_us",
          "arrivals_us", "batch_index", "status", "retry_overhead_us",
          "attempts", "abort_us")
#: the arrays a traced default run is pinned on
TRACED_ARRAYS = ARRAYS[:6]


def latency_model(batch: int) -> float:
    return 150.0 + 2.0 * batch


def grid():
    """``case id -> (resilience, plan kind, qps, batching, seed)``."""
    cases = {}
    seed = 0
    for res in RESILIENCE:
        for plan in PLANS:
            for qps in QPS:
                for bname in BATCHING:
                    key = f"{res}/{plan}/q{int(qps) // 1000}k/{bname}"
                    cases[key] = (res, plan, qps, bname, seed)
                    seed += 1
    return cases


def fault_injector(kind: str, seed: int):
    if kind == "none":
        return None
    profile = FaultProfile(num_cards=3, horizon_us=15_000.0,
                           rates={kind: 3.0})
    return FaultInjector(FaultPlan.generate(seed, profile, kinds=(kind,)))


def _digest(report, arrays, spans=None) -> str:
    h = hashlib.sha256()
    for name in arrays:
        values = np.ascontiguousarray(getattr(report, name))
        h.update(f"{name}:{values.dtype.str}:{values.shape}".encode())
        h.update(values.tobytes())
    h.update(json.dumps({
        "batch_sizes": [int(b) for b in report.batch_sizes],
        "batches": [b.to_dict() for b in report.batches],
        "scalars": [report.qps_offered, report.qps_served,
                    report.busy_fraction, report.hedged_batches,
                    report.hedge_wins],
    }).encode())
    if spans is not None:
        h.update(json.dumps([
            [s.span_id, s.parent_id, s.track, s.name, s.start, s.end,
             sorted(s.args.items()), s.pid, list(s.flow_out),
             list(s.flow_in)] for s in spans.spans]).encode())
    return h.hexdigest()[:16]


def run_case(key: str, engine=simulate_serving) -> str:
    res, plan, qps, bname, seed = grid()[key]
    report = engine(latency_model, qps, BATCHING[bname],
                    resilience=RESILIENCE[res], num_requests=REQUESTS,
                    seed=seed, faults=fault_injector(plan, seed),
                    registry=MetricRegistry())
    return _digest(report, ARRAYS)


def run_traced(key: str, engine=simulate_serving) -> str:
    qps, batching, drawn = TRACED[key]
    report = engine(latency_model, qps, batching, num_requests=REQUESTS,
                    seed=17, registry=MetricRegistry())
    if drawn is None:
        drawn = range(len(report.batches))
    spans = Tracer(enabled=True)
    emit_exemplar_spans(report, [
        r for k in drawn for r in np.flatnonzero(report.batch_index == k)[:5]
    ], spans)
    return _digest(report, TRACED_ARRAYS, spans)


def ladder():
    """``case id -> (resilience, qps, seed)`` of the ladder runs."""
    return {f"{res}/q{int(qps) // 1000}k": (res, qps, seed)
            for res in LADDER_RESILIENCE
            for seed, qps in enumerate(LADDER_QPS)}


def run_ladder(key: str, engine=simulate_serving) -> str:
    res, qps, seed = ladder()[key]
    report = engine(latency_model, qps, LADDER_BATCHING,
                    resilience=RESILIENCE[res], num_requests=LADDER_REQUESTS,
                    seed=seed, registry=MetricRegistry())
    return _digest(report, ARRAYS)


def fleet_cases():
    return {f"seed{seed}/replica{r}": (seed, r)
            for seed in FLEET_SEEDS for r in range(6)}


def run_fleet(key: str) -> str:
    seed, r = fleet_cases()[key]
    return _digest(fleet_report(seed).per_replica[r], ARRAYS)


PINNED: Dict[str, str] = {
    "default/card.failure/q20k/b32": "403b0c9d28ba5818",
    "default/card.failure/q20k/b4": "d0a74b8257864413",
    "default/card.failure/q80k/b32": "828a640776abb194",
    "default/card.failure/q80k/b4": "fee4cbd46755ff78",
    "default/card.slowdown/q20k/b32": "30fbf0edc9d0b3db",
    "default/card.slowdown/q20k/b4": "fdb4aacbc6a10514",
    "default/card.slowdown/q80k/b32": "c2f6af54ce41985e",
    "default/card.slowdown/q80k/b4": "ef5fd236efb37587",
    "default/none/q20k/b32": "ce808fc7adfe5b95",
    "default/none/q20k/b4": "370c37ec5264fa9d",
    "default/none/q80k/b32": "749fa223a755220d",
    "default/none/q80k/b4": "cef8d76fd3ca8c93",
    "hedge/card.failure/q20k/b32": "71aaf39f7f22e9ca",
    "hedge/card.failure/q20k/b4": "5b816319bef940c6",
    "hedge/card.failure/q80k/b32": "0c5f3aab94ded898",
    "hedge/card.failure/q80k/b4": "5a488f089694c5ed",
    "hedge/card.slowdown/q20k/b32": "f16e1ebad3681aa5",
    "hedge/card.slowdown/q20k/b4": "69dc9c3aad0ea354",
    "hedge/card.slowdown/q80k/b32": "c807472a174451aa",
    "hedge/card.slowdown/q80k/b4": "ee5b7bb0888e2312",
    "hedge/none/q20k/b32": "d96c9669a150159b",
    "hedge/none/q20k/b4": "62515c473ede071c",
    "hedge/none/q80k/b32": "bd19b8d2589d00b2",
    "hedge/none/q80k/b4": "82242c58df0a7309",
    "retry/card.failure/q20k/b32": "0c1ed98231062458",
    "retry/card.failure/q20k/b4": "f6a0bb29bba48b1f",
    "retry/card.failure/q80k/b32": "c2740b369fa7d529",
    "retry/card.failure/q80k/b4": "5862a44658aaccde",
    "retry/card.slowdown/q20k/b32": "a4460353788acc00",
    "retry/card.slowdown/q20k/b4": "b6c1ca172228751c",
    "retry/card.slowdown/q80k/b32": "dc6468572006b6d8",
    "retry/card.slowdown/q80k/b4": "adf7fd4babb297ac",
    "retry/none/q20k/b32": "353762cc513ec3ef",
    "retry/none/q20k/b4": "03cccba9ef6aafb7",
    "retry/none/q80k/b32": "0970e80fe61dfce5",
    "retry/none/q80k/b4": "a3046bd177f194e9",
    "shed/card.failure/q20k/b32": "8f3a54289ef8d40c",
    "shed/card.failure/q20k/b4": "9067d94f0730701f",
    "shed/card.failure/q80k/b32": "7a70e10c4892bfbe",
    "shed/card.failure/q80k/b4": "31d62c70a74612a1",
    "shed/card.slowdown/q20k/b32": "18d5582cbf30c6d1",
    "shed/card.slowdown/q20k/b4": "4ae16fa3c8e1114f",
    "shed/card.slowdown/q80k/b32": "092d2885bbb0c28d",
    "shed/card.slowdown/q80k/b4": "15528c1de18b34e1",
    "shed/none/q20k/b32": "fae0000e23133b9c",
    "shed/none/q20k/b4": "5d7c3284119f1706",
    "shed/none/q80k/b32": "72488ca9b16de601",
    "shed/none/q80k/b4": "71107ba8b5f6d048",
}

PINNED_TRACED: Dict[str, str] = {
    "q200k-b16": "f3c4b9a2e12b34ad",
    "q200k-b256": "78a6a731202059a1",
    "q20k-b16": "8974b51efd099532",
    "q80k-b32-some": "d49f3da386c5fc08",
}


PINNED_LADDER: Dict[str, str] = {
    "default/q10k": "084547c1b0ae3d09",
    "default/q2k": "29cbd2afc76ff693",
    "default/q30k": "e7814cd49ab4b060",
    "default/q400k": "48c987c449c97816",
    "default/q60k": "9f9003c64170f5dc",
    "retry/q10k": "05fdd6984ab3ec07",
    "retry/q2k": "78971b010af30227",
    "retry/q30k": "34faf30e87d2c401",
    "retry/q400k": "e7dd4552e18af08c",
    "retry/q60k": "9ef57fb748196fec",
    "shed/q10k": "084547c1b0ae3d09",
    "shed/q2k": "29cbd2afc76ff693",
    "shed/q30k": "e7814cd49ab4b060",
    "shed/q400k": "d3b94761b49118d3",
    "shed/q60k": "9f9003c64170f5dc",
}

PINNED_FLEET: Dict[str, str] = {
    "seed0/replica0": "ea807c45e223c5c2",
    "seed0/replica1": "3c14a49cbfb0e2e0",
    "seed0/replica2": "3de22c3de57d18f0",
    "seed0/replica3": "d1cc6e3a5e1bd71f",
    "seed0/replica4": "6fb31343cf54b76f",
    "seed0/replica5": "0cd3778242d436d3",
    "seed1/replica0": "8ad2c38d2767ae8a",
    "seed1/replica1": "921f3dd0543451a1",
    "seed1/replica2": "ee7649507d949b97",
    "seed1/replica3": "8ffd31c3ea9a3e5f",
    "seed1/replica4": "48f4ec2ab0c6f3fa",
    "seed1/replica5": "406d2a82e3802c5a",
    "seed2/replica0": "c0ff3195f44a6ad4",
    "seed2/replica1": "c98c5fbc6f7d13c0",
    "seed2/replica2": "41db863a516bce68",
    "seed2/replica3": "f9be0b1aafe8016f",
    "seed2/replica4": "f0275ffc0bd9c822",
    "seed2/replica5": "6e7a21c0043d93b9",
}


@pytest.mark.parametrize("key", sorted(grid()))
def test_grid_outputs_are_pinned(key):
    assert run_case(key) == PINNED[key]


@pytest.mark.parametrize("key", sorted(TRACED))
def test_traced_outputs_are_pinned(key):
    assert run_traced(key) == PINNED_TRACED[key]


@pytest.mark.parametrize("key", sorted(ladder()))
def test_ladder_outputs_are_pinned(key):
    assert run_ladder(key) == PINNED_LADDER[key]


@pytest.mark.parametrize("key", sorted(fleet_cases()))
def test_fleet_replica_outputs_are_pinned(key):
    assert run_fleet(key) == PINNED_FLEET[key]


if __name__ == "__main__":
    for run, keys in ((run_case, grid()), (run_traced, TRACED),
                      (run_ladder, ladder()), (run_fleet, fleet_cases())):
        print("{")
        for key in sorted(keys):
            print(f"    {json.dumps(key)}: {json.dumps(run(key))},")
        print("}")
