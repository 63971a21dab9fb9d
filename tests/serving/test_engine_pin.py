"""Regression pin: the serving engine's outputs, byte for byte.

Every report array, every ``BatchRecord.to_dict()`` and the headline
scalars of a small seeded grid are hashed with SHA-256 and compared
against digests recorded before the plain and resilient batching loops
were folded into one engine.  The grid crosses four resilience
configurations with three fault plans, two offered loads and two
batching windows; a second set runs the default configuration with
request-waterfall spans on, so the span trees are pinned too.

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
from repro.obs.spans import SpanTracer
from repro.serving import BatchingConfig, ResilienceConfig, simulate_serving

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

#: (qps, batching, trace_batches) of the span-traced default runs
TRACED = {
    "q20k-b16": (20_000.0, BatchingConfig(16, 100.0), None),
    "q200k-b16": (200_000.0, BatchingConfig(16, 100.0), None),
    "q200k-b256": (200_000.0, BatchingConfig(256, 300.0), None),
    "q80k-b32-some": (80_000.0, BatchingConfig(32, 100.0), {0, 3, 7}),
}

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
            [s.span_id, s.parent_id, s.track, s.name, s.start_us, s.end_us,
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
    qps, batching, trace_batches = TRACED[key]
    spans = SpanTracer(enabled=True)
    report = engine(latency_model, qps, batching, num_requests=REQUESTS,
                    seed=17, registry=MetricRegistry(), spans=spans,
                    trace_batches=trace_batches, trace_requests_per_batch=5)
    return _digest(report, TRACED_ARRAYS, spans)


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


@pytest.mark.parametrize("key", sorted(grid()))
def test_grid_outputs_are_pinned(key):
    assert run_case(key) == PINNED[key]


@pytest.mark.parametrize("key", sorted(TRACED))
def test_traced_outputs_are_pinned(key):
    assert run_traced(key) == PINNED_TRACED[key]


if __name__ == "__main__":
    for run, keys in ((run_case, grid()), (run_traced, TRACED)):
        print("{")
        for key in sorted(keys):
            print(f"    {json.dumps(key)}: {json.dumps(run(key))},")
        print("}")
