"""Regression pin: the DES kernel's event stream on the benchmark chips.

The ``chip_fc`` (Figure 7 INT8 FC, 4x4 sub-grid) and ``chip_tbe``
(Figure 12 TBE gather) kernels of ``bench/workloads.py`` run at two
seeds each.  A plain run pins the simulated cycles, the number of
callbacks the engine executed and the peak time-queue size.  A second
run with stall attribution and the critical-path edge recorder on pins
a SHA-256 of ``stalls_by_track()``, of the critical-path JSON and of
the recorded edge stream: every ticket the kernel drew, its causal
parent, its kind and label, and the order and time it ran at.

A mismatch means the kernel's scheduling changed.  If that is intended,
regenerate the literals with ``python -m tests.sim.test_engine_pin``
and say why in the change.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core.accelerator import Accelerator
from repro.kernels.fc import run_fc
from repro.kernels.tbe import TBEConfig, run_tbe
from repro.obs.critical import extract_critical_path

SEEDS = (0, 1)

#: the ``chip_tbe`` shape; tables are drawn once from seed 0, as the
#: benchmark's ``setup`` does
TBE = TBEConfig(num_tables=8, rows_per_table=100_000, embedding_dim=64,
                pooling_factor=16, batch_size=32)


def run_chip_fc(seed: int, **flags) -> Tuple[Accelerator, float]:
    rng = np.random.default_rng(seed)
    a = rng.integers(-128, 128, size=(512, 1024), dtype=np.int8)
    b_t = rng.integers(-128, 128, size=(256, 1024), dtype=np.int8)
    acc = Accelerator(**flags)
    result = run_fc(acc, a, b_t, subgrid=acc.subgrid((0, 0), 4, 4),
                    k_split=2)
    return acc, result.cycles


def run_chip_tbe(seed: int, **flags) -> Tuple[Accelerator, float]:
    tables = np.random.default_rng(0).integers(
        -128, 128, dtype=np.int8,
        size=(TBE.num_tables, TBE.rows_per_table, TBE.embedding_dim))
    indices = np.random.default_rng(seed).integers(
        0, TBE.rows_per_table, dtype=np.int64,
        size=(TBE.num_tables, TBE.batch_size, TBE.pooling_factor))
    acc = Accelerator(**flags)
    result = run_tbe(acc, TBE, tables, indices, prefetch_rows=1)
    return acc, result.cycles


KERNELS = {"chip_fc": run_chip_fc, "chip_tbe": run_chip_tbe}


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _edge_stream(edges) -> list:
    return [[t, edges.parent[t], edges.kind[t], edges.label[t],
             edges.wait_parent.get(t), edges.time.get(t)]
            for t in sorted(edges.parent)] + [edges.order]


def pin(kernel: str, seed: int) -> Dict:
    run = KERNELS[kernel]
    acc, cycles = run(seed)
    engine = acc.engine
    observed, observed_cycles = run(seed, observe=True, record_edges=True)
    path = extract_critical_path(observed.edges)
    return {
        "sim_cycles": float(cycles),
        "events": engine.events_processed,
        "peak_heap": engine.peak_heap_size,
        "observed_cycles": float(observed_cycles),
        "observed_events": observed.engine.events_processed,
        "stalls": _sha(observed.obs.stalls_by_track()),
        "critpath": _sha(path.to_dict()),
        "edges": _sha(_edge_stream(observed.edges)),
    }


PINNED: Dict[str, Dict] = {
    "chip_fc/0": {"sim_cycles": 17783.836363636365, "events": 102709, "peak_heap": 260, "observed_cycles": 17783.836363636365, "observed_events": 102709, "stalls": "1ab8f9214c9c1b68", "critpath": "af38aa5f6799effa", "edges": "3d7800b67529ae92"},
    "chip_fc/1": {"sim_cycles": 17783.836363636365, "events": 102709, "peak_heap": 260, "observed_cycles": 17783.836363636365, "observed_events": 102709, "stalls": "1ab8f9214c9c1b68", "critpath": "af38aa5f6799effa", "edges": "3d7800b67529ae92"},
    "chip_tbe/0": {"sim_cycles": 8368.777272727264, "events": 133888, "peak_heap": 260, "observed_cycles": 8368.777272727264, "observed_events": 133888, "stalls": "07ffd8347bbc7427", "critpath": "eaf51cb32eb80b86", "edges": "5e74c99f87a0545c"},
    "chip_tbe/1": {"sim_cycles": 8373.263636363625, "events": 133888, "peak_heap": 260, "observed_cycles": 8373.263636363625, "observed_events": 133888, "stalls": "e69baf5ac3296e03", "critpath": "ccf1e318912ac2d7", "edges": "2d5d6228aaaafe65"},
}


CASES = [f"{kernel}/{seed}" for kernel in KERNELS for seed in SEEDS]


@pytest.mark.parametrize("case", CASES)
def test_engine_outputs_are_pinned(case):
    kernel, seed = case.split("/")
    assert pin(kernel, int(seed)) == PINNED[case]


if __name__ == "__main__":
    print("{")
    for case in CASES:
        kernel, seed = case.split("/")
        print(f"    {json.dumps(case)}: {json.dumps(pin(kernel, int(seed)))},")
    print("}")
