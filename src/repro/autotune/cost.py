"""Phase-1 candidate ranking with the analytical cost model.

:func:`candidate_cost` maps a :class:`~repro.autotune.space.MappingCandidate`
to predicted seconds by starting from :func:`repro.eval.opmodel.estimate_op`
(the calibrated roofline the evaluation chapter uses) and layering on the
mapping-specific effects the opmodel's whole-chip curves cannot see:

* **sub-grid occupancy** — a 2×2 sub-grid has 1/16 of the grid's MACs,
  so compute time stretches by the unused-PE fraction;
* **multicast off** — each column group re-fetches its own copy of the
  A stripes and each row its B slice, replicating NoC/DRAM traffic
  (the Section 3.5 ablation);
* **single-core streams** — one processor core runs both the load and
  compute command streams, serialising what the dual-core PE overlaps;
* **k_split** — deeper reduction splits shrink each PE's B slice but
  add a partial-sum forwarding pass per extra stage;
* **prefetch depth** — the Figure 12 pipelining term: a depth-``p``
  pipeline keeps the DMA busy ``p/(p+1)`` of the time;
* **SRAM placement** — operand streams move at on-chip rather than
  LPDDR5 bandwidth;
* **unfused TBE** — one dispatch *per table* and per-launch parallelism
  of only ``batch`` bags (the Section 6.1 launch-amortisation story).

The model is intentionally cheap (microseconds per candidate), so
:func:`rank_space` costs every legal candidate of a space; it only has
to *rank* well: phase 2 re-measures the top few in the DES.  It is
a pure function of (shape, candidate) — no RNG, no globals — which the
property suite relies on for cost invariance under re-canonicalisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.compiler.ops import OpCosts
from repro.config import MTIA_V1, ChipConfig
from repro.eval.machines import MTIA_MACHINE, MachineModel
from repro.eval.opmodel import estimate_op

from repro.autotune.space import (FCShape, MappingCandidate, MappingSpace,
                                  TBEShape)


@dataclass(frozen=True)
class CostedCandidate:
    """A candidate with its phase-1 predicted cost."""

    candidate: MappingCandidate
    cost_s: float
    breakdown: Dict[str, float]

    def sort_key(self):
        """Total order: cheapest first, candidate key breaks ties."""
        return (self.cost_s, self.candidate.key())


def candidate_cost(shape, cand: MappingCandidate,
                   machine: MachineModel = MTIA_MACHINE,
                   config: ChipConfig = MTIA_V1) -> CostedCandidate:
    """Predicted seconds for running ``shape`` with mapping ``cand``."""
    c = cand.canonical()
    if c.op == "fc":
        return _fc_cost(shape, c, machine, config)
    return _tbe_cost(shape, c, machine, config)


def rank_space(space: MappingSpace) -> List[CostedCandidate]:
    """Phase 1: every legal candidate of ``space``, cheapest first."""
    return sorted((candidate_cost(space.shape, c, config=space.config)
                   for c in space.candidates()),
                  key=CostedCandidate.sort_key)


def _fc_cost(shape: FCShape, c: MappingCandidate, machine: MachineModel,
             config: ChipConfig) -> CostedCandidate:
    elem = 1 if shape.dtype == "int8" else 2
    flops = 2.0 * shape.m * shape.k * shape.n
    bytes_in = float((shape.m + shape.n) * shape.k * elem)
    bytes_out = float(shape.m * shape.n * 4)
    costs = OpCosts(flops, bytes_in, bytes_out, "fc")

    grid_pes = config.grid_rows * config.grid_cols
    occupancy = c.num_pes / grid_pes
    base = estimate_op(machine, "fc", costs, dtype=shape.dtype,
                       in_sram=(c.operands == "sram"),
                       attrs={"util_factor": occupancy})

    compute = base.compute_seconds
    if not c.dual_core:
        # One core issues both command streams: the DMA/compute overlap
        # the dual-core PE buys is gone, so streaming cost lands on the
        # compute path instead of hiding under it.
        compute *= 1.5

    memory = base.memory_seconds
    n_split = c.cols // c.k_split
    if not c.use_multicast:
        # Without NoC coalescing every column group refetches A and
        # every row refetches its B slice.
        a_bytes = shape.m * shape.k * elem
        b_bytes = shape.n * shape.k * elem
        replicated = a_bytes * n_split + b_bytes * c.rows + bytes_out
        memory *= replicated / costs.bytes_total

    # Each extra k stage ships a 64x64 INT32 partial-sum block across
    # the reduction network per output block.
    reduce_bytes = (c.k_split - 1) * shape.m * shape.n * 4
    reduce_s = reduce_bytes / (machine.onchip_gbs * 1e9)

    seconds = base.launch_seconds + max(compute, memory) + reduce_s
    return CostedCandidate(
        candidate=c, cost_s=seconds,
        breakdown={"launch_s": base.launch_seconds,
                   "compute_s": compute, "memory_s": memory,
                   "reduce_s": reduce_s, "occupancy": occupancy})


def _tbe_cost(shape: TBEShape, c: MappingCandidate, machine: MachineModel,
              config: ChipConfig) -> CostedCandidate:
    dim = shape.embedding_dim
    lookups_per_bag = shape.pooling_factor
    bag_bytes = lookups_per_bag * dim + dim * 4   # int8 rows + fp32 out
    flops_per_bag = 2.0 * lookups_per_bag * dim   # dequant + accumulate

    if c.fused:
        launches = 1
        bags_per_launch = shape.num_tables * shape.batch_size
    else:
        launches = shape.num_tables
        bags_per_launch = shape.batch_size

    costs = OpCosts(flops_per_bag * bags_per_launch,
                    float(lookups_per_bag * dim * bags_per_launch),
                    float(dim * 4 * bags_per_launch), "eb")
    base = estimate_op(machine, "eb", costs, dtype="int8",
                       in_sram=(c.operands == "sram"),
                       attrs={"pooling": shape.pooling_factor, "dim": dim,
                              "batch": bags_per_launch})

    memory = base.memory_seconds
    if c.operands == "sram":
        # Pinned tables gather at on-chip bandwidth — the hand-tuned
        # "sufficient locality in the SRAM" regime of Section 6.1.
        memory *= machine.dram_gbs / machine.onchip_gbs

    # Software pipelining (Figure 12): a depth-p prefetch keeps the DMA
    # busy p/(p+1) of the time.  The calibration curves were fit at the
    # kernel default depth of 2, so normalise there.
    pipeline = (c.prefetch_rows / (c.prefetch_rows + 1.0)) / (2.0 / 3.0)
    memory /= pipeline

    # Bags round-robin over the sub-grid; the launch finishes when the
    # most-loaded PE drains its share.  The roofline assumed the full
    # grid, so scale by the waves ratio.
    full_grid = config.grid_rows * config.grid_cols
    waves = math.ceil(bags_per_launch / c.num_pes)
    waves_ref = math.ceil(bags_per_launch / full_grid)
    skew = waves / max(waves_ref, 1)
    memory *= skew
    compute = base.compute_seconds * skew

    per_launch = base.launch_seconds + max(compute, memory)
    seconds = per_launch * launches
    return CostedCandidate(
        candidate=c, cost_s=seconds,
        breakdown={"launch_s": base.launch_seconds * launches,
                   "compute_s": compute * launches,
                   "memory_s": memory * launches,
                   "pipeline": pipeline, "waves": float(waves),
                   "launches": float(launches)})
