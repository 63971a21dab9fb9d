"""Tensor placement: best-effort producer-consumer data in on-chip SRAM.

Section 5: the model compiler "implements a tensor placement scheme
that takes a best-effort approach to keep producer-consumer data in
on-chip memory", and the evaluation repeatedly shows why — operators
run at SRAM bandwidth when their tensors are resident and drop to ~40 %
efficiency from DRAM (Figure 13).

The pass walks the graph in execution order with a free-list-less bump
model of SRAM liveness: an intermediate tensor is placed in SRAM if it
fits alongside the other live SRAM tensors; otherwise it spills to
DRAM.  Weights (including embedding tables) always live in DRAM — they
are far larger than the 128 MB SRAM (Table IV) — unless pinned
explicitly via ``pin_weights``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.compiler.ir import Graph


@dataclass
class PlacementResult:
    """Per-tensor region decisions plus accounting."""

    regions: Dict[str, str] = field(default_factory=dict)
    sram_peak_bytes: int = 0
    spilled: List[str] = field(default_factory=list)

    def region(self, name: str) -> str:
        return self.regions.get(name, "dram")

    def sram_hit_fraction(self, graph: Graph) -> float:
        """Fraction of inter-operator traffic that stays in SRAM."""
        sram = total = 0
        for node in graph:
            if node.op in ("input", "weight"):
                continue
            for inp in node.inputs:
                nbytes = graph.node(inp).meta.nbytes
                total += nbytes
                if self.region(inp) == "sram":
                    sram += nbytes
        return sram / total if total else 0.0


def place_tensors(graph: Graph, sram_capacity: int,
                  pin_weights: Set[str] = frozenset()) -> PlacementResult:
    """Decide SRAM/DRAM placement for every tensor in ``graph``.

    ``sram_capacity`` is the budget in bytes (usually
    ``ChipConfig.sram.capacity_bytes``, possibly reduced when part of
    the SRAM runs as a cache).  ``pin_weights`` names weight nodes to
    force-resident in SRAM (small hot tables).
    """
    result = PlacementResult()
    expiring = graph.last_uses()

    #: intermediates in SRAM, freed at their last use
    live_sram: Dict[str, int] = {}
    used = 0
    for idx, node in enumerate(graph):
        for name in expiring.pop(idx, ()):
            if name in live_sram:
                used -= live_sram.pop(name)
        nbytes = node.meta.nbytes
        if node.op == "weight":
            if node.name in pin_weights and used + nbytes <= sram_capacity:
                # Pinned weights stay resident for the whole graph, so
                # they count in ``used`` but never join ``live_sram``.
                result.regions[node.name] = "sram"
                used += nbytes
                result.sram_peak_bytes = max(result.sram_peak_bytes, used)
            else:
                result.regions[node.name] = "dram"
            continue
        if node.op == "input":
            result.regions[node.name] = "dram"
            continue
        # Graph outputs must land in DRAM for the host to read them.
        if node.name in graph.outputs:
            result.regions[node.name] = "dram"
            continue
        # TBE/EmbeddingBag kernels write their pooled output to DRAM:
        # the gather itself streams table rows from DRAM through the
        # cache-mode SRAM, so there is no scratchpad slot to land in.
        if node.op in ("embedding_bag", "tbe"):
            result.regions[node.name] = "dram"
            continue
        if used + nbytes <= sram_capacity:
            result.regions[node.name] = "sram"
            live_sram[node.name] = nbytes
            used += nbytes
            result.sram_peak_bytes = max(result.sram_peak_bytes, used)
        else:
            result.regions[node.name] = "dram"
            result.spilled.append(node.name)
    return result
