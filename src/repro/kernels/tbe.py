"""EmbeddingBag / TableBatchedEmbedding (TBE) kernel.

A recommendation model's sparse path: for every (table, sample) *bag*,
gather ``pooling_factor`` rows of an embedding table by random index and
reduce them to a single pooled vector (Section 1).  Production models
merge hundreds of EmbeddingBag operators into TBE operators to amortise
launch overheads (Section 6.1, "Sparse computation").

Mapping onto MTIA: bags are distributed round-robin over the PEs of the
sub-grid (thread-level parallelism).  Within a PE the cores split
producer/consumer:

* core 0 issues one DMA load per looked-up row into ``CB_ROWS``;
* core 1 dequantises and accumulates each row onto an FP32 accumulator
  with the vector unit, then pushes the pooled vector through
  ``CB_OUT`` back to DRAM.

``prefetch_rows`` sets the CB_ROWS capacity and therefore how many row
fetches can be in flight — the knob behind the paper's observation that
the production kernel reaches only 10-20 % of DRAM bandwidth ("there
are not enough outstanding requests to hide the latency") while a
hand-tuned kernel with deep pipelining reaches >60 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import require_positive
from repro.isa.commands import DMALoad, DMAStore, InitCB, PushCB
from repro.core.accelerator import Accelerator
from repro.core.grid import SubGrid
from repro.core.sync import Barrier
from repro.sim import SimulationError

CB_ROWS = 0
CB_OUT = 1

#: the dimensions of a TBE shape; each must be >= 1
TBE_DIMS = ("num_tables", "rows_per_table", "embedding_dim",
            "pooling_factor", "batch_size")


@dataclass
class TBEConfig:
    """Shape of one TBE operator (the Figure 12 triplets + batch)."""

    num_tables: int
    rows_per_table: int
    embedding_dim: int
    pooling_factor: int
    batch_size: int
    #: per-table dequantisation scale for the 8-bit rows
    scale: float = 1.0 / 64.0

    def __post_init__(self) -> None:
        require_positive(**{dim: getattr(self, dim) for dim in TBE_DIMS})

    @property
    def num_bags(self) -> int:
        return self.num_tables * self.batch_size

    @property
    def total_lookups(self) -> int:
        return self.num_bags * self.pooling_factor

    @property
    def lookup_bytes(self) -> int:
        """Bytes gathered from memory (the Figure 12 GB/s numerator)."""
        return self.total_lookups * self.embedding_dim


@dataclass
class Bag:
    """One pooled lookup: which table, which rows, where the output goes."""

    table: int
    sample: int
    indices: np.ndarray
    #: optional per-index pooling weights (weighted EmbeddingBag)
    weights: Optional[np.ndarray] = None


@dataclass
class TBEResult:
    output: np.ndarray       #: (num_tables, batch, dim) pooled FP32
    cycles: float
    config: TBEConfig

    def gbs(self, frequency_ghz: float) -> float:
        """Achieved gather bandwidth in GB/s."""
        if self.cycles <= 0:
            return 0.0
        return self.config.lookup_bytes * frequency_ghz / self.cycles


def generate_tables(config: TBEConfig, seed: int = 0) -> np.ndarray:
    """Random INT8 embedding tables, shape (tables, rows, dim)."""
    rng = np.random.default_rng(seed)
    return rng.integers(-128, 128,
                        size=(config.num_tables, config.rows_per_table,
                              config.embedding_dim),
                        dtype=np.int8)


def generate_indices(config: TBEConfig, seed: int = 1,
                     alpha: Optional[float] = None) -> np.ndarray:
    """Lookup indices, shape (tables, batch, pooling).

    ``alpha`` enables a Zipf-like popularity skew (production embedding
    accesses are heavily skewed, which is what makes the SRAM cache
    configuration effective, Section 6.1); ``None`` gives uniform.
    """
    rng = np.random.default_rng(seed)
    shape = (config.num_tables, config.batch_size, config.pooling_factor)
    if alpha is None:
        return rng.integers(0, config.rows_per_table, size=shape,
                            dtype=np.int64)
    ranks = rng.zipf(alpha, size=shape)
    return np.minimum(ranks - 1, config.rows_per_table - 1).astype(np.int64)


def pooled_reference(tables: np.ndarray, indices: np.ndarray,
                     scale: float,
                     weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Numpy reference: dequantised (optionally weighted) sum-pooled bags."""
    num_tables, batch, _ = indices.shape
    dim = tables.shape[2]
    out = np.zeros((num_tables, batch, dim), dtype=np.float32)
    for t in range(num_tables):
        for b in range(batch):
            rows = tables[t, indices[t, b]].astype(np.float32)
            if weights is not None:
                rows = rows * weights[t, b][:, None]
            out[t, b] = rows.sum(axis=0) * scale
    return out


# ---------------------------------------------------------------------------
# Core programs
# ---------------------------------------------------------------------------

def producer_program(ctx, bags: Sequence[Bag], config: TBEConfig,
                     table_addrs: Sequence[int], cb_rows_bytes: int,
                     barrier: Barrier) -> Generator:
    """Core 0: configure CBs and stream looked-up rows in."""
    dim = config.embedding_dim
    out_bytes = dim * 4
    yield from ctx.issue(InitCB(cb_id=CB_ROWS, base=0, size=cb_rows_bytes))
    yield from ctx.issue(InitCB(cb_id=CB_OUT, base=cb_rows_bytes,
                                size=2 * out_bytes))
    yield from ctx.drain()
    yield from barrier.wait()
    for bag in bags:
        base = table_addrs[bag.table]
        for index in bag.indices:
            yield from ctx.issue(DMALoad(
                addr=base + int(index) * dim, row_bytes=dim, cb_id=CB_ROWS))
    yield from ctx.drain()


def consumer_program(ctx, bags: Sequence[Bag], config: TBEConfig,
                     out_addr: int, cb_rows_bytes: int,
                     barrier: Barrier) -> Generator:
    """Core 1: pool each bag with the vector unit and store it."""
    pe = ctx.pe
    dim = config.embedding_dim
    out_bytes = dim * 4
    yield from barrier.wait()
    rows_cb = pe.cb(CB_ROWS)
    out_cb = pe.cb(CB_OUT)
    for bag in bags:
        # Wait for output space before scribbling into the CB_OUT region.
        yield out_cb.wait_space(out_bytes)
        acc_addr = out_cb.base + out_cb.write_ptr
        yield from ctx.vector.fill(acc_addr, dim, 0.0)
        for position in range(len(bag.indices)):
            yield rows_cb.wait_elements(dim)
            row_addr = rows_cb.base + rows_cb.read_ptr
            scale = config.scale
            if bag.weights is not None:
                scale = scale * float(bag.weights[position])
            yield from ctx.vector.dequant_accumulate(
                row_addr, acc_addr, dim, scale)
            rows_cb.pop(dim)
        # Wait for the push to land before the next bag reuses the
        # write-pointer region (double-buffer handoff).
        yield from ctx.issue_and_wait(PushCB(cb_id=CB_OUT, nbytes=out_bytes))
        dest = out_addr + ((bag.table * config.batch_size + bag.sample)
                           * out_bytes)
        yield from ctx.issue(DMAStore(addr=dest, row_bytes=out_bytes,
                                      cb_id=CB_OUT))
    yield from ctx.drain()


# ---------------------------------------------------------------------------
# Host-side driver
# ---------------------------------------------------------------------------

def assign_bags(config: TBEConfig, indices: np.ndarray, num_pes: int,
                weights: Optional[np.ndarray] = None) -> List[List[Bag]]:
    """Round-robin (table, sample) bags over ``num_pes`` PEs."""
    assignments: List[List[Bag]] = [[] for _ in range(num_pes)]
    bag_id = 0
    for t in range(config.num_tables):
        for b in range(config.batch_size):
            bag_weights = None if weights is None else weights[t, b]
            assignments[bag_id % num_pes].append(
                Bag(table=t, sample=b, indices=indices[t, b],
                    weights=bag_weights))
            bag_id += 1
    return assignments


def launch_tbe_programs(acc: Accelerator, config: TBEConfig,
                        table_addrs: Sequence[int], out_addr: int,
                        subgrid: SubGrid, prefetch_rows: int = 2,
                        indices: Optional[np.ndarray] = None,
                        weights: Optional[np.ndarray] = None,
                        seed: int = 0) -> List:
    """Launch TBE core programs without running the engine.

    Returns the launched processes, so the firmware scheduler can run
    TBE jobs concurrently with other kernels on disjoint sub-grids.
    """
    if indices is None:
        indices = generate_indices(config, seed + 1)
    dim = config.embedding_dim
    cb_rows_bytes = prefetch_rows * dim
    pes = list(subgrid)
    assignments = assign_bags(config, indices, len(pes), weights)
    active = [(pe, bags) for pe, bags in zip(pes, assignments) if bags]
    barrier = acc.barrier(2 * len(active), "tbe.start")
    procs = []
    for pe, bags in active:
        procs.append(acc.launch(producer_program, pe.cores[0], bags, config,
                                table_addrs, cb_rows_bytes, barrier,
                                name=f"tbe.prod{pe.coord}"))
        procs.append(acc.launch(consumer_program, pe.cores[1], bags, config,
                                out_addr, cb_rows_bytes, barrier,
                                name=f"tbe.cons{pe.coord}"))
    return procs


def run_tbe(acc: Accelerator, config: TBEConfig,
            tables: Optional[np.ndarray] = None,
            indices: Optional[np.ndarray] = None,
            subgrid: Optional[SubGrid] = None,
            prefetch_rows: int = 2,
            weights: Optional[np.ndarray] = None,
            seed: int = 0,
            operand_region: str = "dram",
            cache=None) -> TBEResult:
    """Run one TBE operator on the simulated accelerator.

    ``prefetch_rows`` controls software pipelining depth (see module
    docstring).  Returns pooled FP32 output of shape
    (num_tables, batch, dim) plus the cycle count.

    ``operand_region`` places the embedding tables: ``"dram"`` (default,
    gathers stream from LPDDR5 through the cache-mode SRAM) or
    ``"sram"``, which pins every table in the on-chip SRAM scratchpad —
    the "sufficient locality in the SRAM" regime the paper credits with
    hand-tuned kernels reaching 500 GB/s (Section 6.1).  ``"sram"``
    requires ``sram_mode=SRAMMode.SCRATCHPAD`` and all tables to fit in
    the 128 MB SRAM; the pooled output always lands in DRAM.

    ``cache`` accepts a :class:`repro.simcache.SimCache` (or set
    ``REPRO_SIM_CACHE``) to replay content-addressed results instead of
    re-simulating; replayed results are bit-identical to a fresh run.
    """
    from repro import simcache
    from repro.simcache.cache import (machine_payload, record_stalls,
                                      replay_stalls, usable_for)

    if operand_region not in ("dram", "sram"):
        raise ValueError(f"operand_region must be 'dram' or 'sram', "
                         f"got {operand_region!r}")
    if operand_region == "sram":
        from repro.memory import SRAMMode
        if acc.memory.sram_mode is not SRAMMode.SCRATCHPAD:
            raise SimulationError(
                "operand_region='sram' needs an accelerator with "
                "sram_mode=SRAMMode.SCRATCHPAD")
    tables_given = tables is not None
    indices_given = indices is not None
    if tables is None:
        tables = generate_tables(config, seed)
    if indices is None:
        indices = generate_indices(config, seed + 1)
    if prefetch_rows < 1:
        raise SimulationError("prefetch_rows must be >= 1")
    dim = config.embedding_dim
    cb_rows_bytes = prefetch_rows * dim
    lm_capacity = acc.config.local_memory.capacity_bytes
    if cb_rows_bytes + 2 * dim * 4 > lm_capacity:
        raise SimulationError("TBE CBs exceed local memory; reduce "
                              "prefetch_rows or embedding_dim")
    if subgrid is None:
        subgrid = acc.subgrid()

    sim_cache = simcache.resolve_cache(cache)
    key = None
    if usable_for(sim_cache, acc):
        payload = {
            "op": "tbe", "machine": machine_payload(acc),
            "config": config,
            "subgrid": (subgrid.origin, subgrid.rows, subgrid.cols),
            "prefetch_rows": prefetch_rows,
            "tables": (simcache.array_digest(tables)
                       if tables_given else f"generated:{seed}"),
            "indices": (simcache.array_digest(indices)
                        if indices_given else f"generated:{seed + 1}"),
            "weights": (simcache.array_digest(weights)
                        if weights is not None else None),
        }
        if operand_region != "dram":
            # Keyed only when non-default so pre-existing DRAM-placed
            # fingerprints stay valid.
            payload["operand_region"] = operand_region
        key = simcache.fingerprint(payload)
        entry = sim_cache.lookup(key, "tbe",
                                 need_stalls=acc.engine.obs.enabled)
        if entry is not None:
            replay_stalls(acc, entry)
            return TBEResult(output=entry.outputs["output"].copy(),
                             cycles=entry.cycles, config=config)

    if operand_region == "sram":
        table_addrs = [acc.upload(tables[t],
                                  acc.alloc_sram(tables[t].nbytes))
                       for t in range(config.num_tables)]
    else:
        table_addrs = [acc.upload(tables[t])
                       for t in range(config.num_tables)]
    out_addr = acc.alloc_dram(config.num_bags * dim * 4)

    start = acc.engine.now
    launch_tbe_programs(acc, config, table_addrs, out_addr, subgrid,
                        prefetch_rows=prefetch_rows, indices=indices,
                        weights=weights)
    acc.run()
    cycles = acc.engine.now - start

    output = acc.download(out_addr,
                          (config.num_tables, config.batch_size, dim),
                          np.float32)
    if key is not None:
        stalls, recorded = record_stalls(acc)
        sim_cache.store(simcache.CacheEntry(
            key=key, op="tbe", cycles=cycles,
            outputs={"output": output.copy()},
            stalls=stalls, stalls_recorded=recorded,
            extras={"num_tables": config.num_tables,
                    "batch_size": config.batch_size,
                    "embedding_dim": dim,
                    "pooling_factor": config.pooling_factor,
                    "prefetch_rows": prefetch_rows}))
    return TBEResult(output=output, cycles=cycles, config=config)
