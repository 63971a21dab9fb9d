"""The fully-connected (FC) kernel: Section 4's GEMM mapping.

Computes ``C^T = A x B^T`` with ``A`` of shape ``(m, k)`` and ``B^T`` of
shape ``(n, k)``, both row-major with ``k`` innermost ("to increase the
efficiency of memory accesses"), producing ``C^T`` of shape ``(n, m)``.

The work distribution follows Figure 7:

* ``m`` is distributed across sub-grid *rows* in multiples of 64;
* ``n`` is distributed across *column groups* in multiples of 64;
* the reduction dimension ``k`` is distributed across the PEs *within*
  a column group (adjacent columns), so the dedicated reduction network
  can accumulate partial results west-to-east;
* PEs in the same row that handle the same ``k`` slice share their
  ``A`` blocks through row multicast; PEs in the same column share
  their ``B^T`` blocks through column multicast.

Within each PE the two cores split the work exactly as Figure 8's
pseudocode: core 0 (producer) issues the DMA loads; core 1 (consumer)
issues MML / POP / REDUCE commands.  There is no per-iteration
synchronisation — the Command Processor's circular-buffer element/space
checks provide the producer-consumer coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple

import numpy as np

from repro.config import require_positive
from repro.dtypes import DType, dtype as resolve_dtype
from repro.isa.commands import (DMALoad, DMAStore, InitAccumulators, InitCB,
                                MML, PopCB, Reduce)
from repro.core.accelerator import Accelerator
from repro.core.grid import SubGrid
from repro.core.sync import Barrier
from repro.sim import SimulationError

#: The DPE's native tile sizes (Section 3.1.2).
TILE_MN = 64   # per-PE m/n step (2x2 accumulator arrangement)
TILE_K = 32    # per-PE k step


@dataclass
class PEWork:
    """One PE's slice of the FC iteration space (Figure 8's ``work``)."""

    coord: Tuple[int, int]
    m_begin: int
    m_end: int
    n_begin: int
    n_end: int
    k_begin: int
    k_end: int
    #: Position in the west-to-east reduction chain for this n-group.
    chain_index: int
    chain_length: int
    east_neighbor: Optional[Tuple[int, int]] = None
    multicast_a: Optional[object] = None
    multicast_b: Optional[object] = None

    @property
    def first_in_chain(self) -> bool:
        return self.chain_index == 0

    @property
    def last_in_chain(self) -> bool:
        return self.chain_index == self.chain_length - 1


@dataclass
class FCPlan:
    """A validated mapping of an FC operator onto a sub-grid."""

    m: int
    k: int
    n: int
    dtype: DType
    subgrid: SubGrid
    k_split: int
    n_split: int
    work_items: List[PEWork] = field(default_factory=list)

    @property
    def m_per_row(self) -> int:
        return self.m // self.subgrid.rows

    @property
    def k_per_pe(self) -> int:
        return self.k // self.k_split

    @property
    def n_per_group(self) -> int:
        return self.n // self.n_split

    def cb_bytes(self) -> Tuple[int, int, int]:
        """(CB_A, CB_B, CB_C) sizes in bytes for this plan.

        CB_A holds one 64-row A stripe across the PE's whole k slice;
        CB_B holds the PE's entire B^T slice (loaded once, Figure 8);
        CB_C holds one 64x64 INT32/FP32 output block.
        """
        elem = self.dtype.bytes
        cb_a = (self.k_per_pe // TILE_K) * TILE_MN * TILE_K * elem
        cb_b = ((self.n_per_group // TILE_MN) * (self.k_per_pe // TILE_K)
                * TILE_MN * TILE_K * elem)
        cb_c = TILE_MN * TILE_MN * 4
        return cb_a, cb_b, cb_c


# CB IDs used by the kernel.
CB_A, CB_B, CB_C = 0, 1, 2


def plan_fc(subgrid: SubGrid, m: int, k: int, n: int,
            dtype="int8", k_split: Optional[int] = None,
            use_multicast: bool = True) -> FCPlan:
    """Build and validate the Figure 7 distribution.

    ``k_split`` PEs in each row cooperate on the reduction dimension;
    the remaining column parallelism (``cols // k_split``) distributes
    ``n``.  ``use_multicast=False`` disables the NoC coalescing groups
    (every PE fetches its own operand copies) — the ablation knob for
    Section 3.5's multicast feature.  Raises :class:`SimulationError`
    when the shape does not tile onto the sub-grid or the circular
    buffers exceed local memory.
    """
    dtype = resolve_dtype(dtype)
    if k_split is None:
        k_split = _default_k_split(subgrid.cols, k)
    if subgrid.cols % k_split:
        raise SimulationError(
            f"k_split={k_split} must divide sub-grid cols={subgrid.cols}")
    n_split = subgrid.cols // k_split
    if m % (TILE_MN * subgrid.rows):
        raise SimulationError(
            f"m={m} must be a multiple of {TILE_MN}x{subgrid.rows} rows")
    if n % (TILE_MN * n_split):
        raise SimulationError(
            f"n={n} must be a multiple of {TILE_MN}x{n_split} column groups")
    if k % (TILE_K * k_split):
        raise SimulationError(
            f"k={k} must be a multiple of {TILE_K}x{k_split}")
    plan = FCPlan(m=m, k=k, n=n, dtype=dtype, subgrid=subgrid,
                  k_split=k_split, n_split=n_split)
    cb_a, cb_b, cb_c = plan.cb_bytes()
    capacity = subgrid.grid.config.local_memory.capacity_bytes
    if cb_a + cb_b + cb_c > capacity:
        raise SimulationError(
            f"FC plan needs {cb_a + cb_b + cb_c} B of local memory per PE "
            f"(CB_A={cb_a}, CB_B={cb_b}, CB_C={cb_c}) but only {capacity} B "
            "exist; increase k_split/n_split or shrink the tile")

    # Multicast groups (Figure 7): A is shared along rows between PEs
    # with the same k slice; B^T is shared down each column.
    mcast_a = {}
    if use_multicast and n_split > 1:
        for r in range(subgrid.rows):
            for k_idx in range(k_split):
                cols = [g * k_split + k_idx for g in range(n_split)]
                mcast_a[(r, k_idx)] = subgrid.row_multicast_group(r, cols)
    mcast_b = {}
    if use_multicast and subgrid.rows > 1:
        for c in range(subgrid.cols):
            mcast_b[c] = subgrid.col_multicast_group(
                c, list(range(subgrid.rows)))

    m_per, n_per, k_per = plan.m_per_row, plan.n_per_group, plan.k_per_pe
    for r in range(subgrid.rows):
        for c in range(subgrid.cols):
            n_idx, k_idx = divmod(c, k_split)
            pe = subgrid.pe(r, c)
            east = (subgrid.pe(r, c + 1).coord
                    if k_idx < k_split - 1 else None)
            plan.work_items.append(PEWork(
                coord=pe.coord,
                m_begin=r * m_per, m_end=(r + 1) * m_per,
                n_begin=n_idx * n_per, n_end=(n_idx + 1) * n_per,
                k_begin=k_idx * k_per, k_end=(k_idx + 1) * k_per,
                chain_index=k_idx, chain_length=k_split,
                east_neighbor=east,
                multicast_a=mcast_a.get((r, k_idx)),
                multicast_b=mcast_b.get(c),
            ))
    return plan


def _default_k_split(cols: int, k: int) -> int:
    """Largest power-of-two split of ``cols`` that still tiles ``k``."""
    split = 1
    while (split * 2 <= cols and cols % (split * 2) == 0
           and k % (TILE_K * split * 2) == 0):
        split *= 2
    return split


# ---------------------------------------------------------------------------
# Core programs (Figure 8)
# ---------------------------------------------------------------------------

def producer_program(ctx, work: PEWork, plan: FCPlan, addrs,
                     barrier: Barrier) -> Generator:
    """Core 0: set up the CBs, then stream A and B^T into local memory."""
    a_addr, bt_addr, _ = addrs
    elem = plan.dtype.bytes
    cb_a, cb_b, cb_c = plan.cb_bytes()
    yield from ctx.issue(InitCB(cb_id=CB_A, base=0, size=cb_a))
    yield from ctx.issue(InitCB(cb_id=CB_B, base=cb_a, size=cb_b))
    yield from ctx.issue(InitCB(cb_id=CB_C, base=cb_a + cb_b, size=cb_c))
    yield from ctx.drain()
    yield from barrier.wait()          # "Synchronize with others"

    read_b = True
    for m in range(work.m_begin, work.m_end, TILE_MN):
        for n in range(work.n_begin, work.n_end, TILE_MN):
            for k in range(work.k_begin, work.k_end, TILE_K):
                if n == work.n_begin:  # A stripe: once per 64-row step
                    yield from ctx.issue(DMALoad(
                        addr=a_addr + (m * plan.k + k) * elem,
                        rows=TILE_MN, row_bytes=TILE_K * elem,
                        stride=plan.k * elem,
                        cb_id=CB_A, multicast=work.multicast_a))
                if read_b:             # B^T slice: loaded exactly once
                    yield from ctx.issue(DMALoad(
                        addr=bt_addr + (n * plan.k + k) * elem,
                        rows=TILE_MN, row_bytes=TILE_K * elem,
                        stride=plan.k * elem,
                        cb_id=CB_B, multicast=work.multicast_b))
        read_b = False
    yield from ctx.drain()


def consumer_program(ctx, work: PEWork, plan: FCPlan, addrs,
                     barrier: Barrier) -> Generator:
    """Core 1: MML blocks into the accumulators, reduce, and store."""
    _, _, c_addr = addrs
    elem = plan.dtype.bytes
    block = TILE_K * 32 * elem          # one 32x32 operand block
    yield from barrier.wait()

    for m in range(work.m_begin, work.m_end, TILE_MN):
        off_b = 0
        for n in range(work.n_begin, work.n_end, TILE_MN):
            off_a = 0
            yield from ctx.issue(InitAccumulators(banks=(0, 1, 2, 3)))
            last_m = m + TILE_MN >= work.m_end
            last_n = n + TILE_MN >= work.n_end
            for k in range(work.k_begin, work.k_end, TILE_K):
                for acc, (db, da) in enumerate(
                        ((0, 0), (0, block), (block, 0), (block, block))):
                    yield from ctx.issue(MML(
                        acc=acc, m=32, k=TILE_K, n=32,
                        cb_b=CB_B, cb_a=CB_A,
                        offset_b=off_b + db, offset_a=off_a + da,
                        dtype=plan.dtype))
                if last_m:   # final pass over B: mark consumed
                    yield from ctx.issue(PopCB(cb_id=CB_B, nbytes=2 * block))
                else:
                    off_b += 2 * block
                if last_n:   # final pass over A: mark consumed
                    yield from ctx.issue(PopCB(cb_id=CB_A, nbytes=2 * block))
                else:
                    off_a += 2 * block
            # Accumulate across the k chain over the reduction network.
            if work.last_in_chain:
                yield from ctx.issue(Reduce(
                    receive=not work.first_in_chain, dest_cb=CB_C))
                yield from ctx.issue(DMAStore(
                    addr=c_addr + (n * plan.m + m) * 4,
                    rows=TILE_MN, row_bytes=TILE_MN * 4,
                    stride=plan.m * 4, cb_id=CB_C))
            else:
                yield from ctx.issue(Reduce(
                    receive=not work.first_in_chain,
                    dest_pe=work.east_neighbor))
    yield from ctx.drain()


def single_core_program(ctx, work: PEWork, plan: FCPlan, addrs,
                        barrier: Barrier) -> Generator:
    """Both roles on one core — the Section 7 dual-core ablation.

    The paper credits the two-core PE with "twice the overall
    instruction throughput" when an operator is instruction bound; this
    variant issues the DMA *and* compute command streams from a single
    core so benchmarks can measure what that decoupling buys.
    """
    a_addr, bt_addr, c_addr = addrs
    elem = plan.dtype.bytes
    block = TILE_K * 32 * elem
    cb_a, cb_b, cb_c = plan.cb_bytes()
    yield from ctx.issue(InitCB(cb_id=CB_A, base=0, size=cb_a))
    yield from ctx.issue(InitCB(cb_id=CB_B, base=cb_a, size=cb_b))
    yield from ctx.issue(InitCB(cb_id=CB_C, base=cb_a + cb_b, size=cb_c))
    yield from ctx.drain()
    yield from barrier.wait()

    read_b = True
    for m in range(work.m_begin, work.m_end, TILE_MN):
        off_b = 0
        for n in range(work.n_begin, work.n_end, TILE_MN):
            off_a = 0
            yield from ctx.issue(InitAccumulators(banks=(0, 1, 2, 3)))
            last_m = m + TILE_MN >= work.m_end
            last_n = n + TILE_MN >= work.n_end
            for k in range(work.k_begin, work.k_end, TILE_K):
                if n == work.n_begin:
                    yield from ctx.issue(DMALoad(
                        addr=a_addr + (m * plan.k + k) * elem,
                        rows=TILE_MN, row_bytes=TILE_K * elem,
                        stride=plan.k * elem,
                        cb_id=CB_A, multicast=work.multicast_a))
                if read_b:
                    yield from ctx.issue(DMALoad(
                        addr=bt_addr + (n * plan.k + k) * elem,
                        rows=TILE_MN, row_bytes=TILE_K * elem,
                        stride=plan.k * elem,
                        cb_id=CB_B, multicast=work.multicast_b))
                for acc, (db, da) in enumerate(
                        ((0, 0), (0, block), (block, 0), (block, block))):
                    yield from ctx.issue(MML(
                        acc=acc, m=32, k=TILE_K, n=32,
                        cb_b=CB_B, cb_a=CB_A,
                        offset_b=off_b + db, offset_a=off_a + da,
                        dtype=plan.dtype))
                if last_m:
                    yield from ctx.issue(PopCB(cb_id=CB_B, nbytes=2 * block))
                else:
                    off_b += 2 * block
                if last_n:
                    yield from ctx.issue(PopCB(cb_id=CB_A, nbytes=2 * block))
                else:
                    off_a += 2 * block
            if work.last_in_chain:
                yield from ctx.issue(Reduce(
                    receive=not work.first_in_chain, dest_cb=CB_C))
                yield from ctx.issue(DMAStore(
                    addr=c_addr + (n * plan.m + m) * 4,
                    rows=TILE_MN, row_bytes=TILE_MN * 4,
                    stride=plan.m * 4, cb_id=CB_C))
            else:
                yield from ctx.issue(Reduce(
                    receive=not work.first_in_chain,
                    dest_pe=work.east_neighbor))
        read_b = False
    yield from ctx.drain()


def launch_fc_programs(acc: Accelerator, plan: FCPlan, addrs,
                       dual_core: bool = True) -> List:
    """Launch the FC core programs without running the engine.

    Returns the launched processes so callers (e.g. the firmware job
    scheduler, which runs several kernels on disjoint sub-grids
    concurrently) can wait on their completion.
    """
    parties = (2 if dual_core else 1) * plan.subgrid.num_pes
    barrier = acc.barrier(parties, "fc.start")
    procs = []
    for work in plan.work_items:
        pe = acc.grid.pe(*work.coord)
        if dual_core:
            procs.append(acc.launch(producer_program, pe.cores[0], work,
                                    plan, addrs, barrier,
                                    name=f"fc.prod{work.coord}"))
            procs.append(acc.launch(consumer_program, pe.cores[1], work,
                                    plan, addrs, barrier,
                                    name=f"fc.cons{work.coord}"))
        else:
            procs.append(acc.launch(single_core_program, pe.cores[0], work,
                                    plan, addrs, barrier,
                                    name=f"fc.solo{work.coord}"))
    return procs


# ---------------------------------------------------------------------------
# Host-side driver
# ---------------------------------------------------------------------------

@dataclass
class FCResult:
    """Output + measurements of one FC run."""

    c_t: np.ndarray          #: the (n, m) result, INT32 or FP32
    cycles: float            #: simulated execution cycles
    plan: FCPlan
    macs: int

    @property
    def c(self) -> np.ndarray:
        return self.c_t.T

    def tops(self, frequency_ghz: float) -> float:
        """Achieved tera-ops (2 ops per MAC) at ``frequency_ghz``."""
        if self.cycles <= 0:
            return 0.0
        return 2 * self.macs * frequency_ghz / self.cycles / 1e3


def run_fc(acc: Accelerator, a: Optional[np.ndarray] = None,
           b_t: Optional[np.ndarray] = None, *,
           m: Optional[int] = None, k: Optional[int] = None,
           n: Optional[int] = None, dtype="int8",
           subgrid: Optional[SubGrid] = None,
           k_split: Optional[int] = None,
           use_multicast: bool = True,
           dual_core: bool = True,
           auto_pad: bool = False,
           seed: int = 0,
           operand_region: str = "dram",
           cache=None) -> FCResult:
    """Run one FC operator end-to-end on the simulated accelerator.

    Either pass operand arrays ``a`` (m, k) and ``b_t`` (n, k) or just
    the dimensions (random operands are generated).  Returns the
    computed ``C^T`` and the cycle count; the caller is responsible for
    checking against a reference (the test-suite does).

    ``auto_pad=True`` zero-pads the operands to the sub-grid's tile
    multiples and slices the padding back off the result — the shape
    legalisation the paper's compiler performs ("the outer dimension
    stride is aligned ... for efficient data movement", Section 4).
    The returned ``macs`` counts only the *useful* work, so achieved
    TOPS reflect the padding waste.

    ``use_multicast`` and ``dual_core`` are the Section 3.5 / Section 7
    ablation knobs: disable NoC read coalescing, or run both command
    streams from a single core.

    ``operand_region`` places the A / B^T operands: ``"dram"`` (default)
    or ``"sram"``, which stages both in the on-chip SRAM scratchpad so
    the DMA streams run at SRAM bandwidth (the Section 5 tensor
    placement the compiler aims for; Figure 13's SRAM-resident regime).
    ``"sram"`` requires an accelerator built with
    ``sram_mode=SRAMMode.SCRATCHPAD`` — partitioning the SRAM as
    scratchpad instead of memory-side cache is part of the mapping
    decision.  The C output always lands in DRAM for the host.

    ``cache`` accepts a :class:`repro.simcache.SimCache` (or set the
    ``REPRO_SIM_CACHE`` environment variable) to replay
    content-addressed results instead of re-simulating; replayed
    results are bit-identical to a fresh run (cycles, output, stall
    attributions — the conformance ``cache`` pillar proves it).
    """
    from repro import simcache
    from repro.simcache.cache import (machine_payload, record_stalls,
                                      replay_stalls, usable_for)

    dtype = resolve_dtype(dtype)
    if operand_region not in ("dram", "sram"):
        raise ValueError(f"operand_region must be 'dram' or 'sram', "
                         f"got {operand_region!r}")
    if operand_region == "sram":
        from repro.memory import SRAMMode
        if acc.memory.sram_mode is not SRAMMode.SCRATCHPAD:
            raise SimulationError(
                "operand_region='sram' needs an accelerator with "
                "sram_mode=SRAMMode.SCRATCHPAD")
    operands_given = a is not None
    rng = np.random.default_rng(seed)
    if a is None:
        if None in (m, k, n):
            raise ValueError("pass operand arrays or all of m, k, n")
        require_positive(m=m, k=k, n=n)
        if dtype.name == "int8":
            a = rng.integers(-128, 128, size=(m, k), dtype=np.int8)
            b_t = rng.integers(-128, 128, size=(n, k), dtype=np.int8)
        else:
            a = rng.standard_normal((m, k)).astype(dtype.numpy_dtype)
            b_t = rng.standard_normal((n, k)).astype(dtype.numpy_dtype)
    else:
        if b_t is None:
            raise ValueError("pass both a and b_t")
        m, k = a.shape
        n, _ = b_t.shape
        if b_t.shape[1] != k:
            raise ValueError(f"k mismatch: A is {a.shape}, B^T is {b_t.shape}")
        require_positive(m=m, k=k, n=n)

    true_m, true_n = m, n
    if auto_pad:
        if subgrid is None:
            subgrid = acc.subgrid((0, 0), 1, 1)
        pm, pk, pn = padded_shape(m, k, n, subgrid,
                                  k_split=k_split or 1)
        if (pm, pk, pn) != (m, k, n):
            a = _zero_pad(a, pm, pk)
            b_t = _zero_pad(b_t, pn, pk)
            m, k, n = pm, pk, pn
    if subgrid is None:
        subgrid = _auto_subgrid(acc, m, k, n)
    plan = plan_fc(subgrid, m, k, n, dtype, k_split=k_split,
                   use_multicast=use_multicast)

    sim_cache = simcache.resolve_cache(cache)
    key = None
    if usable_for(sim_cache, acc):
        payload = {
            "op": "fc", "machine": machine_payload(acc),
            "m": m, "k": k, "n": n, "true_m": true_m, "true_n": true_n,
            "dtype": dtype.name,
            "subgrid": (subgrid.origin, subgrid.rows, subgrid.cols),
            "k_split": plan.k_split, "use_multicast": use_multicast,
            "dual_core": dual_core,
            "operands": ({"a": simcache.array_digest(a),
                          "b_t": simcache.array_digest(b_t)}
                         if operands_given else f"generated:{seed}"),
        }
        if operand_region != "dram":
            # Keyed only when non-default so pre-existing DRAM-placed
            # fingerprints stay valid.
            payload["operand_region"] = operand_region
        key = simcache.fingerprint(payload)
        entry = sim_cache.lookup(key, "fc",
                                 need_stalls=acc.engine.obs.enabled)
        if entry is not None:
            replay_stalls(acc, entry)
            return FCResult(c_t=entry.outputs["c_t"].copy(),
                            cycles=entry.cycles, plan=plan,
                            macs=true_m * true_n * k)

    if operand_region == "sram":
        a = np.ascontiguousarray(a)
        b_t = np.ascontiguousarray(b_t)
        a_addr = acc.upload(a, acc.alloc_sram(a.nbytes))
        bt_addr = acc.upload(b_t, acc.alloc_sram(b_t.nbytes))
    else:
        a_addr = acc.upload(np.ascontiguousarray(a))
        bt_addr = acc.upload(np.ascontiguousarray(b_t))
    out_np = np.int32 if dtype.name == "int8" else np.float32
    c_addr = acc.alloc_dram(n * m * 4)
    addrs = (a_addr, bt_addr, c_addr)

    start = acc.engine.now
    launch_fc_programs(acc, plan, addrs, dual_core=dual_core)
    acc.run()
    cycles = acc.engine.now - start

    c_t = acc.download(c_addr, (n, m), out_np)
    if (true_m, true_n) != (m, n):
        c_t = np.ascontiguousarray(c_t[:true_n, :true_m])
    if key is not None:
        stalls, recorded = record_stalls(acc)
        sim_cache.store(simcache.CacheEntry(
            key=key, op="fc", cycles=cycles, outputs={"c_t": c_t.copy()},
            stalls=stalls, stalls_recorded=recorded,
            extras={"m": true_m, "k": k, "n": true_n,
                    "dtype": dtype.name}))
    return FCResult(c_t=c_t, cycles=cycles, plan=plan,
                    macs=true_m * true_n * k)


def padded_shape(m: int, k: int, n: int, subgrid: SubGrid,
                 k_split: int = 1) -> tuple:
    """Smallest (m, k, n) >= the inputs that tiles onto ``subgrid``."""
    def round_up(value: int, multiple: int) -> int:
        return (value + multiple - 1) // multiple * multiple

    n_split = max(1, subgrid.cols // k_split)
    return (round_up(m, TILE_MN * subgrid.rows),
            round_up(k, TILE_K * k_split),
            round_up(n, TILE_MN * n_split))


def _zero_pad(array: np.ndarray, rows: int, cols: int) -> np.ndarray:
    out = np.zeros((rows, cols), dtype=array.dtype)
    out[:array.shape[0], :array.shape[1]] = array
    return out


def _auto_subgrid(acc: Accelerator, m: int, k: int, n: int) -> SubGrid:
    """Pick the largest sub-grid the shape tiles onto."""
    max_rows = acc.config.grid_rows
    max_cols = acc.config.grid_cols
    rows = 1
    while rows * 2 <= max_rows and m % (TILE_MN * rows * 2) == 0:
        rows *= 2
    cols = 1
    while cols * 2 <= max_cols:
        candidate = cols * 2
        ok = False
        for ks in range(1, candidate + 1):
            if candidate % ks:
                continue
            if k % (TILE_K * ks) == 0 and n % (TILE_MN * (candidate // ks)) == 0:
                ok = True
                break
        if not ok:
            break
        cols = candidate
    return acc.subgrid((0, 0), rows, cols)
