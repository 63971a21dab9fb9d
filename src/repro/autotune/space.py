"""The mapping space: every legal way to run one operator on the chip.

The MTIA performance story is a mapping story — Figure 7's tiling of an
FC onto a sub-grid, Section 6.1's EB→TBE fusion, Section 5's SRAM
tensor placement, Figure 12's pipelining depth.  The reproduction has
so far hand-picked all of these; :class:`MappingSpace` instead
*enumerates* the legal choices so the tuner can rank all of them.

Dimensions per operator family:

* **FC** — sub-grid shape (rows × cols, the
  :func:`repro.compiler.partitioner.choose_subgrid` decision),
  ``k_split`` (how many PEs per row cooperate on the reduction
  dimension — the tiling vector of Figure 7), NoC multicast on/off,
  dual-core vs single-core command streams, and operand placement
  (DRAM vs SRAM scratchpad, the
  :mod:`repro.compiler.placement` decision).
* **TBE** — sub-grid shape, ``prefetch_rows`` (software pipelining
  depth, the Figure 12 knob), table placement (DRAM vs SRAM), and
  fusion on/off (one merged TBE launch vs per-table EmbeddingBag
  launches, the :mod:`repro.compiler.fusion` EB→TBE decision).

Legality mirrors the kernels exactly: the FC constraints are the ones
:func:`repro.kernels.fc.plan_fc` raises on (tiling divisibility and the
circular buffers fitting the 128 KB local memory), the TBE constraint
is the CB-fit check in :func:`repro.kernels.tbe.run_tbe`, and SRAM
placement requires the operands to fit the 128 MB SRAM
(``tests/property/test_autotune_properties.py`` proves every enumerated
candidate passes the real kernel planners).

The space is small enough to enumerate outright (a few hundred points)
and a cost-model evaluation takes microseconds, so phase 1 costs every
candidate; only the DES (~a second per point) is spent sparingly, on
the model's top few.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.config import MTIA_V1, ChipConfig, require_positive
from repro.kernels.fc import TILE_K, TILE_MN
from repro.kernels.tbe import TBE_DIMS

#: pipelining depths the TBE axis explores (powers of two; the paper's
#: production kernel sits at the shallow end, hand-tuned at the deep).
PREFETCH_DEPTHS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class FCShape:
    """One FC operator shape family member (C^T = A × B^T)."""

    m: int
    k: int
    n: int
    dtype: str = "int8"

    family = "fc"

    def __post_init__(self) -> None:
        require_positive(m=self.m, k=self.k, n=self.n)

    def to_dict(self) -> Dict:
        return {"family": "fc", "m": self.m, "k": self.k, "n": self.n,
                "dtype": self.dtype}

    def describe(self) -> str:
        return f"fc m={self.m} k={self.k} n={self.n} {self.dtype}"


@dataclass(frozen=True)
class TBEShape:
    """One TBE operator shape family member (Figure 12 triplet + batch)."""

    num_tables: int
    rows_per_table: int
    embedding_dim: int
    pooling_factor: int
    batch_size: int

    family = "tbe"

    def __post_init__(self) -> None:
        require_positive(**{dim: getattr(self, dim) for dim in TBE_DIMS})

    @property
    def table_bytes(self) -> int:
        """INT8 bytes of all tables (the SRAM-placement fit check)."""
        return (self.num_tables * self.rows_per_table
                * self.embedding_dim)

    def to_dict(self) -> Dict:
        return {"family": "tbe", "num_tables": self.num_tables,
                "rows_per_table": self.rows_per_table,
                "embedding_dim": self.embedding_dim,
                "pooling_factor": self.pooling_factor,
                "batch_size": self.batch_size}

    def describe(self) -> str:
        return (f"tbe tables={self.num_tables} rows={self.rows_per_table} "
                f"dim={self.embedding_dim} pool={self.pooling_factor} "
                f"batch={self.batch_size}")


def shape_from_dict(data: Dict):
    """Inverse of ``FCShape.to_dict`` / ``TBEShape.to_dict``."""
    family = data.get("family")
    if family == "fc":
        return FCShape(m=int(data["m"]), k=int(data["k"]),
                       n=int(data["n"]),
                       dtype=str(data.get("dtype", "int8")))
    if family == "tbe":
        return TBEShape(num_tables=int(data["num_tables"]),
                        rows_per_table=int(data["rows_per_table"]),
                        embedding_dim=int(data["embedding_dim"]),
                        pooling_factor=int(data["pooling_factor"]),
                        batch_size=int(data["batch_size"]))
    raise ValueError(f"unknown shape family {family!r}")


@dataclass(frozen=True, order=True)
class MappingCandidate:
    """One point in the mapping space.

    Fields irrelevant to the op family are pinned by
    :meth:`canonical` (e.g. ``prefetch_rows`` for FC, ``k_split`` for
    TBE), and every cost/simulation consumer canonicalises first — so
    cost is invariant under re-canonicalisation by construction, and
    the property suite checks it stays that way.
    """

    op: str                     #: "fc" | "tbe"
    rows: int
    cols: int
    k_split: int = 1
    use_multicast: bool = True
    dual_core: bool = True
    prefetch_rows: int = 0      #: TBE pipelining depth (0 = n/a)
    operands: str = "dram"      #: "dram" | "sram"
    fused: bool = True          #: TBE: merged launch vs per-table EBs

    def canonical(self) -> "MappingCandidate":
        """Pin the fields the op family does not use."""
        if self.op == "fc":
            return replace(self, prefetch_rows=0, fused=True)
        return replace(self, k_split=1, use_multicast=True,
                       dual_core=True)

    def key(self) -> Tuple:
        """Canonical total-order key (ranking tie-breaker, report id)."""
        c = self.canonical()
        return (c.op, c.rows, c.cols, c.k_split, c.use_multicast,
                c.dual_core, c.prefetch_rows, c.operands, c.fused)

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    def to_dict(self) -> Dict:
        c = self.canonical()
        return {"op": c.op, "rows": c.rows, "cols": c.cols,
                "k_split": c.k_split, "use_multicast": c.use_multicast,
                "dual_core": c.dual_core,
                "prefetch_rows": c.prefetch_rows,
                "operands": c.operands, "fused": c.fused}

    def describe(self) -> str:
        c = self.canonical()
        bits = [f"{c.rows}x{c.cols}"]
        if c.op == "fc":
            bits.append(f"k_split={c.k_split}")
            if not c.use_multicast:
                bits.append("no-mcast")
            if not c.dual_core:
                bits.append("single-core")
        else:
            bits.append(f"prefetch={c.prefetch_rows}")
            if not c.fused:
                bits.append("unfused")
        bits.append(c.operands)
        return " ".join(bits)


def key_str(cand: MappingCandidate) -> str:
    """The candidate key as a compact stable string (report id)."""
    return "/".join(str(part) for part in cand.key())


def candidate_from_dict(data: Dict) -> MappingCandidate:
    return MappingCandidate(
        op=str(data["op"]), rows=int(data["rows"]), cols=int(data["cols"]),
        k_split=int(data.get("k_split", 1)),
        use_multicast=bool(data.get("use_multicast", True)),
        dual_core=bool(data.get("dual_core", True)),
        prefetch_rows=int(data.get("prefetch_rows", 0)),
        operands=str(data.get("operands", "dram")),
        fused=bool(data.get("fused", True))).canonical()


def _pow2_up_to(cap: int) -> List[int]:
    out, p = [], 1
    while p <= cap:
        out.append(p)
        p *= 2
    return out


@dataclass
class MappingSpace:
    """All legal mapping candidates for one operator shape."""

    shape: object               #: FCShape | TBEShape
    config: ChipConfig = field(default_factory=lambda: MTIA_V1)
    #: restrict an axis to a subset, e.g. {"operands": ("dram",)} — the
    #: differential test uses this to make tiny exhaustive spaces.
    restrict: Dict[str, Tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._all: Optional[Tuple[MappingCandidate, ...]] = None

    # -- legality ---------------------------------------------------------
    def legal(self, cand: MappingCandidate) -> Tuple[bool, str]:
        """Whether ``cand`` can actually run; mirrors the kernel checks."""
        c = cand.canonical()
        if c.op != self.shape.family:
            return False, f"op {c.op!r} does not match shape family"
        if not (1 <= c.rows <= self.config.grid_rows
                and 1 <= c.cols <= self.config.grid_cols):
            return False, (f"{c.rows}x{c.cols} exceeds the "
                           f"{self.config.grid_rows}x"
                           f"{self.config.grid_cols} grid")
        if c.operands not in ("dram", "sram"):
            return False, f"unknown operand region {c.operands!r}"
        if c.op == "fc":
            return self._legal_fc(c)
        return self._legal_tbe(c)

    def _legal_fc(self, c: MappingCandidate) -> Tuple[bool, str]:
        shape: FCShape = self.shape
        elem = 1 if shape.dtype == "int8" else 2
        if c.prefetch_rows != 0:
            return False, "prefetch_rows is a TBE axis"
        if c.cols % c.k_split:
            return False, (f"k_split={c.k_split} does not divide "
                           f"cols={c.cols}")
        n_split = c.cols // c.k_split
        if shape.m % (TILE_MN * c.rows):
            return False, (f"m={shape.m} does not tile over "
                           f"{c.rows} rows of {TILE_MN}")
        if shape.n % (TILE_MN * n_split):
            return False, (f"n={shape.n} does not tile over "
                           f"{n_split} column groups of {TILE_MN}")
        if shape.k % (TILE_K * c.k_split):
            return False, (f"k={shape.k} does not tile over "
                           f"k_split={c.k_split} steps of {TILE_K}")
        # The plan_fc CB-fit check, verbatim arithmetic.
        k_per = shape.k // c.k_split
        n_per = shape.n // n_split
        cb_a = (k_per // TILE_K) * TILE_MN * TILE_K * elem
        cb_b = (n_per // TILE_MN) * (k_per // TILE_K) * TILE_MN * TILE_K * elem
        cb_c = TILE_MN * TILE_MN * 4
        capacity = self.config.local_memory.capacity_bytes
        if cb_a + cb_b + cb_c > capacity:
            return False, (f"CBs need {cb_a + cb_b + cb_c} B of local "
                           f"memory, only {capacity} B exist")
        if c.operands == "sram":
            nbytes = (shape.m + shape.n) * shape.k * elem
            if nbytes > self.config.sram.capacity_bytes:
                return False, (f"operands ({nbytes} B) exceed the "
                               f"{self.config.sram.capacity_bytes} B SRAM")
        return True, "ok"

    def _legal_tbe(self, c: MappingCandidate) -> Tuple[bool, str]:
        shape: TBEShape = self.shape
        if c.prefetch_rows < 1:
            return False, "prefetch_rows must be >= 1 for TBE"
        dim = shape.embedding_dim
        cb_bytes = c.prefetch_rows * dim + 2 * dim * 4
        capacity = self.config.local_memory.capacity_bytes
        if cb_bytes > capacity:
            return False, (f"TBE CBs need {cb_bytes} B of local memory, "
                           f"only {capacity} B exist")
        if c.operands == "sram":
            if shape.table_bytes > self.config.sram.capacity_bytes:
                return False, (f"tables ({shape.table_bytes} B) exceed "
                               f"the {self.config.sram.capacity_bytes} B "
                               "SRAM")
        return True, "ok"

    # -- enumeration ------------------------------------------------------
    def _axis_values(self, axis: str, values: Tuple) -> Tuple:
        chosen = self.restrict.get(axis)
        if chosen is None:
            return values
        return tuple(v for v in values if v in chosen)

    def candidates(self) -> Tuple[MappingCandidate, ...]:
        """Every legal candidate, in canonical key order (cached)."""
        if self._all is not None:
            return self._all
        rows_axis = self._axis_values(
            "rows", tuple(_pow2_up_to(self.config.grid_rows)))
        cols_axis = self._axis_values(
            "cols", tuple(_pow2_up_to(self.config.grid_cols)))
        operands_axis = self._axis_values("operands", ("dram", "sram"))
        out: List[MappingCandidate] = []
        if self.shape.family == "fc":
            mcast_axis = self._axis_values("use_multicast", (True, False))
            dual_axis = self._axis_values("dual_core", (True, False))
            for rows in rows_axis:
                for cols in cols_axis:
                    ks_axis = self._axis_values(
                        "k_split",
                        tuple(k for k in _pow2_up_to(cols)
                              if cols % k == 0))
                    for k_split in ks_axis:
                        for mcast in mcast_axis:
                            for dual in dual_axis:
                                for region in operands_axis:
                                    cand = MappingCandidate(
                                        op="fc", rows=rows, cols=cols,
                                        k_split=k_split,
                                        use_multicast=mcast,
                                        dual_core=dual,
                                        operands=region)
                                    if self.legal(cand)[0]:
                                        out.append(cand)
        else:
            prefetch_axis = self._axis_values("prefetch_rows",
                                              PREFETCH_DEPTHS)
            fused_axis = self._axis_values("fused", (True, False))
            for rows in rows_axis:
                for cols in cols_axis:
                    for prefetch in prefetch_axis:
                        for region in operands_axis:
                            for fused in fused_axis:
                                cand = MappingCandidate(
                                    op="tbe", rows=rows, cols=cols,
                                    prefetch_rows=prefetch,
                                    operands=region,
                                    fused=fused).canonical()
                                if self.legal(cand)[0]:
                                    out.append(cand)
        out.sort(key=MappingCandidate.key)
        self._all = tuple(out)
        return self._all

    def __len__(self) -> int:
        return len(self.candidates())
