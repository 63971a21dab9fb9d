"""Chip and machine configuration for the MTIA v1 accelerator.

All parameters come from Table I of the paper ("Summary of MTIA features
and parameters") and from the architecture description in Section 3.
Quantities that the paper reports as headline numbers (GEMM TOPS, memory
bandwidths) are *derived* from the micro-architectural parameters here,
and :mod:`tests.test_config` checks that the derivations land on the
published values.  That gives us confidence that the simulator's machine
model is internally consistent with the silicon the paper describes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def require_positive(**dims) -> None:
    """Raise ``ValueError`` naming the first of ``dims`` below 1."""
    for name, value in dims.items():
        if not value >= 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")


@dataclass(frozen=True)
class DPEConfig:
    """Dot-Product Engine parameters (Section 3.1.2).

    The DPE multiplies a resident operand-A block against a streamed
    operand-B block.  It performs 1024 INT8 MACs (a 32x32 block) or 512
    FP16/BF16 MACs (a 32x16 block) per cycle, and a full 32x32x32
    multiplication takes 32 cycles.
    """

    block_m: int = 32
    block_n: int = 32
    block_k: int = 32
    int8_macs_per_cycle: int = 1024
    fp16_macs_per_cycle: int = 512
    #: Cycles to multiply two maximum-size (32x32x32) blocks.
    block_matmul_cycles: int = 32
    #: Entries in the operand cache that lets the DPE skip local-memory
    #: reads on operand reuse (Section 3.5, "Caching").
    operand_cache_entries: int = 8

    def macs_per_cycle(self, dtype: str) -> int:
        """MAC throughput for ``dtype`` ("int8", "fp16", or "bf16")."""
        if dtype == "int8":
            return self.int8_macs_per_cycle
        if dtype in ("fp16", "bf16"):
            return self.fp16_macs_per_cycle
        raise ValueError(f"DPE does not support dtype {dtype!r}")


@dataclass(frozen=True)
class SEConfig:
    """SIMD Engine parameters (Section 3.1.4).

    Throughputs correspond to Table I's "SIMD TOPS" row: the SE reaches
    1.6 TOPS FP16 and 3.2 TOPS INT8 chip-wide, i.e. 32 INT8 (16 FP16)
    lanes per PE at 800 MHz x 64 PEs x 2 ops = 3.28/1.64 TOPS.
    """

    int8_lanes: int = 32
    fp16_lanes: int = 16
    fp32_lanes: int = 8
    #: Latency in cycles of a table lookup + interpolation for a
    #: nonlinear function approximation (exp, sigmoid, tanh, ...).
    nonlinear_latency: int = 4
    lut_entries: int = 256

    def lanes(self, dtype: str) -> int:
        """Elementwise lanes per cycle for ``dtype``."""
        table = {"int8": self.int8_lanes, "fp16": self.fp16_lanes,
                 "bf16": self.fp16_lanes, "fp32": self.fp32_lanes,
                 "int32": self.fp32_lanes}
        if dtype not in table:
            raise ValueError(f"SE does not support dtype {dtype!r}")
        return table[dtype]


@dataclass(frozen=True)
class MLUConfig:
    """Memory Layout Unit parameters (Section 3.1.1)."""

    #: Bytes the MLU can move/re-layout per cycle.
    bytes_per_cycle: int = 64
    supported_element_bits: tuple = (4, 8, 16, 32)


@dataclass(frozen=True)
class REConfig:
    """Reduction Engine parameters (Section 3.1.3)."""

    #: Independent accumulator banks (the FC mapping in Section 4 uses
    #: all four to hold a 2x2 arrangement of 32x32 partial blocks).
    accumulator_banks: int = 4
    #: Each bank holds one 32x32 block of FP32/INT32 partials.
    bank_rows: int = 32
    bank_cols: int = 32
    #: Cycles to push one bank over the reduction network to a neighbour.
    reduction_hop_cycles: int = 32


@dataclass(frozen=True)
class VectorConfig:
    """RISC-V vector extension parameters (Section 3.2).

    One of the two cores implements RVV 0.8.1 with 32 vector registers,
    each 64 B wide; Table I reports 0.8 TFLOPS FP32 / 1.6 FP16 / 3.2 INT8
    chip-wide, i.e. 8 FP32 FMA lanes per PE (a 64 B register retired
    over two cycles).
    """

    num_registers: int = 32
    register_bytes: int = 64
    fp32_lanes: int = 8
    fp16_lanes: int = 16
    int8_lanes: int = 32


@dataclass(frozen=True)
class LocalMemoryConfig:
    """PE-local memory (Section 3.3) and its arbitration."""

    capacity_bytes: int = 128 * KIB
    num_banks: int = 8
    #: Aggregate bandwidth per PE (Table I: 400 GB/s per PE at 800 MHz
    #: nominal = 512 B/cycle -> 64 B/cycle per bank over 8 banks).
    bytes_per_cycle: int = 512
    #: Access latency in cycles.  The paper calls out "longer than
    #: typical" latencies caused by multi-client arbitration
    #: (Section 7, "Memory Latency").
    access_latency: int = 6
    max_circular_buffers: int = 32


@dataclass(frozen=True)
class SRAMConfig:
    """On-chip SRAM (Section 3.4): 128 MB in slices around the grid."""

    capacity_bytes: int = 128 * MIB
    num_slices: int = 16
    #: Table I: 800 GB/s aggregate = 1024 B/cycle at 800 MHz.
    bytes_per_cycle: int = 1024
    #: Base access latency (cycles); non-uniform placement adds
    #: per-hop distance costs (Section 7, "Memory Latency").
    base_latency: int = 30
    per_hop_latency: int = 2
    #: In cache mode each group of four slices fronts one DRAM
    #: controller (Section 3.4).
    slices_per_controller: int = 4
    cache_line_bytes: int = 64
    cache_ways: int = 8


@dataclass(frozen=True)
class DRAMConfig:
    """Off-chip LPDDR5 (Section 3.4 / Table I)."""

    num_controllers: int = 4
    channels_per_controller: int = 4
    capacity_bytes: int = 64 * GIB
    #: Table I: 176 GB/s theoretical aggregate = 225 B/cycle at 800 MHz.
    total_bandwidth_gbs: float = 176.0
    access_latency: int = 100
    #: Achievable fraction of theoretical bandwidth under random access.
    random_access_efficiency: float = 0.55

    @property
    def num_channels(self) -> int:
        return self.num_controllers * self.channels_per_controller

    def bytes_per_cycle(self, frequency_ghz: float) -> float:
        """Aggregate DRAM bytes per accelerator clock cycle."""
        return self.total_bandwidth_gbs / frequency_ghz


@dataclass(frozen=True)
class NoCConfig:
    """On-chip network (Section 3.4)."""

    #: Link width of the AXI data network, bytes per cycle per link.
    link_bytes_per_cycle: int = 64
    #: Router traversal latency per hop, cycles.
    hop_latency: int = 2
    #: Multicast is supported only along a full row or column.
    multicast_row_col_only: bool = True


@dataclass(frozen=True)
class FIConfig:
    """Fabric Interface DMA engines (Sections 3.1.5 and 3.5).

    "Memory level parallelism (MLP) is achieved by allowing many
    outstanding requests to on-chip and off-chip memories from each
    PE" — the outstanding-request limits below set how deep that
    pipelining goes.
    """

    max_outstanding_loads: int = 8
    max_outstanding_stores: int = 4


@dataclass(frozen=True)
class CommandProcessorConfig:
    """Command Processor (Section 3.1.6)."""

    #: Command queue depth per scheduler (one scheduler per core).
    queue_depth: int = 16
    #: Cycles for a core to assemble and issue one command to the CP.
    #: Section 7 ("Automated Code Generation") notes that commands carry
    #: many parameters; this is the per-command issue overhead.
    issue_cycles: int = 8
    #: Dispatch overhead once dependencies are satisfied.
    dispatch_cycles: int = 2


@dataclass(frozen=True)
class ChipConfig:
    """Top-level MTIA chip configuration (Table I).

    The default instance is the 64-PE (8x8) part at 800 MHz nominal.
    """

    name: str = "MTIA v1"
    grid_rows: int = 8
    grid_cols: int = 8
    frequency_ghz: float = 0.8
    max_frequency_ghz: float = 1.1
    tdp_watts: float = 25.0
    process: str = "TSMC 7nm"
    die_area_mm2: float = 373.0
    pcie_gen: int = 4
    pcie_lanes: int = 8
    pcie_gbs: float = 16.0

    dpe: DPEConfig = field(default_factory=DPEConfig)
    se: SEConfig = field(default_factory=SEConfig)
    mlu: MLUConfig = field(default_factory=MLUConfig)
    re: REConfig = field(default_factory=REConfig)
    vector: VectorConfig = field(default_factory=VectorConfig)
    local_memory: LocalMemoryConfig = field(default_factory=LocalMemoryConfig)
    sram: SRAMConfig = field(default_factory=SRAMConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    noc: NoCConfig = field(default_factory=NoCConfig)
    cp: CommandProcessorConfig = field(default_factory=CommandProcessorConfig)
    fi: FIConfig = field(default_factory=FIConfig)

    @property
    def num_pes(self) -> int:
        return self.grid_rows * self.grid_cols

    def gemm_tops(self, dtype: str) -> float:
        """Peak GEMM TOPS for ``dtype`` (Table I: 102.4 INT8, 51.2 FP16).

        Table I quotes MAC TOPS, i.e. one multiply-accumulate counted as
        two operations at the *quoted* 102.4 figure corresponds to
        1024 MACs x 64 PEs x 0.8 GHz x 2 ops / 1e12 = 104.9; the paper
        rounds to the marketing figure 102.4 (= 1024 x 64 x 0.8 x 2 with
        a 1000/1024 scaling).  We report the exact derivation.
        """
        macs = self.dpe.macs_per_cycle(dtype)
        return macs * self.num_pes * self.frequency_ghz * 2 / 1e3

    def simd_tops(self, dtype: str, engine: str = "se") -> float:
        """Peak SIMD TOPS chip-wide for the SE or the vector cores."""
        if engine == "se":
            lanes = self.se.lanes(dtype)
        elif engine == "vector":
            lanes = {"fp32": self.vector.fp32_lanes,
                     "fp16": self.vector.fp16_lanes,
                     "int8": self.vector.int8_lanes}[dtype]
        else:
            raise ValueError(f"unknown SIMD engine {engine!r}")
        return lanes * self.num_pes * self.frequency_ghz * 2 / 1e3

    def local_memory_gbs(self) -> float:
        """Per-PE local memory bandwidth in GB/s (Table I: 400)."""
        return self.local_memory.bytes_per_cycle * self.frequency_ghz

    def sram_gbs(self) -> float:
        """Aggregate on-chip SRAM bandwidth in GB/s (Table I: 800)."""
        return self.sram.bytes_per_cycle * self.frequency_ghz

    def dram_gbs(self) -> float:
        """Aggregate off-chip DRAM bandwidth in GB/s (Table I: 176)."""
        return self.dram.total_bandwidth_gbs

    def summary(self) -> dict:
        """Table I as a dictionary (used by the Table I benchmark)."""
        return {
            "Technology": self.process,
            "Frequency": f"{self.frequency_ghz * 1000:.0f}MHz nominal "
                         f"({self.max_frequency_ghz:.1f} GHz max)",
            "Dimensions": f"{self.die_area_mm2:.0f} mm2",
            "TDP": f"{self.tdp_watts:.0f} W",
            "Host Connectivity": f"{self.pcie_lanes}x PCIe Gen{self.pcie_gen} "
                                 f"({self.pcie_gbs:.0f} GB/s)",
            "GEMM TOPS (INT8)": round(self.gemm_tops("int8"), 1),
            "GEMM TOPS (FP16)": round(self.gemm_tops("fp16"), 1),
            "SIMD TOPS Vector (FP32)": round(self.simd_tops("fp32", "vector"), 1),
            "SIMD TOPS SE (FP16)": round(self.simd_tops("fp16", "se"), 1),
            "SIMD TOPS SE (INT8)": round(self.simd_tops("int8", "se"), 1),
            "Local memory BW (GB/s per PE)": round(self.local_memory_gbs()),
            "On-chip SRAM BW (GB/s)": round(self.sram_gbs()),
            "Off-chip DRAM BW (GB/s)": round(self.dram_gbs()),
            "Local memory capacity (KB per PE)":
                self.local_memory.capacity_bytes // KIB,
            "On-chip SRAM capacity (MB)": self.sram.capacity_bytes // MIB,
            "Off-chip DRAM capacity (GB)": self.dram.capacity_bytes // GIB,
        }

    def scaled(self, **overrides) -> "ChipConfig":
        """Return a copy with top-level fields replaced (for ablations)."""
        return dataclasses.replace(self, **overrides)


#: The canonical chip instance used throughout the library.
MTIA_V1 = ChipConfig()
