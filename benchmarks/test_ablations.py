"""Ablations of the design choices DESIGN.md calls out (Section 7).

Not figures from the paper — these turn its "Discussion / lessons
learned" claims into measured experiments on the cycle-level simulator:

* multicast coalescing (Section 3.5) vs per-PE fetching;
* the dual-core PE (Section 7, "Dual-Core PEs") vs a single-core
  variant, in an instruction-bound regime;
* monolithic-grid firmware vs the proposed cluster hierarchy
  (Section 7, "Architecture Hierarchy") for a burst of small jobs;
* the SRAM memory-side cache under skewed embedding traffic
  (Section 6.1's cache configuration).
"""

import dataclasses

import numpy as np
import pytest
from conftest import emit

from repro import Accelerator, MTIA_V1
from repro.firmware import JobScheduler
from repro.firmware.jobs import make_fc_job
from repro.kernels.fc import run_fc
from repro.kernels.tbe import TBEConfig, generate_indices, run_tbe
from repro.memory import SRAMMode


def test_multicast_ablation():
    """Section 3.5: coalescing reads 'reduces memory bandwidth and
    increases the energy efficiency of data movement'."""
    def run_pair():
        results = {}
        for multicast in (True, False):
            acc = Accelerator(sram_mode=SRAMMode.SCRATCHPAD)
            result = run_fc(acc, m=256, k=512, n=128,
                            subgrid=acc.subgrid((0, 0), 4, 4), k_split=2,
                            use_multicast=multicast)
            results[multicast] = (result.cycles,
                                  acc.memory.dram.stats["read_bytes"])
        return results

    results = run_pair()
    on_cycles, on_bytes = results[True]
    off_cycles, off_bytes = results[False]
    operand_bytes = 256 * 512 + 128 * 512
    emit("Ablation: NoC multicast (FC 256x512x128 on 4x4)", [
        f"multicast on:  {on_cycles:.0f} cycles, DRAM reads "
        f"{on_bytes:.0f} B ({on_bytes / operand_bytes:.2f}x operands)",
        f"multicast off: {off_cycles:.0f} cycles, DRAM reads "
        f"{off_bytes:.0f} B ({off_bytes / operand_bytes:.2f}x operands)",
    ])
    # Coalescing eliminates duplicate fetches entirely.
    assert on_bytes == operand_bytes
    assert off_bytes >= 2 * on_bytes
    assert on_cycles <= off_cycles


def test_dual_core_ablation():
    """Section 7: the dual-core PE gives 'twice the overall instruction
    throughput' when an operator is instruction bound."""
    # Model a command-heavy code-generation path (the Section 7
    # "Automated Code Generation" pain) with a high per-command cost.
    config = MTIA_V1.scaled(
        cp=dataclasses.replace(MTIA_V1.cp, issue_cycles=40))

    def run_pair():
        results = {}
        for dual in (True, False):
            acc = Accelerator(config)
            result = run_fc(acc, m=128, k=512, n=128,
                            subgrid=acc.subgrid((0, 0), 1, 1),
                            dual_core=dual)
            results[dual] = result.cycles
        return results

    results = run_pair()
    emit("Ablation: dual-core PE (instruction-bound FC, issue=40cyc)", [
        f"dual core:   {results[True]:.0f} cycles",
        f"single core: {results[False]:.0f} cycles "
        f"({results[False] / results[True]:.2f}x slower)",
    ])
    assert results[False] > 1.08 * results[True]


def test_cluster_hierarchy_ablation():
    """Section 7: 'having another level of hierarchy ... clusters of
    PEs, might have made this problem easier' — cluster-granular
    firmware pays far less setup for a burst of small jobs."""
    def run_pair():
        results = {}
        for cluster in (1, 2):
            acc = Accelerator()
            sched = JobScheduler(acc, cluster=cluster)
            jobs = [make_fc_job(f"fc{i}", acc, 128, 128, 128, rows=2,
                                cols=2, k_split=2, seed=i)
                    for i in range(16)]
            for job in jobs:
                sched.submit(job)
            stats = sched.run()
            for job in jobs:
                out = acc.download(job.result_addr, job.result_shape,
                                   np.int32)
                np.testing.assert_array_equal(out, job.expected)
            results[cluster] = stats
        return results

    results = run_pair()
    emit("Ablation: firmware granularity (16 small FC jobs)", [
        f"per-PE management:  setup {results[1].total_setup_cycles:.0f} "
        f"cycles, makespan {results[1].makespan:.0f}",
        f"2x2-cluster management: setup "
        f"{results[2].total_setup_cycles:.0f} cycles, makespan "
        f"{results[2].makespan:.0f}",
    ])
    assert results[2].total_setup_cycles < results[1].total_setup_cycles / 2
    assert results[2].completed == results[1].completed == 16


def test_reduction_network_ablation():
    """Section 3.5: the dedicated reduction network avoids saving and
    restoring partial sums in memory and offloads the main NoC —
    measured against a bit-exact memory-reduce counterfactual."""
    from repro.kernels.fc_variants import run_fc_memory_reduce
    from repro.platforms.power import ChipPowerModel

    def run_pair():
        rng = np.random.default_rng(0)
        a = rng.integers(-128, 128, (256, 512), dtype=np.int8)
        b_t = rng.integers(-128, 128, (128, 512), dtype=np.int8)
        ref = b_t.astype(np.int32) @ a.astype(np.int32).T

        acc1 = Accelerator()
        r1 = run_fc(acc1, a, b_t, subgrid=acc1.subgrid((0, 0), 4, 4),
                    k_split=2)
        acc2 = Accelerator()
        r2 = run_fc_memory_reduce(acc2, a, b_t,
                                  subgrid=acc2.subgrid((0, 0), 4, 4),
                                  k_split=2)
        assert np.array_equal(r1.c_t, ref) and np.array_equal(r2.c_t, ref)
        model = ChipPowerModel()

        def energy(acc, cycles):
            activity = model.activity_from_stats(acc.collect_stats())
            return model.dynamic_energy_j(activity)

        return {
            "rednet": (r1.cycles, acc1.noc.stats["link_bytes"],
                       acc1.memory.dram.stats["read_bytes"]
                       + acc1.memory.dram.stats.get("write_bytes", 0),
                       energy(acc1, r1.cycles)),
            "memory": (r2.cycles, acc2.noc.stats["link_bytes"],
                       acc2.memory.dram.stats["read_bytes"]
                       + acc2.memory.dram.stats.get("write_bytes", 0),
                       energy(acc2, r2.cycles)),
        }

    results = run_pair()
    rn_cycles, rn_noc, rn_dram, rn_energy = results["rednet"]
    mr_cycles, mr_noc, mr_dram, mr_energy = results["memory"]
    emit("Ablation: reduction network vs memory round-trip "
         "(FC 256x512x128, k_split=2)", [
             f"reduction network: {rn_cycles:.0f} cycles, "
             f"NoC {rn_noc / 1e3:.0f} KB, DRAM {rn_dram / 1e3:.0f} KB, "
             f"dynamic energy {rn_energy * 1e6:.1f} uJ",
             f"memory reduce:     {mr_cycles:.0f} cycles, "
             f"NoC {mr_noc / 1e3:.0f} KB, DRAM {mr_dram / 1e3:.0f} KB, "
             f"dynamic energy {mr_energy * 1e6:.1f} uJ",
             f"-> {mr_cycles / rn_cycles:.2f}x slower, "
             f"{mr_noc / rn_noc:.2f}x NoC traffic, "
             f"{mr_energy / rn_energy:.2f}x energy without the network",
         ])
    assert mr_cycles > 1.3 * rn_cycles
    assert mr_noc > 1.5 * rn_noc
    assert mr_dram > 1.5 * rn_dram
    assert mr_energy > rn_energy


def test_sram_cache_skew_ablation():
    """Section 6.1: the cache-mode SRAM exploits 'locality across and
    within batches' — visible under production-like skewed indices."""
    cfg = TBEConfig(num_tables=4, rows_per_table=200_000, embedding_dim=128,
                    pooling_factor=32, batch_size=32)

    def run_pair():
        results = {}
        for alpha, tag in ((None, "uniform"), (1.1, "zipf")):
            indices = generate_indices(cfg, seed=7, alpha=alpha)
            acc = Accelerator(sram_mode=SRAMMode.CACHE)
            result = run_tbe(acc, cfg, indices=indices,
                             subgrid=acc.subgrid(), prefetch_rows=8)
            results[tag] = (result.cycles, acc.memory.sram.hit_rate())
        return results

    results = run_pair()
    emit("Ablation: SRAM cache under index skew (TBE)", [
        f"uniform indices: {results['uniform'][0]:.0f} cycles, "
        f"cache hit rate {results['uniform'][1]:.2f}",
        f"zipf indices:    {results['zipf'][0]:.0f} cycles, "
        f"cache hit rate {results['zipf'][1]:.2f}",
    ])
    assert results["zipf"][1] > results["uniform"][1] + 0.1
    assert results["zipf"][0] < results["uniform"][0]
