"""Cross-module integration: full pipelines from model to metal."""

import numpy as np
import pytest

from repro import Accelerator
from repro.compiler.fusion import fuse_graph
from repro.compiler.partitioner import partition_by_memory
from repro.compiler.placement import place_tensors
from repro.config import MTIA_V1
from repro.eval.machines import MACHINES
from repro.eval.opmodel import estimate_graph
from repro.models.configs import MODEL_ZOO
from repro.models.dlrm import DLRMConfig, build_dlrm_graph
from repro.runtime import DeviceSet, GraphExecutor, MTIADevice


@pytest.fixture(scope="module")
def tiny_dlrm():
    return DLRMConfig(name="tiny", num_tables=4, rows_per_table=64,
                      embedding_dim=16, pooling=4, dense_features=8,
                      bottom_mlp=(16, 16), top_mlp=(16,),
                      interaction_group=0, quantized=True)


class TestModelThroughExecutor:
    def test_compiled_graph_matches_eager(self, tiny_dlrm, rng):
        batch = 8
        feed_rng = np.random.default_rng(5)
        feeds = {}
        for node in build_dlrm_graph(tiny_dlrm, batch):
            if node.op != "input":
                continue
            shape, dtype = node.meta.shape, node.meta.dtype.numpy_dtype
            if np.issubdtype(dtype, np.integer):
                feeds[node.name] = feed_rng.integers(
                    0, tiny_dlrm.rows_per_table, size=shape, dtype=dtype)
            else:
                feeds[node.name] = feed_rng.standard_normal(
                    shape).astype(dtype)
        weights = {}
        for t in range(tiny_dlrm.num_tables):
            weights[f"table{t}"] = rng.integers(
                -20, 20, (64, 16), dtype=np.int8)
        out_eager, _ = GraphExecutor(mode="eager").run(
            build_dlrm_graph(tiny_dlrm, batch), feeds, weights)
        out_graph, report = GraphExecutor(mode="graph").run(
            build_dlrm_graph(tiny_dlrm, batch), feeds, weights)
        a = out_eager[list(out_eager)[0]]
        b = out_graph[list(out_graph)[0]]
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)
        assert report.placement is not None

    def test_full_compile_pipeline_on_mc1(self):
        """Fusion -> placement -> estimate, end to end on the real
        medium-complexity model."""
        graph = build_dlrm_graph(MODEL_ZOO["MC1"], 64)
        graph, fusion_report = fuse_graph(graph)
        assert fusion_report.tbe_created > 0
        placement = place_tensors(graph, MTIA_V1.sram.capacity_bytes)
        assert placement.sram_peak_bytes <= MTIA_V1.sram.capacity_bytes
        estimate = estimate_graph(MACHINES["mtia"], graph, placement)
        assert estimate.total_seconds > 0
        assert estimate.total_flops > 0

    def test_throughput_scales_sublinearly_with_batch(self):
        """Larger batches amortise overheads (Section 6.1) so per-sample
        latency falls."""
        graph64 = build_dlrm_graph(MODEL_ZOO["LC2"], 64)
        graph512 = build_dlrm_graph(MODEL_ZOO["LC2"], 512)
        ex = GraphExecutor(MACHINES["mtia"], mode="graph")
        t64 = estimate_graph(MACHINES["mtia"], graph64,
                             ex.compile(graph64)).total_seconds
        t512 = estimate_graph(MACHINES["mtia"], graph512,
                              ex.compile(graph512)).total_seconds
        assert t512 < 8 * t64 * 1.01
        assert t512 / 512 < t64 / 64


class TestMultiCard:
    def test_hc_partitions_and_gathers(self):
        graph = build_dlrm_graph(MODEL_ZOO["HC"], 4)
        partitions = partition_by_memory(graph, 32 * 10 ** 9)
        devices = DeviceSet(len(partitions))
        assert len(devices) >= 23
        # Simulate the sparse-gather step: each non-dense card ships its
        # pooled outputs to card 0.
        pooled_bytes = 4 * MODEL_ZOO["HC"].embedding_dim * 4
        for part in partitions[1:]:
            src = devices[part.card].from_numpy(
                np.zeros(pooled_bytes, np.float32), name=f"p{part.card}")
            devices.p2p_copy(src, devices[0])
        devices.synchronize()
        assert devices[0].cycles > 0

    def test_lc2_single_device_inference_path(self, rng):
        device = MTIADevice()
        data = rng.standard_normal((64, 128)).astype(np.float32)
        tensor = device.from_numpy(data, name="acts")
        out = device.to_numpy(tensor)
        np.testing.assert_array_equal(out, data)
        device.synchronize()
        assert device.cycles > 0


class TestSimulatorAgainstExecutor:
    def test_fc_operator_functional_agreement(self, rng):
        """The DES kernel and the executor's numpy semantics agree on
        the same FC computation."""
        from repro.kernels.fc import run_fc
        from repro.compiler.ir import GraphBuilder

        m, k, n = 64, 64, 64
        a = rng.integers(-64, 64, (m, k), dtype=np.int8)
        w = rng.integers(-64, 64, (n, k), dtype=np.int8)

        acc = Accelerator()
        sim = run_fc(acc, a, w, subgrid=acc.subgrid((0, 0), 1, 1))

        b = GraphBuilder()
        x = b.input((m, k), dtype="int8", name="x")
        wn = b.weight((n, k), dtype="int8", name="w")
        fc = b.add("fc", (x.name, wn.name), out_dtype="fp32", name="fc")
        g = b.output(fc.name)
        out, _ = GraphExecutor(mode="eager").run(g, {"x": a}, {"w": w})
        np.testing.assert_array_equal(sim.c, out["fc"].astype(np.int32))

    def test_simulated_cycles_feed_power_model(self):
        from repro.kernels.fc import run_fc
        from repro.platforms.power import ChipPowerModel

        acc = Accelerator()
        result = run_fc(acc, m=128, k=128, n=128,
                        subgrid=acc.subgrid((0, 0), 2, 2), k_split=2)
        model = ChipPowerModel()
        activity = model.activity_from_stats(acc.collect_stats())
        watts = model.average_watts(activity, result.cycles)
        assert model.idle_watts < watts < MTIA_V1.tdp_watts * 1.2


class TestHeterogeneousJobs:
    def test_fc_and_tbe_share_the_chip(self):
        """Sub-graph parallelism (Section 7): dense and sparse operators
        run concurrently on disjoint sub-grids of one chip, both
        producing correct results."""
        from repro.firmware import JobScheduler
        from repro.firmware.jobs import make_fc_job, make_tbe_job
        from repro.kernels.tbe import TBEConfig

        acc = Accelerator()
        sched = JobScheduler(acc)
        fc_jobs = [make_fc_job(f"fc{i}", acc, 128, 128, 128, rows=2,
                               cols=2, k_split=2, seed=i) for i in range(2)]
        tbe_cfg = TBEConfig(num_tables=4, rows_per_table=1000,
                            embedding_dim=64, pooling_factor=8,
                            batch_size=16)
        tbe_jobs = [make_tbe_job(f"tbe{i}", acc, tbe_cfg, rows=2, cols=2,
                                 seed=10 + i) for i in range(2)]
        # Interleave submissions so dense and sparse dispatch together.
        for fc, tbe in zip(fc_jobs, tbe_jobs):
            sched.submit(fc)
            sched.submit(tbe)
        stats = sched.run()
        assert stats.completed == 4
        assert stats.failed == 0
        for job in fc_jobs:
            out = acc.download(job.result_addr, job.result_shape, np.int32)
            np.testing.assert_array_equal(out, job.expected)
        for job in tbe_jobs:
            out = acc.download(job.result_addr, job.result_shape,
                               np.float32)
            np.testing.assert_allclose(out, job.expected, atol=1e-3)

    def test_concurrent_jobs_overlap_in_time(self):
        from repro.firmware import JobScheduler
        from repro.firmware.jobs import make_fc_job, make_tbe_job
        from repro.kernels.tbe import TBEConfig

        acc = Accelerator()
        sched = JobScheduler(acc)
        fc = make_fc_job("fc", acc, 256, 256, 128, rows=2, cols=2,
                         k_split=2)
        tbe = make_tbe_job("tbe", acc,
                           TBEConfig(num_tables=4, rows_per_table=2000,
                                     embedding_dim=64, pooling_factor=16,
                                     batch_size=32),
                           rows=2, cols=2)
        sched.submit(fc)
        sched.submit(tbe)
        sched.run()
        # Both started before either finished: genuine overlap.
        assert fc.start_cycle < tbe.finish_cycle
        assert tbe.start_cycle < fc.finish_cycle
