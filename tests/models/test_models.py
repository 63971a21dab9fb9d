"""DLRM construction, the Table IV zoo, and trends."""

import numpy as np
import pytest

from repro.models.configs import MODEL_ZOO, TABLE_IV_TARGETS, table_iv_rows
from repro.models.dlrm import (DLRMConfig, build_dlrm_graph, model_flops,
                               model_size_bytes, operator_census)
from repro.models.trends import (compute_memory_gap, figure1_series,
                                 figure2_series)


class TestTableIVZoo:
    @pytest.mark.parametrize("name", list(MODEL_ZOO))
    def test_size_matches_table_iv(self, name):
        target_gb, _ = TABLE_IV_TARGETS[name]
        actual_gb = model_size_bytes(MODEL_ZOO[name]) / 1e9
        assert actual_gb == pytest.approx(target_gb, rel=0.02)

    @pytest.mark.parametrize("name", list(MODEL_ZOO))
    def test_complexity_matches_table_iv(self, name):
        _, target_gflops = TABLE_IV_TARGETS[name]
        actual = model_flops(MODEL_ZOO[name]) / 1e9
        assert actual == pytest.approx(target_gflops, rel=0.05)

    def test_zoo_ordering(self):
        sizes = [model_size_bytes(MODEL_ZOO[n]) for n in
                 ("LC2", "LC1", "MC1", "MC2", "HC")]
        assert sizes == sorted(sizes)

    def test_table_iv_rows_structure(self):
        rows = table_iv_rows()
        assert set(rows) == set(MODEL_ZOO)
        for row in rows.values():
            assert row["Size (GB)"] > 0


class TestGraphConstruction:
    def test_mc1_census_matches_section_6_1(self):
        """"approximately 750 layers with nearly 550 consisting of EB
        operators"."""
        census = operator_census(build_dlrm_graph(MODEL_ZOO["MC1"], 64))
        assert census["embedding_bag"] == 550
        assert 650 <= census["total"] <= 950

    def test_operator_mix_covers_table_iii_buckets(self):
        census = operator_census(build_dlrm_graph(MODEL_ZOO["MC1"], 64))
        for op in ("fc", "embedding_bag", "concat", "transpose", "quantize",
                   "dequantize", "batch_matmul"):
            assert census.get(op, 0) > 0, op

    def test_output_is_single_logit(self):
        g = build_dlrm_graph(MODEL_ZOO["LC2"], 32)
        out = g.node(g.outputs[0])
        assert out.meta.shape == (32, 1)

    def test_batch_size_propagates(self):
        g = build_dlrm_graph(MODEL_ZOO["LC2"], 128)
        eb = g.nodes_by_op("embedding_bag")[0]
        assert eb.meta.shape[0] == 128

    def test_unquantized_variant_has_no_qdq(self):
        cfg = MODEL_ZOO["LC2"]
        from dataclasses import replace
        plain = replace(cfg, quantized=False)
        census = operator_census(build_dlrm_graph(plain, 16))
        assert "quantize" not in census

    def test_bottom_mlp_must_end_at_embedding_dim(self):
        with pytest.raises(ValueError, match="embedding_dim"):
            DLRMConfig(name="bad", num_tables=4, rows_per_table=10,
                       embedding_dim=64, pooling=2, dense_features=16,
                       bottom_mlp=(32,), top_mlp=(16,))

    def test_small_model_executes_functionally(self, rng):
        """A tiny DLRM end to end through the executor vs numpy."""
        from repro.runtime.executor import GraphExecutor
        cfg = DLRMConfig(name="tiny", num_tables=3, rows_per_table=50,
                         embedding_dim=16, pooling=4, dense_features=8,
                         bottom_mlp=(16, 16), top_mlp=(8,),
                         interaction_group=4, quantized=False)
        batch = 8
        g = build_dlrm_graph(cfg, batch)
        feeds = {}
        for node in g:
            if node.op != "input":
                continue
            shape, dtype = node.meta.shape, node.meta.dtype.numpy_dtype
            if np.issubdtype(dtype, np.integer):
                feeds[node.name] = rng.integers(
                    0, cfg.rows_per_table, size=shape, dtype=dtype)
            else:
                feeds[node.name] = rng.standard_normal(shape).astype(dtype)
        outputs, report = GraphExecutor(mode="eager").run(g, feeds)
        logit = outputs[g.outputs[0]]
        assert logit.shape == (batch, 1)
        assert np.isfinite(logit).all()
        # sigmoid output in (0, 1)
        assert (logit > 0).all() and (logit < 1).all()

    def test_interaction_width_accounting(self):
        cfg = MODEL_ZOO["MC1"]
        g = build_dlrm_graph(cfg, 16)
        concat = g.node("feat_concat")
        assert concat.meta.shape[1] == cfg.full_feature_width
        assert cfg.full_feature_width == (cfg.concat_width
                                          + cfg.interaction_width)

    def test_tower_slices_cover_features(self):
        cfg = MODEL_ZOO["MC1"]
        slices = cfg.tower_slices()
        assert slices[0][0] == 0
        assert slices[-1][1] == cfg.full_feature_width
        for (s1, e1), (s2, e2) in zip(slices, slices[1:]):
            assert e1 == s2


class TestTrends:
    def test_figure1_growth_shapes(self):
        points = figure1_series()
        # Compute grows faster than memory (Figure 1's visual argument).
        gap = compute_memory_gap(points)
        assert gap["complexity_cagr"] > gap["footprint_cagr"] > 1.0

    def test_figure1_2023_brackets_model_zoo(self):
        points = {p.year: p for p in figure1_series()}
        p2023 = points[2023]
        assert 0.05 <= p2023.complexity_gflops <= 1.0
        assert 100 <= p2023.total_footprint_gb <= 1000

    def test_table_footprint_below_total(self):
        for p in figure1_series():
            assert p.table_footprint_gb < p.total_footprint_gb

    def test_figure2_nnpi_rises_then_falls(self):
        series = figure2_series()
        nnpi = [p.nnpi for p in series]
        peak = nnpi.index(max(nnpi))
        assert 0 < peak < len(nnpi) - 1
        assert nnpi[-1] < max(nnpi) / 2

    def test_figure2_gpu_takes_over_growth(self):
        series = figure2_series()
        gpu = [p.gpu for p in series]
        assert gpu[0] == 0.0
        assert gpu[-1] == max(gpu)
        assert gpu[-1] > series[-1].nnpi

    def test_figure2_total_demand_grows(self):
        series = figure2_series()
        assert series[-1].total > 2 * series[0].total
