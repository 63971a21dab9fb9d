"""Edge cases for the partitioner and tensor placement passes.

Backfill for the corners the autotuner now leans on: non-divisible
work sizes, degenerate 1xN / Nx1 sub-grids, a single-PE grid config,
first-fit boundary behaviour in the memory sharder, and pinned-weight
spill behaviour in the SRAM placer.
"""

import pytest

from repro.compiler.ir import GraphBuilder
from repro.compiler.partitioner import (_fit_pow2, choose_subgrid,
                                        cross_card_traffic,
                                        partition_by_memory)
from repro.compiler.placement import place_tensors
from repro.config import MTIA_V1


def _fc_node(batch, k, n):
    b = GraphBuilder()
    x = b.input((batch, k), name="x")
    w = b.weight((n, k), name="w")      # B^T layout, (n, k)
    return b.add("fc", (x.name, w.name), name="fc")


class TestFitPow2:
    @pytest.mark.parametrize("value,cap,expect", [
        (0, 8, 1), (1, 8, 1), (3, 8, 2), (4, 8, 4), (7, 8, 4),
        (8, 8, 8), (100, 8, 8), (100, 1, 1),
    ])
    def test_largest_power_of_two_capped(self, value, cap, expect):
        assert _fit_pow2(value, cap) == expect


class TestChooseSubgridEdges:
    def test_non_divisible_remainders_round_up(self):
        # 65 rows of output need two 64-row tiles, 100 columns two
        # 64-column tiles — remainders must not drop a PE row/column.
        assert choose_subgrid(_fc_node(65, 32, 100)) == (2, 2)
        assert choose_subgrid(_fc_node(63, 32, 64)) == (1, 1)

    def test_one_by_n_subgrid(self):
        rows, cols = choose_subgrid(_fc_node(32, 64, 4096))
        assert rows == 1
        assert cols == MTIA_V1.grid_cols

    def test_n_by_one_subgrid(self):
        rows, cols = choose_subgrid(_fc_node(4096, 64, 32))
        assert rows == MTIA_V1.grid_rows
        assert cols == 1

    def test_single_pe_grid_config(self):
        tiny = MTIA_V1.scaled(grid_rows=1, grid_cols=1)
        assert choose_subgrid(_fc_node(4096, 64, 4096), tiny) == (1, 1)
        b = GraphBuilder()
        x = b.input((4096, 64), name="x")
        mv = b.add("relu", (x.name,), name="mv")
        assert choose_subgrid(b.graph.node("mv"), tiny) == (1, 1)

    def test_elementwise_sizes_by_4kb_tiles(self):
        b = GraphBuilder()
        small = b.add("relu", (b.input((8, 8), name="x").name,), name="r")
        assert choose_subgrid(b.graph.node("r")) == (1, 1)
        b2 = GraphBuilder()
        b2.add("relu", (b2.input((4096, 4096), name="x").name,), name="r")
        rows, cols = choose_subgrid(b2.graph.node("r"))
        assert rows == MTIA_V1.grid_rows and cols == MTIA_V1.grid_cols


def _table_graph(table_bytes, num_tables, dense_bytes=64):
    """Weights-only graph: one dense weight + int8 embedding tables."""
    b = GraphBuilder()
    dense = b.weight((dense_bytes,), dtype="int8", name="mlp_w")
    for t in range(num_tables):
        b.weight((table_bytes,), dtype="int8", name=f"table{t}")
    return b.output(dense.name)


class TestPartitionerEdges:
    def test_exact_fit_table_occupies_a_whole_card(self):
        cap = 1 << 20
        parts = partition_by_memory(_table_graph(cap, 2), cap)
        # Dense card is full-blocked, so each table gets its own card.
        assert len(parts) == 3
        assert [p.weight_bytes for p in parts[1:]] == [cap, cap]

    def test_max_cards_exhausted_raises(self):
        cap = 1 << 20
        with pytest.raises(MemoryError, match="more than 2 cards"):
            partition_by_memory(_table_graph(cap, 3), cap, max_cards=2)

    def test_dense_only_model_is_one_partition(self):
        parts = partition_by_memory(_table_graph(0, 0), 1 << 20)
        assert len(parts) == 1
        assert parts[0].owns_dense
        assert parts[0].weight_nodes == ["mlp_w"]

    def test_first_fit_backfills_the_dense_card(self):
        # Largest-first: the big table opens card 1, the small one still
        # fits next to the dense weights on card 0.
        cap = 1 << 20
        b = GraphBuilder()
        dense = b.weight((64,), dtype="int8", name="mlp_w")
        b.weight((cap - 32,), dtype="int8", name="table0")
        b.weight((100,), dtype="int8", name="table1")
        parts = partition_by_memory(b.output(dense.name), cap)
        assert len(parts) == 2
        assert "table1" in parts[0].weight_nodes
        assert "table0" in parts[1].weight_nodes


class TestCrossCardTrafficEdges:
    def _eb_graph(self, table_bytes):
        b = GraphBuilder()
        t = b.weight((table_bytes, 8), dtype="int8", name="table0")
        idx = b.input((4, 2), dtype="int32", name="idx")
        eb = b.add("embedding_bag", (t.name, idx.name), batch=4,
                   pooling=2, name="eb0")
        return b.output(eb.name)

    def test_local_tables_move_no_bytes(self):
        g = self._eb_graph(100)
        parts = partition_by_memory(g, 1 << 20)
        assert len(parts) == 1
        assert cross_card_traffic(g, parts) == 0

    def test_remote_table_moves_pooled_output(self):
        g = self._eb_graph(1 << 18)
        parts = partition_by_memory(g, (1 << 18) * 8 + 256)
        # Card 0 is dense-blocked only if the table spills; force it.
        if len(parts) == 1:
            parts[0].weight_nodes.remove("table0")
            from repro.compiler.partitioner import Partition
            parts.append(Partition(card=1, weight_nodes=["table0"]))
        assert cross_card_traffic(g, parts) == g.node("eb0").meta.nbytes


class TestPlacementEdges:
    def test_pinned_weight_that_does_not_fit_spills_to_dram(self):
        b = GraphBuilder()
        x = b.input((4, 1024), name="x")
        w = b.weight((1024, 1024), name="big_w")        # 4 MB fp32
        fc = b.add("fc", (x.name, w.name), name="fc")
        g = b.output(fc.name)
        placement = place_tensors(g, sram_capacity=1 << 20,
                                  pin_weights={"big_w"})
        assert placement.region("big_w") == "dram"

    def test_pinned_weight_stays_resident_for_the_whole_graph(self):
        b = GraphBuilder()
        x = b.input((64, 64), name="x")
        w = b.weight((64, 64), name="hot_w")
        fc = b.add("fc", (x.name, w.name), name="fc")
        a = b.add("relu", (fc.name,), name="a")
        c = b.add("tanh", (a.name,), name="c")
        g = b.output(c.name)
        placement = place_tensors(g, sram_capacity=1 << 20,
                                  pin_weights={"hot_w"})
        assert placement.region("hot_w") == "sram"
        # The pin occupies budget to the very end, alongside the
        # intermediates that fit around it.
        assert placement.sram_peak_bytes >= g.node("hot_w").meta.nbytes

    def test_pinned_weight_counts_towards_the_sram_peak(self):
        b = GraphBuilder()
        x = b.input((4, 128), name="x")
        w = b.weight((1, 128), name="w")               # 512 B fp32
        fc = b.add("fc", (x.name, w.name), name="fc")
        g = b.output(fc.name)
        placement = place_tensors(g, sram_capacity=1 << 20,
                                  pin_weights={"w"})
        assert placement.region("w") == "sram"
        assert placement.sram_peak_bytes == 512

    def test_zero_capacity_spills_every_intermediate(self):
        b = GraphBuilder()
        x = b.input((64, 64), name="x")
        a = b.add("relu", (x.name,), name="a")
        c = b.add("tanh", (a.name,), name="c")
        g = b.output(c.name)
        placement = place_tensors(g, sram_capacity=0)
        assert placement.region("a") == "dram"
        assert placement.spilled == ["a"]       # "c" is a graph output
        assert placement.sram_peak_bytes == 0

    def test_hit_fraction_on_a_graph_with_no_interop_traffic(self):
        b = GraphBuilder()
        x = b.input((8, 8), name="x")
        g = b.output(x.name)
        placement = place_tensors(g, sram_capacity=1 << 20)
        assert placement.sram_hit_fraction(g) == 0.0
