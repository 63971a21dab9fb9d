"""Table IV: the five representative DLRMs."""

import pytest
from conftest import emit

from repro.eval.tables import table_iv
from repro.models.configs import MODEL_ZOO, TABLE_IV_TARGETS
from repro.models.dlrm import build_dlrm_graph, operator_census


def test_table_iv():
    rows = table_iv()
    lines = [f"{'model':<6}{'paper GB':>10}{'ours GB':>10}"
             f"{'paper GF':>10}{'ours GF':>10}"]
    for name, (size_gb, gflops) in TABLE_IV_TARGETS.items():
        lines.append(
            f"{name:<6}{size_gb:>10.1f}{rows[name]['Size (GB)']:>10.1f}"
            f"{gflops:>10.3f}"
            f"{rows[name]['Complexity (GFLOPS/batch)']:>10.3f}")
    emit("Table IV: DLRM model zoo", lines)
    for name, (size_gb, gflops) in TABLE_IV_TARGETS.items():
        assert rows[name]["Size (GB)"] == pytest.approx(size_gb, rel=0.02)
        assert rows[name]["Complexity (GFLOPS/batch)"] == pytest.approx(
            gflops, rel=0.05)


def test_mc1_structure_matches_section_6_1():
    census = operator_census(build_dlrm_graph(MODEL_ZOO["MC1"], 64))
    emit("MC1 operator census",
         [f"{op}: {count}" for op, count in sorted(census.items())])
    # "approximately 750 layers with nearly 550 consisting of EB
    # operators" (Section 6.1).
    assert census["embedding_bag"] == 550
    assert 650 <= census["total"] <= 950
