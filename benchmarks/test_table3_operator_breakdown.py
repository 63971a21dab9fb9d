"""Table III: operator latency breakdown for a medium-complexity DLRM."""

import pytest
from conftest import emit

from repro.eval.tables import TABLE_III_PAPER, table_iii


def _emit_breakdown(batch, ours):
    paper = TABLE_III_PAPER[batch]
    lines = [f"{'bucket':<12}{'paper %':>10}{'ours %':>10}"]
    for bucket in ("fc", "eb", "concat", "transpose", "quantize",
                   "dequantize", "bmm", "other"):
        lines.append(f"{bucket:<12}{paper.get(bucket, 0):>10.1f}"
                     f"{ours.get(bucket, 0):>10.1f}")
    emit(f"Table III: operator breakdown, MC1, batch {batch}", lines)


def test_table_iii_batch_64():
    ours = table_iii(64)
    _emit_breakdown(64, ours)
    # FC dominates at batch 64 (paper: 42.1 %), EB second (31.2 %).
    assert ours["fc"] == max(ours.values())
    assert ours["fc"] == pytest.approx(TABLE_III_PAPER[64]["fc"], abs=12)
    assert ours["eb"] == pytest.approx(TABLE_III_PAPER[64]["eb"], abs=15)
    assert ours["fc"] + ours["eb"] > 55


def test_table_iii_batch_256():
    ours = table_iii(256)
    _emit_breakdown(256, ours)
    # At batch 256 FC and EB together still dominate (~62 % in the
    # paper) and the FC share has dropped from its batch-64 level.
    assert ours["fc"] + ours["eb"] > 55
    b64 = table_iii(64)
    assert ours["fc"] < b64["fc"]
    # Concat's share grows with batch (2.9 % -> 11.5 % in the paper).
    assert ours["concat"] > b64["concat"]
    assert ours["concat"] == pytest.approx(TABLE_III_PAPER[256]["concat"],
                                           abs=6)
