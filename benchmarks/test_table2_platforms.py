"""Table II: the three inference hardware platforms."""

import pytest
from conftest import emit

from repro.eval.tables import format_table, table_ii
from repro.platforms import YOSEMITE_V2, YOSEMITE_V3, ZION_4S


def test_table_ii():
    rows = table_ii()
    emit("Table II: inference hardware platforms",
         format_table(rows).splitlines())
    # Power accounting matches the published percentages.
    assert YOSEMITE_V2.accelerator_power_fraction == pytest.approx(
        0.272, abs=0.005)
    assert ZION_4S.accelerator_power_fraction == pytest.approx(
        0.587, abs=0.005)
    assert YOSEMITE_V3.accelerator_power_fraction == pytest.approx(
        0.538, abs=0.005)
    # The provisioned-power methodology (Section 6).
    assert YOSEMITE_V3.provisioned_watts_per_card == pytest.approx(65.0)
    assert ZION_4S.provisioned_watts_per_card == pytest.approx(562.5)
    assert YOSEMITE_V2.provisioned_watts_per_card == pytest.approx(49.67,
                                                                   abs=0.01)
    # Platform-level compute and memory ordering the comparison rests on.
    assert ZION_4S.total_int8_tops > YOSEMITE_V3.total_int8_tops
    assert YOSEMITE_V3.total_int8_tops > YOSEMITE_V2.total_int8_tops
    assert ZION_4S.device_bw_gbs_per_card == pytest.approx(1500)
    assert YOSEMITE_V3.device_bw_gbs_per_card == pytest.approx(150)
