"""Figures 1-2: model growth trends and server demand by platform."""

from conftest import emit

from repro.models.trends import (compute_memory_gap, figure1_series,
                                 figure2_series)


def test_figure1_scaling_trends():
    points = figure1_series()
    emit("Figure 1: inference model scaling trends", [
        f"{p.year}: complexity={p.complexity_gflops:.3f} GF/sample, "
        f"total={p.total_footprint_gb:.0f} GB, "
        f"tables={p.table_footprint_gb:.0f} GB"
        for p in points
    ])
    gap = compute_memory_gap(points)
    # The Introduction's argument: both grow strongly, compute faster.
    assert gap["complexity_cagr"] > 1.5
    assert gap["footprint_cagr"] > 1.3
    assert gap["complexity_x"] > gap["footprint_x"]
    # Embedding tables dominate the footprint (the gray line hugs the
    # solid line in Figure 1).
    for p in points:
        assert p.table_footprint_gb > 0.9 * p.total_footprint_gb


def test_figure2_server_demand():
    series = figure2_series()
    emit("Figure 2: inference server demand (normalised units)", [
        f"{p.year_quarter}: CPU={p.cpu:.0f} NNPI={p.nnpi:.0f} "
        f"GPU={p.gpu:.0f}"
        for p in series
    ])
    nnpi = [p.nnpi for p in series]
    gpu = [p.gpu for p in series]
    # NNPI ramps, peaks, declines; GPU absorbs the growth thereafter.
    peak = nnpi.index(max(nnpi))
    assert 0 < peak < len(series) - 1
    assert nnpi[-1] < 0.5 * max(nnpi)
    assert gpu[-1] == max(gpu) > max(nnpi)
    # Total demand grows throughout.
    totals = [p.total for p in series]
    assert totals[-1] > totals[0]
