"""Execution tracing."""

import json

import numpy as np
import pytest

from repro import Accelerator
from repro.kernels.fc import run_fc
from repro.sim import Tracer


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record("pe0.dpe", "MML", 0, 32)
        assert tracer.spans == []

    def test_record_and_query(self):
        tracer = Tracer(enabled=True)
        tracer.record("pe0.dpe", "MML", 10, 42)
        tracer.record("pe0.fi", "DMALoad", 0, 20, bytes=2048)
        tracer.record("pe0.dpe", "MML", 50, 82)
        assert tracer.tracks() == ["pe0.dpe", "pe0.fi"]
        assert tracer.busy_cycles("pe0.dpe") == 64
        assert tracer.utilization("pe0.dpe", 100) == pytest.approx(0.64)
        spans = tracer.spans_on("pe0.dpe")
        assert [s.start for s in spans] == [10, 50]

    def test_backwards_span_rejected(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            tracer.record("t", "x", 10, 5)

    def test_chrome_trace_structure(self):
        tracer = Tracer(enabled=True)
        tracer.record("pe0.dpe", "MML", 0, 32, acc=1)
        doc = tracer.to_chrome_trace(frequency_ghz=0.8)
        assert "traceEvents" in doc
        event = doc["traceEvents"][0]
        assert event["ph"] == "X"
        assert event["name"] == "MML"
        assert event["tid"] == "pe0.dpe"
        assert event["args"] == {"acc": 1}
        # 32 cycles at 0.8 GHz = 40 ns = 0.04 us
        assert event["dur"] == pytest.approx(0.04)

    def test_save_round_trips_json(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.record("pe0.se", "QuantizeCmd", 5, 9)
        path = tmp_path / "trace.json"
        tracer.save(str(path))
        loaded = json.loads(path.read_text())
        assert [e["ph"] for e in loaded["traceEvents"]] == ["X", "M"]

    def test_summary(self):
        tracer = Tracer(enabled=True)
        tracer.record("a", "x", 0, 10)
        tracer.record("a", "y", 10, 15)
        summary = tracer.summary()
        assert summary["a"] == {"spans": 2, "busy_cycles": 15}


class TestTracerPids:
    def test_default_pid_groups_by_track_prefix(self):
        tracer = Tracer(enabled=True)
        tracer.record("pe0.dpe", "MML", 0, 32)
        tracer.record("pe1.dpe", "MML", 0, 32)
        doc = tracer.to_chrome_trace()
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x_events[0]["pid"] != x_events[1]["pid"]

    def test_explicit_pid_separates_cards(self):
        """Two cards' identical tracks must not collide on one row."""
        tracer = Tracer(enabled=True)
        tracer.record("pe0.dpe", "MML", 0, 32, pid="card0")
        tracer.record("pe0.dpe", "MML", 0, 32, pid="card1")
        doc = tracer.to_chrome_trace()
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x_events[0]["pid"] != x_events[1]["pid"]
        names = {e["args"]["name"]: e["pid"]
                 for e in doc["traceEvents"] if e["ph"] == "M"}
        assert names == {"card0": x_events[0]["pid"],
                         "card1": x_events[1]["pid"]}

    def test_default_pid_applies_to_all_spans(self):
        tracer = Tracer(enabled=True, default_pid="cardA")
        tracer.record("pe0.dpe", "MML", 0, 32)
        assert tracer.spans[0].pid == "cardA"
        doc = tracer.to_chrome_trace()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "cardA"

    def test_named_accelerator_sets_default_pid(self):
        acc = Accelerator(trace=True, name="card3")
        run_fc(acc, m=64, k=64, n=64, subgrid=acc.subgrid((0, 0), 1, 1))
        assert all(s.pid == "card3" for s in acc.tracer.spans)

    def test_explicit_pid_overrides_default(self):
        tracer = Tracer(enabled=True, default_pid="cardA")
        tracer.record("pe0.dpe", "MML", 0, 32, pid="cardB")
        assert tracer.spans[0].pid == "cardB"


class TestTracedSimulation:
    def test_fc_run_produces_spans(self):
        acc = Accelerator(trace=True)
        run_fc(acc, m=64, k=64, n=64, subgrid=acc.subgrid((0, 0), 1, 1))
        tracer = acc.tracer
        assert "pe0.dpe" in tracer.tracks()
        assert "pe0.fi" in tracer.tracks()
        mml_spans = [s for s in tracer.spans_on("pe0.dpe")
                     if s.name == "MML"]
        # 64x64x64 = 2x2x2 blocks x 4 accumulator commands... exactly
        # (m/64)*(n/64)*(k/32)*4 = 8 MMLs.
        assert len(mml_spans) == 8
        dma_spans = [s for s in tracer.spans_on("pe0.fi")
                     if s.name == "DMALoad"]
        assert len(dma_spans) == 4   # 2 A stripes + 2 B stripes

    def test_spans_do_not_overlap_per_serial_unit(self):
        acc = Accelerator(trace=True)
        run_fc(acc, m=64, k=64, n=64, subgrid=acc.subgrid((0, 0), 1, 1))
        spans = [s for s in acc.tracer.spans_on("pe0.dpe")]
        for a, b in zip(spans, spans[1:]):
            assert b.start >= a.end   # the DPE serves serially

    def test_untraced_run_is_clean(self):
        acc = Accelerator()
        run_fc(acc, m=64, k=64, n=64, subgrid=acc.subgrid((0, 0), 1, 1))
        assert acc.tracer.spans == []

    def test_save_trace_from_accelerator(self, tmp_path):
        acc = Accelerator(trace=True)
        run_fc(acc, m=64, k=64, n=64, subgrid=acc.subgrid((0, 0), 1, 1))
        path = tmp_path / "fc.json"
        acc.save_trace(str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) > 10
