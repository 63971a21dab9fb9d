"""Span trees on the one tracer: nesting, flows, export, no-op contract."""

import json

import pytest

from repro.sim.trace import Tracer, chrome_trace


class TestNesting:
    def test_add_records_under_current(self):
        spans = Tracer(enabled=True)
        with spans.span("request.0", "req0", 0.0, 100.0) as req:
            child = spans.record("request.0", "execute", 40.0, 100.0)
        assert child.parent_id == req.span_id
        assert spans.children_of(req) == [child]

    def test_three_level_propagation(self):
        spans = Tracer(enabled=True)
        with spans.span("a", "outer", 0.0, 10.0) as outer:
            with spans.span("a", "mid", 1.0, 9.0) as mid:
                leaf = spans.record("a", "leaf", 2.0, 3.0)
        assert mid.parent_id == outer.span_id
        assert leaf.parent_id == mid.span_id
        assert outer.parent_id is None

    def test_stack_pops_after_exit(self):
        spans = Tracer(enabled=True)
        with spans.span("a", "one", 0.0, 1.0):
            pass
        assert spans.current is None
        orphan = spans.record("a", "two", 2.0, 3.0)
        assert orphan.parent_id is None

    def test_explicit_parent_overrides_stack(self):
        spans = Tracer(enabled=True)
        root = spans.record("a", "root", 0.0, 10.0)
        with spans.span("a", "other", 0.0, 5.0):
            with spans.attach(root):
                child = spans.record("a", "child", 1.0, 2.0)
        assert child.parent_id == root.span_id

    def test_attach_reenters_recorded_span(self):
        spans = Tracer(enabled=True)
        root = spans.record("serving.device", "batch0", 0.0, 100.0)
        with spans.attach(root):
            child = spans.record("executor.graph", "graph_execute", 0.0, 90.0)
        assert child.parent_id == root.span_id

    def test_end_before_start_rejected(self):
        spans = Tracer(enabled=True)
        with pytest.raises(ValueError):
            spans.record("a", "bad", 5.0, 1.0)

    def test_queries(self):
        spans = Tracer(enabled=True)
        spans.record("b", "late", 5.0, 6.0)
        spans.record("a", "x", 0.0, 1.0)
        spans.record("b", "early", 1.0, 2.0)
        assert spans.tracks() == ["a", "b"]
        assert [s.name for s in spans.spans_on("b")] == ["early", "late"]
        assert len(spans.find("x")) == 1


class TestDisabledIsNoOp:
    """The PR-1 observability contract, extended to spans."""

    def test_everything_returns_none_and_records_nothing(self):
        spans = Tracer(enabled=False)
        assert spans.record("a", "x", 0.0, 1.0) is None
        with spans.span("a", "y", 0.0, 1.0) as span:
            assert span is None
            assert spans.record("a", "z", 0.0, 1.0) is None
        assert spans.link(None) is None
        assert spans.spans == []
        assert spans.current is None

    def test_disabled_skips_validation(self):
        # No per-call work at all: even a bad interval is not examined.
        Tracer(enabled=False).record("a", "bad", 5.0, 1.0)

    def test_attach_disabled_passes_through(self):
        spans = Tracer(enabled=False)
        with spans.attach(None) as span:
            assert span is None


class TestFlows:
    def test_link_marks_both_ends(self):
        spans = Tracer(enabled=True)
        src = spans.record("a", "src", 0.0, 1.0)
        dst = spans.record("b", "dst", 1.0, 2.0)
        fid = spans.link(src, dst)
        assert src.flow_out == (fid,)
        assert dst.flow_in == (fid,)

    def test_flow_ids_unique(self):
        spans = Tracer(enabled=True)
        assert spans.new_flow() != spans.new_flow()

    def test_link_without_dst_returns_id_for_other_tracker(self):
        spans = Tracer(enabled=True)
        src = spans.record("a", "src", 0.0, 1.0)
        fid = spans.link(src)
        assert fid in src.flow_out

    def test_flow_events_in_chrome_export(self):
        spans = Tracer(enabled=True)
        src = spans.record("a", "src", 0.0, 1.0)
        dst = spans.record("b", "dst", 1.0, 2.0)
        fid = spans.link(src, dst)
        events = chrome_trace(spans)["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert [e["id"] for e in starts] == [fid]
        assert [e["id"] for e in finishes] == [fid]
        assert all(e["cat"] == "flow" for e in starts + finishes)
        # Arrow leaves near the source's end, lands at the dest's start.
        assert starts[0]["ts"] <= 1.0
        assert finishes[0]["ts"] == 1.0

    def test_flow_links_into_sim_tracer_export(self):
        """A serving span can point at a cycle-level Tracer span."""
        spans = Tracer(enabled=True)
        batch = spans.record("serving.device", "batch0", 10.0, 20.0)
        tracer = Tracer(enabled=True)
        mml = tracer.record("pe0.dpe", "MML", 0, 800)
        fid = spans.link(batch, mml)
        sim = chrome_trace((tracer, 1 / 800, 10.0))

        finishes = [e for e in sim["traceEvents"] if e.get("ph") == "f"]
        assert [e["id"] for e in finishes] == [fid]
        assert finishes[0]["cat"] == "flow"
        assert finishes[0]["ts"] == pytest.approx(10.0)  # shifted start

        merged = chrome_trace(spans, (tracer, 1 / 800, 10.0))
        ids_s = {e["id"] for e in merged["traceEvents"] if e["ph"] == "s"}
        ids_f = {e["id"] for e in merged["traceEvents"] if e["ph"] == "f"}
        assert fid in ids_s & ids_f


class TestChromeExport:
    def test_x_events_carry_ids_and_parent(self):
        spans = Tracer(enabled=True)
        with spans.span("request.1", "req1", 0.0, 10.0) as req:
            spans.record("request.1", "execute", 4.0, 10.0)
        events = chrome_trace(spans)["traceEvents"]
        xs = {e["name"]: e for e in events if e["ph"] == "X"}
        assert xs["req1"]["args"]["span_id"] == req.span_id
        assert xs["execute"]["args"]["parent_id"] == req.span_id
        assert xs["execute"]["ts"] == 4.0
        assert xs["execute"]["dur"] == pytest.approx(6.0)

    def test_pid_defaults_from_track_prefix(self):
        spans = Tracer(enabled=True)
        spans.record("request.1", "a", 0.0, 1.0)
        spans.record("request.2", "b", 0.0, 1.0)
        spans.record("serving.device", "c", 0.0, 1.0, pid="serving")
        events = chrome_trace(spans)["traceEvents"]
        meta = {e["args"]["name"]: e["pid"] for e in events
                if e["ph"] == "M"}
        assert set(meta) == {"request", "serving"}
        xs = [e for e in events if e["ph"] == "X"]
        assert xs[0]["pid"] == xs[1]["pid"]       # both request.* rows
        assert xs[2]["pid"] != xs[0]["pid"]

    def test_zero_duration_span_gets_min_width(self):
        spans = Tracer(enabled=True)
        spans.record("a", "instant", 5.0, 5.0)
        event = chrome_trace(spans)["traceEvents"][0]
        assert event["dur"] > 0

    def test_save_round_trips(self, tmp_path):
        spans = Tracer(enabled=True)
        spans.record("a", "x", 0.0, 1.0)
        path = tmp_path / "spans.json"
        spans.save(str(path))
        data = json.loads(path.read_text())
        assert data["traceEvents"]


class TestMerge:
    def test_pids_renumbered_into_one_namespace(self):
        a = Tracer(enabled=True)
        a.record("request.0", "ra", 0.0, 1.0)
        b = Tracer(enabled=True)
        b.record("request.0", "rb", 0.0, 1.0)
        merged = chrome_trace(a, b)
        xs = [e for e in merged["traceEvents"] if e["ph"] == "X"]
        assert xs[0]["pid"] != xs[1]["pid"]

    def test_inputs_not_mutated(self):
        a = Tracer(enabled=True)
        a.record("x", "a", 0.0, 1.0)
        before = json.dumps(chrome_trace(a), sort_keys=True)
        chrome_trace(a, a)
        assert json.dumps(chrome_trace(a), sort_keys=True) == before
