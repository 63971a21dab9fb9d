"""The python -m repro.serve_report and python -m repro.bench CLIs."""

import json

import pytest

from repro.serve_report import (WORKLOADS, build_chrome_trace, main,
                                run_serve_report)

#: Small, exemplar-free run shared across the class (the DES exemplar
#: profiles are exercised separately and in the CLI smoke test).
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def quick():
    return run_serve_report("quickstart", num_requests=800,
                            exemplars=False)


class TestServeReport:
    def test_report_sections_populated(self, quick):
        report, model = quick
        data = report.to_dict()
        assert data["schema_version"] == 1
        assert data["num_requests"] == 800
        assert set(data["breakdown_us"]) == {"queue_wait", "batch_wait",
                                             "retry_overhead", "execute"}
        assert data["slo"]["total"] == 800
        assert data["tail_attribution"]["tail_requests"] > 0
        assert data["tail_attribution"]["category_mix"]["tail"]
        rows = data["requests"]
        assert len(rows) == data["request_rows_included"] == 100
        for row in rows[:5]:
            assert row["latency_us"] == pytest.approx(
                row["queue_wait_us"] + row["batch_wait_us"]
                + row["execute_us"])

    def test_json_round_trips(self, quick):
        report, _ = quick
        assert json.loads(report.to_json())["workload"] == "quickstart"

    def test_text_render(self, quick):
        report, _ = quick
        text = report.to_text()
        for needle in ("== latency ==", "== SLO", "tail attribution",
                       "queue_wait"):
            assert needle in text

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            run_serve_report("nope")

    def test_workload_presets_complete(self):
        for spec in WORKLOADS.values():
            assert {"model", "qps", "sla_us", "num_requests"} <= set(spec)

    def test_exemplars_add_stall_mix(self):
        report, _ = run_serve_report("quickstart", num_requests=400,
                                     exemplars=True)
        mix = report.tail.stall_mix
        assert set(mix) == {"tail", "median", "delta"}
        assert sum(mix["tail"].values()) == pytest.approx(1.0)

    def test_chrome_trace_links_request_to_sim(self, quick):
        report, model = quick
        trace = build_chrome_trace(report, model)
        events = trace["traceEvents"]
        names = {e["args"]["name"] for e in events if e.get("ph") == "M"}
        assert "serving.requests" in names
        assert any(n.endswith(".model") for n in names)
        assert any(n.endswith(".sim") for n in names)
        starts = {e["id"] for e in events if e.get("ph") == "s"}
        finishes = {e["id"] for e in events if e.get("ph") == "f"}
        assert starts and starts == finishes   # every arrow lands

    def test_telemetry_attached_and_exported(self, quick):
        report, _ = quick
        assert report.telemetry is not None
        assert report.telemetry.num_requests == 800
        data = report.to_dict()
        assert data["replicas"] == 1
        assert data["telemetry"]["latency"]["count"] == 800
        assert data["sketch_vs_exact"]["p99"]["relative_error"] <= 0.0101
        assert "== fleet telemetry" in report.to_text()

    def test_fleet_replicas_merge(self):
        report, _ = run_serve_report("quickstart", num_requests=300,
                                     exemplars=False, replicas=3)
        assert report.replicas == 3
        assert report.telemetry.replicas == [0, 1, 2]
        assert report.telemetry.num_requests == 900
        # per-request rows stay replica-0 only; fleet stats are merged
        assert report.to_dict()["num_requests"] == 300

    def test_fleet_report_jobs_invariant(self):
        def fleet(jobs):
            report, _ = run_serve_report("quickstart", num_requests=300,
                                         exemplars=False, replicas=3,
                                         jobs=jobs)
            return json.dumps(report.to_dict(), sort_keys=True)

        assert fleet(1) == fleet(2)

    def test_chrome_trace_carries_exemplar_spans(self):
        report, model = run_serve_report("quickstart", num_requests=300,
                                         exemplars=False)
        trace = build_chrome_trace(report, model)
        xs = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        tracks = {e["tid"] for e in xs}
        # Slowest-k waterfalls come from the same builder as the
        # exemplar batches' members: one request.N row each, drawn once
        # even when the request also sits in an exemplar batch.
        for _rep, rid in report.telemetry.exemplars.slowest_ids():
            assert f"request.{rid}" in tracks
            assert sum(e["name"] == f"req{rid}" for e in xs) == 1

    def test_cli_text_json_and_chrome(self, tmp_path, capsys):
        assert main(["quickstart", "--requests", "400",
                     "--no-exemplars"]) == 0
        assert "serve report" in capsys.readouterr().out

        out = tmp_path / "serve.json"
        assert main(["quickstart", "--requests", "400", "--no-exemplars",
                     "--json", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["requests"][0]["queue_wait_us"] >= 0

        trace = tmp_path / "serve.trace.json"
        assert main(["quickstart", "--requests", "400", "--chrome",
                     "-o", str(trace)]) == 0
        assert json.loads(trace.read_text())["traceEvents"]

    def test_fleet_cli_honours_batching_flags(self, tmp_path):
        out = tmp_path / "fleet.json"
        assert main(["quickstart", "--fleet", "--duration-us", "2000",
                     "--max-batch", "4", "--max-wait-us", "5",
                     "--json", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["fleet"]["config"]["batching"] == {"max_batch": 4,
                                                       "max_wait_us": 5.0}


class TestBench:
    def test_run_bench_schema(self):
        from repro.bench import run_bench
        payload = run_bench(workloads=["dlrm"])
        assert payload["schema_version"] == 1
        result = payload["workloads"]["dlrm"]
        assert set(result) == {"latency_us", "achieved_tflops",
                               "sim_cycles", "wall_time_s", "extras"}
        assert result["latency_us"] > 0
        assert result["achieved_tflops"] > 0

    def test_unknown_workload_rejected(self):
        from repro.bench import run_bench
        with pytest.raises(SystemExit):
            run_bench(workloads=["nope"])

    def test_compare_flags_regressions(self):
        from repro.bench import compare
        base = {"workloads": {"fc": {"latency_us": 100.0,
                                     "achieved_tflops": 10.0,
                                     "sim_cycles": 1000.0,
                                     "wall_time_s": 1.0}}}
        same = compare(base, base)
        assert same == []
        worse = {"workloads": {"fc": {"latency_us": 150.0,
                                      "achieved_tflops": 8.0,
                                      "sim_cycles": 1000.0,
                                      "wall_time_s": 99.0}}}
        lines = compare(worse, base, threshold=0.10)
        assert any("latency_us grew" in l for l in lines)
        assert any("achieved_tflops dropped" in l for l in lines)
        assert not any("wall_time" in l for l in lines)

    def test_compare_tolerates_missing_baseline_workload(self):
        from repro.bench import compare
        current = {"workloads": {"new": {"latency_us": 5.0}}}
        assert compare(current, {"workloads": {}}) == []

    def test_cli_writes_bench_file(self, tmp_path, capsys):
        from repro.bench import main as bench_main
        assert bench_main(["dlrm", "--label", "test",
                           "-o", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "BENCH_test.json").read_text())
        assert payload["label"] == "test"
        assert "dlrm" in payload["workloads"]

    def test_cli_strict_compare_fails_on_regression(self, tmp_path):
        from repro.bench import main as bench_main
        baseline = tmp_path / "BENCH_base.json"
        baseline.write_text(json.dumps(
            {"workloads": {"dlrm": {"latency_us": 1e-6,
                                    "achieved_tflops": 1e9,
                                    "sim_cycles": 0.0}}}))
        assert bench_main(["dlrm", "--label", "t2", "-o", str(tmp_path),
                           "--compare", str(baseline), "--strict"]) == 1
        assert bench_main(["dlrm", "--label", "t3", "-o", str(tmp_path),
                           "--compare", str(baseline)]) == 0
