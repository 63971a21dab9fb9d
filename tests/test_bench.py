"""Bench suite: nonzero cycles everywhere, trajectory aggregation."""

import json

import pytest

from repro.bench import (BENCHES, METRICS, TRAJECTORY_SCHEMA_VERSION,
                         compare, latest_baseline, load_trajectory, main,
                         render_trajectory, run_bench)


@pytest.fixture(scope="module")
def payload():
    return run_bench(label="test")


class TestWorkloads:
    def test_every_workload_reports_nonzero_cycles(self, payload):
        """Regression: the dlrm analytical path used to report
        ``sim_cycles: 0.0``, which broke trajectory comparisons."""
        for name, result in payload["workloads"].items():
            assert result["sim_cycles"] > 0, f"{name} has zero cycles"

    def test_headline_metrics_present_and_finite(self, payload):
        for name, result in payload["workloads"].items():
            for metric in METRICS:
                value = result[metric]
                assert isinstance(value, float), f"{name}.{metric}"
                assert value >= 0.0
            assert result["latency_us"] > 0
            assert isinstance(result["extras"], dict)

    def test_all_workloads_ran(self, payload):
        assert set(payload["workloads"]) == set(BENCHES)
        assert payload["label"] == "test"

    def test_dlrm_cycles_are_modelled_from_latency(self, payload):
        from repro.config import MTIA_V1
        dlrm = payload["workloads"]["dlrm"]
        assert dlrm["extras"]["cycles_modelled"] is True
        expect = dlrm["latency_us"] * 1e-6 * MTIA_V1.frequency_ghz * 1e9
        assert dlrm["sim_cycles"] == pytest.approx(expect, rel=1e-9)

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            run_bench(workloads=["nope"])

    def test_engine_extras_on_every_workload(self, payload):
        """Regression: the dlrm row used to carry no DES throughput
        counters, so the trajectory could not track kernel speed for
        graph workloads.  Every workload now reports them."""
        for name, result in payload["workloads"].items():
            extras = result["extras"]
            assert extras["events_processed"] > 0, name
            assert extras["events_per_sec_wall"] > 0, name
            assert extras["peak_heap_size"] > 0, name


class TestCompare:
    def test_detects_cycle_regression(self, payload):
        worse = json.loads(json.dumps(payload))
        worse["workloads"]["fc"]["sim_cycles"] *= 1.5
        lines = compare(worse, payload, threshold=0.10)
        assert any("fc.sim_cycles" in line for line in lines)

    def test_within_threshold_is_clean(self, payload):
        assert compare(payload, payload, threshold=0.10) == []


class TestLatestBaseline:
    def write_bench(self, tmp_path, label, created=0.0):
        path = tmp_path / f"BENCH_{label}.json"
        path.write_text(json.dumps({
            "schema_version": 1, "label": label, "created_unix": created,
            "workloads": {"fc": {"latency_us": 10.0,
                                 "achieved_tflops": 1.0,
                                 "sim_cycles": 100.0,
                                 "wall_time_s": 0.1, "extras": {}}}}))
        return path

    def test_picks_highest_pr_number_not_mtime(self, tmp_path):
        self.write_bench(tmp_path, "pr8", created=900.0)
        self.write_bench(tmp_path, "pr10", created=50.0)
        assert latest_baseline(str(tmp_path)).endswith("BENCH_pr10.json")

    def test_excludes_current_label(self, tmp_path):
        self.write_bench(tmp_path, "pr8")
        self.write_bench(tmp_path, "pr9")
        path = latest_baseline(str(tmp_path), exclude_label="pr9")
        assert path.endswith("BENCH_pr8.json")

    def test_none_when_no_eligible_baseline(self, tmp_path):
        assert latest_baseline(str(tmp_path)) is None
        self.write_bench(tmp_path, "pr9")
        assert latest_baseline(str(tmp_path),
                               exclude_label="pr9") is None

    def test_repo_latest_prior_to_this_pr_is_pr8(self):
        path = latest_baseline(".", exclude_label="pr9")
        assert path.endswith("BENCH_pr8.json")

    def test_cli_compare_latest(self, tmp_path, capsys):
        self.write_bench(tmp_path, "pr1")
        assert main(["fc", "--label", "smoke", "-o", str(tmp_path),
                     "--compare", "latest"]) == 0
        out = capsys.readouterr().out
        assert "BENCH_pr1.json" in out


class TestTrajectory:
    def write_bench(self, tmp_path, label, created, cycles):
        path = tmp_path / f"BENCH_{label}.json"
        path.write_text(json.dumps({
            "schema_version": 1, "label": label,
            "created_unix": created,
            "workloads": {"fc": {"latency_us": 10.0,
                                 "achieved_tflops": 1.0,
                                 "sim_cycles": cycles,
                                 "wall_time_s": 0.1,
                                 "extras": {}}}}))
        return path

    def test_rows_ordered_by_creation_time(self, tmp_path):
        self.write_bench(tmp_path, "pr5", created=200.0, cycles=90.0)
        self.write_bench(tmp_path, "pr4", created=100.0, cycles=100.0)
        trajectory = load_trajectory(str(tmp_path))
        assert trajectory["trajectory_schema_version"] == \
            TRAJECTORY_SCHEMA_VERSION
        assert trajectory["runs"] == 2
        assert [r["label"] for r in trajectory["rows"]] == ["pr4", "pr5"]
        for row in trajectory["rows"]:
            assert set(METRICS) <= set(row)

    def test_pr_labels_order_by_number_not_timestamp(self, tmp_path):
        """A stale clock must not reorder the PR sequence."""
        self.write_bench(tmp_path, "pr10", created=50.0, cycles=80.0)
        self.write_bench(tmp_path, "pr8", created=900.0, cycles=90.0)
        self.write_bench(tmp_path, "nightly", created=10.0, cycles=70.0)
        trajectory = load_trajectory(str(tmp_path))
        assert [r["label"] for r in trajectory["rows"]] == \
            ["pr8", "pr10", "nightly"]

    def test_gaps_in_pr_sequence_reported(self, tmp_path):
        self.write_bench(tmp_path, "pr3", created=100.0, cycles=90.0)
        self.write_bench(tmp_path, "pr6", created=400.0, cycles=80.0)
        trajectory = load_trajectory(str(tmp_path))
        assert trajectory["missing_labels"] == ["pr4", "pr5"]
        assert trajectory["runs"] == 2
        text = render_trajectory(trajectory)
        assert "pr4, pr5" in text

    def test_corrupt_bench_file_skipped_not_fatal(self, tmp_path):
        self.write_bench(tmp_path, "pr4", created=100.0, cycles=90.0)
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        (tmp_path / "BENCH_empty.json").write_text(
            json.dumps({"label": "empty"}))
        trajectory = load_trajectory(str(tmp_path))
        assert [r["label"] for r in trajectory["rows"]] == ["pr4"]
        skipped = {item["file"] for item in trajectory["skipped"]}
        assert skipped == {"BENCH_bad.json", "BENCH_empty.json"}
        assert "skipped BENCH_bad.json" in render_trajectory(trajectory)

    def test_repo_trajectory_includes_this_pr(self):
        trajectory = load_trajectory(".")
        labels = {r["label"] for r in trajectory["rows"]}
        assert "pr6" in labels
        assert "pr8" in labels
        # pr5 and pr7 landed without bench files; the trajectory must
        # report the gap instead of silently renumbering the sequence
        assert {"pr5", "pr7"} <= set(trajectory["missing_labels"])
        assert trajectory["skipped"] == []
        # older BENCH files keep the historical zero-cycle dlrm rows;
        # from this PR on every workload must carry real cycles
        for row in trajectory["rows"]:
            if row["label"] == "pr6":
                assert row["sim_cycles"] > 0, (
                    f"{row['file']}:{row['workload']} has zero cycles")

    def test_render_and_cli(self, tmp_path, capsys):
        self.write_bench(tmp_path, "pr4", created=100.0, cycles=100.0)
        trajectory = load_trajectory(str(tmp_path))
        text = render_trajectory(trajectory)
        assert "pr4" in text and "fc" in text

        assert main(["--trajectory", "-o", str(tmp_path)]) == 0
        assert "pr4" in capsys.readouterr().out

        assert main(["--trajectory", "--json", "-o", str(tmp_path)]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["runs"] == 1
