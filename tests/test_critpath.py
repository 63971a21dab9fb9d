"""The python -m repro.critpath CLI: schema pin, validation, chrome."""

import argparse
import json

import pytest

from repro.critpath import (SCHEMA_VERSION, VALIDATION_BAND,
                            analyze_workload, main, parse_whatif_spec,
                            render_text)

#: pinned top-level schema — additive changes must bump SCHEMA_VERSION
REPORT_KEYS = {"schema_version", "workload", "unit", "sim_cycles",
               "extras", "critical_path", "whatif"}
PATH_KEYS = {"unit", "total", "start", "end", "num_segments",
             "num_condensed", "by_resource", "segments", "attrs"}
WHATIF_KEYS = {"requested_factor", "effective_factor", "resource",
               "factor", "unit", "baseline", "projected", "delta",
               "speedup", "scaled_edges", "nodes", "validation"}


@pytest.fixture(scope="module")
def report():
    return analyze_workload("quickstart",
                            whatif=[("noc", 1.5),
                                    ("local_memory", 2.0)],
                            validate=True)


class TestSchema:
    def test_top_level_keys_pinned(self, report):
        assert set(report) == REPORT_KEYS
        assert report["schema_version"] == SCHEMA_VERSION == 1
        assert set(report["critical_path"]) == PATH_KEYS
        for row in report["whatif"]:
            assert set(row) == WHATIF_KEYS

    def test_path_total_matches_cycles_span(self, report):
        path = report["critical_path"]
        assert path["unit"] == "cycles"
        assert path["total"] == path["end"] - path["start"]
        assert path["end"] <= report["sim_cycles"]

    def test_json_has_no_wall_clock(self, report):
        text = json.dumps(report)
        assert "wall" not in text


class TestValidation:
    def test_projections_within_band(self, report):
        assert len(report["whatif"]) == 2
        for row in report["whatif"]:
            validation = row["validation"]
            assert validation is not None
            assert validation["band"] == VALIDATION_BAND
            assert validation["within_band"], (
                f"{row['resource']} x{row['effective_factor']}: "
                f"error {validation['relative_error']:.1%}")
            assert validation["true_delta"] > 0

    def test_report_is_jobs_invariant(self):
        def run(jobs):
            return json.dumps(
                analyze_workload("quickstart", whatif=[("noc", 1.5)],
                                 validate=True, jobs=jobs),
                sort_keys=True)

        assert run(1) == run(2)


class TestCLI:
    def test_spec_parsing(self):
        assert parse_whatif_spec("dram=1.2") == ("dram", 1.2)
        for bad in ("dram", "nope=2", "dram=abc", "dram=-1"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_whatif_spec(bad)

    def test_text_render(self, report):
        text = render_text(report)
        assert "== critical path: quickstart ==" in text
        assert "critical cycles by resource:" in text
        assert "re-simulated:" in text

    def test_cli_text_json_chrome(self, tmp_path, capsys):
        assert main(["quickstart"]) == 0
        assert "critical path" in capsys.readouterr().out

        out = tmp_path / "crit.json"
        assert main(["quickstart", "--format", "json",
                     "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == REPORT_KEYS

        trace = tmp_path / "crit.trace.json"
        assert main(["quickstart", "--format", "chrome",
                     "-o", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        tracks = {e.get("tid") for e in events if e.get("ph") == "X"}
        assert "critical.path" in tracks
        assert any(t.endswith(".dpe") for t in tracks)
        # the critical track chains flow arrows into hardware spans
        assert any(e.get("ph") == "s" for e in events)
        assert any(e.get("ph") == "f" for e in events)
