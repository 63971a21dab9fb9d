"""End-to-end checks of ``python -m repro.conformance``."""

import json

import pytest

from repro.conformance import determinism
from repro.conformance.__main__ import build_parser, main
from repro.conformance.determinism import CHECKS, Perturbation
from repro.conformance.runner import (ConformanceConfig,
                                      run_conformance)


def test_small_sweep_passes_and_writes_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--seeds", "2", "--pillars", "golden,determinism",
                 "--quiet", "--json", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["totals"]["cases"] == 4
    assert report["totals"]["golden_divergences"] == 0
    assert report["totals"]["determinism_violations"] == 0
    assert report["config"]["seeds"] == [0, 1]


def test_replay_overrides_sweep(capsys):
    code = main(["--replay", "17", "--pillars", "golden", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 cases over 1 seeds" in out


def test_every_check_violation_is_printed(monkeypatch, capsys):
    # A determinism case failing outside the sim and graph kinds used to
    # print an empty FAIL reason.
    row = next(r for r in CHECKS if r.kind == "fleet")
    steered = row._replace(perturbation=Perturbation(
        "steered", lambda run: run(seed=12345)))
    monkeypatch.setattr(determinism, "CHECKS", (steered,))
    code = main(["--replay", "0", "--pillars", "determinism", "--quiet"])
    assert code == 1
    assert ("FAIL seed=0 [determinism] fleet: fleet steered changed "
            "cycles: ") in capsys.readouterr().out


def test_unknown_op_family_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--ops", "fc,bogus"])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_runner_captures_case_exceptions_as_errors():
    # An op subset the graph-fuzzer pillars accept but whose crossval
    # band is impossible still yields a structured report, and a case
    # that raises is recorded as status="error", failing the run.
    config = ConformanceConfig(seeds=1, pillars=("golden",),
                               ops=("fc",))
    report = run_conformance(config)
    assert report.passed and len(report.cases) == 1

    config = ConformanceConfig(seeds=1, pillars=("bogus-pillar",))
    report = run_conformance(config)
    assert not report.passed
    assert report.cases[0].status == "error"
    assert "bogus-pillar" in report.cases[0].details["exception"]


def test_report_json_is_stable_and_round_trips():
    config = ConformanceConfig(seeds=1, pillars=("golden",))
    report = run_conformance(config)
    payload = json.loads(report.to_json())
    assert set(payload) == {"config", "passed", "totals", "failures",
                            "cases"}
    assert set(payload["totals"]) == {
        "cases", "golden_divergences", "determinism_violations",
        "cache_violations", "faults_violations", "autotune_violations",
        "crossval_cases", "band_violation_rate", "errors"}
