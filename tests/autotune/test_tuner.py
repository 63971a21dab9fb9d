"""End-to-end tuner and CLI: baselines, report, byte-identity."""

import json

from repro.autotune.__main__ import main
from repro.autotune.space import FCShape, MappingSpace, TBEShape
from repro.autotune.tuner import SCHEMA_VERSION, autotune, render_text

SMALL_FC = FCShape(m=128, k=64, n=128)
SMALL_TBE = TBEShape(num_tables=2, rows_per_table=512, embedding_dim=32,
                     pooling_factor=4, batch_size=8)


def _tune(shape, **kwargs):
    kwargs.setdefault("topk", 3)
    return autotune(shape, **kwargs)


def test_winner_is_des_measured_and_ordered():
    result = _tune(SMALL_FC)
    cycles = [v.sim_cycles for v in result.validated]
    assert cycles == sorted(cycles)
    assert result.winner is result.validated[0]
    assert result.winner.sim_cycles > 0
    assert result.baseline.sim_cycles > 0


def test_speedup_is_hand_over_winner():
    result = _tune(SMALL_TBE)
    assert result.speedup == (result.baseline.sim_cycles
                              / result.winner.sim_cycles)
    report = result.to_dict()
    assert report["winner"]["beats_hand"] == (
        result.winner.sim_cycles < result.baseline.sim_cycles)


def test_result_is_jobs_invariant():
    serial = _tune(SMALL_TBE, jobs=1).to_dict()
    fanned = _tune(SMALL_TBE, jobs=2).to_dict()
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(fanned, sort_keys=True)


def test_report_schema_and_replay_command():
    result = _tune(SMALL_FC, topk=2)
    report = result.to_dict()
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["search"] == {"space_size": len(MappingSpace(shape=SMALL_FC))}
    replay = report["replay"]
    assert replay.startswith("python -m repro.autotune fc ")
    assert "--topk 2" in replay
    # The replay command parses under the real CLI parser.
    from repro.autotune.__main__ import build_parser
    build_parser().parse_args(replay.split()[3:])


def test_custom_space_restrict_flows_through():
    space = MappingSpace(shape=SMALL_FC,
                         restrict={"operands": ("dram",)})
    result = _tune(SMALL_FC, space=space)
    assert all(v.candidate.operands == "dram" for v in result.validated)


def test_render_text_mentions_verdict_and_replay():
    result = _tune(SMALL_TBE)
    text = render_text(result)
    assert f"{result.space_size} legal mappings, all costed" in text
    assert "winner:" in text
    assert "hand-written" in text
    assert "replay: python -m repro.autotune" in text


def _run_cli(argv, capsys):
    rc = main(argv)
    assert rc == 0
    return capsys.readouterr().out


def test_cli_json_is_byte_identical_across_runs_and_jobs(capsys):
    argv = ["fc", "--m", "128", "--k", "64", "--n", "128",
            "--topk", "2", "--json"]
    first = _run_cli(argv, capsys)
    second = _run_cli(argv, capsys)
    fanned = _run_cli(argv + ["--jobs", "2"], capsys)
    assert first == second == fanned
    report = json.loads(first)
    assert report["schema_version"] == SCHEMA_VERSION


def test_cli_text_output_is_deterministic(capsys):
    argv = ["tbe", "--tables", "2", "--rows", "512", "--dim", "32",
            "--pooling", "4", "--batch", "8", "--topk", "2"]
    assert _run_cli(argv, capsys) == _run_cli(argv, capsys)
