"""``bench/compare.py`` verdicts on synthetic runs."""

import json

import pytest

from bench import compare

SPEC = {"workloads": [{"name": "chip_fc"}],
        "end_to_end": [{"name": "wall_s", "bound": 0.1, "better": "lower"}],
        "per_layer": [{"name": "sim.self_s"}]}
BASE = [1.00, 1.01, 0.99, 1.02, 0.98]


@pytest.mark.parametrize("new, verdict", [
    ([x * 1.02 for x in BASE], "unchanged"),
    ([x * 1.25 for x in BASE], "worse"),
    ([x * 0.75 for x in BASE], "better"),
    ([0.7, 1.0, 1.3, 0.8, 1.2], "unresolved"),
    ([0.5, 0.55, 0.9, 0.6, 0.95], "better"),   # wide, but all better
])
def test_classify(new, verdict):
    assert compare.classify(BASE, new, bound=0.1) == verdict


def test_classify_higher_is_better():
    assert compare.classify(BASE, [x * 1.25 for x in BASE], 0.1,
                            better="higher") == "better"


def _run(seed, walls, cycles, trace=False):
    return {"seed": seed, "trace": trace, "workloads": {"chip_fc": {
        "metrics": ({"sim.self_s": {"value": 0.3, "unit": "s"}} if trace
                    else {"wall_s": {"value": walls[0], "unit": "s"}}),
        "samples": {"wall_s": walls},
        "exact": {"sim_cycles": cycles}}}}


def test_exact_metrics_read_changed_only_at_a_shared_seed():
    base = compare.pool([_run(0, BASE, 100.0)])
    same = compare.pool([_run(0, BASE, 100.0 * (1 + 1e-12))])
    moved = compare.pool([_run(0, BASE, 101.0)])
    other_seed = compare.pool([_run(1, BASE, 101.0)])
    assert compare.compare(base, same, SPEC)["chip_fc"]["exact"] == []
    changed = compare.compare(base, moved, SPEC)["chip_fc"]["exact"]
    assert len(changed) == 1 and changed[0].startswith("sim_cycles")
    unshared = compare.compare(base, other_seed, SPEC)
    assert unshared["chip_fc"]["exact"] is None


def test_main_exits_1_on_a_worse_metric_and_prints_layer_deltas(
        tmp_path, capsys):
    paths = {}
    for label, walls in (("base", BASE), ("new", [x * 1.3 for x in BASE])):
        for trace in (False, True):
            path = tmp_path / f"{label}{int(trace)}.json"
            path.write_text(json.dumps(_run(0, walls, 100.0, trace)))
            paths.setdefault(label, []).append(str(path))
    assert compare.main(paths["base"] + ["--new"] + paths["new"]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "layer sim.self_s" in out
    assert compare.main(paths["base"] + ["--new"] + paths["base"]) == 0
