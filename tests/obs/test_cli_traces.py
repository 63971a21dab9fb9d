"""Every CLI Chrome trace is well formed: strict JSON, a named process
row behind every span, and every flow arrow drawn from both ends."""

import collections
import json

import pytest

from repro import critpath, profile, serve_report

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: trace name -> (CLI entry point, argv without ``-o``)
CLIS = {
    "serve_report": (serve_report.main,
                     ["quickstart", "--requests", "400", "--chrome"]),
    "serve_report --fleet": (serve_report.main,
                             ["quickstart", "--fleet", "--replicas", "2",
                              "--duration-us", "5000", "--chrome"]),
    "critpath": (critpath.main, ["quickstart", "--format", "chrome"]),
    "profile": (profile.main, ["quickstart", "--format", "chrome"]),
    "profile --critical": (profile.main, ["quickstart", "--critical",
                                          "--format", "chrome"]),
}


def cli_trace(tmp_path, name):
    main, argv = CLIS[name]
    path = tmp_path / "trace.json"
    assert main(argv + ["-o", str(path)]) == 0
    trace = json.loads(path.read_text())
    json.dumps(trace, allow_nan=False)   # no NaN or infinity anywhere
    return trace["traceEvents"]


@pytest.mark.parametrize("name", sorted(CLIS))
def test_cli_trace_is_well_formed(tmp_path, name):
    events = cli_trace(tmp_path, name)
    used = {e["pid"] for e in events if e["ph"] == "X"}
    named = {e["pid"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert used and used <= named
    for phase in ("s", "f"):
        ids = collections.Counter(e["id"] for e in events
                                  if e["ph"] == phase)
        assert all(n == 1 for n in ids.values()), (phase, ids)
    assert ({e["id"] for e in events if e["ph"] == "s"}
            == {e["id"] for e in events if e["ph"] == "f"})


def test_profile_critical_chrome_keeps_the_critical_path(tmp_path):
    events = cli_trace(tmp_path, "profile --critical")
    assert "critical.path" in {e["tid"] for e in events if e["ph"] == "X"}
    assert any(e["ph"] == "s" for e in events)
