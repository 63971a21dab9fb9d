"""Bad CLI arguments end in a usage error naming the flag (exit 2)."""

import pytest

from repro import critpath, profile, serve_report

MAINS = {"serve_report": serve_report.main, "critpath": critpath.main,
         "profile": profile.main}

#: (CLI, argv, the flag the error must name)
CASES = [
    ("serve_report", "quickstart --requests -5", "--requests"),
    ("serve_report", "quickstart --qps 0", "--qps"),
    ("serve_report", "quickstart --max-batch 0", "--max-batch"),
    ("serve_report", "quickstart --critical --critical-k -1", "--critical-k"),
    ("serve_report", "quickstart --availability 1.5", "--availability"),
    ("serve_report", "quickstart --window-us 0", "--window-us"),
    ("serve_report", "quickstart --max-wait-us -1", "--max-wait-us"),
    ("serve_report", "quickstart --replicas 0", "--replicas"),
    ("serve_report", "quickstart --fleet --duration-us -5", "--duration-us"),
    ("serve_report", "quickstart --sla-us nan", "--sla-us"),
    ("serve_report", "quickstart --jobs 0", "--jobs"),
    ("serve_report", "quickstart --max-request-rows -1",
     "--max-request-rows"),
    ("critpath", "fc --top -3", "--top"),
    ("critpath", "quickstart --whatif dram=nan", "--whatif"),
    ("critpath", "quickstart --whatif dram=inf", "--whatif"),
    ("profile", "quickstart --top -3", "--top"),
]


@pytest.mark.parametrize("cli, argv, flag", CASES,
                         ids=[f"{cli} {argv}" for cli, argv, _ in CASES])
def test_bad_argument_is_a_usage_error(capsys, cli, argv, flag):
    with pytest.raises(SystemExit) as exc:
        MAINS[cli](argv.split())
    assert exc.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err
