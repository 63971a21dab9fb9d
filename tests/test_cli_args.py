"""The CLI front door: bad arguments end in a usage error naming the
flag (exit 2), and every report writer puts into a file exactly what it
prints to stdout."""

import pytest

from repro import bench, critpath, profile, serve_report
from repro.autotune.__main__ import main as autotune_main
from repro.conformance.__main__ import main as conformance_main
from repro.eval import sweep
from repro.faults.__main__ import main as faults_main
from repro.serving import fleet_check

MAINS = {"serve_report": serve_report.main, "critpath": critpath.main,
         "profile": profile.main, "autotune": autotune_main,
         "conformance": conformance_main, "faults": faults_main,
         "sweep": sweep.main, "fleet_check": fleet_check.main,
         "bench": bench.main}

#: a directory no test run creates
MISSING = "/nonexistent-report-dir"

#: (CLI, argv, the flag the error must name)
CASES = [
    ("serve_report", "quickstart --requests -5", "--requests"),
    ("serve_report", "quickstart --qps 0", "--qps"),
    ("serve_report", "quickstart --max-batch 0", "--max-batch"),
    ("serve_report", "quickstart --max-batch 257", "--max-batch"),
    ("serve_report", "quickstart --max-batch 1024 --json", "--max-batch"),
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
    ("serve_report", "quickstart --seed -1", "--seed"),
    ("serve_report", "quickstart --fleet --racks 0", "--racks"),
    ("serve_report", "quickstart --fleet --power-domains 0",
     "--power-domains"),
    ("critpath", "fc --top -3", "--top"),
    ("critpath", "quickstart --whatif dram=nan", "--whatif"),
    ("critpath", "quickstart --whatif dram=inf", "--whatif"),
    ("critpath", "quickstart --jobs 0", "--jobs"),
    ("profile", "quickstart --top -3", "--top"),
    ("profile", "quickstart --top x", "--top"),
    ("autotune", "fc --m 128 --k 64 --n 128 --topk 1 --jobs 0", "--jobs"),
    ("autotune", "fc --m 0", "--m"),
    ("autotune", "fc --k -64", "--k"),
    ("autotune", "fc --n 0", "--n"),
    ("autotune", "fc --topk 0", "--topk"),
    ("autotune", "tbe --tables 0", "--tables"),
    ("autotune", "tbe --rows 0", "--rows"),
    ("autotune", "tbe --dim 0", "--dim"),
    ("autotune", "tbe --pooling 0", "--pooling"),
    ("autotune", "tbe --batch -1", "--batch"),
    ("conformance", "--seeds 0", "--seeds"),
    ("conformance", "--seeds 1 --pillars golden --jobs 0", "--jobs"),
    ("conformance", "--seeds 1 --pillars golden --seed-start -1",
     "--seed-start"),
    ("conformance", "--pillars golden --replay -1", "--replay"),
    ("conformance", "--seeds 1 --pillars golden --ops ,", "--ops"),
    ("faults", "--seeds 0", "--seeds"),
    ("faults", "--seeds 1 --requests 200 --no-hardware --no-failover "
     "--jobs 0", "--jobs"),
    ("faults", "--seeds 1 --requests 200 --no-hardware --no-failover "
     "--seed-start -1", "--seed-start"),
    ("faults", "--seeds 1 --requests 200 --no-hardware --no-failover "
     "--cards 0", "--cards"),
    ("faults", "--seeds 1 --no-hardware --no-failover --requests 0",
     "--requests"),
    ("faults", "--seeds 1 --requests 200 --no-hardware --no-failover "
     "--qps -1", "--qps"),
    ("sweep", "--seeds -2", "--seeds"),
    ("sweep", "--seeds 0", "--seeds"),
    ("sweep", "--seeds 1 --jobs 0", "--jobs"),
    ("sweep", "--seeds 1 --seed-start -1", "--seed-start"),
    ("sweep", "--kinds fc,bogus", "--kinds"),
    ("fleet_check", "--duration-us 1000 --jobs 0", "--jobs"),
    ("fleet_check", "--duration-us 1000 --jobs 1,x", "--jobs"),
    ("fleet_check", "--duration-us 1000 --policies bogus", "--policies"),
    ("fleet_check", "--duration-us 1000 --replicas 0", "--replicas"),
    ("fleet_check", "--duration-us 0", "--duration-us"),
    ("fleet_check", "--duration-us 1000 --target-qps -5", "--target-qps"),
    ("bench", "--trajectory --jobs 0", "--jobs"),
    # an output path in a missing directory fails before the run
    ("profile", f"quickstart -o {MISSING}/x.json", "--output/-o"),
    ("critpath", f"quickstart -o {MISSING}/x.json", "--output/-o"),
    ("serve_report", f"quickstart -o {MISSING}/x.json", "--output/-o"),
    ("serve_report", "quickstart -o .", "--output/-o"),
    ("conformance", f"--seeds 1 --pillars golden --json {MISSING}/r.json",
     "--json"),
    ("sweep", f"--seeds 1 --json {MISSING}/r.json", "--json"),
    ("faults", "--seeds 1 --requests 200 --no-hardware --no-failover "
     f"--json {MISSING}/r.json", "--json"),
    ("bench", f"-o {MISSING}", "--output-dir/-o"),
]

#: (CLI, argv, the flag whose choices the value is not among)
CHOICE_CASES = [
    ("serve_report", "quickstart --fleet --policy bogus", "--policy"),
    ("serve_report", "quickstart --fleet --trace-name bogus",
     "--trace-name"),
    ("fleet_check", "--duration-us 1000 --trace-name bogus", "--trace-name"),
]


def _usage_error(capsys, cli, argv):
    with pytest.raises(SystemExit) as exc:
        MAINS[cli](argv.split())
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("cli, argv, flag", CASES,
                         ids=[f"{cli} {argv}" for cli, argv, _ in CASES])
def test_bad_argument_is_a_usage_error(capsys, cli, argv, flag):
    assert f"argument {flag}: must be" in _usage_error(capsys, cli, argv)


@pytest.mark.parametrize("cli, argv, flag", CHOICE_CASES,
                         ids=[f"{cli} {argv}" for cli, argv, _ in
                              CHOICE_CASES])
def test_unknown_choice_is_a_usage_error(capsys, cli, argv, flag):
    err = _usage_error(capsys, cli, argv)
    assert f"argument {flag}: invalid choice: 'bogus'" in err


def test_empty_mapping_space_is_a_usage_error(capsys):
    err = _usage_error(capsys, "autotune", "fc --m 100")
    assert "mapping space for fc m=100 k=1024 n=256 int8 is empty" in err


#: (CLI, argv that prints the report to stdout, the flag that writes it
#: to a file instead, or None when the flag takes the path as its value)
WRITERS = [
    ("profile", "quickstart --format json", "-o"),
    ("serve_report", "quickstart --json --requests 500 --no-exemplars",
     "-o"),
    ("sweep", "--seeds 1 --json -", None),
]


@pytest.mark.parametrize("cli, argv, flag", WRITERS,
                         ids=[cli for cli, _, _ in WRITERS])
def test_file_holds_what_stdout_prints(tmp_path, capsys, cli, argv, flag):
    MAINS[cli](argv.split())
    printed = capsys.readouterr().out
    path = tmp_path / "report"
    to_file = (argv.split() + [flag, str(path)] if flag
               else argv.replace("--json -", f"--json {path}").split())
    MAINS[cli](to_file)
    # the file takes the report's place on stdout; one line says so
    confirmation = capsys.readouterr().out
    written = path.read_text()
    line = next(line for line in confirmation.splitlines()
                if line.startswith("wrote ") and line.endswith(str(path)))
    assert confirmation.replace(line + "\n", written) == printed
