"""Golden-file regression tests for the user-facing report surfaces.

These pin the *schemas* — key sets, metric names, label keys — of
``python -m repro.profile --format json`` and
``python -m repro.report --metrics``, not the numeric values (those
belong to the calibration tests).  A renamed field or dropped metric
breaks downstream dashboards silently; these tests make it loud.

To intentionally change a schema, regenerate with::

    GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest tests/golden
"""

import json
import os
import re
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent

_METRIC_LINE = re.compile(
    r"^(?P<name>[a-z_][a-z0-9_]*)(\{(?P<labels>[^}]*)\})? (?P<value>\S+)$")
_LABEL = re.compile(r'([a-z_][a-z0-9_]*)="')


def _check(name: str, actual: dict) -> None:
    """Compare ``actual`` against the golden file (or rewrite it)."""
    path = GOLDEN_DIR / name
    if os.environ.get("GOLDEN_UPDATE"):
        path.write_text(json.dumps(actual, indent=2, sort_keys=True)
                        + "\n")
        return
    expected = json.loads(path.read_text())
    assert actual == expected, (
        f"schema drift vs {path.name}; if intentional, regenerate with "
        "GOLDEN_UPDATE=1")


def profile_schema() -> dict:
    """Key-set schema of the quickstart profile JSON report."""
    from repro.profile import profile_workload
    report, _ = profile_workload("quickstart")
    data = json.loads(report.to_json())
    return {
        "top_level": sorted(data),
        "track": sorted(data["tracks"][0]),
        "operation": sorted(data["operations"][0]),
        "bandwidth": sorted(data["bandwidth"][0]),
        "stall_causes": sorted(data["stalls_by_cause"]),
        "extras": sorted(data["extras"]),
        "workload": data["workload"],
    }


def metrics_schema(text: str) -> dict:
    """Metric names, types, and label keys from Prometheus text."""
    types = {}
    label_keys = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            types[name] = kind
        else:
            match = _METRIC_LINE.match(line)
            if match:
                keys = sorted(_LABEL.findall(match.group("labels") or ""))
                label_keys.setdefault(match.group("name"), keys)
    return {"types": types, "label_keys": label_keys}


def serve_report_schema() -> dict:
    """Key-set schema of the serve_report quickstart JSON."""
    from repro.serve_report import run_serve_report
    report, _ = run_serve_report("quickstart", num_requests=600)
    data = json.loads(report.to_json())
    tail = data["tail_attribution"]
    return {
        "top_level": sorted(data),
        "batching": sorted(data["batching"]),
        "throughput": sorted(data["throughput"]),
        "latency": sorted(data["latency_us"]),
        "breakdown": sorted(data["breakdown_us"]),
        "queue_depth": sorted(data["queue_depth"]),
        "batch_occupancy": sorted(data["batch_occupancy"]),
        "request_row": sorted(data["requests"][0]),
        "slo": sorted(data["slo"]),
        "slo_window": sorted(data["slo"]["windows"][0]),
        "tail": sorted(tail),
        "tail_cohorts": sorted(tail["phase_us"]),
        "tail_stall_cohorts": sorted(tail["stall_mix"]),
        "workload": data["workload"],
    }


def campaign_schema() -> dict:
    """Key-set schema of the fault-campaign JSON report."""
    from repro.faults.campaign import CampaignConfig, run_campaign
    report = run_campaign(CampaignConfig(seeds=1, requests=300))
    failure_row = next(r for r in report["scenarios"]
                       if r["scenario"] == "card_failure")
    return {
        "top_level": sorted(report),
        "config": sorted(report["config"]),
        "scenario_row": sorted(failure_row),
        "scenario_stats": sorted(failure_row["faulted"]),
        "status_counts": sorted(failure_row["faulted"]["counts"]),
        "summary_scenarios": sorted(report["summary"]),
        "summary_stats": sorted(report["summary"]["card_failure"]),
        "checks": sorted(report["checks"]),
        "hardware": sorted(report["hardware"]),
        "hardware_row": sorted(report["hardware"]["kinds"][0]),
        "failover": sorted(report["failover"]),
        "schema_version": report["schema_version"],
    }


def fleet_report_schema() -> dict:
    """Key-set schema of the serve_report --fleet JSON."""
    from repro.serve_report import run_fleet_report
    report, _ = run_fleet_report("quickstart", replicas=2,
                                 duration_us=10_000.0)
    data = json.loads(report.to_json())
    fleet = data["fleet"]
    return {
        "top_level": sorted(data),
        "trace": sorted(data["trace"]),
        "comparison_row": sorted(data["comparison"][0]),
        "fleet": sorted(fleet),
        "fleet_config": sorted(fleet["config"]),
        "fleet_replica_spec": sorted(fleet["config"]["replicas"][0]),
        "fleet_router": sorted(fleet["config"]["router"]),
        "fleet_latency": sorted(fleet["latency_us"]),
        "fleet_breakdown": sorted(fleet["breakdown_us"]),
        "fleet_routing": sorted(fleet["routing"]),
        "fleet_conservation": sorted(fleet["conservation"]),
        "fleet_replica_row": sorted(fleet["replicas"][0]),
        "capacity": sorted(data["capacity"]),
        "capacity_probe": sorted(data["capacity"]["probes"][0]),
        "policies": sorted(row["policy"] for row in data["comparison"]),
        "schema_version": data["schema_version"],
    }


def fleet_capacity_schema() -> dict:
    """Key-set schema of the simulated fleet capacity plan."""
    from repro.serving.capacity import plan_fleet_capacity
    from repro.serving.fleet import TabularLatencyModel
    from repro.serving.traffic import trace_preset
    from dataclasses import replace as _replace
    model = TabularLatencyModel(batches=(1, 16, 64, 256),
                                latency_us=(60.0, 110.0, 260.0, 860.0))
    trace = _replace(trace_preset("diurnal", target_qps=400_000.0),
                     duration_us=10_000.0)
    plan = plan_fleet_capacity(model, trace, sla_us=1_500.0)
    data = plan.to_dict()
    return {
        "top_level": sorted(data),
        "probe": sorted(data["probes"][0]),
        "trace": sorted(data["trace"]),
        "policy": data["policy"],
        "feasible": data["feasible"],
    }


def autotune_report_schema() -> dict:
    """Key-set schema of ``python -m repro.autotune --json``."""
    from repro.autotune import FCShape, autotune
    result = autotune(FCShape(m=128, k=64, n=128), topk=2, jobs=1)
    data = result.to_dict()
    return {
        "top_level": sorted(data),
        "shape": sorted(data["shape"]),
        "search": sorted(data["search"]),
        "validated_row": sorted(data["validated"][0]),
        "candidate": sorted(data["validated"][0]["candidate"]),
        "baseline": sorted(data["baseline"]),
        "winner": sorted(data["winner"]),
        "schema_version": data["schema_version"],
    }


def bench_autotuned_schema() -> dict:
    """Key-set schema of a bench row carrying ``--autotuned`` extras."""
    from repro.bench import METRICS, _bench_fc
    row = _bench_fc(autotuned=True)
    return {
        "row": sorted(row),
        "metrics": sorted(METRICS),
        "extras": sorted(row["extras"]),
        "autotuned_extras": sorted(k for k in row["extras"]
                                   if k.startswith("autotuned_")),
    }


def test_autotune_report_schema_is_stable():
    _check("autotune_report_schema.json", autotune_report_schema())


def test_bench_autotuned_row_schema_is_stable():
    _check("bench_autotuned_row_schema.json", bench_autotuned_schema())


def test_profile_json_schema_is_stable():
    _check("profile_quickstart_schema.json", profile_schema())


def test_fleet_report_json_schema_is_stable():
    _check("fleet_report_schema.json", fleet_report_schema())


def test_fleet_capacity_schema_is_stable():
    _check("fleet_capacity_schema.json", fleet_capacity_schema())


def test_serve_report_json_schema_is_stable():
    _check("serve_report_quickstart_schema.json", serve_report_schema())


def test_campaign_json_schema_is_stable():
    _check("campaign_report_schema.json", campaign_schema())


def test_report_metrics_schema_is_stable(capsys):
    from repro.report import main
    assert main(["bounds", "--metrics"]) == 0
    out = capsys.readouterr().out
    start = out.index("Collected metrics")
    _check("report_metrics_schema.json", metrics_schema(out[start:]))


def test_profile_json_round_trips_through_cli(tmp_path, capsys):
    """The CLI's --format json output parses and matches the schema."""
    from repro.profile import main
    out = tmp_path / "prof.json"
    assert main(["quickstart", "--format", "json",
                 "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    golden = json.loads(
        (GOLDEN_DIR / "profile_quickstart_schema.json").read_text())
    assert sorted(data) == golden["top_level"]
    assert data["workload"] == "quickstart"
    assert data["elapsed_cycles"] > 0
