"""The chaos campaign: determinism, graceful degradation, CLI."""

import json

import pytest

from repro.faults.campaign import (CAMPAIGN_BATCHING, SCENARIOS,
                                   CampaignConfig, hardware_microbench,
                                   render_text, run_campaign, run_scenario,
                                   synthetic_latency_model, to_json)


def tiny_config(**overrides):
    base = dict(seeds=2, requests=400, qps=20_000.0, cards=4,
                include_hardware=False, include_failover=False)
    base.update(overrides)
    return CampaignConfig(**base)


@pytest.fixture(scope="module")
def tiny_report():
    return run_campaign(tiny_config())


class TestCampaignDeterminism:
    def test_report_is_pure_function_of_config(self, tiny_report):
        again = run_campaign(tiny_config())
        assert to_json(again) == to_json(tiny_report)

    def test_jobs_do_not_change_the_report(self, tiny_report, tmp_path):
        parallel = run_campaign(tiny_config(), jobs=2)
        assert to_json(parallel) == to_json(tiny_report)
        # and the CLI's JSON files, byte for byte
        from repro.faults.__main__ import main
        written = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            assert main(["--seeds", "2", "--requests", "400",
                         "--no-hardware", "--no-failover", "--quiet",
                         "--jobs", jobs, "--json", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_seed_changes_the_report(self, tiny_report):
        shifted = run_campaign(tiny_config(seed_start=100))
        assert to_json(shifted) != to_json(tiny_report)


class TestCampaignContent:
    def test_every_scenario_runs_every_seed(self, tiny_report):
        rows = tiny_report["scenarios"]
        assert len(rows) == len(SCENARIOS) * 2
        for name in SCENARIOS:
            seeds = sorted(r["seed"] for r in rows
                           if r["scenario"] == name)
            assert seeds == [0, 1]
            assert tiny_report["summary"][name]["cells"] == 2

    def test_card_failure_degrades_gracefully(self, tiny_report):
        rows = [r for r in tiny_report["scenarios"]
                if r["scenario"] == "card_failure"]
        for row in rows:
            # losing 1 of 4 cards keeps availability above the
            # shed-everything strawman (drop all post-failure arrivals)
            assert row["graceful"]
            assert (row["faulted"]["availability"]
                    > row["shed_everything_availability"])
        assert tiny_report["checks"]["graceful_degradation"]

    def test_baseline_is_fault_free(self, tiny_report):
        for row in tiny_report["scenarios"]:
            if row["scenario"] in ("card_failure", "card_slowdown"):
                assert row["baseline"]["availability"] == 1.0

    def test_overload_shed_sheds(self, tiny_report):
        rows = [r for r in tiny_report["scenarios"]
                if r["scenario"] == "overload_shed"]
        assert any(r["faulted"]["counts"]["shed"] > 0 for r in rows)

    def test_timeout_pressure_retries(self, tiny_report):
        rows = [r for r in tiny_report["scenarios"]
                if r["scenario"] == "timeout_pressure"]
        assert all(r["faulted"]["mean_attempts"] > 1.0 for r in rows)

    def test_report_is_json_serialisable(self, tiny_report):
        round_tripped = json.loads(to_json(tiny_report))
        assert round_tripped["checks"]["graceful_degradation"] in (True,
                                                                   False)

    def test_render_text_summarises(self, tiny_report):
        text = render_text(tiny_report)
        assert "fault campaign" in text
        for name in SCENARIOS:
            assert name in text
        assert "graceful degradation: PASS" in text

    def test_capacity_math_overloads(self):
        # the campaign batching caps a card at ~25k qps, so the 3x
        # overload scenario is genuinely over capacity
        b = CAMPAIGN_BATCHING.max_batch
        capacity = b * 1e6 / synthetic_latency_model(b)
        assert capacity < 3.0 * 20_000.0


class TestHardwareMicrobench:
    def test_every_fault_kind_bites(self):
        section = hardware_microbench(seed=0)
        assert section["clean_cycles"] > 0
        kinds = {row["kind"] for row in section["kinds"]}
        assert {"dram.ecc_correctable", "sram.slice_stall",
                "noc.link_degrade", "noc.retransmit",
                "pe.slowdown"} == kinds
        for row in section["kinds"]:
            # each fault model visibly fires: cycle inflation and/or a
            # new stall attribution, plus injector activations
            assert (row["inflation"] > 1.0
                    or row["fault_stall_cycles"]), row["kind"]
            assert row["activations"], row["kind"]

    def test_microbench_is_deterministic(self):
        assert hardware_microbench(seed=0) == hardware_microbench(seed=0)


class TestFailoverFeedback:
    def test_failover_slowdown_feeds_card_failure_scenario(self):
        report = run_campaign(tiny_config(seeds=1, requests=300,
                                          include_failover=True))
        failover = report["failover"]
        assert failover["slowdown"] >= 1.0
        assert report["config"]["failover_slowdown"] == pytest.approx(
            max(1.0, failover["slowdown"]))
        assert failover["cards_after"] == failover["cards_before"] - 1

    def test_run_scenario_applies_failover_slowdown(self):
        fast = run_scenario("card_failure", 0, tiny_config(), 1.0)
        slow = run_scenario("card_failure", 0, tiny_config(), 3.0)
        assert (slow["faulted"]["p99_us"] > fast["faulted"]["p99_us"]
                or slow["faulted"]["availability"]
                < fast["faulted"]["availability"])


class TestCampaignCLI:
    def test_cli_writes_report_and_exits_zero(self, tmp_path, capsys):
        from repro.faults.__main__ import main
        out = tmp_path / "campaign.json"
        code = main(["--seeds", "1", "--requests", "300",
                     "--no-hardware", "--no-failover", "--quiet",
                     "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["checks"]["graceful_degradation"] is True
        text = capsys.readouterr().out
        assert "graceful degradation: PASS" in text

    def test_module_entrypoint_matches_campaign(self, tmp_path):
        # ``python -m repro.faults.campaign`` must resolve to the CLI
        import subprocess
        import sys
        out = tmp_path / "cli.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.faults.campaign",
             "--seeds", "1", "--requests", "300", "--no-hardware",
             "--no-failover", "--quiet", "--json", str(out)],
            capture_output=True, text=True, env=None)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["schema_version"] == 1
