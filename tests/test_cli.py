"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

COMMITTED = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


class TestParsing:
    def test_dims_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["info", "--dims", "3x4x5"])
        assert args.dims == (3, 4, 5)

    def test_bad_dims_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["info", "--dims", "three"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--dims", "4x4"]) == 0
        out = capsys.readouterr().out
        assert "torus(4x4)" in out
        assert "nodes:           16" in out

    def test_info_hypercube(self, capsys):
        assert main(["info", "--topology", "hypercube", "--dims", "4"]) == 0
        assert "hypercube(4)" in capsys.readouterr().out

    def test_rates(self, capsys):
        assert main(["rates", "--dims", "4x4", "--flows", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Gbps" in out
        assert "aggregate" in out

    def test_simulate(self, capsys):
        assert main(
            [
                "simulate",
                "--dims",
                "3x3",
                "--flows",
                "20",
                "--interarrival-ns",
                "20000",
                "--mean-bytes",
                "20000",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "completed" in out

    @pytest.mark.parametrize("command", ["figure2", "claims"])
    def test_removed_commands_are_argparse_errors(self, command):
        # `repro figures fig02` / `repro figures claims` produce these tables.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])


@pytest.mark.experiments
class TestSweep:
    def test_list_figures(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig02", "fig07", "fig10_14", "fig17", "fig18"):
            assert name in out

    def test_missing_figure_is_an_error(self, capsys):
        assert main(["sweep"]) == 2

    def test_unknown_figure_is_an_error(self):
        assert main(["sweep", "fig99"]) == 2

    def test_dry_run_lists_tasks(self, capsys):
        assert main(["sweep", "fig02", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "24 task(s)" in out
        assert "rps/uniform/r0" in out
        assert "wlb/worst-case/r0" in out

    def test_only_filter_and_cache_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["sweep", "fig02", "--only", "rps/uniform", "--cache-dir", cache]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "1 task(s)" in first and "complete" in first
        # Second run is fully cache-satisfied.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "1 cached" in second and "0 computed" in second

    def test_interrupt_then_resume(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        base = ["sweep", "fig02", "--only", "uniform", "--cache-dir", cache]
        assert main(base + ["--max-tasks", "2"]) == 3
        out = capsys.readouterr().out
        assert "interrupted" in out
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "2 cached" in out

    def test_fail_task_injection_retries(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            [
                "sweep", "fig02", "--only", "rps/uniform",
                "--cache-dir", cache,
                "--fail-task", "rps/uniform/r0:1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "1 retrie(s)" in out

    def test_figures_writes_tables(self, tmp_path, capsys):
        results = tmp_path / "results"
        assert main(
            [
                "figures", "fig02",
                "--cache-dir", str(tmp_path / "cache"),
                "--results-dir", str(results),
            ]
        ) == 0
        table = (results / "fig02_routing_table.txt").read_text()
        assert table.startswith("\n===== fig02_routing_table [scale=small] =====")
        assert "| paper:" in table

    def test_figures_check_diffs_against_committed(self, tmp_path, capsys):
        argv = ["figures", "claims", "--check", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv + ["--results-dir", str(COMMITTED)]) == 0
        assert "paper_prose_claims.txt: ok" in capsys.readouterr().out
        stale = tmp_path / "results"
        stale.mkdir()
        text = (COMMITTED / "paper_prose_claims.txt").read_text()
        (stale / "paper_prose_claims.txt").write_text(text.replace("1680", "1681"))
        assert main(argv + ["--results-dir", str(stale)]) == 1
        out = capsys.readouterr().out
        assert "DIFFERS" in out and "+minimal paths" in out

    def test_figures_without_a_name_runs_every_paper_figure(self, capsys):
        assert main(["figures", "--dry-run"]) == 0
        out = capsys.readouterr().out
        for name in ("fig02", "fig08", "fig15_16", "ablations", "claims"):
            assert f"campaign {name} [" in out
        assert "campaign synth" not in out


@pytest.mark.synth
class TestSynth:
    def test_describe(self, capsys):
        assert main(
            [
                "synth", "describe", "--racks", "4", "--rack-dims", "2x2",
                "--gateway-ports", "2", "--protocol", "hier_wlb",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "nodes:             16 (4 racks x 4 nodes)" in out
        assert "fabric fingerprint:" in out
        assert "per-tier channel load:" in out
        assert "<-- bottleneck" in out

    @pytest.mark.parametrize("command", ("describe", "generate"))
    def test_switched_design_reports_bisection_and_gateway_tier(self, command, capsys):
        # 4 x 9 hosts + 1 switch: past the 16-node brute-force bisection.
        assert main(
            [
                "synth", command, "--design", "switched", "--racks", "4",
                "--rack-dims", "3x3", "--gateway-ports", "2", "--protocol", "rps",
            ]
        ) == 0
        out = capsys.readouterr().out
        if command == "describe":
            assert "bisection:         80.0 Gbps" in out
            assert "gateway  links=    16" in out
        else:
            import json

            manifest = json.loads(out)
            assert manifest["bisection_gbps"] == 80.0
            assert manifest["tier_load"]["tiers"]["gateway"]["links"] == 16

    def test_generate_manifest_and_report(self, tmp_path, capsys):
        manifest = tmp_path / "fabric.json"
        argv = [
            "synth", "generate", "--racks", "4", "--rack-dims", "2x2",
            "--gateway-ports", "2", "--seed", "9",
            "--protocol", "hier_vlb", "--out", str(manifest),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        import json

        first = json.loads(manifest.read_text())
        assert first["report"]["budget_ok"] is True
        assert first["tier_load"]["tiers"]["gateway"]["links"] > 0
        # Regenerating the same spec must produce identical bytes.
        blob = manifest.read_text()
        assert main(argv) == 0
        capsys.readouterr()
        assert manifest.read_text() == blob
        # `repro report` renders the per-tier table and bisection.
        assert main(["report", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "per-tier channel load:" in out
        assert "bisection bandwidth:" in out

    def test_budget_violation_is_a_cli_error(self, capsys):
        assert main(
            [
                "synth", "describe", "--design", "ring",
                "--racks", "4", "--rack-dims", "2x2",
                "--oversubscription", "0.5",
            ]
        ) == 2
        assert "oversubscription" in capsys.readouterr().err

    def test_sweep_dry_run(self, capsys):
        assert main(["synth", "sweep", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "campaign synth" in out
        assert "synth-flat/r0" in out

    def test_sweep_writes_tables(self, tmp_path, capsys):
        results = tmp_path / "results"
        assert main(
            [
                "synth", "sweep",
                "--cache-dir", str(tmp_path / "cache"),
                "--results-dir", str(results),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "complete" in out
        table = (results / "synth_tier_load.txt").read_text()
        assert "gateway" in table
        campaign = (results / "synth_campaign.txt").read_text()
        assert "PASS" in campaign
