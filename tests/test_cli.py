"""Tests for the command-line interface."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import _sim_scenario, build_parser, main
from repro.distsim import canonical_metrics
from repro.experiments.tasks import run_sim

COMMITTED = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

SIMULATE_ARGV = [
    "simulate", "--dims", "3x3", "--flows", "20", "--interarrival-ns", "20000",
    "--mean-bytes", "20000",
]


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


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

    def test_info_names_why_bisection_is_missing(self, capsys):
        # A 3x3 mesh has no even dimension, so the closed form refuses it.
        assert main(["info", "--topology", "mesh", "--dims", "3x3"]) == 0
        out = capsys.readouterr().out
        assert "bisection:       n/a (" in out
        assert "needs at least one even dimension" in out

    def test_rates(self, capsys):
        assert main(["rates", "--dims", "4x4", "--flows", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Gbps" in out
        assert "aggregate" in out

    def test_simulate(self, capsys):
        assert main(SIMULATE_ARGV) == 0
        out = capsys.readouterr().out
        assert "completed" in out
        # The run is one Scenario, and its fingerprint is printed.
        args = build_parser().parse_args(SIMULATE_ARGV)
        assert f"  scenario fingerprint {_sim_scenario(args).fingerprint()}\n" in out

    def test_empty_trace_is_an_error_not_a_hang(self, capsys):
        assert main(["simulate", "--dims", "2x2", "--flows", "0"]) == 2
        assert "empty flow trace" in capsys.readouterr().err

    @pytest.mark.parametrize("shards", ["0", "-1"])
    def test_non_positive_shards_are_refused(self, shards, capsys):
        assert main(["simulate", "--dims", "2x2", "--shards", shards]) == 2
        assert "shards must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["figure2", "claims"])
    def test_removed_commands_are_argparse_errors(self, command):
        # `repro figures fig02` / `repro figures claims` produce these tables.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])


#: The flags every pinned run shares: a small 3x3 rack, 40 flows.
RUN_BASE = [
    "--dims", "3x3", "--flows", "40", "--interarrival-ns", "20000", "--mean-bytes", "20000",
]

#: flag set -> SHA-256 of ``canonical_metrics``, taken at the commit before
#: the CLI built its runs through ``Scenario``: the CLI must run exactly
#: what its private topology/trace/SimConfig builder ran.
RUN_PINS = {
    (): "78c0b9fca4ac7a9aba6dd4825f9ce2d4708a8199153f271efaaf67a129b6e803",
    ("--control-plane", "per_node", "--reliable"):
        "2500e012d706e0355fac26a900f3fcc35ea97d153a01f0ee7166c9d332345f63",
    ("--stack", "tcp"): "72786ab3e142f6417fc7e97ad537f71a952618953673910d85c09d533b2bd0ae",
    ("--stack", "pfq"): "7b1bffc5951cc047b18d1e449c85bbde5108b5ff157fa8c6c631ac02d1cd5089",
    ("--topology", "hypercube", "--dims", "4"):
        "ac255a165fcebb780236f00ba5764a589f7f5ebbf41e048a52f3f58e1e6a033c",
    ("--shards", "2", "--control-plane", "per_node"):
        "7319391ba7179e839ebead15ba5510d71d31d22a2e9e14ac80e0850d06b34a81",
}


class TestOneRunDescription:
    @pytest.mark.parametrize("flags", sorted(RUN_PINS), ids=" ".join)
    def test_simulate_runs_what_it_ran_before(self, flags):
        args = build_parser().parse_args(["simulate", *RUN_BASE, *flags])
        run = run_sim(_sim_scenario(args), args.seed)
        assert (run.sharded is not None) == ("--shards" in flags)
        assert _sha(canonical_metrics(run.metrics)) == RUN_PINS[flags]

    def test_explain_flow_observes_what_it_observed_before(self):
        args = build_parser().parse_args(
            ["explain-flow", *RUN_BASE, "--control-plane", "per_node", "--reliable"]
        )
        run = run_sim(_sim_scenario(args), args.seed, obs=True)
        assert _sha(run.metrics.flow_obs) == (
            "bbf590ab617e750179e975ff5a579128d5ebd7bd31c14b919e7b791347d358a2"
        )

    def test_explain_flow_prints_the_fingerprint_and_shards_identically(
        self, tmp_path, capsys
    ):
        argv = ["explain-flow", *RUN_BASE, "--control-plane", "per_node", "--check"]
        serial, sharded = tmp_path / "k1.txt", tmp_path / "k2.txt"
        assert main([*argv, "--out", str(serial)]) == 0
        assert main([*argv, "--shards", "2", "--out", str(sharded)]) == 0
        fingerprint = _sim_scenario(build_parser().parse_args(argv)).fingerprint()
        assert capsys.readouterr().out.count(f"scenario fingerprint {fingerprint}\n") == 2
        assert serial.read_text() == sharded.read_text()
        assert serial.read_text().startswith("causal FCT decomposition: stack=r2c2")

    def test_flags_map_one_to_one_onto_params(self):
        args = build_parser().parse_args(
            ["explain-flow", "--flows", "7", "--interarrival-ns", "900", "--seed", "3",
             "--shards", "2", "--stack", "tcp"]
        )
        scenario = _sim_scenario(args)
        assert scenario.kind == "sim" and scenario.shards == 2
        assert scenario.params_dict == {
            "stack": "tcp", "n_flows": 7, "tau_ns": 900, "mean_bytes": 100 * 1024,
            "reliable": False, "control_plane": "shared", "trace_seed": 3, "sim_seed": 3,
        }


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


@pytest.mark.fuzz
class TestFuzz:
    def test_run_writes_the_coverage_map(self, tmp_path, capsys):
        coverage = tmp_path / "cov.json"
        argv = [
            "fuzz", "run", "--budget", "2", "--corpus-dir", str(tmp_path),
            "--coverage-out", str(coverage),
        ]
        assert main(argv) == 0
        assert f"coverage map written to {coverage}" in capsys.readouterr().out
        assert json.loads(coverage.read_text())

    def test_replay_empty_corpus(self, tmp_path, capsys):
        assert main(["fuzz", "replay", "--corpus-dir", str(tmp_path)]) == 0
        assert "is empty; nothing to replay" in capsys.readouterr().out

    def test_replay_unknown_entry(self, tmp_path, capsys):
        argv = ["fuzz", "replay", "deadbeef", "--corpus-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "no corpus entry matches ['deadbeef']" in capsys.readouterr().err

    def test_shrink_passing_spec(self, tmp_path, capsys):
        from repro.experiments import Scenario

        spec = tmp_path / "spec.json"
        spec.write_text(
            Scenario("tiny", dims=(3, 3), params=(("n_flows", 4),)).to_json()
        )
        argv = ["fuzz", "shrink", str(spec), "--corpus-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        assert "tiny: all oracles pass; nothing to shrink" in capsys.readouterr().out

    def test_shrink_missing_target(self, tmp_path, capsys):
        argv = ["fuzz", "shrink", str(tmp_path / "nope.json"), "--corpus-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "not a corpus entry id or spec file" in capsys.readouterr().err


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

    #: spec flags -> SHA-256 of the ``synth generate`` manifest on stdout,
    #: taken before the CLI built its spec through ``FabricSpec.from_dict``.
    MANIFEST_PINS = {
        ("--design", "flat", "--racks", "4", "--rack-dims", "2x2", "--gateway-ports", "2",
         "--seed", "3", "--bridge-gbps", "40", "--protocol", "hier_wlb"):
            "65b02e69bfa48662a3455a7a10d4f90273fcb9dc71a14bb425a1d9a98ab7a38a",
        ("--design", "switched", "--racks", "3", "--rack-dims", "2x2",
         "--gateway-ports", "2", "--switch-radix", "16", "--max-cost", "5000"):
            "cf183b110145b8989e286196bfd64c708a7fcbad6935e37ea519dd02b3e29a80",
    }

    @pytest.mark.parametrize("flags", sorted(MANIFEST_PINS), ids=lambda f: f[1])
    def test_generate_manifest_bytes_are_pinned(self, flags, capsys):
        assert main(["synth", "generate", *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.MANIFEST_PINS[flags]

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
