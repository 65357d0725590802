"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.api import TOML_AVAILABLE
from repro.cli import LEGACY_FIGURES, PRESETS, build_parser, main

needs_toml = pytest.mark.skipif(not TOML_AVAILABLE, reason="no TOML parser available")

SCENARIO_TOML = """\
name = "cli_wan"
title = "CLI scenario smoke"

[grid]
utilizations = [0.1, 0.3]

[base]
n_hops = 2

[run]
mode = "analytic"
sample_sizes = [100]
trials = 4
"""


class TestParser:
    def test_requires_a_figure(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_rejects_unknown_figure(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])
        capsys.readouterr()

    def test_defaults(self):
        # Sentinel None defaults let scenario runs distinguish an explicit
        # --seed/--preset; main() resolves them to "fast" / 2003.
        args = build_parser().parse_args(["fig4"])
        assert args.preset is None
        assert args.seed is None
        assert args.output is None

    def test_default_preset_and_seed_resolve_as_before(self, capsys):
        """Omitting --preset/--seed is identical to the historical defaults."""
        assert main(["fig4", "--preset", "quick"]) == 0
        explicit_seed = capsys.readouterr().out
        assert main(["fig4", "--preset", "quick", "--seed", "2003"]) == 0
        assert capsys.readouterr().out == explicit_seed

    def test_presets_are_accepted(self):
        for preset in PRESETS:
            args = build_parser().parse_args(["fig5", "--preset", preset])
            assert args.preset == preset

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestMain:
    @pytest.mark.parametrize("figure", ["fig4", "fig5", "fig6", "fig8"])
    def test_quick_preset_runs_every_figure(self, figure, capsys):
        exit_code = main([figure, "--preset", "quick", "--seed", "5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure" in out
        assert "detection" in out.lower()

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "reports" / "fig4.txt"
        exit_code = main(["fig4", "--preset", "quick", "--output", str(target)])
        assert exit_code == 0
        assert target.exists()
        assert "Figure 4" in target.read_text()
        capsys.readouterr()

    def test_seed_changes_empirical_numbers_but_not_structure(self, capsys):
        main(["fig4", "--preset", "quick", "--seed", "1"])
        first = capsys.readouterr().out
        main(["fig4", "--preset", "quick", "--seed", "2"])
        second = capsys.readouterr().out
        assert first.splitlines()[0] == second.splitlines()[0]
        assert first != second

    def test_same_seed_is_reproducible(self, capsys):
        main(["fig5", "--preset", "quick", "--seed", "3"])
        first = capsys.readouterr().out
        main(["fig5", "--preset", "quick", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestListCommand:
    def test_lists_every_registered_experiment(self, capsys):
        from repro.api import list_experiments

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in list_experiments():
            assert name in out
        assert "presets:" in out
        assert "--scenario" in out


class TestRunCommand:
    @pytest.mark.parametrize("figure", LEGACY_FIGURES)
    def test_run_output_matches_the_legacy_alias_byte_for_byte(self, figure, capsys):
        assert main(["run", figure, "--preset", "smoke", "--seed", "2003"]) == 0
        via_run = capsys.readouterr().out
        assert main([figure, "--preset", "smoke", "--seed", "2003"]) == 0
        via_alias = capsys.readouterr().out
        assert via_run == via_alias

    def test_runs_an_ablation_from_the_registry(self, capsys):
        assert main(["run", "ablation_estimators", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Ablation — adversary estimator settings" in out

    def test_set_overrides_change_the_configuration(self, capsys):
        assert main(["run", "fig6", "--preset", "smoke"]) == 0
        default = capsys.readouterr().out
        argv = ["run", "fig6", "--preset", "smoke", "--set", "utilizations=0.05,0.4"]
        assert main(argv) == 0
        overridden = capsys.readouterr().out
        assert default != overridden
        assert "0.4" in overridden

    def test_bad_override_key_exits_cleanly(self, capsys):
        assert main(["run", "fig6", "--preset", "smoke", "--set", "utilisation=1"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "utilizations" in err  # the message names the valid fields

    @pytest.mark.parametrize("preset", ["quick", "paper"])
    def test_utilization_below_the_padded_share_exits_cleanly(self, preset, capsys):
        """Every collection mode rejects it up front (hybrid used to accept it)."""
        argv = ["run", "fig6", "--preset", preset, "--set", "utilizations=0.004"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "0.00512" in err
        assert "Traceback" not in err

    def test_run_requires_exactly_one_target(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        scenario = tmp_path / "s.toml"
        scenario.write_text(SCENARIO_TOML)
        with pytest.raises(SystemExit):
            main(["run", "fig6", "--scenario", str(scenario)])
        capsys.readouterr()

    def test_set_is_rejected_with_scenario_files(self, capsys, tmp_path):
        scenario = tmp_path / "s.toml"
        scenario.write_text(SCENARIO_TOML)
        with pytest.raises(SystemExit):
            main(["run", "--scenario", str(scenario), "--set", "trials=9"])
        assert "--set" in capsys.readouterr().err

    def test_ci_without_enough_seeds_is_an_argparse_error(self, capsys):
        """The satellite acceptance: rejected at parse time, not mid-experiment."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig8", "--preset", "smoke", "--ci"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--ci requires --seeds >= 2" in err

    def test_multi_seed_run_with_ci(self, capsys):
        argv = ["run", "fig6", "--preset", "smoke", "--seeds", "2", "--ci"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "mean of 2 seeds" in out
        assert "ci95%" in out


class TestScenarioCli:
    # Python 3.10 without the tomli backport has no TOML parser; the
    # scenario *dict* surface is covered by tests/api/test_scenario.py.
    pytestmark = needs_toml

    @pytest.fixture
    def scenario_path(self, tmp_path):
        path = tmp_path / "cli_wan.toml"
        path.write_text(SCENARIO_TOML)
        return path

    def test_scenario_file_runs_end_to_end(self, scenario_path, capsys):
        assert main(["run", "--scenario", str(scenario_path)]) == 0
        out = capsys.readouterr().out
        assert "CLI scenario smoke" in out
        assert "utilization=0.3" in out
        assert "sweep summary:" in out

    def test_scenario_warm_cache_round_trip(self, scenario_path, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["run", "--scenario", str(scenario_path), "--cache-dir", str(cache)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "2 simulated" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 simulated" in warm and "2 cache hits" in warm

        def strip(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith("sweep summary:")
            ]

        assert strip(cold) == strip(warm)

    def test_sweep_pools_scenario_cells_with_registered_experiments(
        self, scenario_path, capsys
    ):
        argv = [
            "sweep",
            "--experiments", "fig5", "ablation_tap",
            "--scenario", str(scenario_path),
            "--preset", "smoke",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "Ablation — adversary tap position" in out
        assert "CLI scenario smoke" in out
        assert "sweep summary:" in out

    def test_missing_scenario_file_exits_cleanly(self, capsys, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.toml")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_explicit_seed_overrides_the_scenario_seed(self, scenario_path, capsys):
        """--seed is not silently swallowed: it reseeds the scenario's cells."""
        assert main(["run", "--scenario", str(scenario_path)]) == 0
        default = capsys.readouterr().out
        assert main(["run", "--scenario", str(scenario_path), "--seed", "7"]) == 0
        reseeded = capsys.readouterr().out
        assert default != reseeded
        # The scenario's own seed equals the file's run.seed, so passing it
        # explicitly reproduces the default output.
        assert main(["run", "--scenario", str(scenario_path), "--seed", "2003"]) == 0
        assert capsys.readouterr().out == default

    def test_preset_is_rejected_with_scenario_files(self, scenario_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", str(scenario_path), "--preset", "smoke"])
        assert "--preset" in capsys.readouterr().err

    def test_sweep_multi_seed_keeps_the_scenario_seed_base(self, tmp_path, capsys):
        """sweep --scenario --seeds N fans out from the file's run.seed, like run."""
        path = tmp_path / "seeded.toml"
        path.write_text(SCENARIO_TOML + "seed = 42\n")

        def stripped(text):
            return [
                line
                for line in text.splitlines()
                if line.strip() and not line.startswith("sweep summary:")
            ]

        assert main(["run", "--scenario", str(path), "--seeds", "2", "--ci"]) == 0
        via_run = capsys.readouterr().out
        argv = ["sweep", "--experiments", "fig5", "--scenario", str(path),
                "--preset", "smoke", "--seeds", "2", "--ci"]
        assert main(argv) == 0
        via_sweep = capsys.readouterr().out
        assert "mean of 2 seeds" in via_sweep
        for line in stripped(via_run):
            assert line in via_sweep


class TestCacheStats:
    def test_stats_reports_store_health(self, tmp_path, capsys):
        from repro.runner import ResultsStore

        store = ResultsStore(tmp_path)
        store.put("aaaa11", {}, {"x": 1})
        store.put("aaaa11", {}, {"x": 2})
        store.put("bbbb22", {}, {"y": 1}, kind="capture")
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache stats:" in out
        assert "2 records (1 cells, 1 captures)" in out
        assert "2 shard files" in out
        assert "1 superseded duplicates" in out
        assert "schema versions: 1" in out

    def test_stats_on_an_empty_store(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 records" in out
        assert "(empty store)" in out


class TestBenchCommand:
    """repro bench run / compare, exercised end-to-end at miniature sizes."""

    MINI = ["bench", "run", "--intervals", "400", "--repeats", "1"]

    def test_run_writes_the_artifact_and_gates_on_speedup(self, tmp_path, capsys):
        from repro.runner import BenchResult

        artifact = tmp_path / "BENCH_test.json"
        code = main(self.MINI + ["--pr", "test", "--output", str(artifact), "--min-speedup", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup gate passed" in out
        assert BenchResult.load(artifact).pr == "test"

    def test_unreachable_min_speedup_fails(self, capsys):
        code = main(self.MINI + ["--min-speedup", "1e9"])
        captured = capsys.readouterr()
        assert code == 1
        assert "below the required" in captured.err

    def test_compare_detects_a_synthetic_regression(self, tmp_path, capsys):
        import json

        from repro.runner import BenchResult, collect_machine_info

        current = BenchResult(
            pr="t", created_utc="2026-08-07T00:00:00Z",
            machine=collect_machine_info(),
            metrics={"cold_capture_speedup": 10.0},
        )
        doctored = BenchResult(
            pr="t", created_utc="2026-08-07T00:00:00Z",
            machine=collect_machine_info(),
            metrics={"cold_capture_speedup": 100.0},
        )
        current_path, baseline_path = tmp_path / "cur.json", tmp_path / "base.json"
        current.save(current_path)
        doctored.save(baseline_path)
        assert main(["bench", "compare", str(current_path), str(baseline_path)]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["bench", "compare", str(current_path), str(current_path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_committed_artifact_is_loadable_and_fast(self):
        """The repo's own BENCH_pr6.json parses and records the >=3x speedup."""
        from pathlib import Path

        from repro.runner import BenchResult

        artifact = Path(__file__).resolve().parents[1] / "BENCH_pr6.json"
        result = BenchResult.load(artifact)
        assert result.metrics["cold_capture_speedup"] >= 3.0
        assert result.notes["captures_identical"] is True


class TestCacheIndexCommand:
    def test_index_builds_and_reports_counts(self, tmp_path, capsys):
        from repro.runner import ResultsStore
        from repro.store import INDEX_FILENAME

        store = ResultsStore(tmp_path)
        store.put("aaaa11", {"seed": 1}, {"measured_variance_ratio": 1.0})
        assert main(["cache", "index", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache index:" in out
        assert "1 records written" in out
        assert (tmp_path / INDEX_FILENAME).exists()

    def test_second_index_run_writes_zero_rows(self, tmp_path, capsys):
        from repro.runner import ResultsStore

        store = ResultsStore(tmp_path)
        store.put("aaaa11", {"seed": 1}, {"measured_variance_ratio": 1.0})
        assert main(["cache", "index", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "index", "--cache-dir", str(tmp_path)]) == 0
        assert "0 records written" in capsys.readouterr().out

    def test_compact_refreshes_an_existing_index(self, tmp_path, capsys):
        from repro.runner import ResultsStore

        store = ResultsStore(tmp_path)
        store.put("aaaa11", {"seed": 1}, {"measured_variance_ratio": 1.0})
        store.put("aaaa11", {"seed": 1}, {"measured_variance_ratio": 2.0})
        assert main(["cache", "index", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache compact:" in out
        assert "cache index:" in out  # refreshed in the same pass

    def test_compact_without_an_index_does_not_create_one(self, tmp_path, capsys):
        from repro.runner import ResultsStore
        from repro.store import INDEX_FILENAME

        ResultsStore(tmp_path).put("aaaa11", {}, {"measured_variance_ratio": 1.0})
        assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
        assert "cache index:" not in capsys.readouterr().out
        assert not (tmp_path / INDEX_FILENAME).exists()


class TestServeCommand:
    def test_parser_accepts_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--cache-dir", ".sweep-cache", "--host", "0.0.0.0", "--port", "0"]
        )
        assert args.command == "serve"
        assert args.port == 0

    def test_serve_requires_a_cache_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve"])
        assert excinfo.value.code == 2

    def test_serve_on_a_non_directory_store_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "not-a-dir"
        path.write_text("")
        assert main(["serve", "--cache-dir", str(path)]) == 2
        assert "repro: error:" in capsys.readouterr().err
