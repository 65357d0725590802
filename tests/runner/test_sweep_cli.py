"""End-to-end tests for the ``repro sweep`` subcommand and the CI cache fixture."""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.cli import build_parser, main

FIXTURE_CACHE = Path(__file__).resolve().parent.parent / "fixtures" / "sweep_cache"


def strip_summary(output: str) -> str:
    """The report text without the trailing ``sweep summary:`` accounting line."""
    return "\n".join(
        line for line in output.splitlines() if not line.startswith("sweep summary:")
    )


class TestSweepParser:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.figures == ["fig4", "fig5", "fig6", "fig8"]
        assert args.jobs == 1
        assert args.cache_dir is None

    def test_figure_selection(self):
        args = build_parser().parse_args(["sweep", "--figures", "fig6", "fig8"])
        assert args.figures == ["fig6", "fig8"]

    def test_jobs_and_cache_dir_accepted_on_figure_commands(self):
        args = build_parser().parse_args(
            ["fig6", "--jobs", "4", "--cache-dir", "/tmp/cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == Path("/tmp/cache")


class TestSweepCommand:
    def test_jobs_count_does_not_change_the_results(self, capsys):
        """The acceptance bar: fig6-style grid, bit-identical at --jobs 1 vs 4."""
        argv = ["sweep", "--figures", "fig6", "--preset", "smoke"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert strip_summary(serial) == strip_summary(parallel)
        assert "jobs=1" in serial and "jobs=4" in parallel

    def test_second_invocation_performs_zero_simulations(self, tmp_path, capsys):
        argv = [
            "sweep", "--figures", "fig6", "--preset", "smoke",
            "--jobs", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "2 simulated" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 simulated" in warm
        assert "2 cache hits" in warm
        assert strip_summary(cold) == strip_summary(warm)

    def test_cache_survives_jobs_count_changes(self, tmp_path, capsys):
        base = ["sweep", "--figures", "fig5", "--preset", "smoke", "--cache-dir", str(tmp_path)]
        main(base + ["--jobs", "2"])
        capsys.readouterr()
        main(base + ["--jobs", "1"])
        assert "0 simulated" in capsys.readouterr().out

    def test_sweep_output_file(self, tmp_path, capsys):
        target = tmp_path / "reports" / "sweep.txt"
        assert (
            main(
                ["sweep", "--figures", "fig6", "--preset", "smoke", "--output", str(target)]
            )
            == 0
        )
        capsys.readouterr()
        assert "Figure 6" in target.read_text()

    def test_configuration_errors_exit_cleanly(self, capsys):
        """No traceback for bad values that pass argparse but fail validation."""
        assert main(["fig6", "--preset", "smoke", "--jobs", "0"]) == 2
        captured = capsys.readouterr()
        assert "repro: error:" in captured.err
        assert "jobs=0" in captured.err

    def test_figure_command_accepts_jobs_and_cache(self, tmp_path, capsys):
        argv = ["fig6", "--preset", "smoke", "--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        from repro.runner import ResultsStore

        assert len(ResultsStore(tmp_path)) > 0
        assert list(tmp_path.glob("??/*.jsonl"))  # sharded layout on disk


class TestMultiSeedCli:
    """``--seeds N --ci``: mean ± bootstrap CI per grid point, from the CLI."""

    def test_single_seed_output_is_unchanged_by_the_seeds_flag(self, capsys):
        argv = ["sweep", "--figures", "fig6", "--preset", "smoke"]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert main(argv + ["--seeds", "1"]) == 0
        explicit = capsys.readouterr().out
        assert bare == explicit

    def test_multi_seed_sweep_reports_mean_and_ci_for_every_figure(self, capsys):
        assert main(["sweep", "--preset", "smoke", "--seeds", "3", "--ci"]) == 0
        out = capsys.readouterr().out
        for figure_title in ("Figure 4", "Figure 5", "Figure 6", "Figure 8"):
            assert figure_title in out
        assert out.count("mean of 3 seeds") >= 4
        assert "ci95%" in out
        assert "[" in out and "]" in out
        assert "27 cells" in out  # 3 seeds: the 9-cell smoke grid tripled

    def test_ci_without_enough_seeds_fails_at_parse_time(self, capsys):
        """The bad combination is an argparse error, not a deep experiment one."""
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(["fig6", "--preset", "smoke", "--ci"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "--ci requires --seeds >= 2" in err

    def test_multi_seed_cache_round_trip(self, tmp_path, capsys):
        argv = [
            "sweep", "--figures", "fig5", "--preset", "smoke",
            "--seeds", "2", "--ci", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "4 cells, 4 simulated" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 simulated" in warm
        assert strip_summary(cold) == strip_summary(warm)


class TestCacheCommand:
    def test_compact_drops_duplicates(self, tmp_path, capsys):
        from repro.runner import ResultsStore

        store = ResultsStore(tmp_path)
        store.put("old1", {}, {"x": 1})
        store.put("abc", {}, {"x": 1})
        store.put("abc", {}, {"x": 2})
        assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache compact: 2 records kept, 1 superseded duplicates dropped" in out
        assert len(store.shard_path("abc").read_text().splitlines()) == 1
        reopened = ResultsStore(tmp_path)
        assert reopened.get("abc")["result"] == {"x": 2}
        assert reopened.get("old1")["result"] == {"x": 1}

    def test_cache_dir_is_required(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "compact"])
        capsys.readouterr()


class TestCommittedFixture:
    """The mini store committed for the CI warm-cache smoke job stays warm."""

    def test_fixture_exists(self):
        assert len(list(FIXTURE_CACHE.glob("??/*.jsonl"))) == 9

    def test_smoke_sweep_is_fully_cached_by_the_fixture(self, tmp_path, capsys):
        """Every cell of the default smoke grid must hit the committed cache.

        If this fails after an intentional change to the smoke preset, the
        cell schema or the scenario defaults, regenerate the fixture:

            rm -r tests/fixtures/sweep_cache/??
            PYTHONPATH=src python -m repro sweep --preset smoke --jobs 2 \
                --cache-dir tests/fixtures/sweep_cache
        """
        cache = tmp_path / "cache"
        shutil.copytree(FIXTURE_CACHE, cache)
        assert main(["sweep", "--preset", "smoke", "--jobs", "2", "--cache-dir", str(cache)]) == 0
        replayed = capsys.readouterr().out
        assert "0 simulated" in replayed

        # The replayed numbers must match a fresh simulation — "0 simulated"
        # alone would also pass for a stale fixture.
        assert main(["sweep", "--preset", "smoke", "--jobs", "2"]) == 0
        fresh = capsys.readouterr().out
        assert strip_summary(replayed) == strip_summary(fresh)
