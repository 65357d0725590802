"""Tests for the benchmark harness: schema, comparison semantics, and the runner.

The comparison logic is what CI trusts to catch performance regressions, so
its direction-awareness (seconds regress up, speedups regress down), its
tolerance arithmetic and its handling of missing baselines are pinned
exactly.  One slow test runs the real benchmark at miniature sizes to keep
the measurement path itself honest.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.runner.bench import (
    BENCH_SCHEMA_VERSION,
    RATIO_METRICS,
    BenchResult,
    collect_machine_info,
    compare,
    metric_direction,
    run_bench,
)


def make_result(metrics, pr="test"):
    return BenchResult(
        pr=pr,
        created_utc="2026-08-07T00:00:00Z",
        machine={"platform": "test"},
        metrics=metrics,
    )


class TestMetricDirection:
    def test_seconds_are_lower_better(self):
        assert metric_direction("sweep_cold_seconds") == "lower"

    def test_speedups_and_rates_are_higher_better(self):
        assert metric_direction("cold_capture_speedup") == "higher"
        assert metric_direction("engine_events_per_sec") == "higher"

    def test_unknown_suffixes_are_rejected(self):
        with pytest.raises(ConfigurationError):
            metric_direction("wall_clock")

    def test_ratio_metrics_follow_the_convention(self):
        for name in RATIO_METRICS:
            assert metric_direction(name) == "higher"


class TestBenchResultSchema:
    def test_round_trips_through_json(self, tmp_path):
        result = make_result({"a_seconds": 1.5, "b_speedup": 12.0})
        path = tmp_path / "BENCH_test.json"
        result.save(path)
        loaded = BenchResult.load(path)
        assert loaded == result
        # And the on-disk form is plain, sorted, newline-terminated JSON.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == BENCH_SCHEMA_VERSION

    def test_rejects_unknown_schema_versions(self, tmp_path):
        payload = make_result({"a_seconds": 1.0}).to_json_dict()
        payload["schema"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            BenchResult.load(path)

    def test_rejects_misnamed_and_non_finite_metrics(self):
        with pytest.raises(ConfigurationError):
            make_result({"wall_clock": 1.0})
        with pytest.raises(ConfigurationError):
            make_result({"a_seconds": float("nan")})
        with pytest.raises(ConfigurationError):
            make_result({"a_seconds": -1.0})
        with pytest.raises(ConfigurationError):
            make_result({})

    def test_missing_file_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            BenchResult.load(tmp_path / "absent.json")

    def test_machine_info_has_the_expected_keys(self):
        info = collect_machine_info()
        assert {"platform", "python", "numpy", "cpu_count"} <= set(info)


class TestCompare:
    def test_regression_in_seconds_is_detected(self):
        current = make_result({"run_seconds": 1.5})
        baseline = make_result({"run_seconds": 1.0})
        comparison = compare(current, baseline, max_regression=0.2)
        assert not comparison.ok
        assert comparison.regressions[0].name == "run_seconds"
        assert comparison.regressions[0].regression == pytest.approx(0.5)

    def test_regression_in_speedup_is_detected(self):
        current = make_result({"kernel_speedup": 5.0})
        baseline = make_result({"kernel_speedup": 10.0})
        comparison = compare(current, baseline, max_regression=0.2)
        assert not comparison.ok
        assert comparison.regressions[0].regression == pytest.approx(0.5)

    def test_improvements_pass_and_read_negative(self):
        current = make_result({"run_seconds": 0.5, "kernel_speedup": 20.0})
        baseline = make_result({"run_seconds": 1.0, "kernel_speedup": 10.0})
        comparison = compare(current, baseline, max_regression=0.2)
        assert comparison.ok
        assert all(row.regression == pytest.approx(-0.5) or row.regression == pytest.approx(-1.0)
                   for row in comparison.rows)

    def test_changes_within_tolerance_pass(self):
        current = make_result({"run_seconds": 1.15})
        baseline = make_result({"run_seconds": 1.0})
        assert compare(current, baseline, max_regression=0.2).ok
        assert not compare(current, baseline, max_regression=0.1).ok

    def test_missing_baseline_is_tolerated(self):
        comparison = compare(make_result({"run_seconds": 1.0}), None)
        assert comparison.ok
        assert comparison.rows == ()

    def test_one_sided_metrics_are_skipped_not_failed(self):
        current = make_result({"run_seconds": 1.0, "new_speedup": 5.0})
        baseline = make_result({"run_seconds": 1.0, "old_speedup": 5.0})
        comparison = compare(current, baseline)
        assert comparison.ok
        assert set(comparison.skipped) == {"new_speedup", "old_speedup"}

    def test_metric_filter_restricts_the_comparison(self):
        current = make_result({"run_seconds": 99.0, "kernel_speedup": 10.0})
        baseline = make_result({"run_seconds": 1.0, "kernel_speedup": 10.0})
        assert not compare(current, baseline).ok
        assert compare(current, baseline, metrics=["kernel_speedup"]).ok
        with pytest.raises(ConfigurationError):
            compare(current, baseline, metrics=["no_such_speedup"])

    def test_negative_tolerance_is_rejected(self):
        with pytest.raises(ConfigurationError):
            compare(make_result({"a_seconds": 1.0}), make_result({"a_seconds": 1.0}),
                    max_regression=-0.1)

    def test_report_text_names_the_verdicts(self):
        current = make_result({"run_seconds": 2.0, "kernel_speedup": 30.0})
        baseline = make_result({"run_seconds": 1.0, "kernel_speedup": 10.0})
        text = compare(current, baseline).to_text()
        assert "REGRESSED" in text and "improved" in text and "FAIL" in text


class TestRunBench:
    @pytest.fixture(scope="class")
    def result(self):
        # Miniature sizes: the point is exercising the measurement path, not
        # producing stable timings.
        return run_bench("test", capture_intervals=400, engine_events=2000, repeats=1)

    def test_produces_the_full_metric_set(self, result):
        assert {
            "capture_event_seconds",
            "capture_vectorized_seconds",
            "cold_capture_speedup",
            "kernel_intervals_per_sec",
            "routed_event_seconds",
            "routed_vectorized_seconds",
            "routed_capture_speedup",
            "engine_events_per_sec",
            "sweep_cold_seconds",
            "sweep_warm_seconds",
            "sweep_warm_speedup",
            "sweep_cells_per_sec",
            "serial_dispatch_seconds",
            "process_dispatch_seconds",
            "dispatch_overhead_seconds",
            "queue_cells_per_sec",
            "population_flows_per_sec",
            "bootstrap_cis_per_sec",
        } == set(result.metrics)
        # dispatch_overhead is clamped at 0.0 (a loaded machine can time the
        # pool under the serial loop); everything else must be positive.
        assert all(
            value > 0.0
            for name, value in result.metrics.items()
            if name != "dispatch_overhead_seconds"
        )
        assert result.metrics["dispatch_overhead_seconds"] >= 0.0

    def test_bootstrap_throughput_is_an_ungated_trend_metric(self, result):
        assert result.notes["bootstrap_cis"] == 324
        assert result.notes["bootstrap_sample_size"] == 4
        assert metric_direction("bootstrap_cis_per_sec") == "higher"
        assert "bootstrap_cis_per_sec" not in RATIO_METRICS

    def test_serial_beats_the_pool_on_the_dispatch_grid(self, result):
        # The tentpole claim of the serial backend: on a trivial grid the
        # pool's startup/pickle cost dominates, so inline execution wins.
        assert (
            result.metrics["serial_dispatch_seconds"]
            < result.metrics["process_dispatch_seconds"]
        )

    def test_machine_info_records_available_cpus(self, result):
        available = result.machine["cpu_count_available"]
        assert isinstance(available, int) and available >= 1
        assert available <= result.machine["cpu_count"]

    def test_kernels_agreed_and_crosscheck_recorded(self, result):
        assert result.notes["captures_identical"] is True
        crosscheck = result.notes["analytic_crosscheck"]
        assert crosscheck["measured_variance_ratio"] == pytest.approx(
            crosscheck["model_variance_ratio"], rel=0.5
        )
        assert 0.5 <= crosscheck["exact_detection_rate_at_1000"] <= 1.0

    def test_vectorized_kernel_is_faster(self, result):
        # The committed artifact records ~75x; even tiny captures on a busy
        # CI box clear 1x comfortably.
        assert result.metrics["cold_capture_speedup"] > 1.0

    def test_routed_kernel_is_faster(self, result):
        # One routed capture through a half-loaded router: the engine pays
        # per cross packet, the kernel per array operation.
        assert result.metrics["routed_capture_speedup"] > 1.0
        assert result.notes["routed_intervals"] == 100

    def test_artifact_round_trips(self, result, tmp_path):
        path = tmp_path / "BENCH_test.json"
        result.save(path)
        assert BenchResult.load(path) == result


class TestZeroBaseline:
    """A zero-valued baseline admits no relative change; it must fail loudly."""

    def test_nonzero_current_raises_and_names_the_metric(self):
        current = make_result({"run_seconds": 1.5})
        baseline = make_result({"run_seconds": 0.0})
        with pytest.raises(ConfigurationError, match="run_seconds"):
            compare(current, baseline)

    def test_higher_better_metrics_fail_the_same_way(self):
        current = make_result({"kernel_speedup": 5.0})
        baseline = make_result({"kernel_speedup": 0.0})
        with pytest.raises(ConfigurationError, match="kernel_speedup"):
            compare(current, baseline)

    def test_identical_zeros_are_a_legitimate_no_change(self):
        current = make_result({"run_seconds": 0.0})
        baseline = make_result({"run_seconds": 0.0})
        comparison = compare(current, baseline)
        assert comparison.ok
        assert comparison.rows[0].regression == 0.0

    def test_the_error_suggests_rerecording_the_baseline(self):
        current = make_result({"run_seconds": 1.5})
        baseline = make_result({"run_seconds": 0.0})
        with pytest.raises(ConfigurationError, match="re-record the baseline"):
            compare(current, baseline)
