"""Tests for two-level shared-capture cells (gateway capture + noise children)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import CollectionMode, Fig8Config, Fig8Experiment, ScenarioConfig
import repro.runner.capture as capture_module
from repro.runner import (
    SCHEMA_VERSION,
    CaptureSpec,
    ResultsStore,
    SweepCell,
    SweepRunner,
    run_cell,
)


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts with no capture memoised in this process."""
    capture_module._memo.clear()
    yield
    capture_module._memo.clear()


@pytest.fixture
def capture_calls(monkeypatch):
    """Count the gateway captures computed in this process."""
    calls = []
    real = capture_module.run_capture

    def counting(spec):
        calls.append(spec.fingerprint())
        return real(spec)

    monkeypatch.setattr(capture_module, "run_capture", counting)
    return calls


def lab_scenario(utilization: float = 0.2) -> ScenarioConfig:
    return ScenarioConfig(n_hops=3, cross_utilization=utilization)


def two_level_cell(utilization: float = 0.2, **overrides) -> SweepCell:
    scenario = lab_scenario(utilization)
    params = dict(
        key=f"child/util={utilization!r}",
        scenario=scenario,
        sample_sizes=(60,),
        trials=4,
        mode=CollectionMode.HYBRID,
        seed=11,
        seed_offsets=("train-x", "test-x"),
    )
    params.update(overrides)
    capture = CaptureSpec(
        key="parent",
        scenario=params["scenario"],
        n_intervals=max(params["sample_sizes"]) * params["trials"] + 1,
        seed=params["seed"],
        seed_offsets=params["seed_offsets"],
    )
    return SweepCell(capture=capture, **params)


class TestCaptureSpec:
    def test_fingerprint_ignores_network_conditions(self):
        """One capture serves every (hops, link rate, utilization) of a grid."""
        a = CaptureSpec(key="a", scenario=lab_scenario(0.1), n_intervals=100, seed=11)
        b = CaptureSpec(key="b", scenario=lab_scenario(0.5), n_intervals=100, seed=11)
        c = CaptureSpec(
            key="c",
            scenario=replace(lab_scenario(0.1), n_hops=15, link_rate_bps=10e6),
            n_intervals=100,
            seed=11,
        )
        assert a.fingerprint() == b.fingerprint() == c.fingerprint()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(seed=12),
            dict(n_intervals=101),
            dict(seed_offsets=("train-y", "test-y")),
            dict(scenario=replace(lab_scenario(), warmup_time=1.0)),
            dict(scenario=replace(lab_scenario(), low_rate_pps=5.0)),
        ],
    )
    def test_fingerprint_tracks_gateway_affecting_fields(self, overrides):
        base = dict(key="a", scenario=lab_scenario(), n_intervals=100, seed=11)
        changed = {**base, **overrides}
        assert CaptureSpec(**base).fingerprint() != CaptureSpec(**changed).fingerprint()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CaptureSpec(key="", scenario=lab_scenario(), n_intervals=100)
        with pytest.raises(ConfigurationError):
            CaptureSpec(key="a", scenario=lab_scenario(), n_intervals=2)
        with pytest.raises(ConfigurationError):
            CaptureSpec(
                key="a", scenario=lab_scenario(), n_intervals=100,
                seed_offsets=("same", "same"),
            )


class TestChildCellValidation:
    def test_child_requires_hybrid_mode(self):
        with pytest.raises(ConfigurationError) as excinfo:
            two_level_cell(mode=CollectionMode.ANALYTIC)
        assert "hybrid" in str(excinfo.value)

    def test_child_rejects_seed_mismatch(self):
        capture = CaptureSpec(
            key="p", scenario=lab_scenario(), n_intervals=241, seed=12,
            seed_offsets=("train-x", "test-x"),
        )
        with pytest.raises(ConfigurationError) as excinfo:
            SweepCell(
                key="c", scenario=lab_scenario(), sample_sizes=(60,), trials=4,
                mode=CollectionMode.HYBRID, seed=11,
                seed_offsets=("train-x", "test-x"), capture=capture,
            )
        assert "seed" in str(excinfo.value)

    def test_child_rejects_too_short_capture(self):
        capture = CaptureSpec(
            key="p", scenario=lab_scenario(), n_intervals=100, seed=11,
            seed_offsets=("train-x", "test-x"),
        )
        with pytest.raises(ConfigurationError) as excinfo:
            SweepCell(
                key="c", scenario=lab_scenario(), sample_sizes=(60,), trials=4,
                mode=CollectionMode.HYBRID, seed=11,
                seed_offsets=("train-x", "test-x"), capture=capture,
            )
        assert "241" in str(excinfo.value)

    def test_child_rejects_gateway_config_mismatch(self):
        capture = CaptureSpec(
            key="p", scenario=replace(lab_scenario(), low_rate_pps=5.0),
            n_intervals=241, seed=11, seed_offsets=("train-x", "test-x"),
        )
        with pytest.raises(ConfigurationError) as excinfo:
            SweepCell(
                key="c", scenario=lab_scenario(), sample_sizes=(60,), trials=4,
                mode=CollectionMode.HYBRID, seed=11,
                seed_offsets=("train-x", "test-x"), capture=capture,
            )
        assert "gateway configuration" in str(excinfo.value)

    def test_running_a_child_alone_resolves_its_capture(self):
        child = two_level_cell()
        alone = run_cell(child)
        flat = run_cell(replace(child, capture=None))
        assert alone.empirical_detection_rate == flat.empirical_detection_rate
        assert alone.measured_variance_ratio == flat.measured_variance_ratio

    def test_fingerprint_distinguishes_two_level_from_flat(self):
        child = two_level_cell()
        flat = replace(child, capture=None)
        assert child.fingerprint() != flat.fingerprint()


class TestBitForBitEquivalence:
    """The acceptance bar: two-level numbers == self-contained hybrid numbers."""

    def test_child_matches_self_contained_hybrid_cell(self):
        children = [two_level_cell(u) for u in (0.1, 0.4)]
        flat = [replace(cell, capture=None) for cell in children]
        two_level = SweepRunner().run(children)
        one_level = SweepRunner().run(flat)
        for cell in children:
            a, b = two_level[cell.key], one_level[cell.key]
            assert a.empirical_detection_rate == b.empirical_detection_rate
            assert a.measured_variance_ratio == b.measured_variance_ratio
            assert a.measured_means == b.measured_means

    def test_fig8_two_level_matches_per_hour_hybrid_cells(self):
        """Figure 8's grid, bit-for-bit against one-level cells at one seed."""
        config = Fig8Config(
            networks=("campus",),
            hours=(2, 14),
            sample_size=80,
            trials=4,
            mode=CollectionMode.HYBRID,
            seed=11,
        )
        cells = Fig8Experiment(config).cells()
        assert all(cell.capture is not None for cell in cells)
        flat = [replace(cell, capture=None) for cell in cells]
        two_level = SweepRunner().run(cells)
        one_level = SweepRunner().run(flat)
        for cell in cells:
            a, b = two_level[cell.key], one_level[cell.key]
            assert a.empirical_detection_rate == b.empirical_detection_rate
            assert a.measured_variance_ratio == b.measured_variance_ratio

    def test_shared_capture_points_draw_independent_noise(self):
        """Points sharing a gateway capture are salted per point: the same
        scenario under two salts yields different (independent) noise draws."""
        base = two_level_cell(0.3)
        salted_a = replace(base, key="a", noise_offsets=("na-train", "na-test"))
        salted_b = replace(base, key="b", noise_offsets=("nb-train", "nb-test"))
        report = SweepRunner().run([salted_a, salted_b])
        assert (
            report["a"].empirical_detection_rate != report["b"].empirical_detection_rate
            or report["a"].measured_variance_ratio != report["b"].measured_variance_ratio
        )

    def test_fig8_hybrid_hours_have_distinct_noise_salts(self):
        config = Fig8Config(
            networks=("campus",), hours=(2, 14), sample_size=80, trials=4,
            mode=CollectionMode.HYBRID, seed=11,
        )
        cells = Fig8Experiment(config).cells()
        assert len({cell.noise_offsets for cell in cells}) == len(cells)
        assert len({cell.seed_offsets for cell in cells}) == 1  # shared gateway


class TestCaptureCaching:
    def test_children_of_one_capture_compute_it_once(self, tmp_path, capture_calls):
        children = [two_level_cell(u) for u in (0.1, 0.2, 0.4)]
        assert len({cell.capture.fingerprint() for cell in children}) == 1
        store = ResultsStore(tmp_path)
        report = SweepRunner(jobs=1, store=store).run(children)
        assert report.misses == len(children)
        assert capture_calls == [children[0].capture.fingerprint()]
        # The store holds the children's results and nothing else.
        kinds = [
            json.loads(line)["kind"]
            for shard in store.shard_files()
            for line in shard.read_text().splitlines()
        ]
        assert kinds == ["cell"] * len(children)

    def test_fully_warm_run_needs_neither_captures_nor_cells(self, tmp_path, capture_calls):
        children = [two_level_cell(u) for u in (0.1, 0.4)]
        SweepRunner(store=ResultsStore(tmp_path)).run(children)
        capture_module._memo.clear()
        capture_calls.clear()
        warm = SweepRunner(store=ResultsStore(tmp_path)).run(children)
        assert (warm.hits, warm.misses) == (2, 0)
        assert capture_calls == []  # warm cells never resolve their parent

    def test_memo_evicts_the_least_recently_used_capture(self, monkeypatch, capture_calls):
        monkeypatch.setattr(capture_module, "MEMO_CAPACITY", 2)
        cells = [
            two_level_cell(0.2, key=f"child/seed={seed}", seed=seed) for seed in (11, 12, 13)
        ]
        first = [run_cell(cell) for cell in cells]
        assert len(capture_calls) == 3
        assert len(capture_module._memo) == 2
        assert cells[0].capture.fingerprint() not in capture_module._memo

        again = run_cell(cells[0])  # evicted: computed a second time
        assert capture_calls == [cell.capture.fingerprint() for cell in cells] + [
            cells[0].capture.fingerprint()
        ]
        recomputed, original = again.to_json_dict(), first[0].to_json_dict()
        recomputed.pop("elapsed_seconds"), original.pop("elapsed_seconds")
        assert recomputed == original  # bit-identical after recomputation

        run_cell(cells[2])  # still memoised
        assert len(capture_calls) == 4

    def test_capture_results_are_deterministic_across_jobs(self):
        children = [two_level_cell(u) for u in (0.1, 0.2, 0.3, 0.4)]
        serial = SweepRunner(jobs=1).run(children)
        parallel = SweepRunner(jobs=4).run(children)
        for cell in children:
            assert (
                serial[cell.key].empirical_detection_rate
                == parallel[cell.key].empirical_detection_rate
            )


class TestLegacyCaptureRecords:
    def test_compact_drops_a_stored_capture_and_warm_sweeps_still_hit(
        self, tmp_path, capsys, capture_calls
    ):
        """A store written when captures were stored compacts to cells only."""
        from repro.cli import main

        child = two_level_cell()
        SweepRunner(store=ResultsStore(tmp_path)).run([child])
        legacy = ResultsStore(tmp_path).shard_path(child.capture.fingerprint())
        legacy.parent.mkdir(parents=True, exist_ok=True)
        legacy.write_text(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "kind": "capture",
                    "fingerprint": child.capture.fingerprint(),
                    "config": child.capture.config_dict(),
                    "result": {"intervals": {}, "elapsed_seconds": 0.0},
                }
            )
            + "\n"
        )
        assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
        assert "1 legacy capture records dropped" in capsys.readouterr().out
        assert not legacy.exists()

        capture_module._memo.clear()
        capture_calls.clear()
        warm = SweepRunner(store=ResultsStore(tmp_path)).run([child])
        assert (warm.hits, warm.misses) == (1, 0)
        assert capture_calls == []
