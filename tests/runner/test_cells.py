"""Tests for sweep cells: validation, fingerprints, execution, JSON round trip."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import CollectionMode, ScenarioConfig
from repro.runner import CellResult, SweepCell, run_cell


def make_cell(**overrides) -> SweepCell:
    params = dict(
        key="cell",
        scenario=ScenarioConfig(),
        sample_sizes=(50,),
        trials=4,
        mode=CollectionMode.ANALYTIC,
        seed=7,
    )
    params.update(overrides)
    return SweepCell(**params)


class TestSweepCellValidation:
    def test_accepts_mode_by_value(self):
        assert make_cell(mode="analytic").mode is CollectionMode.ANALYTIC

    def test_unknown_mode_raises_configuration_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            make_cell(mode="warp-speed")
        message = str(excinfo.value)
        assert "mode='warp-speed'" in message
        assert "analytic" in message

    def test_coerces_sequences_to_tuples(self):
        cell = make_cell(sample_sizes=[50, 100], features=["variance"])
        assert cell.sample_sizes == (50, 100)
        assert cell.features == ("variance",)

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(key=""), "key"),
            (dict(sample_sizes=()), "sample_sizes"),
            (dict(sample_sizes=(1,)), "sample_sizes"),
            (dict(trials=1), "trials=1"),
            (dict(features=()), "features"),
            (dict(seed_offsets=("same", "same")), "seed_offsets"),
            (dict(sample_sizes=(50, 50)), "sample_sizes"),
        ],
    )
    def test_rejects_bad_fields_naming_them(self, overrides, fragment):
        with pytest.raises(ConfigurationError) as excinfo:
            make_cell(**overrides)
        assert fragment in str(excinfo.value)

    def test_intervals_per_class(self):
        assert make_cell(sample_sizes=(50, 200), trials=5).intervals_per_class == 1000


class TestFingerprint:
    def test_stable_for_equal_configs(self):
        assert make_cell().fingerprint() == make_cell().fingerprint()

    def test_independent_of_display_key(self):
        assert make_cell(key="a").fingerprint() == make_cell(key="b").fingerprint()

    def test_independent_of_policy_display_name(self):
        """Relabelling a padding policy must not cold the cache."""
        from repro.padding import cit_policy

        renamed = ScenarioConfig(policy=cit_policy(name="CIT-10ms-renamed"))
        assert (
            make_cell(scenario=renamed).fingerprint()
            == make_cell(scenario=ScenarioConfig()).fingerprint()
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(seed=8),
            dict(trials=5),
            dict(sample_sizes=(100,)),
            dict(mode=CollectionMode.SIMULATION),
            dict(scenario=ScenarioConfig(n_hops=1)),
            dict(features=("variance",)),
            dict(seed_offsets=("train-x", "test-x")),
            dict(collect_piat_stats=True),
        ],
    )
    def test_sensitive_to_result_affecting_fields(self, overrides):
        assert make_cell(**overrides).fingerprint() != make_cell().fingerprint()

    def test_config_dict_is_json_plain(self):
        import json

        payload = make_cell().config_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_optional_fields_stay_out_of_legacy_fingerprints(self):
        """Cells that do not use capture/noise_offsets/kde_bandwidth hash
        exactly as before, so stores written before those fields existed
        stay warm."""
        payload = make_cell().config_dict()
        assert "capture" not in payload
        assert "noise_offsets" not in payload
        assert "kde_bandwidth" not in payload

    def test_noise_offsets_require_hybrid_mode(self):
        from repro.experiments import CollectionMode as Mode

        with pytest.raises(ConfigurationError) as excinfo:
            make_cell(noise_offsets=("na", "nb"))  # analytic by default
        assert "hybrid" in str(excinfo.value)
        cell = make_cell(
            mode=Mode.HYBRID, noise_offsets=("na", "nb"),
            scenario=ScenarioConfig(n_hops=1, cross_utilization=0.2),
        )
        assert cell.config_dict()["noise_offsets"] == ["na", "nb"]
        assert cell.fingerprint() != make_cell(
            mode=Mode.HYBRID,
            scenario=ScenarioConfig(n_hops=1, cross_utilization=0.2),
        ).fingerprint()

    def test_kde_bandwidth_is_fingerprinted_when_set(self):
        assert make_cell(kde_bandwidth=2.0).fingerprint() != make_cell().fingerprint()
        assert (
            make_cell(kde_bandwidth="scott").fingerprint()
            != make_cell(kde_bandwidth=2.0).fingerprint()
        )


class TestKdeBandwidthOverride:
    def test_rejects_unknown_rule_and_nonpositive_multiplier(self):
        with pytest.raises(ConfigurationError):
            make_cell(kde_bandwidth="epanechnikov")
        with pytest.raises(ConfigurationError):
            make_cell(kde_bandwidth=0.0)
        with pytest.raises(ConfigurationError):
            make_cell(kde_bandwidth=-1.0)

    def test_override_changes_the_measured_rate_but_stays_valid(self):
        default = run_cell(make_cell(features=("variance",)))
        wide = run_cell(make_cell(features=("variance",), kde_bandwidth=5.0))
        for result in (default, wide):
            for by_n in result.empirical_detection_rate.values():
                assert all(0.0 <= rate <= 1.0 for rate in by_n.values())

    def test_named_rules_run(self):
        result = run_cell(make_cell(features=("variance",), kde_bandwidth="scott"))
        assert 0.0 <= result.empirical_detection_rate["variance"][50] <= 1.0


class TestRunCell:
    def test_produces_rates_for_every_feature_and_size(self):
        cell = make_cell(sample_sizes=(50, 100), collect_piat_stats=True)
        result = run_cell(cell)
        assert set(result.empirical_detection_rate) == {"mean", "variance", "entropy"}
        for by_n in result.empirical_detection_rate.values():
            assert set(by_n) == {50, 100}
            assert all(0.0 <= rate <= 1.0 for rate in by_n.values())
        assert result.measured_variance_ratio > 0.0
        assert set(result.piat_stats) == {"low", "high"}
        assert result.fingerprint == cell.fingerprint()
        assert not result.from_cache

    def test_is_deterministic(self):
        a, b = run_cell(make_cell()), run_cell(make_cell())
        assert a.empirical_detection_rate == b.empirical_detection_rate
        assert a.measured_variance_ratio == b.measured_variance_ratio

    def test_unknown_feature_fails_loudly(self):
        cell = make_cell(features=("variance", "bogus"))
        with pytest.raises(ConfigurationError) as excinfo:
            run_cell(cell)
        assert "bogus" in str(excinfo.value)

    def test_skips_piat_stats_by_default(self):
        assert run_cell(make_cell()).piat_stats == {}


class TestCellResultRoundTrip:
    def test_json_round_trip_is_lossless(self):
        result = run_cell(make_cell(sample_sizes=(50, 100), collect_piat_stats=True))
        restored = CellResult.from_json_dict(
            result.key, result.fingerprint, result.to_json_dict()
        )
        assert restored.empirical_detection_rate == result.empirical_detection_rate
        assert restored.measured_variance_ratio == result.measured_variance_ratio
        assert restored.measured_means == result.measured_means
        assert restored.piat_stats == result.piat_stats
        assert restored.from_cache

    def test_sample_size_keys_survive_as_ints(self):
        result = run_cell(make_cell(sample_sizes=(50,)))
        payload = result.to_json_dict()
        assert list(payload["empirical_detection_rate"]["variance"]) == ["50"]
        restored = CellResult.from_json_dict("k", "fp", payload)
        assert list(restored.empirical_detection_rate["variance"]) == [50]
