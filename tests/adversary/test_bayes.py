"""Tests for the KDE Bayes classifier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import KDEBayesClassifier
from repro.exceptions import NotFittedError, TrainingError


def make_training(rng, mu_a=0.0, mu_b=5.0, sigma=1.0, n=300):
    return {
        "a": rng.normal(mu_a, sigma, size=n),
        "b": rng.normal(mu_b, sigma, size=n),
    }


class TestTraining:
    def test_fit_returns_self_and_sets_labels(self, rng):
        classifier = KDEBayesClassifier().fit(make_training(rng))
        assert classifier.is_fitted
        assert classifier.labels == ["a", "b"]

    def test_unfitted_classifier_raises(self):
        with pytest.raises(NotFittedError):
            KDEBayesClassifier().classify(0.0)
        with pytest.raises(NotFittedError):
            KDEBayesClassifier().labels

    def test_needs_two_classes(self, rng):
        with pytest.raises(TrainingError):
            KDEBayesClassifier().fit({"only": rng.normal(size=10)})

    def test_needs_two_samples_per_class(self, rng):
        with pytest.raises(TrainingError):
            KDEBayesClassifier().fit({"a": [1.0], "b": rng.normal(size=10)})

    def test_rejects_non_finite_training_values(self, rng):
        with pytest.raises(TrainingError):
            KDEBayesClassifier().fit({"a": [1.0, np.nan], "b": rng.normal(size=10)})

    def test_prior_validation(self, rng):
        training = make_training(rng)
        with pytest.raises(TrainingError):
            KDEBayesClassifier().fit(training, priors={"a": 0.5, "c": 0.5})
        with pytest.raises(TrainingError):
            KDEBayesClassifier().fit(training, priors={"a": 0.7, "b": 0.7})
        with pytest.raises(TrainingError):
            KDEBayesClassifier().fit(training, priors={"a": 1.0, "b": 0.0})


class TestClassification:
    def test_separable_classes_classified_correctly(self, rng):
        classifier = KDEBayesClassifier().fit(make_training(rng))
        assert classifier.classify(-0.5) == "a"
        assert classifier.classify(5.5) == "b"

    def test_classify_many(self, rng):
        classifier = KDEBayesClassifier().fit(make_training(rng))
        assert classifier.classify_many([-1.0, 6.0, 0.2]) == ["a", "b", "a"]

    def test_posterior_probabilities_sum_to_one(self, rng):
        classifier = KDEBayesClassifier().fit(make_training(rng))
        posteriors = classifier.posterior_probabilities(2.5)
        assert sum(posteriors.values()) == pytest.approx(1.0)
        assert set(posteriors) == {"a", "b"}

    def test_feature_values_outside_training_range_still_classified(self, rng):
        """Log-space evaluation keeps decisions meaningful outside the training range."""
        classifier = KDEBayesClassifier().fit(make_training(rng))
        # Clearly on one side of the two classes (means 0 and 5) but beyond
        # every training point in that direction.
        assert classifier.classify(-6.0) == "a"
        assert classifier.classify(11.0) == "b"
        # Extremely far away the decision may go either way (it is dominated by
        # the per-class bandwidths), but it must not crash or return NaN.
        posteriors = classifier.log_posteriors(-100.0)
        assert all(np.isfinite(v) for v in posteriors.values())
        assert classifier.classify(-100.0) in {"a", "b"}

    def test_priors_shift_the_decision(self, rng):
        training = make_training(rng, mu_a=0.0, mu_b=2.0)
        neutral = KDEBayesClassifier().fit(training)
        biased = KDEBayesClassifier().fit(training, priors={"a": 0.95, "b": 0.05})
        # A point exactly between the classes goes to the heavily favoured one.
        midpoint = 1.0
        assert biased.classify(midpoint) == "a"
        # The neutral classifier splits the same point by likelihood only.
        assert neutral.posterior_probabilities(midpoint)["b"] > 0.3

    def test_bayes_accuracy_close_to_optimum_for_known_gaussians(self, rng):
        """Empirical accuracy approaches the analytic Bayes rate for N(0,1) vs N(2,1)."""
        training = make_training(rng, mu_a=0.0, mu_b=2.0, n=2000)
        classifier = KDEBayesClassifier().fit(training)
        from scipy.stats import norm

        test_a = rng.normal(0.0, 1.0, size=2000)
        test_b = rng.normal(2.0, 1.0, size=2000)
        correct = sum(1 for x in test_a if classifier.classify(x) == "a") + sum(
            1 for x in test_b if classifier.classify(x) == "b"
        )
        accuracy = correct / 4000.0
        bayes_optimal = norm.cdf(1.0)  # threshold at 1.0 for equal priors
        assert accuracy == pytest.approx(bayes_optimal, abs=0.03)

    def test_three_class_classification(self, rng):
        training = {
            "low": rng.normal(0.0, 0.5, size=300),
            "mid": rng.normal(3.0, 0.5, size=300),
            "high": rng.normal(6.0, 0.5, size=300),
        }
        classifier = KDEBayesClassifier().fit(training)
        assert classifier.classify(0.1) == "low"
        assert classifier.classify(3.1) == "mid"
        assert classifier.classify(6.2) == "high"

    def test_ties_are_deterministic(self, rng):
        values = rng.normal(0.0, 1.0, size=200)
        classifier = KDEBayesClassifier().fit({"x": values, "y": values.copy()})
        assert classifier.classify(0.0) == "x"


class TestDecisionThreshold:
    def test_threshold_lies_between_class_means(self, rng):
        classifier = KDEBayesClassifier().fit(make_training(rng, mu_a=0.0, mu_b=4.0))
        threshold = classifier.decision_threshold("a", "b")
        assert 1.0 < threshold < 3.0

    def test_threshold_unknown_label_rejected(self, rng):
        classifier = KDEBayesClassifier().fit(make_training(rng))
        with pytest.raises(TrainingError):
            classifier.decision_threshold("a", "zzz")


def reference_classify(classifier, values):
    """The per-value loop: the oracle ``classify_many`` must equal."""
    return [classifier.classify(float(value)) for value in values]


class TestClassifyManyMatchesTheLoop:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    def test_random_classes_and_priors(self, seed, n_classes):
        rng = np.random.default_rng(seed)
        labels = [str(rate) for rate in rng.choice(200, size=n_classes, replace=False)]
        training = {
            label: rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 2), size=rng.integers(2, 60))
            for label in labels
        }
        weights = rng.uniform(0.2, 1.0, size=n_classes)
        priors = dict(zip(labels, weights / weights.sum()))
        classifier = KDEBayesClassifier().fit(training, priors=priors)
        values = np.concatenate([rng.normal(0.0, 3.0, size=500), [-40.0, 0.0, 40.0]])
        assert classifier.classify_many(values) == reference_classify(classifier, values)

    def test_exact_ties_go_to_the_smallest_label(self, rng):
        values = rng.normal(0.0, 1.0, size=200)
        classifier = KDEBayesClassifier().fit({"y": values, "x": values.copy()})
        grid = np.linspace(-5.0, 5.0, 101)
        assert classifier.classify_many(grid) == ["x"] * grid.size
        assert classifier.classify_many(grid) == reference_classify(classifier, grid)

    def test_ties_under_unequal_priors(self, rng):
        shared = rng.normal(0.0, 1.0, size=100)
        classifier = KDEBayesClassifier().fit(
            {"b": shared, "a": shared.copy(), "c": rng.normal(3.0, 1.0, size=100)},
            priors={"a": 0.25, "b": 0.25, "c": 0.5},
        )
        grid = np.linspace(-4.0, 7.0, 221)
        predicted = classifier.classify_many(grid)
        assert predicted == reference_classify(classifier, grid)
        assert set(predicted) == {"a", "c"}

    def test_labels_sort_as_strings(self, rng):
        classifier = KDEBayesClassifier().fit(
            {"9": rng.normal(0.0, 1.0, size=50), "10": rng.normal(1.0, 1.0, size=50)}
        )
        grid = np.linspace(-3.0, 4.0, 57)
        assert classifier.classify_many(grid) == reference_classify(classifier, grid)

    def test_non_finite_scores_take_the_loop(self, rng):
        # A tiny bandwidth overflows z**2 far away, which makes that class's
        # score NaN; the loop skips it, argmax would pick it.
        classifier = KDEBayesClassifier().fit(
            {"a": 1e-140 * rng.normal(size=50), "b": rng.normal(size=50)}
        )
        values = np.array([1e20, 0.0, 1e-141])
        with np.errstate(over="ignore", invalid="ignore"):
            scores = classifier.log_posteriors(1e20)
            assert np.isnan(scores["a"]) and np.isfinite(scores["b"])
            predicted = classifier.classify_many(values)
            assert predicted == reference_classify(classifier, values)
        assert predicted[0] == "b"

    def test_accepts_any_iterable(self, rng):
        classifier = KDEBayesClassifier().fit(make_training(rng))
        values = [0.1, 2.4, 4.9]
        assert classifier.classify_many(iter(values)) == reference_classify(classifier, values)
        assert classifier.classify_many([]) == []
        with pytest.raises(NotFittedError):
            KDEBayesClassifier().classify_many([0.0])
