"""The full attack pipeline and empirical detection-rate measurement.

This module turns raw PIAT captures into the numbers the paper plots:

1. :func:`slice_into_samples` — cut a long captured interval stream into a
   ``(samples, n)`` view of samples of the size the adversary will use at run
   time.
2. :func:`extract_feature_samples` — summarise each sample with a feature
   statistic, producing the labelled training/test feature values.
3. :func:`train_classifier` — off-line training of the KDE Bayes classifier.
4. :func:`empirical_detection_rate` — run-time classification of held-out
   samples and measurement of the detection rate (the paper's security
   metric: the probability that the adversary identifies the payload rate
   correctly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.adversary.bayes import KDEBayesClassifier
from repro.adversary.features import FeatureStatistic
from repro.exceptions import AnalysisError
from repro.stats.bootstrap import BootstrapResult, bootstrap_detection_rate_ci


def slice_into_samples(
    intervals: np.ndarray,
    sample_size: int,
    max_samples: Optional[int] = None,
    overlap: bool = False,
) -> np.ndarray:
    """Cut an interval stream into consecutive samples of ``sample_size``.

    Returns a ``(samples, sample_size)`` view of the capture, one sample per
    row, without copying it: a ``reshape`` for non-overlapping samples, a
    read-only strided sliding window for overlapping ones.

    Parameters
    ----------
    intervals:
        Captured PIATs in observation order.
    sample_size:
        Number of intervals per sample (the paper's x-axis in Figure 4(b)).
    max_samples:
        Optional cap on the number of samples returned.
    overlap:
        When ``True``, samples are taken with 50 % overlap, which doubles the
        number of samples extractable from a capture at the price of
        correlation between them.  The experiments default to non-overlapping
        samples.
    """
    array = np.asarray(intervals, dtype=float)
    if array.ndim != 1:
        raise AnalysisError("intervals must be one-dimensional")
    if sample_size < 1:
        raise AnalysisError("sample_size must be >= 1")
    if array.size < sample_size:
        raise AnalysisError(
            f"capture holds {array.size} intervals; cannot form a sample of {sample_size}"
        )
    step = sample_size // 2 if overlap and sample_size > 1 else sample_size
    count = (array.size - sample_size) // step + 1
    if max_samples is not None:
        # At least one sample, even for a cap below 1, as the slicing loop cut.
        count = min(count, max(max_samples, 1))
    if step == sample_size:
        return array[: count * sample_size].reshape(count, sample_size)
    return sliding_window_view(array, sample_size)[::step][:count]


def extract_feature_samples(
    intervals: np.ndarray,
    feature: FeatureStatistic,
    sample_size: int,
    max_samples: Optional[int] = None,
    overlap: bool = False,
) -> np.ndarray:
    """Feature values of consecutive samples cut from an interval stream."""
    samples = slice_into_samples(intervals, sample_size, max_samples=max_samples, overlap=overlap)
    return feature.compute_rows(samples)


def train_classifier(
    training_intervals: Mapping[str, np.ndarray],
    feature: FeatureStatistic,
    sample_size: int,
    priors: Optional[Mapping[str, float]] = None,
    max_samples_per_class: Optional[int] = None,
    overlap: bool = False,
    bandwidth="silverman",
) -> KDEBayesClassifier:
    """Off-line training from labelled interval captures.

    ``training_intervals`` maps each class label (payload rate) to a long
    PIAT capture taken while that rate was active — exactly what the paper's
    adversary obtains by reconstructing the padding system in a lab.
    """
    features_per_class: Dict[str, np.ndarray] = {}
    for label, intervals in training_intervals.items():
        values = extract_feature_samples(
            intervals, feature, sample_size, max_samples=max_samples_per_class, overlap=overlap
        )
        if values.size < 2:
            raise AnalysisError(
                f"class {label!r}: only {values.size} training samples of size "
                f"{sample_size} could be formed; capture more traffic"
            )
        features_per_class[str(label)] = values
    classifier = KDEBayesClassifier(bandwidth=bandwidth)
    classifier.fit(features_per_class, priors=priors)
    return classifier


@dataclass
class DetectionResult:
    """Outcome of evaluating the attack on held-out samples.

    Attributes
    ----------
    feature_name:
        Which feature statistic the adversary used.
    sample_size:
        Number of PIATs per classified sample.
    detection_rate:
        Fraction of test samples whose payload rate was identified correctly
        (the paper's security metric).
    per_class_rates:
        Detection rate conditioned on the true class.
    confusion:
        ``confusion[true][predicted]`` counts.
    trials:
        Total number of classified samples.
    correct_flags:
        Per-trial correctness, in evaluation order (used for bootstrap CIs).
    """

    feature_name: str
    sample_size: int
    detection_rate: float
    per_class_rates: Dict[str, float]
    confusion: Dict[str, Dict[str, int]]
    trials: int
    correct_flags: List[bool] = field(default_factory=list, repr=False)

    def confidence_interval(
        self, confidence: float = 0.95, rng: Optional[np.random.Generator] = None
    ) -> BootstrapResult:
        """Bootstrap confidence interval of the detection rate."""
        return bootstrap_detection_rate_ci(self.correct_flags, confidence=confidence, rng=rng)


def empirical_detection_rate(
    classifier: KDEBayesClassifier,
    test_intervals: Mapping[str, np.ndarray],
    feature: FeatureStatistic,
    sample_size: int,
    max_samples_per_class: Optional[int] = None,
    overlap: bool = False,
) -> DetectionResult:
    """Run-time classification of held-out captures and detection-rate measurement."""
    labels = sorted(str(label) for label in test_intervals)
    confusion: Dict[str, Dict[str, int]] = {
        label: {predicted: 0 for predicted in classifier.labels} for label in labels
    }
    correct_flags: List[bool] = []
    for label in labels:
        values = extract_feature_samples(
            test_intervals[label],
            feature,
            sample_size,
            max_samples=max_samples_per_class,
            overlap=overlap,
        )
        if values.size == 0:
            raise AnalysisError(f"class {label!r}: no test samples could be formed")
        for predicted in classifier.classify_many(values):
            confusion[label][predicted] = confusion[label].get(predicted, 0) + 1
            correct_flags.append(predicted == label)
    per_class = {}
    for label in labels:
        total = sum(confusion[label].values())
        per_class[label] = confusion[label].get(label, 0) / total if total else float("nan")
    trials = len(correct_flags)
    rate = float(np.mean(correct_flags)) if trials else float("nan")
    return DetectionResult(
        feature_name=feature.name,
        sample_size=sample_size,
        detection_rate=rate,
        per_class_rates=per_class,
        confusion=confusion,
        trials=trials,
        correct_flags=correct_flags,
    )


def evaluate_attack(
    training_intervals: Mapping[str, np.ndarray],
    test_intervals: Mapping[str, np.ndarray],
    feature: FeatureStatistic,
    sample_size: int,
    priors: Optional[Mapping[str, float]] = None,
    max_samples_per_class: Optional[int] = None,
    overlap: bool = False,
) -> DetectionResult:
    """Convenience wrapper: train on one set of captures, evaluate on another."""
    classifier = train_classifier(
        training_intervals,
        feature,
        sample_size,
        priors=priors,
        max_samples_per_class=max_samples_per_class,
        overlap=overlap,
    )
    return empirical_detection_rate(
        classifier,
        test_intervals,
        feature,
        sample_size,
        max_samples_per_class=max_samples_per_class,
        overlap=overlap,
    )


__all__ = [
    "slice_into_samples",
    "extract_feature_samples",
    "train_classifier",
    "DetectionResult",
    "empirical_detection_rate",
    "evaluate_attack",
]
