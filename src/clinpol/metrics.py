"""Discrimination and calibration metrics for multi-class probability models.

``auroc_macro`` averages one-vs-rest AUROCs computed from rank statistics
(ties count half, the Mann-Whitney convention); classes without both a
positive and a negative example are undefined and excluded. ``sce`` is the
static calibration error: per class, scores fall into equal-width bins and
each bin contributes its occupancy-weighted |accuracy - confidence| gap; the
result is the mean over classes, in [0, 1].
"""

from __future__ import annotations

import numpy as np

from .errors import ClinpolError


class MetricError(ClinpolError):
    pass


def _check_inputs(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2:
        raise MetricError(f"scores must be (n, C), got shape {scores.shape}")
    if len(labels) != len(scores):
        raise MetricError(f"{len(scores)} score rows but {len(labels)} labels")
    if len(labels) == 0:
        raise MetricError("no samples")
    if labels.min() < 0 or labels.max() >= scores.shape[1]:
        raise MetricError(f"label outside [0, {scores.shape[1]})")
    if not np.all(np.isfinite(scores)):
        raise MetricError("scores must be finite")
    return scores, labels


def _sorted_auroc(ordered, positive_scores) -> float:
    """AUROC of the positives' scores among all scores, sorted in ``ordered``.

    A score's tie-averaged 1-based rank is (#below + #at-or-below + 1) / 2,
    so the positives' rank sum is an exact integer over two; from there the
    Mann-Whitney U and its normalization are the usual half-integer
    arithmetic.
    """
    n_pos = len(positive_scores)
    n_neg = len(ordered) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    below = np.searchsorted(ordered, positive_scores, "left").sum()
    at_or_below = np.searchsorted(ordered, positive_scores, "right").sum()
    rank_sum = (below + at_or_below + n_pos) / 2.0
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auroc_macro(scores, labels) -> float:
    """Macro-average one-vs-rest AUROC; NaN if no class has both outcomes.

    Every row is a positive of exactly one class, its label, so one sort of
    each score column serves every class.
    """
    scores, labels = _check_inputs(scores, labels)
    ordered = np.sort(scores, axis=0)
    aucs = []
    for c in range(scores.shape[1]):
        a = _sorted_auroc(ordered[:, c], scores[labels == c, c])
        if not np.isnan(a):
            aucs.append(a)
    if not aucs:
        return float("nan")
    return float(np.mean(aucs))


def sce(scores, labels, n_bins: int = 10) -> float:
    """Static calibration error with equal-width bins on [0, 1].

    Scores of exactly 1.0 fall in the last bin; empty bins contribute 0.
    """
    scores, labels = _check_inputs(scores, labels)
    if n_bins < 1:
        raise MetricError(f"n_bins must be >= 1, got {n_bins}")
    n, C = scores.shape
    total = 0.0
    for c in range(C):
        col = scores[:, c]
        hit = (labels == c).astype(np.float64)
        bins = np.minimum((col * n_bins).astype(np.int64), n_bins - 1)
        bins = np.maximum(bins, 0)
        n_b = np.bincount(bins, minlength=n_bins).astype(np.float64)
        conf_sum = np.bincount(bins, weights=col, minlength=n_bins)
        acc_sum = np.bincount(bins, weights=hit, minlength=n_bins)
        occupied = n_b > 0
        gap = np.abs(acc_sum[occupied] / n_b[occupied] - conf_sum[occupied] / n_b[occupied])
        total += float(np.sum(n_b[occupied] / n * gap))
    return total / C
