"""Sigmoid calibration fitting/applying and the discrimination metrics."""

import numpy as np
import pytest
from scipy.special import expit

from clinpol.calibration import (
    CalibrationError,
    CalibrationModel,
    apply_calibration_batch,
    fit_calibration,
    identity_calibration,
)
from clinpol.metrics import MetricError, auroc_macro, binary_auroc, sce

# ---------------------------------------------------------------------------
# Platt fitting
# ---------------------------------------------------------------------------

def test_near_calibrated_scores_fit_a_near_identity_map():
    # labels drawn Bernoulli(score); scores kept inside [0.2, 0.8] because a
    # sigmoid cannot track the identity near the endpoints
    rng = np.random.default_rng(42)
    n = 1000
    s1 = rng.uniform(0.2, 0.8, size=n)
    labels = (rng.random(n) < s1).astype(int)
    scores = np.column_stack([1.0 - s1, s1])
    cm = fit_calibration(scores, labels)
    grid = np.linspace(0.2, 0.8, 61)
    mapped = expit(cm.slope[1] * grid + cm.intercept[1])
    assert np.max(np.abs(mapped - grid)) < 0.05


def test_overconfident_scores_are_pulled_back_to_observed_rate():
    # constant 0.9 score for a class that is right only 60% of the time
    rng = np.random.default_rng(7)
    n = 1000
    labels = (rng.random(n) < 0.4).astype(int)  # class 0 rate 0.6
    scores = np.column_stack([np.full(n, 0.9), np.full(n, 0.1)])
    cm = fit_calibration(scores, labels)
    out = apply_calibration_batch(cm, np.array([0.9, 0.1]))
    assert abs(out[0] - 0.6) < 0.05


def test_degenerate_class_keeps_identity_map():
    scores = np.array([[0.8, 0.2], [0.7, 0.3], [0.6, 0.4]])
    labels = np.array([0, 0, 0])  # class 1 never appears
    cm = fit_calibration(scores, labels)
    assert bool(cm.identity[0]) and bool(cm.identity[1])
    out = apply_calibration_batch(cm, np.array([0.25, 0.75]))
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)


def test_fit_validates_inputs():
    with pytest.raises(CalibrationError, match="at least 2"):
        fit_calibration(np.array([[0.5, 0.5]]), np.array([0]))
    with pytest.raises(CalibrationError, match="labels"):
        fit_calibration(np.ones((3, 2)) / 2, np.array([0, 1]))
    with pytest.raises(CalibrationError, match="outside"):
        fit_calibration(np.ones((2, 2)) / 2, np.array([0, 5]))


def test_fit_is_deterministic():
    rng = np.random.default_rng(3)
    scores = rng.dirichlet(np.ones(3), size=200)
    labels = rng.integers(0, 3, size=200)
    a = fit_calibration(scores, labels)
    b = fit_calibration(scores.copy(), labels.copy())
    np.testing.assert_array_equal(a.slope, b.slope)
    np.testing.assert_array_equal(a.intercept, b.intercept)


# ---------------------------------------------------------------------------
# applying calibration
# ---------------------------------------------------------------------------

def test_identity_model_renormalizes_input():
    cm = identity_calibration(3)
    out = apply_calibration_batch(cm, np.array([0.2, 0.2, 0.1]))
    np.testing.assert_allclose(out, [0.4, 0.4, 0.2], atol=1e-15)
    one_hot = apply_calibration_batch(cm, np.array([0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(one_hot, [0.0, 1.0, 0.0])


def test_calibrated_outputs_live_on_the_simplex():
    rng = np.random.default_rng(11)
    scores = rng.dirichlet(np.ones(4), size=500)
    labels = rng.integers(0, 4, size=500)
    cm = fit_calibration(scores, labels)
    out = apply_calibration_batch(cm, rng.dirichlet(np.ones(4), size=2000))
    assert np.all(out >= 0)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)


def test_shared_positive_slope_preserves_argmax():
    cm = CalibrationModel(slope=np.array([3.0, 3.0, 3.0]),
                          intercept=np.array([-1.0, -1.0, -1.0]),
                          identity=np.zeros(3, dtype=bool))
    rng = np.random.default_rng(5)
    P = rng.dirichlet(np.ones(3), size=300)
    out = apply_calibration_batch(cm, P)
    np.testing.assert_array_equal(np.argmax(out, axis=1), np.argmax(P, axis=1))


def test_apply_rejects_wrong_width():
    cm = identity_calibration(3)
    with pytest.raises(CalibrationError, match="3 columns"):
        apply_calibration_batch(cm, np.array([0.5, 0.5]))


def test_calibration_json_round_trip():
    rng = np.random.default_rng(9)
    scores = rng.dirichlet(np.ones(2), size=100)
    labels = rng.integers(0, 2, size=100)
    cm = fit_calibration(scores, labels)
    back = CalibrationModel.from_json(cm.to_json())
    np.testing.assert_array_equal(back.slope, cm.slope)
    np.testing.assert_array_equal(back.intercept, cm.intercept)
    np.testing.assert_array_equal(back.identity, cm.identity)


# ---------------------------------------------------------------------------
# AUROC
# ---------------------------------------------------------------------------

def test_auroc_binary_textbook_case():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0, 0, 1, 1])
    mat = np.column_stack([1.0 - scores, scores])
    assert auroc_macro(mat, labels) == pytest.approx(0.75, abs=1e-12)


def test_auroc_perfect_separation_is_one():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    assert binary_auroc(scores, labels == 1) == 1.0


def test_auroc_ties_count_half():
    scores = np.array([0.5, 0.5, 0.5, 0.5])
    labels = np.array([0, 1, 0, 1])
    assert binary_auroc(scores, labels == 1) == pytest.approx(0.5, abs=1e-15)


def oracle_pairwise_auroc(scores, positives):
    pos = scores[positives]
    neg = scores[~positives]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auroc_matches_pair_counting_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(10, 200))
        C = int(rng.integers(2, 5))
        scores = np.round(rng.dirichlet(np.ones(C), size=n), 2)
        labels = rng.integers(0, C, size=n)
        expected = []
        for c in range(C):
            mask = labels == c
            if mask.sum() in (0, n):
                continue
            expected.append(oracle_pairwise_auroc(scores[:, c], mask))
        got = auroc_macro(scores, labels)
        if expected:
            assert got == pytest.approx(np.mean(expected), abs=1e-12)
        else:
            assert np.isnan(got)


def test_auroc_invariant_to_monotone_score_transform():
    rng = np.random.default_rng(12)
    scores = rng.random((100, 2))
    labels = rng.integers(0, 2, size=100)
    warped = 1.0 / (1.0 + np.exp(-5.0 * (scores - 0.3)))
    assert auroc_macro(scores, labels) == pytest.approx(auroc_macro(warped, labels), abs=1e-12)


def test_auroc_excludes_absent_classes():
    scores = np.array([[0.7, 0.2, 0.1], [0.3, 0.6, 0.1], [0.8, 0.1, 0.1], [0.2, 0.7, 0.1]])
    labels = np.array([0, 1, 0, 1])  # class 2 absent
    two_class = auroc_macro(scores[:, :2], labels)
    assert auroc_macro(scores, labels) == pytest.approx(two_class, abs=1e-12)


def test_auroc_all_one_class_is_nan():
    scores = np.array([[0.7, 0.3], [0.4, 0.6]])
    assert np.isnan(auroc_macro(scores, np.array([0, 0])))


# ---------------------------------------------------------------------------
# SCE
# ---------------------------------------------------------------------------

def sce_oracle(scores, labels, n_bins=10):
    """Plain-loop reference implementation."""
    n, C = scores.shape
    total = 0.0
    for c in range(C):
        for b in range(n_bins):
            lo, hi = b / n_bins, (b + 1) / n_bins
            if b == n_bins - 1:
                members = [i for i in range(n) if lo <= scores[i, c] <= hi]
            else:
                members = [i for i in range(n) if lo <= scores[i, c] < hi]
            if not members:
                continue
            conf = sum(scores[i, c] for i in members) / len(members)
            acc = sum(1.0 for i in members if labels[i] == c) / len(members)
            total += (len(members) / n) * abs(acc - conf)
    return total / C


def test_sce_zero_for_perfectly_calibrated_bins():
    # every prediction is one-hot and right: confidence 1, accuracy 1
    scores = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 1, 0])
    assert sce(scores, labels) == 0.0


def test_sce_constant_overconfident_prediction():
    # constant prediction 1.0 for class 0 while labels are class 0 half the time:
    # that class contributes |0.5 - 1.0| = 0.5, class 1 contributes |0.5 - 0.0|
    scores = np.tile([1.0, 0.0], (10, 1))
    labels = np.array([0, 1] * 5)
    assert sce(scores, labels) == pytest.approx(0.5, abs=1e-12)


def test_sce_matches_loop_oracle():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(5, 200))
        C = int(rng.integers(2, 5))
        scores = rng.dirichlet(np.ones(C), size=n)
        labels = rng.integers(0, C, size=n)
        assert sce(scores, labels) == pytest.approx(sce_oracle(scores, labels), abs=1e-12)


def test_sce_bounds_and_validation():
    rng = np.random.default_rng(4)
    scores = rng.dirichlet(np.ones(3), size=50)
    labels = rng.integers(0, 3, size=50)
    assert 0.0 <= sce(scores, labels) <= 1.0
    with pytest.raises(MetricError):
        sce(scores, labels, n_bins=0)
    with pytest.raises(MetricError):
        sce(scores[:10], labels)


def test_sce_large_sample_calibrated_scores_are_small():
    rng = np.random.default_rng(100)
    n = 20_000
    p = rng.uniform(0.1, 0.9, size=n)
    labels = (rng.random(n) < p).astype(int)
    scores = np.column_stack([1.0 - p, p])
    assert sce(scores, labels) < 0.02
