"""Sigmoid calibration fitting/applying and the discrimination metrics."""

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import rankdata

from clinpol.calibration import (
    CalibrationError,
    CalibrationModel,
    _expit,
    _fit_sigmoid,
    apply_calibration_batch,
    fit_calibration,
    identity_calibration,
)
from clinpol.metrics import MetricError, auroc_macro, sce

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


def reference_fit_sigmoid(x, y, tol, max_iter, exhausted):
    """The Newton fit as first written: every objective value recomputed.

    Appends to ``exhausted`` each time all 25 step halvings fail.
    """
    b, a = 1.0, 0.0

    def nll(b_, a_):
        z = b_ * x + a_
        return float(np.sum(np.logaddexp(0.0, z) - y * z))

    current = nll(b, a)
    for _ in range(max_iter):
        z = b * x + a
        p = expit(z)
        r = p - y
        g = np.array([np.dot(r, x), np.sum(r)])
        w = p * (1.0 - p)
        H = np.array([[np.dot(w, x * x) + 1e-10, np.dot(w, x)],
                      [np.dot(w, x), np.sum(w) + 1e-10]])
        step = np.linalg.solve(H, g)
        scale = 1.0
        for _ in range(25):
            if nll(b - scale * step[0], a - scale * step[1]) <= current + 1e-12:
                break
            scale *= 0.5
        else:
            exhausted.append(1)
        b -= scale * step[0]
        a -= scale * step[1]
        new = nll(b, a)
        if max(abs(scale * step[0]), abs(scale * step[1])) < tol or current - new < tol * 1e-3:
            break
        current = new
    return float(b), float(a)


def test_sigmoid_fit_is_bit_identical_to_the_recomputing_reference():
    rng = np.random.default_rng(8)
    exhausted = []
    for trial in range(60):
        n = int(rng.integers(2, 300))
        x = rng.random(n)
        kind = trial % 4
        if kind == 0:
            y = (rng.random(n) < x).astype(np.float64)
        elif kind == 1:  # separable: the slope runs off
            y = (x > 0.5).astype(np.float64)
        elif kind == 2:  # leaf-like scores: few distinct values
            x = rng.dirichlet(np.ones(3), size=4)[rng.integers(4, size=n), 0]
            y = (rng.random(n) < 0.3).astype(np.float64)
        else:  # coarse, wide scores exhaust the step halvings
            x = np.round(x, 1) * 1e3
            y = (rng.random(n) < 0.5).astype(np.float64)
        if y.min() == y.max():
            continue
        for tol, max_iter in ((1e-8, 100), (1e-12, 5)):
            assert (_fit_sigmoid(x, y, tol, max_iter)
                    == reference_fit_sigmoid(x, y, tol, max_iter, exhausted))
    assert exhausted, "no case took the all-halvings-failed path"


# ---------------------------------------------------------------------------
# the exact sigmoid, against scipy's
# ---------------------------------------------------------------------------

def same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_expit_equals_scipy_bit_for_bit_on_random_draws():
    rng = np.random.default_rng(20)
    for scale in (1.0, 5.0, 30.0, 800.0):
        x = rng.normal(size=200_000) * scale
        assert same_bits(_expit(x), expit(x))
        # a matrix keeps its shape; leaf-like columns repeat a few values
        m = rng.choice(x[:7], size=(500, 3))
        assert same_bits(_expit(m), expit(m))


def test_expit_equals_scipy_bit_for_bit_at_the_edges():
    tiny = np.finfo(np.float64).tiny
    x = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0,
                  709.8, -709.8, 745.0, -745.0, 746.0, -746.0, -710.0, 36.7, -36.7,
                  5e-324, -5e-324, tiny / 2, -tiny / 2, tiny, -tiny])
    assert same_bits(_expit(x), expit(x))
    assert same_bits(_expit(x[::-1]), expit(x[::-1]))
    # exp(-v) overflows for v below about -709.78: 1 / (1 + inf) is 0
    assert _expit(np.array([-710.0]))[0] == 0.0
    assert _expit(np.empty((0, 3))).shape == (0, 3)


def reference_fit_calibration(scores, labels):
    """fit_calibration on the recomputing Newton reference (scipy's expit)."""
    n, C = scores.shape
    slope, intercept = np.ones(C), np.zeros(C)
    identity = np.zeros(C, dtype=bool)
    for c in range(C):
        y = (labels == c).astype(np.float64)
        if y.sum() == 0 or y.sum() == n:
            identity[c] = True
            continue
        slope[c], intercept[c] = reference_fit_sigmoid(scores[:, c], y, 1e-8, 100, [])
    return CalibrationModel(slope=slope, intercept=intercept, identity=identity)


def reference_apply_calibration_batch(cm, S):
    """apply_calibration_batch as written on scipy.special.expit."""
    mapped = expit(S * cm.slope + cm.intercept)
    out = np.where(cm.identity, S, mapped)
    totals = out.sum(axis=1, keepdims=True)
    uniform = np.full_like(out, 1.0 / cm.n_classes)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, out / np.where(totals > 0, totals, 1.0), uniform)


def leaf_like_scores(rng, n, K):
    """Rows drawn from a few leaf distributions: ties, a pure leaf, exact zeros."""
    leaves = rng.dirichlet(np.full(K, 0.4), size=int(rng.integers(2, 12)))
    leaves[0] = np.eye(K)[int(rng.integers(K))]
    return leaves[rng.integers(len(leaves), size=n)]


@pytest.mark.parametrize("K", [2, 4, 25])
def test_calibration_equals_the_scipy_reference_bit_for_bit(K):
    rng = np.random.default_rng(K)
    identities = 0
    for trial in range(8):
        n = int(rng.integers(20, 400))
        S = leaf_like_scores(rng, n, K)
        labels = np.array([rng.choice(K, p=row) for row in S])
        if trial % 2:
            labels[labels == K - 1] = 0  # class K-1 absent: an identity map
        cm = fit_calibration(S, labels)
        ref = reference_fit_calibration(S, labels)
        assert same_bits(cm.slope, ref.slope)
        assert same_bits(cm.intercept, ref.intercept)
        assert np.array_equal(cm.identity, ref.identity)
        identities += int(cm.identity.sum())
        queries = np.vstack([leaf_like_scores(rng, 300, K), np.zeros((1, K))])
        # slopes of 1e4 push |slope * s + intercept| far past 710, where
        # exp overflows one way and underflows the other
        steep = CalibrationModel(slope=np.where(np.arange(K) % 2, 1e4, -1e4),
                                 intercept=rng.normal(size=K) * 50.0,
                                 identity=cm.identity.copy())
        for model in (cm, steep):
            assert same_bits(apply_calibration_batch(model, queries),
                             reference_apply_calibration_batch(model, queries))
    assert identities > 0


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

def binary_auroc(scores, positives) -> float:
    """The AUROC of ``scores`` against a boolean positive mask, through
    ``auroc_macro`` on the matrix ``[s, -s]`` labelled 0 where positive.

    Column 1 ranks the negatives by ``-s``, which counts the same pairs as
    column 0 does, so both one-vs-rest AUROCs, and so their mean, equal the
    binary AUROC bit for bit.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return auroc_macro(np.column_stack([scores, -scores]), np.where(positives, 0, 1))


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


def reference_binary_auroc(scores, positives):
    """The Mann-Whitney AUROC from ``rankdata``'s tie-averaged ranks."""
    n_pos = int(positives.sum())
    n_neg = len(positives) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    u = rankdata(scores)[positives].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def reference_auroc_macro(scores, labels):
    """Per-class reference AUROCs averaged in class order."""
    aucs = [reference_binary_auroc(scores[:, c], labels == c)
            for c in range(scores.shape[1])]
    aucs = [a for a in aucs if not np.isnan(a)]
    return float(np.mean(aucs)) if aucs else float("nan")


def same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("K", [2, 4, 25])
def test_auroc_is_bit_identical_to_the_rankdata_reference(K):
    rng = np.random.default_rng(K)
    for trial in range(40):
        n = int(rng.integers(1, 600))
        if trial % 2:  # leaf frequencies: a few distinct rows, heavy ties
            leaves = rng.dirichlet(np.ones(K), size=int(rng.integers(1, 12)))
            scores = leaves[rng.integers(len(leaves), size=n)]
        else:
            scores = rng.dirichlet(np.ones(K), size=n)
        if trial % 5 == 0:  # only the first two classes occur
            labels = rng.integers(0, 2, size=n)
        elif trial % 7 == 0:  # one class only
            labels = np.full(n, K - 1)
        else:
            labels = rng.integers(0, K, size=n)
        assert same_float(auroc_macro(scores, labels),
                          reference_auroc_macro(scores, labels))
        for c in range(K):
            assert same_float(binary_auroc(scores[:, c], labels == c),
                              reference_binary_auroc(scores[:, c], labels == c))


def test_auroc_counts_signed_zeros_as_ties():
    scores = np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, 0.5], [-0.0, 0.5], [0.5, 0.0]])
    labels = np.array([0, 1, 0, 1, 0])
    assert auroc_macro(scores, labels) == reference_auroc_macro(scores, labels)
    # each signed-zero positive ties both signed-zero negatives
    assert binary_auroc(scores[:, 0], labels == 0) == 4 / 6


def test_metrics_reject_non_finite_scores():
    # a NaN used to drop its class from the macro average silently
    scores = np.array([[0.2, 0.8], [0.6, 0.4], [np.nan, 0.5], [0.3, 0.7]])
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(MetricError, match="finite"):
        auroc_macro(scores, labels)
    with pytest.raises(MetricError, match="finite"):
        sce(scores, labels)
    with pytest.raises(MetricError, match="finite"):
        binary_auroc(scores[:, 0], labels == 0)
    with pytest.raises(MetricError, match="finite"):
        auroc_macro(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.array([0, 1]))


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
