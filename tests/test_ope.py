"""Importance weights, IS/WIS estimators, ESS, and median/IQR aggregation."""

import math

import numpy as np
import pytest

from clinpol.behavior import TreeBehaviorModel, fit_dt, fit_dts
from clinpol.data import NONE_ACTION, StepData
from clinpol.ope import (
    NoOverlapError,
    OPEError,
    ImportanceWeights,
    SupportViolationError,
    effective_sample_size,
    importance_weights,
    is_estimate,
    median_iqr,
    wis_estimate,
)
from clinpol.policies import BehaviorPolicy, TopKPolicy
from clinpol.tree import TreeHyperparams, fit_tree
from test_behavior import HP, make_cohort


def two_leaf_model(left_counts, right_counts):
    """Depth-1 dt over a single 0/1 feature with chosen leaf class counts."""
    X, y = [], []
    for v, counts in ((0.0, left_counts), (1.0, right_counts)):
        for c, n in enumerate(counts):
            X += [[v]] * n
            y += [c] * n
    t = fit_tree(np.asarray(X), np.asarray(y, dtype=np.int64),
                 TreeHyperparams(max_depth=1, min_leaf_fraction=0.01), n_classes=2)
    assert t.depth() == 1
    return TreeBehaviorModel({"tree": t})


def one_trajectory(states, actions, rewards):
    n = len(actions)
    return StepData(
        states=np.asarray(states, dtype=np.float64),
        actions=np.asarray(actions, dtype=np.int64),
        rewards=np.asarray(rewards, dtype=np.float64),
        prev_actions=np.asarray([NONE_ACTION] + list(actions[:-1]), dtype=np.int64),
        stages=np.arange(1, n + 1),
        traj_index=np.zeros(n, dtype=np.int64),
        traj_ids=["t0"],
        n_actions=2,
        feature_names=["x0"],
    )


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_reciprocal_step_ratios_cancel_exactly():
    # step 1: 0.8/0.4 = 2, step 2: 0.4/0.8 = 1/2; the log-space sum is 0
    mu = two_leaf_model([4, 6], [8, 2])
    pi = two_leaf_model([8, 2], [4, 6])
    data = one_trajectory([[0.0], [1.0]], [0, 0], [1.0, 2.0])
    w = importance_weights(BehaviorPolicy(pi), mu, data)
    assert w.weights.tolist() == [1.0]
    assert w.returns.tolist() == [3.0]
    assert w.lengths.tolist() == [2]


def test_zero_numerator_short_circuits_to_exact_zero():
    mu = two_leaf_model([4, 6], [8, 2])
    data = one_trajectory([[0.0], [1.0]], [1, 1], [0.0, 0.0])
    # top-1 on the left leaf picks action 1, on the right leaf action 0
    w = importance_weights(TopKPolicy(mu, 1), mu, data)
    assert w.weights.tolist() == [0.0]


def test_zero_denominator_is_a_hard_error():
    mu = two_leaf_model([10, 0], [8, 2])  # left leaf never saw action 1
    pi = two_leaf_model([5, 5], [5, 5])
    data = one_trajectory([[0.0], [1.0]], [1, 0], [0.0, 0.0])
    with pytest.raises(SupportViolationError, match="behavior support violation"):
        importance_weights(BehaviorPolicy(pi), mu, data)


def test_self_evaluation_weights_are_exactly_one():
    from clinpol.behavior import fit_dtbls

    data = make_cohort(30, n_traj=120)
    for m in (fit_dt(data, HP), fit_dtbls(data, HP, HP, HP)):
        for pol in (BehaviorPolicy(m), TopKPolicy(m, data.n_actions)):
            weights = importance_weights(pol, m, data)
            assert len(weights) == data.n_trajectories
            assert np.all(weights.weights == 1.0)


def test_dts_first_stage_support_gap_is_a_hard_error():
    # the two-tree composition has no first-stage component of its own: its
    # t=1 fallback is the switch-target tree, which can give zero mass to an
    # observed first action, and that must surface, not silently zero out
    data = make_cohort(30, n_traj=120)
    m = fit_dts(data, HP, HP)
    first = data.subset(data.stages == 1)
    probs = m.action_probabilities_batch(first.states, first.prev_actions, first.stages)
    has_gap = np.any(probs[np.arange(len(first)), first.actions] == 0.0)
    if has_gap:
        with pytest.raises(SupportViolationError):
            importance_weights(BehaviorPolicy(m), m, data)


def test_weights_survive_long_horizons_in_log_space():
    # 60 alternating up/down pairs of ratios 2 and 1/2: each pair cancels in
    # log space, so the product over 120 steps is still exactly one
    mu = two_leaf_model([4, 6], [8, 2])
    pi = two_leaf_model([8, 2], [4, 6])
    states = [[0.0], [1.0]] * 60
    data = one_trajectory(states, [0] * 120, [0.0] * 120)
    w = importance_weights(BehaviorPolicy(pi), mu, data)
    assert w.weights.tolist() == [1.0]


def test_weight_magnitude_over_a_monotone_horizon():
    mu = two_leaf_model([4, 6], [8, 2])
    pi = two_leaf_model([8, 2], [4, 6])
    data = one_trajectory([[1.0]] * 60, [0] * 60, [0.0] * 60)  # ratio 1/2 each
    w = importance_weights(BehaviorPolicy(pi), mu, data)
    assert len(w) == 1
    assert w.weights[0] == pytest.approx(2.0**-60, rel=1e-12)


def test_returns_and_lengths_come_from_the_data():
    data = make_cohort(31, n_traj=50)
    m = fit_dt(data, HP)
    weights = importance_weights(BehaviorPolicy(m), m, data)
    returns = data.trajectory_returns()
    lengths = data.trajectory_lengths()
    assert len(weights) == data.n_trajectories
    for j in range(len(weights)):
        assert weights.traj_ids[j] == data.traj_ids[j]
        assert weights.returns[j] == returns[j]
        assert weights.lengths[j] == lengths[j]


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def tw(weights, returns, lengths=None):
    lengths = lengths or [1] * len(weights)
    return ImportanceWeights([f"t{i}" for i in range(len(weights))],
                             np.asarray(weights, dtype=np.float64),
                             np.asarray(returns, dtype=np.float64),
                             np.asarray(lengths, dtype=np.int64))


def test_wis_equal_weights_is_the_plain_mean():
    r = wis_estimate(tw([2.0, 2.0, 2.0], [1.0, 2.0, 6.0]))
    assert r.value == 3.0
    assert r.estimator == "wis"
    assert r.n == 3


def test_wis_weighted_mean_arithmetic():
    assert wis_estimate(tw([1.0, 3.0], [0.0, 4.0])).value == 3.0


def test_wis_single_trajectory_weight_cancels():
    assert wis_estimate(tw([7.0], [5.0])).value == 5.0


def test_is_divides_by_n_not_weight_sum():
    r = is_estimate(tw([2.0, 0.0], [3.0, 9.0]))
    assert r.value == 3.0
    assert r.estimator == "is"


def test_is_equals_wis_when_weights_are_one():
    g = np.random.default_rng(3).normal(size=40)
    a = is_estimate(tw([1.0] * 40, g))
    b = wis_estimate(tw([1.0] * 40, g))
    assert a.value == pytest.approx(b.value, abs=1e-12)
    assert a.ess == b.ess == 40.0


def test_all_zero_weights_is_an_error_not_a_silent_zero():
    for est in (wis_estimate, is_estimate):
        with pytest.raises(NoOverlapError, match="no overlap mass"):
            est(tw([0.0, 0.0], [1.0, 2.0]))
    with pytest.raises(OPEError):
        wis_estimate(tw([], []))


def test_wis_is_invariant_to_weight_scale():
    rng = np.random.default_rng(4)
    w = rng.uniform(0.1, 5.0, size=30)
    g = rng.normal(size=30)
    base = wis_estimate(tw(w, g))
    for c in (1e-6, 3.0, 1e7):
        scaled = wis_estimate(tw(c * w, g))
        assert scaled.value == pytest.approx(base.value, abs=1e-12)
        assert scaled.ess == pytest.approx(base.ess, rel=1e-12)


def test_ess_arithmetic_cases():
    assert effective_sample_size([1.0, 1.0, 1.0, 1.0]) == 4.0
    assert effective_sample_size([2.0, 0.0, 0.0, 0.0]) == 1.0
    assert effective_sample_size([1.0, 2.0, 3.0]) == 36.0 / 14.0
    assert effective_sample_size([1.0, 2.0, 3.0]) == pytest.approx(18.0 / 7.0)
    assert effective_sample_size(tw([1.0, 1.0], [0.0, 0.0]).weights) == 2.0
    with pytest.raises(OPEError):
        effective_sample_size([0.0, 0.0])


def test_ess_bounds_over_random_weights():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        w = rng.exponential(size=n) * (rng.random(size=n) < 0.9)
        if not np.any(w > 0):
            continue
        e = effective_sample_size(w)
        assert 1.0 - 1e-12 <= e <= n + 1e-12


def test_self_evaluation_estimate_is_the_mean_return():
    data = make_cohort(32, n_traj=100)
    m = fit_dt(data, HP)
    r = wis_estimate(importance_weights(BehaviorPolicy(m), m, data))
    assert r.value == pytest.approx(float(data.trajectory_returns().mean()), abs=1e-12)
    assert r.ess == 100.0
    i = is_estimate(importance_weights(BehaviorPolicy(m), m, data))
    assert i.value == pytest.approx(r.value, abs=1e-12)


# ---------------------------------------------------------------------------
# aggregation over repeated splits
# ---------------------------------------------------------------------------

def test_aggregate_median_and_quartiles():
    # the harness summarizes each policy's repeated splits with median_iqr
    assert median_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == (3.0, 2.0, 4.0)
    assert median_iqr([10.0, 4.0, 8.0, 2.0, 6.0]) == (6.0, 4.0, 8.0)


def test_aggregate_single_result_degenerates():
    assert median_iqr([2.5]) == (2.5, 2.5, 2.5)


def test_aggregate_empty_is_an_error():
    with pytest.raises(OPEError):
        median_iqr([])


def sort_based_quantile(values, q):
    s = sorted(values)
    h = (len(s) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def test_quartiles_match_a_sort_based_reference():
    rng = np.random.default_rng(6)
    # 49 values: quartile positions land on order statistics, so agreement
    # is exact; 50 values: linear interpolation, checked to float precision
    for n, tol in ((49, 0.0), (50, 1e-12)):
        v = rng.normal(size=n)
        med, q1, q3 = median_iqr(v)
        for got, q in ((q1, 0.25), (med, 0.5), (q3, 0.75)):
            want = sort_based_quantile(v, q)
            if tol == 0.0:
                assert got == want
            else:
                assert got == pytest.approx(want, abs=tol)
