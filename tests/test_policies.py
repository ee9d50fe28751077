"""Top-k restriction, outcome-guided choice, switch adjustment, softening."""

from types import SimpleNamespace

import numpy as np
import pytest

from clinpol.behavior import Evaluation, TreeBehaviorModel, fit_dt, fit_dts
from clinpol.data import NONE_ACTION
from clinpol.policies import (
    BehaviorPolicy,
    BestOutcomePolicy,
    PolicyError,
    RandomPolicy,
    SoftenedPolicy,
    SwitchAdjustedPolicy,
    TopKPolicy,
    build_policy,
    soften,
)
from clinpol.tree import TreeHyperparams, attach_outcomes, fit_tree
from test_behavior import HP, ONE, S, leaf_model, leaf_tree, make_cohort, subset


def dt_leaf_model(labels, n_classes, rewards=None):
    return TreeBehaviorModel({"tree": leaf_tree(labels, n_classes, rewards)})


def model_532():
    """Single-leaf dt with action distribution [0.5, 0.3, 0.2]."""
    return dt_leaf_model([0] * 5 + [1] * 3 + [2] * 2, 3)


# ---------------------------------------------------------------------------
# top-k
# ---------------------------------------------------------------------------

def test_top_k_restriction_arithmetic():
    pol = TopKPolicy(model_532(), 2)
    out = pol.probabilities_batch(ONE, [NONE_ACTION], [1])[0]
    np.testing.assert_allclose(out, [0.625, 0.375, 0.0], rtol=0.0, atol=1e-12)
    assert out[0] == 0.5 / 0.8
    assert out[2] == 0.0


def test_top_k_full_k_recovers_the_model():
    m = model_532()
    out = TopKPolicy(m, 3).probabilities_batch(S[None, :], [-1], [1])
    assert np.array_equal(out, m.action_probabilities_batch(S[None, :], [-1], [1]))


def test_top_1_is_one_hot_on_argmax():
    pol = TopKPolicy(model_532(), 1)
    assert pol.probabilities_batch(ONE, [NONE_ACTION], [1])[0].tolist() == [1.0, 0.0, 0.0]


def test_top_k_rank_tie_goes_to_lower_id():
    m = dt_leaf_model([0] * 4 + [1] * 4 + [2] * 2, 3)
    assert TopKPolicy(m, 1).probabilities_batch(ONE, [NONE_ACTION], [1])[0].tolist() == [1.0, 0.0, 0.0]


def test_top_k_positive_support_count():
    m = dt_leaf_model([0] * 5 + [1] * 5, 3)  # action 2 has zero mass
    for k, expect in [(1, 1), (2, 2), (3, 2)]:
        out = TopKPolicy(m, k).probabilities_batch(ONE, [NONE_ACTION], [1])[0]
        assert int(np.sum(out > 0.0)) == expect


def test_top_k_support_is_monotone_in_k():
    data = make_cohort(21, n_traj=150)
    m = fit_dt(data, HP)
    probe = subset(data, np.arange(len(data)) < 200)
    prev_support = None
    for k in range(1, data.n_actions + 1):
        out = TopKPolicy(m, k).probabilities_batch(
            probe.states, probe.prev_actions, probe.stages
        )
        support = out > 0.0
        if prev_support is not None:
            assert np.all(support[prev_support])
        prev_support = support
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)


def test_policy_support_stays_inside_model_support():
    data = make_cohort(22, n_traj=150)
    m = fit_dts(data, HP)
    model_p = m.action_probabilities_batch(data.states, data.prev_actions, data.stages)
    for pol in (TopKPolicy(m, 1), TopKPolicy(m, 2), BestOutcomePolicy(m, 2)):
        out = pol.probabilities_batch(data.states, data.prev_actions, data.stages)
        assert not np.any((out > 0.0) & (model_p == 0.0))


def test_k_out_of_range_is_rejected():
    m = model_532()
    for bad in (0, 4, -1):
        with pytest.raises(PolicyError, match=r"\[1, 3\]"):
            TopKPolicy(m, bad)


# ---------------------------------------------------------------------------
# outcome-guided
# ---------------------------------------------------------------------------

def outcome_model(avgs_by_class, probs_labels):
    """Single-leaf dt whose class outcome averages we choose; None = no data."""
    y = np.asarray(probs_labels, dtype=np.int64)
    X = np.zeros((len(y), 1))
    t = fit_tree(X, y, HP, n_classes=3)
    ay, ar = [], []
    for c, v in enumerate(avgs_by_class):
        if v is not None:
            ay.append(c)
            ar.append(v)
    t = attach_outcomes(t, t.leaf_index_batch(np.zeros((len(ay), 1))),
                        np.asarray(ay, dtype=np.int64), np.asarray(ar, dtype=np.float64))
    return TreeBehaviorModel({"tree": t})


def test_outcome_guided_picks_best_average_in_top_k():
    m = outcome_model([2.0, 3.5, 99.0], [0] * 5 + [1] * 3 + [2] * 2)
    out = BestOutcomePolicy(m, 2).probabilities_batch(ONE, [NONE_ACTION], [1])[0]
    assert out.tolist() == [0.0, 1.0, 0.0]


def test_outcome_guided_tie_goes_to_lower_id():
    m = outcome_model([5.0, None, 5.0], [0] * 5 + [1] * 3 + [2] * 2)
    out = BestOutcomePolicy(m, 3).probabilities_batch(ONE, [NONE_ACTION], [1])[0]
    assert out.tolist() == [1.0, 0.0, 0.0]


def test_outcome_guided_all_missing_falls_back_to_top_1():
    m = outcome_model([None, None, None], [0] * 3 + [1] * 5 + [2] * 2)
    out = BestOutcomePolicy(m, 2).probabilities_batch(ONE, [NONE_ACTION], [1])[0]
    assert out.tolist() == [0.0, 1.0, 0.0]


def test_outcome_guided_k1_equals_top_1_everywhere():
    data = make_cohort(23, n_traj=200)
    m = fit_dt(data, HP)
    a = BestOutcomePolicy(m, 1).probabilities_batch(
        data.states, data.prev_actions, data.stages
    )
    b = TopKPolicy(m, 1).probabilities_batch(
        data.states, data.prev_actions, data.stages
    )
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# switch adjustment
# ---------------------------------------------------------------------------

def clamped(policy, states, prev_actions, stages) -> np.ndarray:
    """Per t>1 row, whether the policy's shifted switch probability leaves
    [0, 1], read from an evaluation of its model on those rows."""
    rows = SimpleNamespace(states=states, prev_actions=prev_actions, stages=stages)
    shifted = Evaluation(policy.model, rows).switch + policy.p1
    return (shifted < 0.0) | (shifted > 1.0)


def test_switch_adjustment_shifts_stay_probability():
    m = leaf_model([9, 1], [5, 3, 2])  # p_switch = 0.1
    pol = SwitchAdjustedPolicy(m, 3, 0.4)
    out = pol.probabilities_batch(ONE, [0], [2])[0]
    assert out[0] == 0.5
    assert clamped(pol, ONE, [0], [2]).sum() == 0


def test_switch_adjustment_clamps_and_counts():
    m = leaf_model([1, 9], [5, 3, 2])  # p_switch = 0.9
    pol = SwitchAdjustedPolicy(m, 3, 0.5)
    out = pol.probabilities_batch(ONE, [0], [2])[0]
    assert out[0] == 0.0
    assert clamped(pol, ONE, [0], [2]).sum() == 1
    assert clamped(pol, ONE, [0], [2]).mean() == 1.0


def test_switch_adjustment_zero_shift_matches_composition():
    data = make_cohort(24, n_traj=200)
    m = fit_dts(data, HP)
    pol = SwitchAdjustedPolicy(m, data.n_actions, 0.0)
    out = pol.probabilities_batch(data.states, data.prev_actions, data.stages)
    expect = m.action_probabilities_batch(data.states, data.prev_actions, data.stages)
    assert np.array_equal(out, expect)


def test_switch_adjustment_spreads_mass_over_top_k():
    m = leaf_model([5, 5], [1, 4, 3, 2])  # conditional from [0.1, 0.4, 0.3, 0.2]
    pol = SwitchAdjustedPolicy(m, 2, 0.2)
    out = pol.probabilities_batch(ONE, [0], [2])[0]
    # adjusted switch mass 0.7 over the top-2 of [_, 4/9, 3/9, 2/9]
    assert out[0] == pytest.approx(0.3, abs=1e-12)
    assert out[1] == pytest.approx(0.7 * 4.0 / 7.0, abs=1e-12)
    assert out[2] == pytest.approx(0.7 * 3.0 / 7.0, abs=1e-12)
    assert out[3] == 0.0


def test_switch_adjustment_is_inert_at_first_stage():
    m = leaf_model([5, 5], [5, 3, 2])
    pol = SwitchAdjustedPolicy(m, 3, 0.4)
    out = pol.probabilities_batch(ONE, [NONE_ACTION], [1])[0]
    assert out.tolist() == [0.5, 0.3, 0.2]


def test_switch_adjustment_rejects_single_tree_models():
    with pytest.raises(TypeError, match="dts or dtbls"):
        SwitchAdjustedPolicy(model_532(), 1, 0.1)


def test_adjust_switch_requeries_with_a_new_shift():
    m = leaf_model([9, 1], [5, 3, 2])
    base = TopKPolicy(m, 3)
    out = SwitchAdjustedPolicy(base.model, base.k, 0.4).probabilities_batch(ONE, [0], [2])[0]
    assert out[0] == 0.5
    # a zero shift reproduces the unadjusted top-k policy exactly
    unshifted = SwitchAdjustedPolicy(base.model, base.k, 0.0).probabilities_batch(ONE, [0], [2])[0]
    assert np.array_equal(unshifted, base.probabilities_batch(ONE, [0], [2])[0])


def test_p1_out_of_range_is_rejected():
    m = leaf_model([5, 5], [5, 3, 2])
    with pytest.raises(PolicyError, match=r"\[-1, 1\]"):
        SwitchAdjustedPolicy(m, 2, 1.5)


# ---------------------------------------------------------------------------
# random and softened
# ---------------------------------------------------------------------------

def test_stochastic_random_policy_is_uniform():
    pol = RandomPolicy(4)
    out = pol.probabilities_batch(np.zeros((5, 3)), [0, 1, 2, 3, -1], [2, 2, 2, 2, 1])
    assert np.array_equal(out, np.full((5, 4), 0.25))


def test_deterministic_random_policy_replays_identically():
    states = np.random.default_rng(0).normal(size=(200, 4))
    a = RandomPolicy(5, deterministic_seed=3).probabilities_batch(states, None, None)
    b = RandomPolicy(5, deterministic_seed=3).probabilities_batch(states, None, None)
    assert np.array_equal(a, b)
    assert np.all(a.sum(axis=1) == 1.0)
    assert np.all(a.max(axis=1) == 1.0)
    c = RandomPolicy(5, deterministic_seed=4).probabilities_batch(states, None, None)
    assert not np.array_equal(a, c)


def test_deterministic_random_policy_is_uniform_over_states():
    n, K = 10_000, 4
    states = np.random.default_rng(1).normal(size=(n, 3))
    out = RandomPolicy(K, deterministic_seed=0).probabilities_batch(states, None, None)
    counts = out.sum(axis=0)
    sigma = np.sqrt(n * (1 / K) * (1 - 1 / K))
    assert np.all(np.abs(counts - n / K) < 3 * sigma)


def test_softening_mixes_toward_uniform():
    pol = soften(RandomPolicy(25, deterministic_seed=7), 0.01)
    out = pol.probabilities_batch(np.random.default_rng(2).normal(size=(50, 3)),
                                  None, None)
    chosen = out.max(axis=1)
    assert np.all(chosen == 0.76)
    assert np.all(np.sort(out, axis=1)[:, :-1] == 0.01)


def test_softening_epsilon_zero_is_identity():
    base = TopKPolicy(model_532(), 2)
    assert soften(base, 0.0) is base
    wrapped = SoftenedPolicy(base, 0.0)
    a = wrapped.probabilities_batch(ONE, [NONE_ACTION], [1])[0]
    assert np.array_equal(a, base.probabilities_batch(ONE, [NONE_ACTION], [1])[0])


def test_softening_keeps_the_simplex():
    data = make_cohort(25, n_traj=100)
    m = fit_dt(data, HP)
    for eps in (0.01, 0.1, 1.0 / 3.0):
        pol = soften(TopKPolicy(m, 1), eps)
        out = pol.probabilities_batch(data.states, data.prev_actions, data.stages)
        assert np.all(out >= eps - 1e-15)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)


def test_softening_epsilon_bounds():
    base = TopKPolicy(model_532(), 1)
    for bad in (-0.01, 0.5):
        with pytest.raises(PolicyError, match="epsilon"):
            SoftenedPolicy(base, bad)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_build_policy_constructs_each_type():
    data = make_cohort(26, n_traj=150)
    m = fit_dts(data, HP)
    cases = [
        ({"type": "behavior"}, BehaviorPolicy),
        ({"type": "mc", "k": 2}, TopKPolicy),
        ({"type": "mc_o", "k": 1}, BestOutcomePolicy),
        ({"type": "mc_switch_adj", "k": 2, "p1": 0.3}, SwitchAdjustedPolicy),
        ({"type": "random"}, RandomPolicy),
    ]
    for desc, cls in cases:
        pol = build_policy(desc, m)
        assert isinstance(pol, cls)
        for key in ("k", "p1"):
            if key in desc:
                assert getattr(pol, key) == desc[key]


def test_build_policy_softens_on_request():
    m = model_532()
    pol = build_policy({"type": "mc", "k": 1, "epsilon": 0.05}, m)
    assert isinstance(pol, SoftenedPolicy)
    assert type(pol.inner) is TopKPolicy
    assert (pol.inner.k, pol.epsilon) == (1, 0.05)


def test_build_policy_validation_messages():
    m = model_532()
    with pytest.raises(PolicyError, match="valid types"):
        build_policy({"type": "dqn"}, m)
    with pytest.raises(PolicyError, match=r"\[1, 3\]"):
        build_policy({"type": "mc", "k": 7}, m)
    with pytest.raises(PolicyError, match=r"\[1, 3\]"):
        build_policy({"type": "mc_o"}, m)
    with pytest.raises(PolicyError, match="type"):
        build_policy({}, m)
    with pytest.raises(PolicyError, match="epsilon must be a number, got 'some'"):
        build_policy({"type": "mc", "k": 1, "epsilon": "some"}, m)
    with pytest.raises(PolicyError, match="p1 must be a number, got None"):
        build_policy({"type": "mc_switch_adj", "k": 1, "p1": None},
                     leaf_model([5, 5], [5, 3, 2]))
