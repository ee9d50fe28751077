"""Switch/stay composition, fitting filters, outcome lookups, round-trips."""

import json

import numpy as np
import pytest

from clinpol import behavior, tree
from clinpol.behavior import (
    COMPONENTS,
    MODEL_KINDS,
    BaselineSwitchModel,
    BehaviorError,
    DegenerateSwitchError,
    SwitchTreatmentModel,
    TreeBehaviorModel,
    TreeMemo,
    fit_dt,
    fit_dtbls,
    fit_dts,
    model_from_json,
    model_to_json,
)
from clinpol.calibration import fit_calibration
from clinpol.data import NONE_ACTION, StepData
from clinpol.errors import ClinpolError
from clinpol.metrics import auroc_macro
from clinpol.tree import TreeError, TreeHyperparams, attach_outcomes, fit_tree

HP = TreeHyperparams(max_depth=4, min_leaf_fraction=0.01)


def leaf_tree(labels, n_classes, rewards=None):
    """A single-leaf tree: constant feature admits no split, so the leaf's
    class frequencies are exactly the label frequencies."""
    y = np.asarray(labels, dtype=np.int64)
    X = np.zeros((len(y), 1))
    t = fit_tree(X, y, HP, n_classes=n_classes)
    assert t.depth() == 0
    if rewards is not None:
        t = attach_outcomes(t, X, y, np.asarray(rewards, dtype=np.float64))
    return t


def leaf_model(switch_counts, treat_counts, switch_rewards=None, treat_rewards=None):
    """dts model whose component probabilities are count ratios we choose."""
    sy = [0] * switch_counts[0] + [1] * switch_counts[1]
    ty = sum(([a] * c for a, c in enumerate(treat_counts)), [])
    return SwitchTreatmentModel({
        "switch": leaf_tree(sy, 2, switch_rewards),
        "treatment": leaf_tree(ty, len(treat_counts), treat_rewards),
    })


S = np.zeros(1)  # any state; single-leaf trees ignore it
ONE = S[None, :]  # that state as a one-row batch


# ---------------------------------------------------------------------------
# composition arithmetic
# ---------------------------------------------------------------------------

def test_composition_worked_example():
    m = leaf_model([8, 2], [5, 3, 2])
    out = m.action_probabilities_batch(ONE, [0], [2])[0]
    np.testing.assert_allclose(out, [0.8, 0.12, 0.08], rtol=0.0, atol=1e-12)
    # the stay entry is the exact complement, the rest exact products
    assert out[0] == 1.0 - 0.2
    assert out[1] == 0.2 * (0.3 / 0.5)
    assert out[2] == 0.2 * (0.2 / 0.5)


def test_composition_never_switch_is_one_hot_on_prev():
    m = leaf_model([10, 0], [5, 3, 2])
    out = m.action_probabilities_batch(ONE, [1], [3])[0]
    assert out.tolist() == [0.0, 1.0, 0.0]


def test_composition_always_switch_equals_conditional():
    m = leaf_model([0, 10], [5, 3, 2])
    out = m.action_probabilities_batch(ONE, [0], [2])[0]
    cond = m.conditional_switch_batch(ONE, [0])[0]
    assert np.array_equal(out, cond)
    assert out[0] == 0.0


def test_conditional_excludes_prev_and_renormalizes():
    m = leaf_model([5, 5], [5, 3, 2])
    cond = m.conditional_switch_batch(S[None, :], [0])[0]
    assert cond[0] == 0.0
    assert cond[1] == 0.3 / 0.5
    assert cond[2] == 0.2 / 0.5


def test_conditional_two_actions_is_forced():
    m = leaf_model([5, 5], [7, 3])
    cond = m.conditional_switch_batch(S[None, :], [1])[0]
    assert cond.tolist() == [1.0, 0.0]


def test_conditional_one_hot_on_prev_falls_back_to_uniform():
    m = leaf_model([5, 5], [10, 0, 0])
    cond = m.conditional_switch_batch(ONE, [0])[0]
    assert cond.tolist() == [0.0, 0.5, 0.5]
    # the count comes back with the composition it belongs to; the model
    # itself keeps no counter, so a second query counts the same
    for _ in range(2):
        parts = {}
        out = m.action_probabilities_batch(np.zeros((3, 1)), [0, 0, NONE_ACTION],
                                           [2, 3, 1], parts)
        assert parts["uniform_fallbacks"] == 2
        assert np.array_equal(parts["conditional"], [[0.0, 0.5, 0.5]] * 2)
        assert out[0].tolist() == [0.5, 0.25, 0.25]
    parts = {}
    m.action_probabilities_batch(ONE, [1], [2], parts)
    assert parts["uniform_fallbacks"] == 0


def test_conditional_requires_a_previous_action():
    m = leaf_model([5, 5], [5, 3, 2])
    with pytest.raises(BehaviorError):
        m.conditional_switch_batch(S[None, :], [NONE_ACTION])


def test_first_stage_uses_raw_treatment_distribution():
    m = leaf_model([8, 2], [5, 3, 2])
    out = m.action_probabilities_batch(ONE, [NONE_ACTION], [1])[0]
    assert out.tolist() == [0.5, 0.3, 0.2]


def test_stage_and_prev_action_must_agree():
    m = leaf_model([8, 2], [5, 3, 2])
    with pytest.raises(BehaviorError):
        m.action_probabilities_batch(ONE, [NONE_ACTION], [2])
    with pytest.raises(BehaviorError):
        m.action_probabilities_batch(ONE, [1], [1])
    with pytest.raises(BehaviorError):
        m.action_probabilities_batch(ONE, [NONE_ACTION], [0])


# ---------------------------------------------------------------------------
# synthetic cohorts for fitting tests
# ---------------------------------------------------------------------------

def make_cohort(seed, n_traj=300, horizon=4, n_actions=3, switch_bias=0.0):
    """Hand-rolled sequential records with a learnable assignment rule.

    First treatment follows the sign of x0; later stages switch with
    probability sigmoid(2*x1 + switch_bias) and, when switching, prefer
    action 2 if x2 > 0, else the next action id.
    """
    rng = np.random.default_rng(seed)
    d = 3
    states, actions, rewards, prevs, stages, tindex = [], [], [], [], [], []
    for i in range(n_traj):
        x = rng.normal(size=d)
        prev = NONE_ACTION
        for t in range(1, horizon + 1):
            x = 0.9 * x + 0.3 * rng.normal(size=d)
            if t == 1:
                a = 0 if x[0] < 0.0 else 1
                if rng.random() < 0.1:
                    a = int(rng.integers(n_actions))
            else:
                p_switch = 1.0 / (1.0 + np.exp(-(2.0 * x[1] + switch_bias)))
                if rng.random() < p_switch:
                    a = 2 if x[2] > 0.0 else (prev + 1) % n_actions
                    if a == prev:
                        a = (a + 1) % n_actions
                else:
                    a = prev
            onehot = np.zeros(n_actions + 1)
            onehot[prev if prev != NONE_ACTION else n_actions] = 1.0
            states.append(np.concatenate([x, onehot]))
            actions.append(a)
            rewards.append(float(x[0] + 0.5 * (a == 2) + 0.1 * rng.normal()))
            prevs.append(prev)
            stages.append(t)
            tindex.append(i)
            prev = a
    names = ["x0", "x1", "x2"] + [f"prev={a}" for a in range(n_actions)] + ["prev=none"]
    return StepData(
        states=np.asarray(states),
        actions=np.asarray(actions, dtype=np.int64),
        rewards=np.asarray(rewards),
        prev_actions=np.asarray(prevs, dtype=np.int64),
        stages=np.asarray(stages, dtype=np.int64),
        traj_index=np.asarray(tindex, dtype=np.int64),
        traj_ids=[f"p{i}" for i in range(n_traj)],
        n_actions=n_actions,
        feature_names=names,
    )


def test_composition_simplex_sweep():
    data = make_cohort(7, n_traj=250)
    dts = fit_dts(data, HP, HP)
    dtbls = fit_dtbls(data, HP, HP, HP)
    rng = np.random.default_rng(11)
    n = 2000
    qs = rng.normal(size=(n, data.states.shape[1]))
    prev = rng.integers(0, 3, size=n)
    t = np.full(n, 2)
    t[:100] = 1
    prev_q = prev.astype(np.int64)
    prev_q[:100] = NONE_ACTION
    for model in (dts, dtbls):
        out = model.action_probabilities_batch(qs, prev_q, t)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
        # the stay entry is the exact switch-probability complement
        ps = model.switch_probability_batch(qs[100:])
        assert np.array_equal(out[np.arange(100, n), prev_q[100:]], 1.0 - ps)


def test_fit_dts_rejects_cohort_without_followups():
    data = make_cohort(1, n_traj=40, horizon=1)
    with pytest.raises(DegenerateSwitchError, match="no follow-up records"):
        fit_dts(data, HP, HP)


def test_fit_dts_rejects_cohort_without_switches():
    data = make_cohort(2, n_traj=40, switch_bias=-40.0)
    assert np.all(data.subset(data.stages > 1).switch_labels() == 0)
    with pytest.raises(DegenerateSwitchError, match="no treatment changes"):
        fit_dts(data, HP, HP)


def test_treatment_tree_fits_only_switch_events():
    data = make_cohort(3)
    follow = data.subset(data.stages > 1)
    n_switch = int(follow.switch_labels().sum())
    m = fit_dts(data, HP, HP)
    assert m.trees["treatment"].n_train == n_switch
    assert m.trees["switch"].n_train == len(follow)


def test_a_stay_event_in_the_treatment_set_is_a_bug_not_a_domain_error(monkeypatch):
    data = make_cohort(3)
    # a broken switch labelling that calls every follow-up step a switch
    monkeypatch.setattr(StepData, "switch_labels",
                        lambda self: np.ones(len(self), dtype=np.int64))
    with pytest.raises(RuntimeError, match="stay event") as info:
        fit_dts(data, HP, HP)
    assert not isinstance(info.value, ValueError)


def test_follow_up_queries_copy_no_state_rows(monkeypatch):
    data = make_cohort(3)
    follow = data.subset(data.stages > 1)
    dts, dtbls = fit_dts(data, HP, HP), fit_dtbls(data, HP, HP, HP)
    seen = []

    def spy(name):
        real = getattr(tree.DecisionTree, name)

        def query(self, X):
            seen.append((self, X))
            return real(self, X)
        return query

    for name in ("predict_proba_batch", "outcome_avg_batch"):
        monkeypatch.setattr(tree.DecisionTree, name, spy(name))
    # every row is a follow-up: both trees get the caller's states object
    dts.action_probabilities_batch(follow.states, follow.prev_actions, follow.stages)
    assert [t for t, _ in seen] == [dts.trees["switch"], dts.trees["treatment"]]
    assert all(X is follow.states for _, X in seen)
    seen.clear()
    dts.outcome_batch(follow.states, follow.prev_actions, follow.stages)
    assert len(seen) == 2 and all(X is follow.states for _, X in seen)
    # with first stages present, one copy of the t>1 rows serves both trees
    seen.clear()
    dtbls.action_probabilities_batch(data.states, data.prev_actions, data.stages)
    assert [t for t, _ in seen] == list(dtbls.trees.values())
    assert list(dtbls.trees) == ["baseline", "switch", "treatment"]
    assert seen[1][1] is seen[2][1]
    np.testing.assert_array_equal(seen[1][1], follow.states)


def test_fit_dtbls_rejects_cohort_without_first_stage():
    data = make_cohort(4)
    no_first = data.subset(data.stages > 1)
    with pytest.raises(BehaviorError, match="first-stage"):
        fit_dtbls(no_first, HP, HP, HP)


def test_dtbls_first_stage_comes_from_baseline_tree():
    data = make_cohort(5)
    m = fit_dtbls(data, HP, HP, HP)
    first = data.subset(data.stages == 1)
    out = m.action_probabilities_batch(
        first.states, first.prev_actions, first.stages
    )
    expect = m.trees["baseline"].predict_proba_batch(first.states)
    assert np.array_equal(out, expect)
    # and follow-up queries agree with the switch composition of a dts model
    # made of the same switch and treatment trees
    follow = data.subset(data.stages > 1)
    out2 = m.action_probabilities_batch(
        follow.states, follow.prev_actions, follow.stages
    )
    dts = SwitchTreatmentModel({name: m.trees[name] for name in ("switch", "treatment")})
    inner = dts.action_probabilities_batch(
        follow.states, follow.prev_actions, follow.stages
    )
    assert np.array_equal(out2, inner)


def test_dt_probabilities_are_leaf_frequencies():
    data = make_cohort(6, n_traj=120)
    m = fit_dt(data, HP)
    out = m.action_probabilities_batch(data.states, data.prev_actions, data.stages)
    assert np.array_equal(out, m.trees["tree"].predict_proba_batch(data.states))


def test_models_recover_the_assignment_rule():
    train = make_cohort(8, n_traj=400)
    test = make_cohort(9, n_traj=200)
    for m in (fit_dt(train, HP), fit_dtbls(train, HP, HP, HP)):
        scores = m.action_probabilities_batch(test.states, test.prev_actions, test.stages)
        assert auroc_macro(scores, test.actions) > 0.8
    # dts has no first-stage component of its own, so score it where the
    # switch composition applies
    follow = test.subset(test.stages > 1)
    m = fit_dts(train, HP, HP)
    scores = m.action_probabilities_batch(follow.states, follow.prev_actions,
                                          follow.stages)
    assert auroc_macro(scores, follow.actions) > 0.8


# ---------------------------------------------------------------------------
# outcome lookups
# ---------------------------------------------------------------------------

def test_outcome_stay_averages_switch_tree_rewards():
    # follow-up records: two stays (rewards 2 and 4), two switches to action 1
    # (rewards 1 and 5); all states identical so every record shares a leaf
    m = leaf_model([2, 2], [0, 2, 0],
                   switch_rewards=[2.0, 4.0, 1.0, 5.0], treat_rewards=[1.0, 5.0])
    follow = m.outcome_batch(ONE, [0], [2])[0]
    assert follow[0] == 3.0                      # stay on 0: mean of {2, 4}
    assert follow[1] == 3.0                      # switch to 1: mean of {1, 5}
    assert np.isnan(follow[2])                   # action 2 never taken
    first = m.outcome_batch(ONE, [NONE_ACTION], [1])[0]
    assert first[1] == 3.0                       # t=1 reads the raw treatment tree
    assert np.isnan(first[0])


def test_outcome_batch_matches_groupby_oracle():
    data = make_cohort(10, n_traj=200)
    m = fit_dts(data, HP, HP)
    follow = data.subset(data.stages > 1)
    labels = follow.switch_labels()
    switched = follow.subset(labels == 1)

    # brute-force per-(leaf, class) reward means from the fitting records
    def groupby(tree, states, classes, rewards):
        leaves = tree.leaf_index_batch(states)
        table = {}
        for lf, c, r in zip(leaves, classes, rewards):
            table.setdefault((int(lf), int(c)), []).append(r)
        return {k: float(np.mean(v)) for k, v in table.items()}

    treat_avg = groupby(m.trees["treatment"], switched.states, switched.actions,
                        switched.rewards)
    stay_avg = groupby(m.trees["switch"], follow.states, labels, follow.rewards)

    out = m.outcome_batch(follow.states, follow.prev_actions, follow.stages)
    t_leaves = m.trees["treatment"].leaf_index_batch(follow.states)
    s_leaves = m.trees["switch"].leaf_index_batch(follow.states)
    for i in range(len(follow)):
        prev = int(follow.prev_actions[i])
        for a in range(data.n_actions):
            if a == prev:
                want = stay_avg.get((int(s_leaves[i]), 0))
            else:
                want = treat_avg.get((int(t_leaves[i]), a))
            got = out[i, a]
            if want is None:
                assert np.isnan(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)


def test_outcome_first_stage_dtbls_reads_baseline_tree():
    data = make_cohort(12, n_traj=200)
    m = fit_dtbls(data, HP, HP, HP)
    first = data.subset(data.stages == 1)
    out = m.outcome_batch(first.states, first.prev_actions, first.stages)
    expect = m.trees["baseline"].outcome_avg_batch(first.states)
    assert np.array_equal(np.isnan(out), np.isnan(expect))
    assert np.array_equal(out[~np.isnan(out)], expect[~np.isnan(expect)])


# ---------------------------------------------------------------------------
# calibration hooks
# ---------------------------------------------------------------------------

FIT = {"dt": lambda data, val=None: fit_dt(data, HP, val),
       "dts": lambda data, val=None: fit_dts(data, HP, HP, val),
       "dtbls": lambda data, val=None: fit_dtbls(data, HP, HP, HP, val)}


def test_calibrate_fits_each_component_on_its_own_records():
    train = make_cohort(13, n_traj=400)
    val = make_cohort(14, n_traj=200)
    # each component's validation rows and labels, picked by hand
    first, later = val.stages == 1, val.stages > 1
    switched = later & (val.actions != val.prev_actions)
    rows = {"tree": (np.ones(len(val), dtype=bool), val.actions),
            "baseline": (first, val.actions[first]),
            "switch": (later, switched[later].astype(np.int64)),
            "treatment": (switched, val.actions[switched])}
    for kind in MODEL_KINDS:
        m = FIT[kind](train, val=val)
        assert list(m.calibrations) == list(m.trees) == list(COMPONENTS[kind])
        for name, component in m.trees.items():
            mask, labels = rows[name]
            want = fit_calibration(component.predict_proba_batch(val.states[mask]),
                                   labels)
            assert not np.all(m.calibrations[name].identity)
            assert m.calibrations[name].to_json() == want.to_json(), (kind, name)
        out = m.action_probabilities_batch(val.states, val.prev_actions, val.stages)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)


def test_calibrate_skipped_on_tiny_validation_set():
    train = make_cohort(15, n_traj=150)
    val = train.subset(np.arange(len(train)) == 0)
    m = fit_dt(train, HP, val=val)
    assert np.all(m.calibrations["tree"].identity)


def test_calibration_keeps_boundary_switch_dominance():
    train = make_cohort(16, n_traj=500)
    val = make_cohort(17, n_traj=250)
    deep = TreeHyperparams(max_depth=8, min_leaf_fraction=0.01)
    m = fit_dts(train, deep, deep, val=val)
    raw = m.trees["switch"].predict_proba_batch(val.states)[:, 1]
    cal = m.switch_probability_batch(val.states)
    sure_stay = raw == 0.0
    sure_switch = raw == 1.0
    assert sure_stay.any() or sure_switch.any()
    assert np.all(cal[sure_stay] < 0.5)
    assert np.all(cal[sure_switch] > 0.5)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def fitted_models():
    train = make_cohort(18, n_traj=250)
    val = make_cohort(19, n_traj=120)
    return [
        fit_dt(train, HP, val=val),
        fit_dts(train, HP, HP, val=val),
        fit_dtbls(train, HP, HP, HP, val=val),
    ]


def test_json_roundtrip_reproduces_every_query():
    probe = make_cohort(20, n_traj=80)
    for m in fitted_models():
        blob = json.dumps(model_to_json(m), sort_keys=True)
        m2 = model_from_json(json.loads(blob))
        assert type(m2) is type(m)
        assert m2.n_actions == m.n_actions
        a = m.action_probabilities_batch(probe.states, probe.prev_actions, probe.stages)
        b = m2.action_probabilities_batch(probe.states, probe.prev_actions, probe.stages)
        assert np.array_equal(a, b)
        oa = m.outcome_batch(probe.states, probe.prev_actions, probe.stages)
        ob = m2.outcome_batch(probe.states, probe.prev_actions, probe.stages)
        assert np.array_equal(np.isnan(oa), np.isnan(ob))
        assert np.array_equal(oa[~np.isnan(oa)], ob[~np.isnan(ob)])
        # serialization itself is deterministic
        assert json.dumps(model_to_json(m2), sort_keys=True) == blob


def test_rejects_other_format_versions():
    m = leaf_model([8, 2], [5, 3, 2])
    obj = model_to_json(m)
    obj["version"] = 99
    with pytest.raises(BehaviorError, match="version"):
        model_from_json(obj)


@pytest.mark.parametrize("edit, key", [
    (lambda obj: [obj], "JSON object"),
    (lambda obj: dict(obj, trees=None), "'trees'"),
    (lambda obj: {k: v for k, v in obj.items() if k != "trees"}, "'trees'"),
    (lambda obj: dict(obj, calibration=[]), "'calibration'"),
    (lambda obj: {k: v for k, v in obj.items() if k != "calibration"}, "'calibration'"),
    (lambda obj: dict(obj, trees={}), r"trees\['switch'\]"),
    (lambda obj: dict(obj, trees=dict(obj["trees"], treatment=[])), r"trees\['treatment'\]"),
    (lambda obj: dict(obj, calibration={"switch": obj["calibration"]["switch"]}),
     r"calibration\['treatment'\]"),
    (lambda obj: dict(obj, kind="dt"), r"trees\['tree'\]"),
    (lambda obj: dict(obj, kind=["dts"]), "unknown model kind"),
])
def test_malformed_envelopes_raise_a_behavior_error_naming_the_key(edit, key):
    obj = json.loads(json.dumps(model_to_json(leaf_model([8, 2], [5, 3, 2]))))
    with pytest.raises(BehaviorError, match=key):
        model_from_json(edit(obj))


def test_kind_tags():
    dt, dts, dtbls = fitted_models()
    assert (dt.kind, dts.kind, dtbls.kind) == ("dt", "dts", "dtbls")
    assert isinstance(dt, TreeBehaviorModel)
    assert isinstance(dtbls, BaselineSwitchModel)


# ---------------------------------------------------------------------------
# the deep-tree memo
# ---------------------------------------------------------------------------

def test_memoized_fits_equal_fresh_fits():
    data = make_cohort(6)
    cands = [TreeHyperparams(max_depth=d, min_leaf_fraction=f)
             for d, f in ((2, 0.02), (5, 0.02), (3, 0.05), (4, 0.02))]
    memo = TreeMemo(data, cands)
    for hp in cands:
        a = fit_dtbls(data, hp, hp, hp, memo=memo)
        b = fit_dtbls(data, hp, hp, hp)
        assert json.dumps(model_to_json(a)) == json.dumps(model_to_json(b))


def test_memo_shares_one_split_search_per_component(monkeypatch):
    data = make_cohort(6)
    cands = [TreeHyperparams(max_depth=9, min_leaf_fraction=f)
             for f in (0.03, 0.01, 0.05, 0.02, 0.04)]
    searches = []
    built = []
    real_search, real_init = tree.SplitSearch._search, tree.SplitSearch.__init__

    def counted_search(self, *args):
        searches.append(self)
        return real_search(self, *args)

    def counted_init(self, *args):
        built.append(self)
        real_init(self, *args)

    monkeypatch.setattr(tree.SplitSearch, "_search", counted_search)
    monkeypatch.setattr(tree.SplitSearch, "__init__", counted_init)
    memo = TreeMemo(data, cands)
    shared = [model_to_json(fit_dtbls(data, hp, hp, hp, memo=memo)) for hp in cands]
    n_shared, n_built = len(searches), len(built)
    private = [model_to_json(fit_dtbls(data, hp, hp, hp)) for hp in cands]
    assert shared == private
    # one search per component (baseline, switch, treatment) serves all five
    assert n_built == 3
    assert len(built) - n_built == 15
    assert 0 < n_shared < len(searches) - n_shared


def test_memo_takes_each_fitting_set_once(monkeypatch):
    data = make_cohort(6)
    cands = [TreeHyperparams(max_depth=d, min_leaf_fraction=0.02) for d in (2, 5, 3)]
    subsets = []
    real_subset = StepData.subset

    def counted_subset(self, mask):
        subsets.append(len(self))
        return real_subset(self, mask)

    monkeypatch.setattr(StepData, "subset", counted_subset)
    memo = TreeMemo(data, cands)
    for hp in cands:
        fit_dtbls(data, hp, hp, hp, memo=memo)
    # t=1 rows and follow-up rows of data, switch events of the follow-ups
    assert len(subsets) == 3
    subsets.clear()
    for hp in cands:
        fit_dtbls(data, hp, hp, hp)
    assert len(subsets) == 3 * len(cands)


@pytest.mark.parametrize("cohort, message", [
    (dict(seed=1, n_traj=40, horizon=1), "no follow-up records"),
    (dict(seed=2, n_traj=40, switch_bias=-40.0), "no treatment changes"),
])
def test_memo_raises_a_degenerate_switch_set_on_every_draw(cohort, message):
    data = make_cohort(**cohort)
    cands = [TreeHyperparams(max_depth=d, min_leaf_fraction=0.02) for d in (2, 4, 2)]
    memo = TreeMemo(data, cands)
    for hp in cands:
        with pytest.raises(DegenerateSwitchError, match=message):
            fit_dts(data, hp, hp, memo=memo)


def test_memo_replays_a_failed_deep_fit_for_every_candidate():
    data = make_cohort(7, n_traj=20)
    cands = [TreeHyperparams(max_depth=d, min_leaf_fraction=0.02) for d in (2, 6)]
    memo = TreeMemo(data, cands)
    grown = []

    def grow(hp):
        grown.append(hp)
        raise TreeError("cannot grow")

    for hp in cands:
        with pytest.raises(TreeError, match="cannot grow"):
            memo.deep_tree("tree", hp, grow)
    assert grown == [TreeHyperparams(max_depth=6, min_leaf_fraction=0.02)]


def test_memo_hands_a_drawn_cell_the_same_cut_trees():
    data = make_cohort(6)
    val = make_cohort(9, n_traj=80)
    cands = [TreeHyperparams(max_depth=3, min_leaf_fraction=0.02),
             TreeHyperparams(max_depth=3, min_leaf_fraction=0.02),
             TreeHyperparams(max_depth=9, min_leaf_fraction=0.02)]
    memo = TreeMemo(data, cands)
    first, again, deeper = (fit_dtbls(data, hp, hp, hp, memo=memo) for hp in cands)
    assert first is not again
    for name in ("baseline", "switch", "treatment"):
        assert first.trees[name] is again.trees[name]
        assert first.trees[name] is not deeper.trees[name]
    assert len(memo.cuts) == 6
    # calibration lives on the model: calibrating one sharer leaves the other raw
    before = again.action_probabilities_batch(val.states, val.prev_actions, val.stages)
    first.calibrate(val)
    np.testing.assert_array_equal(
        again.action_probabilities_batch(val.states, val.prev_actions, val.stages), before)
    fresh = fit_dtbls(data, cands[0], cands[0], cands[0])
    assert json.dumps(model_to_json(again)) == json.dumps(model_to_json(fresh))


def test_memo_raises_a_failed_fraction_for_each_of_its_candidates(monkeypatch):
    data = make_cohort(6)
    grown = []
    real_fit_tree = behavior.fit_tree

    def failing_fit_tree(X, y, hp, **kwargs):
        grown.append(hp)
        if hp.min_leaf_fraction == 0.04:
            raise TreeError("cannot grow at 0.04")
        return real_fit_tree(X, y, hp, **kwargs)

    monkeypatch.setattr(behavior, "fit_tree", failing_fit_tree)
    cands = [TreeHyperparams(max_depth=d, min_leaf_fraction=f)
             for d, f in ((3, 0.04), (5, 0.02), (3, 0.04), (2, 0.04))]
    memo = TreeMemo(data, cands)
    for hp in cands:
        if hp.min_leaf_fraction == 0.04:
            with pytest.raises(TreeError, match="cannot grow"):
                fit_dt(data, hp, memo=memo)
        else:
            fit_dt(data, hp, memo=memo)
    assert len(grown) == 2


def test_memo_lets_a_bare_value_error_propagate():
    data = make_cohort(7, n_traj=20)
    hp = TreeHyperparams(max_depth=3, min_leaf_fraction=0.02)
    memo = TreeMemo(data, [hp])

    def grow(deep_hp):
        raise ValueError("operands could not be broadcast together")

    with pytest.raises(ValueError, match="broadcast") as info:
        memo.deep_tree("tree", hp, grow)
    assert not isinstance(info.value, ClinpolError)


def test_memo_refuses_other_data_and_undrawn_candidates():
    data = make_cohort(8, n_traj=40)
    memo = TreeMemo(data, [HP])
    with pytest.raises(RuntimeError, match="different fitting set"):
        fit_dt(make_cohort(8, n_traj=40), HP, memo=memo)
    for hp in (TreeHyperparams(max_depth=HP.max_depth + 1,
                               min_leaf_fraction=HP.min_leaf_fraction),
               TreeHyperparams(max_depth=1, min_leaf_fraction=0.2)):
        with pytest.raises(RuntimeError, match="grows no tree as deep"):
            fit_dt(data, hp, memo=memo)
