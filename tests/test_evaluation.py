"""One evaluation record per (model, steps): exactness, call counts, refusals."""

import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from clinpol import cli, harness
from clinpol.behavior import (
    COMPONENTS,
    BaselineSwitchModel,
    Evaluation,
    SwitchTreatmentModel,
    TreeBehaviorModel,
    fit_dt,
    fit_dtbls,
    fit_dts,
)
from clinpol.calibration import CalibrationModel, apply_calibration_batch
from clinpol.data import NONE_ACTION, StepData
from clinpol.ope import ESTIMATORS, importance_weights
from clinpol.policies import RandomPolicy, SwitchAdjustedPolicy, TopKPolicy, build_policy
from clinpol.sim import ChronicSimConfig
from test_behavior import FIT, HP, make_cohort, subset


def fitted(kind, train, val=None):
    """A ``kind`` model fitted on ``train`` at ``HP``, calibrated on ``val`` if given."""
    model = FIT[kind](train, HP)
    return model if val is None else model.calibrate(val)


def take_trajectories(data: StepData, keep) -> StepData:
    """The trajectories ``keep`` (positions in ``traj_ids``), re-indexed."""
    keep = np.asarray(keep)
    rows = np.isin(data.traj_index, keep)
    new_index = np.full(len(data.traj_ids), -1)
    new_index[keep] = np.arange(len(keep))
    part = subset(data, rows)
    return replace(part, traj_index=new_index[part.traj_index],
                   traj_ids=[data.traj_ids[j] for j in keep])


def append_trajectory(data: StepData, states, actions, traj_id) -> StepData:
    n = len(actions)
    return StepData(
        states=np.concatenate([data.states, np.asarray(states)]),
        actions=np.concatenate([data.actions, actions]),
        rewards=np.concatenate([data.rewards, np.ones(n)]),
        prev_actions=np.concatenate([data.prev_actions, [NONE_ACTION, *actions[:-1]]]),
        stages=np.concatenate([data.stages, np.arange(1, n + 1)]),
        traj_index=np.concatenate([data.traj_index, np.full(n, len(data.traj_ids))]),
        traj_ids=[*data.traj_ids, traj_id],
        n_actions=data.n_actions,
        feature_names=data.feature_names,
    )


def evaluation_data(model, data: StepData) -> StepData:
    """``data``'s trajectories that the model supports, plus, for switch
    models, one whose second step is one-hot on its previous action in the
    treatment tree, so the conditional switch distribution falls back to
    uniform there."""
    probs = model.action_probabilities_batch(data.states, data.prev_actions, data.stages)
    logged = probs[np.arange(len(data)), data.actions]
    unsupported = np.unique(data.traj_index[logged <= 0.0])
    out = take_trajectories(data, np.setdiff1d(np.arange(data.n_trajectories), unsupported))
    return out if model.kind == "dt" else with_fallback_row(model, out)


def with_fallback_row(model, out: StepData) -> StepData:
    """``out`` plus one trajectory whose second step falls back to uniform."""
    treat = model.trees["treatment"].predict_proba_batch(out.states)
    p_switch = model.switch_probability_batch(out.states)
    first = np.flatnonzero(out.stages == 1)
    for r in np.flatnonzero((treat.max(axis=1) == 1.0) & (p_switch < 1.0)):
        a = int(np.argmax(treat[r]))
        starts = first[out.actions[first] == a]
        if len(starts):
            return append_trajectory(out, out.states[[starts[0], r]],
                                     np.array([a, a]), "fallback")
    raise AssertionError("no state is one-hot in the treatment tree")


def descriptors(kind, n_actions):
    out = [{"type": "behavior"}, {"type": "random"}, {"type": "random", "seed": 4}]
    out += [{"type": "mc", "k": k} for k in range(1, n_actions + 1)]
    out += [{"type": "mc_o", "k": k} for k in (1, 2)]
    if kind != "dt":
        out += [{"type": "mc_switch_adj", "k": k, "p1": p1}
                for k in (1, 2, n_actions) for p1 in (-0.6, 0.0, 0.1, 0.6)]
    return out + [dict(d, epsilon=0.05) for d in out]


def top_k_sets(p, k):
    """Each row's actions by descending probability (ties to the lower id),
    and the mask of its first k."""
    order = np.argsort(-p, axis=1, kind="stable")
    keep = np.zeros(p.shape, dtype=bool)
    np.put_along_axis(keep, order[:, :k], True, axis=1)
    return order, keep


def top_k(p, k):
    """Each row of ``p`` restricted to its k most probable actions and
    renormalized; ``p`` itself when k is every action."""
    if k == p.shape[1]:
        return p
    restricted = np.where(top_k_sets(p, k)[1], p, 0.0)
    return restricted / restricted.sum(axis=1, keepdims=True)


def reference_probs(desc, model, data: StepData) -> np.ndarray:
    """``desc``'s target distribution by each policy's own arithmetic (top-k,
    best outcome, switch shift, softening) on the :func:`row_path` arrays."""
    p, ps, q, o = row_path(model, data)
    K, kind = data.n_actions, desc["type"]
    if kind == "behavior":
        out = p
    elif kind == "mc":
        out = top_k(p, desc["k"])
    elif kind == "mc_o":
        order, in_top = top_k_sets(p, desc["k"])
        candidates = np.where(in_top & ~np.isnan(o), o, -np.inf)
        best = np.argmax(candidates, axis=1)
        no_data = ~np.isfinite(candidates.max(axis=1))
        best[no_data] = order[no_data, 0]
        out = np.zeros_like(p)
        out[np.arange(len(p)), best] = 1.0
    elif kind == "mc_switch_adj":
        first, rest = data.stages == 1, data.stages > 1
        out = np.empty_like(p)
        out[first] = top_k(p[first], desc["k"])
        shifted = np.clip(ps + desc["p1"], 0.0, 1.0)
        adjusted = shifted[:, None] * top_k(q, desc["k"])
        adjusted[np.arange(len(ps)), data.prev_actions[rest]] = 1.0 - shifted
        out[rest] = adjusted
    else:
        out = RandomPolicy(K, desc.get("seed")).probabilities_batch(data.states, None, None)
    eps = desc.get("epsilon", 0.0)
    return out if eps == 0.0 else (1.0 - K * eps) * out + eps


def clamped_rows(desc, evaluation) -> int:
    """How many t>1 rows ``desc``'s switch shift pushes out of [0, 1]."""
    if desc["type"] != "mc_switch_adj":
        return 0
    shifted = evaluation.switch + desc["p1"]
    return int(np.sum((shifted < 0.0) | (shifted > 1.0)))


@pytest.mark.parametrize("calibrated", [False, True], ids=["raw", "calibrated"])
@pytest.mark.parametrize("kind", ["dt", "dts", "dtbls"])
def test_record_path_is_bitwise_equal_to_the_per_policy_path(kind, calibrated):
    train = make_cohort(40, n_traj=200)
    model = fitted(kind, train, make_cohort(140, n_traj=100) if calibrated else None)
    data = evaluation_data(model, make_cohort(41, n_traj=150))
    assert np.any(data.stages == 1) and np.any(data.stages > 1)
    evaluation = Evaluation(model, data)
    if kind != "dt" and not calibrated:
        assert evaluation.uniform_fallbacks > 0  # the fallback row is in there
    clamped = 0
    for desc in descriptors(kind, data.n_actions):
        alone, shared = build_policy(desc, model), build_policy(desc, model)
        args = (data.states, data.prev_actions, data.stages)
        want = reference_probs(desc, model, data).tobytes()
        assert alone.probabilities_batch(*args).tobytes() == want, desc
        assert shared.probabilities_batch(*args, evaluation=evaluation).tobytes() == want, desc
        a = importance_weights(alone, model, data)
        b = importance_weights(shared, model, data, evaluation)
        assert a.weights.tobytes() == b.weights.tobytes(), desc
        assert a.returns.tobytes() == b.returns.tobytes()
        assert np.array_equal(a.lengths, b.lengths)
        assert len(a) == len(b) == data.n_trajectories
        for estimate in ESTIMATORS.values():
            if np.any(a.weights > 0.0):
                ra, rb = estimate(a), estimate(b)
                assert (ra.value, ra.ess, ra.n) == (rb.value, rb.ess, rb.n), desc
        clamped += clamped_rows(desc, evaluation)
    assert (clamped > 0) == (kind != "dt")


def row_path(model, data: StepData):
    """``(probs, switch, conditional, outcomes)`` the way the model once
    computed them: each component's rows copied out of the states, routed,
    and then calibrated row by row."""
    def probs(name, X):
        raw = model.trees[name].predict_proba_batch(X)
        cal = model.calibrations[name]
        return raw if np.all(cal.identity) else apply_calibration_batch(cal, raw)

    X = data.states
    if model.kind == "dt":
        return probs("tree", X), None, None, model.trees["tree"].outcome_avg_batch(X)
    start = "baseline" if model.kind == "dtbls" else "treatment"
    first, rest = data.stages == 1, data.stages > 1
    follow, prev = X[rest], data.prev_actions[rest]
    at = np.arange(len(follow))
    p = np.empty((len(X), data.n_actions))
    p[first] = probs(start, X[first])
    ps = probs("switch", follow)[:, 1]
    q = probs("treatment", follow).copy()
    q[at, prev] = 0.0
    denom = q.sum(axis=1)
    bad = denom <= 0.0
    q[bad] = 1.0 / (data.n_actions - 1)
    q[at[bad], prev[bad]] = 0.0
    denom[bad] = q[bad].sum(axis=1)
    q = q / denom[:, None]
    composed = ps[:, None] * q
    composed[at, prev] = 1.0 - ps
    p[rest] = composed
    o = np.empty_like(p)
    o[first] = model.trees[start].outcome_avg_batch(X[first])
    o[rest] = model.trees["treatment"].outcome_avg_batch(follow)
    o[np.flatnonzero(rest), prev] = model.trees["switch"].outcome_avg_batch(follow)[:, 0]
    return p, ps, q, o


def handmade_calibration(n_classes):
    """Class 0 identity, class 1 a sigmoid that underflows to 0.0 on every
    score, any further class an ordinary sigmoid."""
    slope = np.array([1.0, 1.0] + [3.0] * (n_classes - 2))
    intercept = np.array([0.0, -1000.0] + [-1.0] * (n_classes - 2))
    identity = np.arange(n_classes) == 0
    return CalibrationModel(slope=slope, intercept=intercept, identity=identity)


@pytest.mark.parametrize("calibration", ["raw", "fitted", "handmade"])
@pytest.mark.parametrize("kind", ["dt", "dts", "dtbls"])
def test_leaf_tables_give_the_row_path_bit_for_bit(kind, calibration):
    val = make_cohort(140, n_traj=100) if calibration == "fitted" else None
    model = fitted(kind, make_cohort(40, n_traj=200), val)
    if calibration == "handmade":
        for name in COMPONENTS[kind]:
            model.calibrations[name] = handmade_calibration(model.trees[name].n_classes)
    data = make_cohort(41, n_traj=150)
    if kind != "dt" and calibration != "fitted":
        data = with_fallback_row(model, data)
    evaluation = Evaluation(model, data)
    assert evaluation.uniform_fallbacks == (kind != "dt" and calibration != "fitted")
    want = row_path(model, data)
    got = (evaluation.probs, evaluation.switch, evaluation.conditional, evaluation.outcomes)
    for name, w, g in zip(("probs", "switch", "conditional", "outcomes"), want, got):
        if w is None:
            assert g is None, name
        else:
            assert w.shape == g.shape and w.tobytes() == g.tobytes(), name
    if calibration == "handmade":
        # the underflowing class reads 0.0 on every row it reaches; a switch
        # leaf that never saw a stay maps to zeros and falls back to uniform
        assert np.all(evaluation.probs[data.stages == 1, 1] == 0.0)
        if kind != "dt":
            assert set(np.unique(evaluation.switch)) == {0.0, 0.5}


def test_building_a_record_copies_no_state_rows():
    # the queries route the caller's rows in place, so a record costs its
    # own arrays plus less than one more copy of the states
    model = fit_dtbls(make_cohort(40, n_traj=200), HP).calibrate(make_cohort(140, n_traj=100))
    data = make_cohort(45, n_traj=2000)
    Evaluation(model, data)
    tracemalloc.start()
    try:
        evaluation = Evaluation(model, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in (evaluation.probs, evaluation.switch, evaluation.conditional))
    assert peak < data.states.nbytes + own


@pytest.mark.parametrize("kind", ["dt", "dts", "dtbls"])
def test_uniform_fallbacks_are_counted_per_evaluation(kind):
    model = fitted(kind, make_cohort(40, n_traj=200))
    data = evaluation_data(model, make_cohort(41, n_traj=150))
    first = Evaluation(model, data)
    # per-policy queries in between leave the next evaluation's count alone
    for desc in descriptors(kind, data.n_actions):
        build_policy(desc, model).probabilities_batch(data.states, data.prev_actions,
                                                      data.stages)
    second = Evaluation(model, data)
    assert second.uniform_fallbacks == first.uniform_fallbacks
    # the appended trajectory's second step is the one fallback row
    assert first.uniform_fallbacks == (0 if kind == "dt" else 1)


def test_record_arrays_are_read_only_and_outcomes_are_lazy(monkeypatch):
    data = make_cohort(42, n_traj=80)
    model = fit_dtbls(data, HP)
    calls = Counter()
    real = BaselineSwitchModel.outcome_batch

    def counted(self, *args):
        calls["outcome_batch"] += 1
        return real(self, *args)

    monkeypatch.setattr(BaselineSwitchModel, "outcome_batch", counted)
    evaluation = Evaluation(model, data)
    assert calls["outcome_batch"] == 0
    rest = data.stages > 1
    assert len(evaluation.switch) == len(evaluation.conditional) == int(rest.sum())
    np.testing.assert_array_equal(evaluation.switch,
                                  model.switch_probability_batch(data.states[rest]))
    for arr in (evaluation.probs, evaluation.switch, evaluation.conditional,
                evaluation.order, evaluation.outcomes, evaluation.outcomes):
        assert not arr.flags.writeable
    assert calls["outcome_batch"] == 1
    assert Evaluation(fit_dt(data, HP), data).switch is None


def test_a_record_for_another_model_or_steps_is_refused():
    data = make_cohort(43, n_traj=80)
    other = make_cohort(44, n_traj=80)
    model, model2 = fit_dts(data, HP), fit_dts(other, HP)
    evaluation = Evaluation(model, data)
    policy = TopKPolicy(model, 2)
    with pytest.raises(RuntimeError, match="different model"):
        importance_weights(policy, model2, data, evaluation)
    with pytest.raises(RuntimeError, match="different StepData"):
        importance_weights(policy, model, other, evaluation)
    # the same arrays under another StepData object are refused as well
    with pytest.raises(RuntimeError, match="different StepData"):
        importance_weights(policy, model, replace(data), evaluation)
    # and so is a record built on the bare rows, as a policy builds its own
    bare = SimpleNamespace(states=data.states, prev_actions=data.prev_actions,
                           stages=data.stages)
    with pytest.raises(RuntimeError, match="different StepData"):
        importance_weights(policy, model, data, Evaluation(model, bare))
    # a policy of another model cannot read this model's record
    for foreign in (TopKPolicy(model2, 2), SwitchAdjustedPolicy(model2, 2, 0.1)):
        with pytest.raises(RuntimeError, match="different model"):
            foreign.probabilities_batch(data.states, data.prev_actions, data.stages,
                                        evaluation=evaluation)
    with pytest.raises(RuntimeError, match="different StepData"):
        policy.probabilities_batch(other.states, other.prev_actions, other.stages,
                                   evaluation=evaluation)


# ---------------------------------------------------------------------------
# one model evaluation per pass
# ---------------------------------------------------------------------------

BENCH_POLICIES = (
    {"type": "behavior"},
    {"type": "mc", "k": 1},
    {"type": "mc", "k": 2},
    {"type": "mc", "k": 3},
    {"type": "mc_o", "k": 2},
    {"type": "mc_switch_adj", "k": 2, "p1": 0.1},
)
QUERIES = ("action_probabilities_batch", "outcome_batch", "switch_probability_batch",
           "conditional_switch_batch")


class ModelCalls:
    """Counts model queries made from outside the model while ``active``."""

    def __init__(self, monkeypatch):
        self.counts = Counter()
        self.active = True
        self._depth = 0
        for cls in (TreeBehaviorModel, SwitchTreatmentModel, BaselineSwitchModel):
            for name in QUERIES:
                if name in vars(cls):
                    monkeypatch.setattr(cls, name, self._wrap(vars(cls)[name], name))

    def _wrap(self, fn, name):
        def counted(*args, **kwargs):
            if self.active and self._depth == 0:
                self.counts[name] += 1
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1

        return counted


def test_evaluate_queries_the_model_once(tmp_path, monkeypatch):
    import json

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    cohort, bundle, out = (str(tmp_path / n) for n in ("c.jsonl", "b.json", "e.csv"))
    sim = write("sim.json", {"kind": "chronic", "config": {"n_patients": 300, "seed": 5}})
    assert cli.main(["simulate", "--config", sim, "--out", cohort]) == 0
    assert cli.main(["fit", cohort, "--config", write("fit.json", {"n_candidates": 3}),
                     "--out", bundle]) == 0
    calls = ModelCalls(monkeypatch)
    cfg = write("eval.json", {"policies": list(BENCH_POLICIES)})
    assert cli.main(["evaluate", cohort, "--model", bundle, "--config", cfg,
                     "--out", out]) == 0
    assert calls.counts == {"action_probabilities_batch": 1, "outcome_batch": 1}


def test_a_repeat_queries_the_model_once_after_selection(tmp_path, monkeypatch):
    calls = ModelCalls(monkeypatch)
    real = harness.select_model

    def quiet(*args, **kwargs):
        calls.active = False
        try:
            return real(*args, **kwargs)
        finally:
            calls.active = True

    monkeypatch.setattr(harness, "select_model", quiet)
    cfg = harness.ExperimentConfig(simulator=ChronicSimConfig(n_patients=300, seed=6),
                                   n_repeats=1, n_candidates=3, policies=BENCH_POLICIES,
                                   out_dir=str(tmp_path))
    raw = harness.simulate(cfg.simulator)
    record = harness._run_repeat(cfg, raw, 0, 11, 12)
    assert len(record.results) == len(BENCH_POLICIES)
    assert calls.counts == {"action_probabilities_batch": 1, "outcome_batch": 1}
