"""One evaluation record per (model, steps): exactness, call counts, refusals."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from clinpol import cli, harness
from clinpol.behavior import (
    BaselineSwitchModel,
    Evaluation,
    SwitchTreatmentModel,
    TreeBehaviorModel,
    fit_dt,
    fit_dtbls,
    fit_dts,
)
from clinpol.data import NONE_ACTION, StepData
from clinpol.ope import ESTIMATORS, importance_weights
from clinpol.policies import SoftenedPolicy, SwitchAdjustedPolicy, TopKPolicy, build_policy
from clinpol.sim import ChronicSimConfig
from test_behavior import FIT, HP, make_cohort


def take_trajectories(data: StepData, keep) -> StepData:
    """The trajectories ``keep`` (positions in ``traj_ids``), re-indexed."""
    keep = np.asarray(keep)
    rows = np.isin(data.traj_index, keep)
    new_index = np.full(len(data.traj_ids), -1)
    new_index[keep] = np.arange(len(keep))
    part = data.subset(rows)
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
    if model.kind == "dt":
        return out
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


def clamp_events(policy):
    inner = policy.inner if isinstance(policy, SoftenedPolicy) else policy
    return getattr(inner, "clamp_events", None)


@pytest.mark.parametrize("calibrated", [False, True], ids=["raw", "calibrated"])
@pytest.mark.parametrize("kind", ["dt", "dts", "dtbls"])
def test_record_path_is_bitwise_equal_to_the_per_policy_path(kind, calibrated):
    train = make_cohort(40, n_traj=200)
    model = FIT[kind](train, make_cohort(140, n_traj=100) if calibrated else None)
    data = evaluation_data(model, make_cohort(41, n_traj=150))
    assert np.any(data.stages == 1) and np.any(data.stages > 1)
    evaluation = Evaluation(model, data)
    if kind != "dt" and not calibrated:
        assert evaluation.uniform_fallbacks > 0  # the fallback row is in there
    clamped = 0
    for desc in descriptors(kind, data.n_actions):
        alone, shared = build_policy(desc, model), build_policy(desc, model)
        args = (data.states, data.prev_actions, data.stages)
        assert np.array_equal(alone.probabilities_batch(*args),
                              shared.probabilities_batch(*args, evaluation=evaluation))
        a = importance_weights(alone, model, data)
        b = importance_weights(shared, model, data, evaluation)
        assert a.weights.tobytes() == b.weights.tobytes(), desc
        assert a.returns.tobytes() == b.returns.tobytes()
        assert np.array_equal(a.lengths, b.lengths) and a.traj_ids == b.traj_ids
        assert len(b) == data.n_trajectories
        for estimate in ESTIMATORS.values():
            if np.any(a.weights > 0.0):
                ra, rb = estimate(a), estimate(b)
                assert (ra.value, ra.ess, ra.n) == (rb.value, rb.ess, rb.n), desc
        assert clamp_events(alone) == clamp_events(shared)
        clamped += clamp_events(shared) or 0
    assert (clamped > 0) == (kind != "dt")


@pytest.mark.parametrize("kind", ["dt", "dts", "dtbls"])
def test_uniform_fallbacks_are_counted_per_evaluation(kind):
    model = FIT[kind](make_cohort(40, n_traj=200), None)
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
    model = fit_dtbls(data, HP, HP, HP)
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
    model, model2 = fit_dts(data, HP, HP), fit_dts(other, HP, HP)
    evaluation = Evaluation(model, data)
    policy = TopKPolicy(model, 2)
    with pytest.raises(RuntimeError, match="different model"):
        importance_weights(policy, model2, data, evaluation)
    with pytest.raises(RuntimeError, match="different StepData"):
        importance_weights(policy, model, other, evaluation)
    # the same arrays under another StepData object are refused as well
    with pytest.raises(RuntimeError, match="different StepData"):
        importance_weights(policy, model, replace(data), evaluation)
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
    rows = harness._run_repeat(cfg, raw, 0, 11, 12)
    assert len(rows) == len(BENCH_POLICIES)
    assert calls.counts == {"action_probabilities_batch": 1, "outcome_batch": 1}
