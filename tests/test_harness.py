"""Selection and the repeated-split experiment loop."""

import csv
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from clinpol import behavior, harness
from clinpol import data as data_module
from clinpol.behavior import MODEL_KINDS, fit_dt, model_to_json
from clinpol.data import (
    Dataset,
    DatasetError,
    Feature,
    FeatureSchema,
    SplitSpec,
    StateConfig,
    build_states,
    from_records,
    impute_and_encode,
    save_dataset,
    split_dataset,
)
from clinpol.harness import (
    DEFAULT_POLICIES,
    ExperimentConfig,
    HarnessError,
    HyperparamGrid,
    RepeatRecord,
    fit_model,
    load_bundle,
    run_experiment,
    sample_candidates,
    save_bundle,
    select_model,
    simulator_config_from_json,
)
from clinpol.metrics import auroc_macro
from clinpol.ope import OPEResult, median_iqr
from clinpol.sim import ChronicSimConfig, EpisodicSimConfig, SimError, generate_chronic
from clinpol.tree import TreeHyperparams

from test_behavior import make_cohort


def chronic_states(seed, n=400, **kw):
    ds = impute_and_encode(generate_chronic(ChronicSimConfig(n_patients=n, seed=seed, **kw)))
    tr, va, te = split_dataset(ds, SplitSpec(0.8, 0.25, seed))
    return build_states(tr), build_states(va), build_states(te)


# ---------------------------------------------------------------------------
# grid and candidate sampling
# ---------------------------------------------------------------------------

def test_default_grid_enumerates_in_fixed_order():
    cells = HyperparamGrid().all()
    assert len(cells) == 40
    assert cells[0] == TreeHyperparams(max_depth=2, min_leaf_fraction=0.01)
    assert cells[4] == TreeHyperparams(max_depth=2, min_leaf_fraction=0.05)
    assert cells[5] == TreeHyperparams(max_depth=3, min_leaf_fraction=0.01)
    assert cells[-1] == TreeHyperparams(max_depth=9, min_leaf_fraction=0.05)


def test_grid_rejects_empty_or_invalid_cells():
    with pytest.raises(HarnessError, match="must not be empty"):
        HyperparamGrid(max_depths=())
    with pytest.raises(ValueError):
        HyperparamGrid(max_depths=(0,))


def test_grid_json_round_trip():
    g = HyperparamGrid(max_depths=(3, 5), min_leaf_fractions=(0.02,))
    assert HyperparamGrid.from_json(g.to_json()) == g


def test_candidate_sampling_is_seeded_and_on_grid():
    grid = HyperparamGrid()
    a = sample_candidates(grid, 30, seed=7)
    b = sample_candidates(grid, 30, seed=7)
    c = sample_candidates(grid, 30, seed=8)
    assert a == b
    assert a != c
    assert len(a) == 30
    cells = set(grid.all())
    assert all(hp in cells for hp in a)
    with pytest.raises(HarnessError, match="n_candidates"):
        sample_candidates(grid, 0, seed=1)


# ---------------------------------------------------------------------------
# model selection
# ---------------------------------------------------------------------------

def test_single_candidate_wins_trivially():
    train, val, _ = chronic_states(1)
    hp = sample_candidates(HyperparamGrid(), 1, seed=5)[0]
    chosen = select_model(train, val, "dt", 1, seed=5)
    manual = fit_dt(train, hp).calibrate(val)
    np.testing.assert_array_equal(
        chosen.action_probabilities_batch(val.states, val.prev_actions, val.stages),
        manual.action_probabilities_batch(val.states, val.prev_actions, val.stages),
    )


def test_one_cell_grid_makes_selection_seed_independent():
    train, val, _ = chronic_states(2)
    grid = HyperparamGrid(max_depths=(4,), min_leaf_fractions=(0.02,))
    a = select_model(train, val, "dtbls", 5, seed=1, grid=grid)
    b = select_model(train, val, "dtbls", 5, seed=999, grid=grid)
    np.testing.assert_array_equal(
        a.action_probabilities_batch(val.states, val.prev_actions, val.stages),
        b.action_probabilities_batch(val.states, val.prev_actions, val.stages),
    )


# past depth 6 no tree of chronic_states(3) grows any further at these
# fractions, so draws that share a fraction tie and only the earliest may win
TIE_GRID = HyperparamGrid(max_depths=(6, 7, 8, 9), min_leaf_fractions=(0.08, 0.1))


def model_text(model):
    return json.dumps(model_to_json(model), sort_keys=True)


@pytest.mark.parametrize("grid", [HyperparamGrid(), TIE_GRID], ids=["default", "ties"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_winner_has_the_best_validation_auroc(kind, grid):
    train, val, _ = chronic_states(3)
    n, seed = 8, 42
    draws = sample_candidates(grid, n, seed=seed)
    scores = []
    for hp in draws:
        m = fit_model(kind, train, hp)
        scores.append(auroc_macro(
            m.action_probabilities_batch(val.states, val.prev_actions, val.stages),
            val.actions,
        ))
    best_idx = int(np.argmax(scores))  # the earliest of equal maxima
    assert scores[best_idx] == max(scores)
    if grid is TIE_GRID:
        assert any(draws[i] != draws[best_idx] and scores[i] == scores[best_idx]
                   for i in range(n))
    expected = fit_model(kind, train, draws[best_idx]).calibrate(val)
    chosen = select_model(train, val, kind, n, seed=seed, grid=grid)
    assert model_text(chosen) == model_text(expected)
    np.testing.assert_array_equal(
        chosen.action_probabilities_batch(val.states, val.prev_actions, val.stages),
        expected.action_probabilities_batch(val.states, val.prev_actions, val.stages),
    )


def test_selection_grows_each_component_once_per_fraction(monkeypatch):
    calls = {"fit_tree": 0, "fit_model": 0, "attach_outcomes": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(behavior, "fit_tree")
    count(behavior, "attach_outcomes")
    count(harness, "fit_model")
    train, val, _ = chronic_states(5)
    n, seed = 30, 3
    draws = sample_candidates(HyperparamGrid(), n, seed)
    fractions = {hp.min_leaf_fraction for hp in draws}
    cells = set(draws)
    assert len(cells) < n  # some cell is drawn twice, so its cuts are reused
    select_model(train, val, "dtbls", n, seed=seed)
    assert calls == {"fit_tree": 3 * len(fractions), "fit_model": n,
                     "attach_outcomes": 3 * len(cells)}


def test_imputation_statistics_are_fitted_once_per_repeat(monkeypatch, tmp_path):
    fitted = []
    real = data_module.fit_imputation

    def counted(ds):
        fitted.append(len(ds))
        return real(ds)

    # the harness fits through its own import; impute_and_encode through data's
    monkeypatch.setattr(harness, "fit_imputation", counted)
    monkeypatch.setattr(data_module, "fit_imputation", counted)
    cfg = ExperimentConfig(simulator=ChronicSimConfig(n_patients=60, seed=2), n_repeats=2,
                           n_candidates=2, out_dir=str(tmp_path / "run"))
    spy = []
    real_impute = harness.impute_and_encode

    def spied(ds, *args, **kwargs):
        spy.append(len(ds))
        return real_impute(ds, *args, **kwargs)

    monkeypatch.setattr(harness, "impute_and_encode", spied)
    run_experiment(cfg)
    # one fit on each repeat's train partition; all three partitions impute
    assert len(fitted) == 2 and len(spy) == 6
    assert fitted == spy[0::3]


def reference_selection(train, val, kind, n, seed, grid=None):
    """Score every draw, a repeated cell included; strict improvement wins."""
    best, best_score = None, -math.inf
    for hp in sample_candidates(grid or HyperparamGrid(), n, seed):
        m = fit_model(kind, train, hp)
        score = auroc_macro(
            m.action_probabilities_batch(val.states, val.prev_actions, val.stages),
            val.actions)
        if score > best_score:
            best, best_score = m, score
    return best.calibrate(val)


@pytest.mark.parametrize("grid", [HyperparamGrid(), TIE_GRID], ids=["default", "ties"])
def test_selection_scores_each_distinct_cell_once(monkeypatch, grid):
    train, val, _ = chronic_states(3)
    n, seed = 30, 3
    draws = sample_candidates(grid, n, seed)
    assert len(set(draws)) < n
    scored, fitted = [], []
    real_auroc, real_fit = harness.auroc_macro, harness.fit_model

    def counted_auroc(scores, labels):
        scored.append(len(labels))
        return real_auroc(scores, labels)

    def counted_fit(kind, data, hp, memo=None):
        fitted.append(hp)
        return real_fit(kind, data, hp, memo=memo)

    monkeypatch.setattr(harness, "auroc_macro", counted_auroc)
    monkeypatch.setattr(harness, "fit_model", counted_fit)
    chosen = select_model(train, val, "dtbls", n, seed=seed, grid=grid)
    assert fitted == draws  # every draw is still fitted
    assert len(scored) == len(set(draws))
    monkeypatch.undo()
    expected = reference_selection(train, val, "dtbls", n, seed, grid)
    assert model_text(chosen) == model_text(expected)


def test_a_repeated_cell_replays_its_scoring_error(monkeypatch, caplog):
    train, val, _ = chronic_states(4, n=60)
    # one class everywhere: no class has both outcomes, so AUROC is undefined
    val = replace(val, actions=np.zeros_like(val.actions))
    grid = HyperparamGrid(max_depths=(2,), min_leaf_fractions=(0.05,))
    scored = []
    real = harness.auroc_macro
    monkeypatch.setattr(harness, "auroc_macro",
                        lambda s, y: scored.append(1) or real(s, y))
    with pytest.raises(HarnessError) as err:
        select_model(train, val, "dt", 3, seed=0, grid=grid)
    assert str(err.value) == (
        "model selection failed: all 3 candidates failed to fit (last error: "
        "validation AUROC undefined: no class has both outcomes)")
    assert len(scored) == 1
    assert sum("candidate" in r.message and "failed" in r.message
               for r in caplog.records) == 3


def test_selection_fails_loudly_when_every_candidate_fails():
    data = make_cohort(0, n_traj=120, switch_bias=-50.0)
    val = make_cohort(1, n_traj=60, switch_bias=-50.0)
    with pytest.raises(HarnessError, match="all 4 candidates failed"):
        select_model(data, val, "dts", 4, seed=0)


def broken_auroc(scores, labels):
    raise ValueError("operands could not be broadcast together")


def test_a_bug_in_a_candidate_is_not_logged_as_a_failed_candidate(monkeypatch):
    train, val, _ = chronic_states(4, n=60)
    monkeypatch.setattr(harness, "auroc_macro", broken_auroc)
    with pytest.raises(ValueError, match="broadcast"):
        select_model(train, val, "dtbls", 3, seed=0)


def test_selection_rejects_unknown_model_types():
    train, val, _ = chronic_states(4, n=60)
    with pytest.raises(HarnessError, match="valid types"):
        select_model(train, val, "rnn", 2, seed=0)


def test_selection_needs_a_candidate():
    train, val, _ = chronic_states(4, n=60)
    with pytest.raises(HarnessError, match="n_candidates"):
        select_model(train, val, "dt", 0, seed=0)


def constant_feature_states(n_traj=12):
    schema = FeatureSchema((Feature("x"),))
    steps = [({"x": 1.0}, t % 2, 0.0) for t in range(3)]
    return build_states(from_records(schema, 2, [(f"t{i}", steps) for i in range(n_traj)]))


def test_constant_data_ties_and_the_first_draw_wins():
    # every candidate predicts the same constant probabilities, so all tie
    data = constant_feature_states()
    grid = HyperparamGrid(max_depths=(2, 5, 9), min_leaf_fractions=(0.01, 0.05))
    draws = sample_candidates(grid, 6, seed=3)
    assert len(set(draws)) > 1
    chosen = select_model(data, data, "dt", 6, seed=3, grid=grid)
    assert model_text(chosen) == model_text(fit_model("dt", data, draws[0]).calibrate(data))


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

def sim_cfg(**kw):
    return ChronicSimConfig(n_patients=kw.pop("n_patients", 300), **kw)


def test_config_needs_exactly_one_source():
    with pytest.raises(HarnessError, match="exactly one dataset source"):
        ExperimentConfig(out_dir="x")
    with pytest.raises(HarnessError, match="exactly one dataset source"):
        ExperimentConfig(dataset="a.jsonl", simulator=sim_cfg(), out_dir="x")


def test_config_validates_fields():
    with pytest.raises(HarnessError, match="n_repeats"):
        ExperimentConfig(simulator=sim_cfg(), n_repeats=0, out_dir="x")
    with pytest.raises(HarnessError, match="valid types"):
        ExperimentConfig(simulator=sim_cfg(), model="rnn", out_dir="x")
    with pytest.raises(HarnessError, match="valid estimators"):
        ExperimentConfig(simulator=sim_cfg(), estimator="dr", out_dir="x")
    with pytest.raises(HarnessError, match="at least one policy"):
        ExperimentConfig(simulator=sim_cfg(), policies=(), out_dir="x")
    with pytest.raises(HarnessError, match="integer k"):
        ExperimentConfig(simulator=sim_cfg(), policies=({"type": "mc"},), out_dir="x")
    with pytest.raises(HarnessError, match="unknown policy type"):
        ExperimentConfig(simulator=sim_cfg(), policies=({"type": "best"},), out_dir="x")
    with pytest.raises(HarnessError, match=r"p1 must lie in \[-1, 1\]"):
        ExperimentConfig(
            simulator=sim_cfg(),
            policies=({"type": "mc_switch_adj", "k": 1, "p1": 2.0},), out_dir="x",
        )


def test_config_refuses_a_switch_policy_on_a_single_tree_model():
    switch = {"type": "mc_switch_adj", "k": 1, "p1": 0.1}
    with pytest.raises(HarnessError, match="needs a switch-composed model"):
        ExperimentConfig(simulator=sim_cfg(), model="dt",
                         policies=({"type": "behavior"}, switch), out_dir="x")
    for kind in ("dts", "dtbls"):
        ExperimentConfig(simulator=sim_cfg(), model=kind, policies=(switch,), out_dir="x")


def test_config_file_refuses_unknown_keys():
    obj = ExperimentConfig(simulator=sim_cfg(), out_dir="x").to_json()
    # aux_fractions was once accepted and ignored; a config that sets it fails
    with pytest.raises(HarnessError, match=r"unknown experiment config keys \['aux_fractions'\]"):
        ExperimentConfig.from_json({**obj, "aux_fractions": [0.5]})
    with pytest.raises(HarnessError, match="'n_repeat', 'polices'"):
        ExperimentConfig.from_json({**obj, "polices": [], "n_repeat": 3})
    with pytest.raises(HarnessError, match="JSON object"):
        ExperimentConfig.from_json([obj])


def test_malformed_config_values_are_harness_errors_naming_the_key():
    obj = {"simulator": {"kind": "chronic"}}
    for key in ("n_repeats", "n_candidates", "seed"):
        for bad in ("two", 2.5, None, True):
            with pytest.raises(HarnessError, match=f"'{key}' must be an integer, got {bad!r}"):
                ExperimentConfig.from_json({**obj, key: bad})
    for key in ("split", "grid", "state_config"):
        with pytest.raises(HarnessError, match=f"'{key}' must be a JSON object"):
            ExperimentConfig.from_json({**obj, key: [0.5]})
    with pytest.raises(HarnessError, match="'policies' must be a list"):
        ExperimentConfig.from_json({**obj, "policies": 3})
    for key in ("p1", "epsilon"):
        for bad in ("x", None, [0.1], True, float("inf"), 10**400):
            desc = {"type": "mc_switch_adj", "k": 1, key: bad}
            with pytest.raises(HarnessError,
                               match=re.escape(f"{key} must be a number, got {bad!r}")):
                ExperimentConfig.from_json({**obj, "policies": [desc]})
    # numbers of any numeric type still pass
    cfg = ExperimentConfig.from_json({**obj, "n_repeats": np.int64(2), "policies": [
        {"type": "mc_switch_adj", "k": 1, "p1": 1, "epsilon": np.float32(0.25)}]})
    assert cfg.n_repeats == 2


def test_a_simulator_bounds_k_and_epsilon_by_its_k_up_front():
    # the default chronic simulator has K = 4, so 1/K = 0.25
    obj = {"simulator": {"kind": "chronic"}}
    for desc, message in (({"type": "mc", "k": 1, "epsilon": 0.5}, r"\[0, 1/K\]"),
                          ({"type": "mc", "k": 1, "epsilon": np.float32(0.5)}, r"\[0, 1/K\]"),
                          ({"type": "mc", "k": 10}, r"integer k in \[1, 4\]")):
        with pytest.raises(HarnessError, match=message):
            ExperimentConfig.from_json({**obj, "policies": [desc]})
    # without a simulator K is known only once a repeat has a model
    ExperimentConfig.from_json({"dataset": "d.jsonl", "policies": [
        {"type": "mc", "k": 10, "epsilon": 0.5}]})


SIM_SPEC = {"simulator": {"kind": "chronic"}}


@pytest.mark.parametrize("build, error, message", [
    (lambda: ExperimentConfig.from_json({**SIM_SPEC, "split": {"train_fraction": "x"}}),
     DatasetError, "malformed split: 'train_fraction' must be a finite number, got 'x'"),
    (lambda: ExperimentConfig.from_json({**SIM_SPEC, "state_config": {"switch_count": "no"}}),
     DatasetError, "malformed state config: 'switch_count' must be a boolean, got 'no'"),
    (lambda: ExperimentConfig.from_json({**SIM_SPEC, "grid": {"max_depths": 3}}),
     HarnessError, "'max_depths' must be a list of integers, got 3"),
    (lambda: ExperimentConfig.from_json(
        {"simulator": {"kind": "chronic", "config": {"n_patients": "x"}}}),
     SimError, "n_patients must be an integer, got 'x'"),
    (lambda: ExperimentConfig(simulator=sim_cfg(), n_repeats="two", out_dir="x"),
     HarnessError, "'n_repeats' must be an integer, got 'two'"),
    (lambda: ExperimentConfig(simulator=sim_cfg(), estimator=[], out_dir="x"),
     HarnessError, "'estimator' must be a string, got []"),
    (lambda: ExperimentConfig.from_json({**SIM_SPEC, "split": {"train_fracton": 0.5}}),
     DatasetError, "malformed split: unknown keys ['train_fracton']"),
    (lambda: ExperimentConfig.from_json({**SIM_SPEC, "state_config": {"switch_cnt": False}}),
     DatasetError, "malformed state config: unknown keys ['switch_cnt']"),
    (lambda: ExperimentConfig.from_json({**SIM_SPEC, "grid": {"max_depth": [2]}}),
     HarnessError, "malformed grid: unknown keys ['max_depth']"),
], ids=["split", "state_config", "grid", "simulator", "n_repeats", "estimator",
        "split_typo", "state_config_typo", "grid_typo"])
def test_nested_and_direct_config_values_are_domain_errors_naming_the_key(build, error,
                                                                         message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        simulator=EpisodicSimConfig(n_patients=120, dose_levels=3, seed=2),
        n_repeats=3,
        split=SplitSpec(0.7, 0.3, 0),
        model="dts",
        n_candidates=4,
        policies=({"type": "behavior"}, {"type": "mc", "k": 2, "epsilon": 0.01}),
        estimator="is",
        out_dir="out",
        grid=HyperparamGrid(max_depths=(2, 3)),
        state_config=StateConfig(switch_count=False),
        seed=17,
    )
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg
    file_cfg = ExperimentConfig(dataset="d.jsonl", out_dir="out")
    assert ExperimentConfig.from_json(file_cfg.to_json()) == file_cfg


def test_simulator_spec_parsing_errors():
    with pytest.raises(HarnessError, match="'kind'"):
        simulator_config_from_json({"config": {}})
    with pytest.raises(HarnessError, match="unknown simulator kind"):
        simulator_config_from_json({"kind": "weird"})


def test_repeat_records_must_be_finite():
    with pytest.raises(HarnessError, match="not finite"):
        RepeatRecord(seed=0, auroc=0.5, sce=0.0,
                     results=(OPEResult(float("inf"), 1.0, 1, "wis"),))


def test_a_record_checks_value_ess_auroc_sce_policy_by_policy():
    ok, nan = OPEResult(1.0, 2.0, 3, "wis"), OPEResult(float("nan"), 2.0, 3, "wis")
    cases = [((ok, OPEResult(1.0, math.inf, 3, "wis")), 0.5, 0.0, "ess is not finite: inf"),
             ((nan,), math.nan, math.nan, "value is not finite: nan"),
             ((OPEResult(1.0, math.nan, 3, "wis"),), math.nan, 0.0, "ess is not finite"),
             ((ok, nan), math.inf, 0.0, "auroc is not finite: inf"),
             ((ok,), 0.5, -math.inf, "sce is not finite: -inf")]
    for results, auroc, sce, message in cases:
        with pytest.raises(HarnessError, match=f"^report row field {re.escape(message)}"):
            RepeatRecord(0, auroc, sce, results)
    assert RepeatRecord(4, 0.5, 0.0, iter([ok, ok])).results == (ok, ok)


def test_a_record_stops_reading_its_results_at_the_first_that_fails():
    # a repeat hands its results over as they are made, so a policy after one
    # that fails the check is never weighed, as when each row checked itself
    made = []

    def results():
        for value in (1.0, math.inf, 2.0):
            made.append(value)
            yield OPEResult(value, 1.0, 1, "wis")

    with pytest.raises(HarnessError, match="value is not finite: inf"):
        RepeatRecord(0, 0.5, 0.0, results())
    assert made == [1.0, math.inf]


@pytest.mark.parametrize("policies, first, second, key", [
    (({"type": "random", "seed": 1, "epsilon": 0.1}, {"type": "mc", "k": 1},
      {"type": "random", "seed": 2, "epsilon": 0.1}), 0, 2, "('random', 0, 0.0, 0.1)"),
    (({"type": "mc", "k": 1}, {"type": "mc", "k": 1}), 0, 1, "('mc', 1, 0.0, 0.0)"),
    (({"type": "behavior"}, {"type": "mc_switch_adj", "k": 2},
      {"type": "mc_switch_adj", "k": 2, "p1": 0.0}), 1, 2, "('mc_switch_adj', 2, 0.0, 0.0)"),
], ids=["random_seeds", "repeated", "blank_and_zero_p1"])
def test_config_refuses_two_descriptors_with_one_label(policies, first, second, key):
    # one summary row per label: two such descriptors were pooled in it
    message = f"policies {first} and {second} share the label {key}"
    with pytest.raises(HarnessError, match=re.escape(message)):
        ExperimentConfig(simulator=sim_cfg(), model="dts", policies=policies, out_dir="x")
    spec = {**SIM_SPEC, "model": "dts", "policies": list(policies)}
    with pytest.raises(HarnessError, match=re.escape(message)):
        ExperimentConfig.from_json(spec)


def test_descriptors_that_differ_in_epsilon_or_p1_sign_get_rows_of_their_own():
    policies = ({"type": "mc", "k": 2}, {"type": "mc", "k": 2, "epsilon": 0.05},
                {"type": "mc_switch_adj", "k": 2, "p1": 0.1},
                {"type": "mc_switch_adj", "k": 2, "p1": -0.1})
    labels = [harness._label(desc) for desc in policies]
    assert [fields for fields, _ in labels] == [
        ("mc", 2, "", ""), ("mc", 2, "", "0.05"),
        ("mc_switch_adj", 2, "0.1", ""), ("mc_switch_adj", 2, "-0.1", "")]
    assert len({key for _, key in labels}) == 4
    ExperimentConfig(simulator=sim_cfg(), model="dts", policies=policies, out_dir="x")


# ---------------------------------------------------------------------------
# the experiment loop
# ---------------------------------------------------------------------------

def run_small(tmp_path, name, **kw):
    cfg = ExperimentConfig(out_dir=str(tmp_path / name), **kw)
    return cfg, run_experiment(cfg)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_behavior_only_rows_reproduce_mean_test_return(tmp_path):
    cfg, paths = run_small(
        tmp_path, "b",
        simulator=sim_cfg(seed=3), n_repeats=4, n_candidates=3,
        policies=({"type": "behavior"},), seed=11,
    )
    rows = read_rows(paths["rows"])
    assert len(rows) == 4
    raw = generate_chronic(cfg.simulator)
    for row in rows:
        r = int(row["seed"])
        split_seed = int(np.random.SeedSequence([cfg.seed, r]).generate_state(2)[0])
        _, _, test_ds = split_dataset(raw, SplitSpec(0.8, 0.2, split_seed))
        test = build_states(impute_and_encode(test_ds))
        rets = np.bincount(test.traj_index, weights=test.rewards)
        assert abs(float(row["value"]) - rets.mean()) <= 1e-12
        assert float(row["ess"]) == float(len(rets))
        assert int(row["n"]) == len(rets)


def test_reports_are_byte_identical_across_runs(tmp_path):
    kw = dict(simulator=sim_cfg(seed=4), n_repeats=3, n_candidates=3,
              policies=({"type": "behavior"}, {"type": "mc", "k": 1},
                        {"type": "mc_switch_adj", "k": 2, "p1": 0.1}),
              model="dtbls", seed=5)
    _, first = run_small(tmp_path, "r1", **kw)
    _, second = run_small(tmp_path, "r2", **kw)
    for name in first:
        with open(first[name], "rb") as fh:
            a = fh.read()
        with open(second[name], "rb") as fh:
            b = fh.read()
        assert a == b, f"{name} differs between identical runs"


def test_rows_are_sorted_by_seed_then_policy(tmp_path):
    _, paths = run_small(
        tmp_path, "s",
        simulator=sim_cfg(seed=6), n_repeats=3, n_candidates=2,
        policies=({"type": "mc", "k": 2}, {"type": "behavior"}, {"type": "mc", "k": 1}),
        seed=7,
    )
    rows = read_rows(paths["rows"])
    keys = [(int(r["seed"]), r["policy"], r["k"]) for r in rows]
    assert keys == sorted(keys)


def test_summary_quantiles_match_the_reference_routine(tmp_path):
    _, paths = run_small(
        tmp_path, "q",
        simulator=sim_cfg(seed=8), n_repeats=5, n_candidates=2,
        policies=({"type": "mc", "k": 1},), seed=9,
    )
    rows = read_rows(paths["rows"])
    values = [float(r["value"]) for r in rows]
    esses = [float(r["ess"]) for r in rows]
    summary = read_rows(paths["summary"])[0]
    vm, v1, v3 = median_iqr(values)
    em, e1, e3 = median_iqr(esses)
    assert (float(summary["value_median"]), float(summary["value_q1"]),
            float(summary["value_q3"])) == (vm, v1, v3)
    assert (float(summary["ess_median"]), float(summary["ess_q1"]),
            float(summary["ess_q3"])) == (em, e1, e3)
    assert summary["n_splits"] == "5"
    assert summary["n_missing_seeds"] == "0"


def test_episodic_median_ess_increases_with_k(tmp_path):
    _, paths = run_small(
        tmp_path, "k",
        simulator=EpisodicSimConfig(n_patients=900, dose_levels=2, seed=6),
        n_repeats=10, n_candidates=5,
        policies=({"type": "mc", "k": 1}, {"type": "mc", "k": 2},
                  {"type": "mc", "k": 3}),
        seed=21,
    )
    ess = {int(r["k"]): float(r["ess_median"]) for r in read_rows(paths["per_k"])}
    assert ess[1] < ess[2] < ess[3]
    assert read_rows(paths["failures"]) == []


def test_failed_seeds_are_logged_not_fatal(tmp_path):
    # a cohort without treatment switches breaks every dts candidate, so
    # every seed lands in failures.csv and the tables stay empty
    schema = FeatureSchema((Feature("x"),))
    rng = np.random.default_rng(0)
    records = []
    for i in range(40):
        a = int(rng.integers(2))
        records.append((f"t{i}", [({"x": float(rng.normal())}, a, 0.0) for _ in range(3)]))
    ds = from_records(schema, 2, records)
    path = tmp_path / "flat.jsonl"
    save_dataset(ds, str(path))
    _, paths = run_small(
        tmp_path, "f",
        dataset=str(path), model="dts", n_repeats=3, n_candidates=2,
        policies=({"type": "behavior"},), seed=1,
    )
    assert len(read_rows(paths["failures"])) == 3
    assert read_rows(paths["rows"]) == []
    assert read_rows(paths["summary"]) == []


def test_a_partition_leak_crashes_the_experiment(tmp_path, monkeypatch):
    def leaky_split(ds, spec):
        train, val, test = split_dataset(ds, spec)
        first = train.take([0])
        test = Dataset(schema=test.schema, n_actions=test.n_actions,
                       covariates=np.vstack([test.covariates, first.covariates]),
                       actions=np.concatenate([test.actions, first.actions]),
                       rewards=np.concatenate([test.rewards, first.rewards]),
                       offsets=np.concatenate([test.offsets, test.n_steps + first.offsets[1:]]),
                       ids=test.ids + first.ids, provenance=test.provenance)
        return train, val, test

    monkeypatch.setattr(harness, "split_dataset", leaky_split)
    with pytest.raises(RuntimeError, match="leaked across partitions") as info:
        run_small(tmp_path, "leak", simulator=sim_cfg(seed=2), n_repeats=2,
                  n_candidates=2, policies=({"type": "behavior"},), seed=1)
    assert not isinstance(info.value, ValueError)


def test_the_leak_check_holds_no_array_as_wide_as_the_longest_id(tmp_path):
    ds = generate_chronic(sim_cfg(n_patients=200, seed=5))
    save_dataset(replace(ds, ids=["x" * 20_000, *ds.ids[1:]]), tmp_path / "c.jsonl")
    tracemalloc.start()
    try:
        paths = run_small(tmp_path, "long", dataset=str(tmp_path / "c.jsonl"), n_repeats=1,
                          n_candidates=1, policies=({"type": "behavior"},))[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(read_rows(paths["rows"])) == 1
    # about 1.3 MiB; a fixed-width array of the 200 ids took 80 kB for each id
    assert peak < 8 * 2**20


def test_a_bug_in_a_repeat_is_not_logged_as_a_failed_seed(tmp_path, monkeypatch):
    # a bare numpy ValueError is a bug too: only a ClinpolError fails a repeat
    for error in (TypeError("select_model() got an unexpected argument"),
                  ValueError("shapes (3,) and (4,) not aligned")):
        def broken_select(*args, **kwargs):
            raise error

        monkeypatch.setattr(harness, "select_model", broken_select)
        with pytest.raises(type(error)) as info:
            run_small(tmp_path, "bug", simulator=sim_cfg(seed=2), n_repeats=2,
                      n_candidates=2, policies=({"type": "behavior"},), seed=1)
        assert info.value is error
        # the output directory is made before the first repeat; no report is written
        assert list((tmp_path / "bug").iterdir()) == []


def test_an_unusable_output_directory_fails_before_any_candidate(tmp_path, monkeypatch):
    fitted = []
    real_fit = harness.fit_model

    def counted_fit(kind, data, hp, memo=None):
        fitted.append(hp)
        return real_fit(kind, data, hp, memo=memo)

    monkeypatch.setattr(harness, "fit_model", counted_fit)
    (tmp_path / "file").write_text("")
    with pytest.raises(NotADirectoryError):
        run_small(tmp_path, "file/run", simulator=sim_cfg(seed=2), n_repeats=3,
                  n_candidates=2, policies=({"type": "behavior"},), seed=1)
    assert fitted == []


def test_per_policy_tables_filter_by_descriptor_fields(tmp_path):
    _, paths = run_small(
        tmp_path, "t",
        simulator=sim_cfg(seed=10), n_repeats=2, n_candidates=2, model="dtbls",
        policies=({"type": "behavior"}, {"type": "mc", "k": 1},
                  {"type": "mc_switch_adj", "k": 2, "p1": 0.3}),
        seed=13,
    )
    per_k = read_rows(paths["per_k"])
    assert {r["policy"] for r in per_k} == {"mc", "mc_switch_adj"}
    per_p1 = read_rows(paths["per_p1"])
    assert [r["policy"] for r in per_p1] == ["mc_switch_adj"]
    assert per_p1[0]["p1"] == "0.3"


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

def test_bundle_round_trip_preserves_predictions(tmp_path):
    ds = generate_chronic(ChronicSimConfig(n_patients=200, seed=12))
    from clinpol.data import apply_imputation, fit_imputation

    stats = fit_imputation(ds)
    data = build_states(apply_imputation(ds, stats))
    model = fit_model("dtbls", data, TreeHyperparams(max_depth=3,
                                                    min_leaf_fraction=0.01))
    path = tmp_path / "bundle.json"
    save_bundle(path, model, stats, StateConfig())
    loaded, stats2, state_cfg = load_bundle(path)
    np.testing.assert_array_equal(
        model.action_probabilities_batch(data.states, data.prev_actions, data.stages),
        loaded.action_probabilities_batch(data.states, data.prev_actions, data.stages),
    )
    assert stats2.values == stats.values
    assert state_cfg == StateConfig()


def test_bundle_version_gate(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"bundle_version": 99}')
    with pytest.raises(HarnessError, match="unsupported bundle version"):
        load_bundle(path)


def test_bundle_with_a_missing_or_malformed_part_is_a_harness_error(tmp_path):
    path = tmp_path / "bundle.json"
    whole = {"bundle_version": 1, "model": {}, "imputation": {}, "state_config": {}}
    for key in ("model", "imputation", "state_config"):
        path.write_text(json.dumps({k: v for k, v in whole.items() if k != key}))
        with pytest.raises(HarnessError, match=f"key '{key}' is missing"):
            load_bundle(path)
        path.write_text(json.dumps({**whole, key: [1]}))
        with pytest.raises(HarnessError, match=f"key '{key}' is not a JSON object"):
            load_bundle(path)
