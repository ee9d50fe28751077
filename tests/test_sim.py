"""Generator determinism, closed-form agreement, and the rollout oracle."""

import json
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from clinpol import data, sim
from clinpol.data import StateConfig, build_states, impute_and_encode
from clinpol.ope import importance_weights
from clinpol.policies import RandomPolicy
from clinpol.sim import (
    ChronicSimConfig,
    EpisodicSimConfig,
    SimError,
    action_to_doses,
    config_from_provenance,
    config_to_provenance,
    default_assembler,
    episodic_survival_probabilities,
    generate_chronic,
    generate_episodic,
    monte_carlo_value,
    read_manifest,
    simulate,
    truth_policy,
    write_manifest,
)


def dataset_payload(ds):
    """Every stored number, per trajectory, for bitwise comparisons."""
    return [(tid, ds.covariates[lo:hi].tobytes(), ds.actions[lo:hi].tobytes(),
             ds.rewards[lo:hi].tobytes())
            for tid, lo, hi in zip(ds.ids, ds.offsets[:-1], ds.offsets[1:])]


def column(ds, name):
    return ds.covariates[:, ds.schema.names.index(name)]


def terminal_rewards(ds):
    return ds.rewards[ds.offsets[1:] - 1]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_chronic_regeneration_is_bitwise_identical():
    cfg = ChronicSimConfig(n_patients=200, seed=3)
    assert dataset_payload(generate_chronic(cfg)) == dataset_payload(generate_chronic(cfg))


def test_chronic_seed_changes_the_cohort():
    a = generate_chronic(ChronicSimConfig(n_patients=50, seed=3))
    b = generate_chronic(ChronicSimConfig(n_patients=50, seed=4))
    assert dataset_payload(a) != dataset_payload(b)


def test_chronic_patients_have_independent_streams():
    small = generate_chronic(ChronicSimConfig(n_patients=60, seed=9))
    large = generate_chronic(ChronicSimConfig(n_patients=120, seed=9))
    assert dataset_payload(small) == dataset_payload(large)[: len(dataset_payload(small))]


def test_episodic_regeneration_is_bitwise_identical():
    cfg = EpisodicSimConfig(n_patients=150, seed=5)
    assert dataset_payload(generate_episodic(cfg)) == dataset_payload(generate_episodic(cfg))


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

BLOCK_CONFIGS = {"chronic": ChronicSimConfig(n_patients=23, seed=6, hidden_confounder=True),
                 "episodic": EpisodicSimConfig(n_patients=23, seed=6)}


def blocks_of(cfg, monkeypatch, part_steps):
    monkeypatch.setattr(data, "PART_STEPS", part_steps)
    blocks = []
    assert simulate(cfg, each=blocks.append) is None
    return blocks


@pytest.mark.parametrize("kind", BLOCK_CONFIGS)
@pytest.mark.parametrize("size, per_block", [("1 step", 1), ("7 steps", 1),
                                             ("20 steps", 3), ("unbounded", 23)])
def test_simulated_blocks_concatenate_to_the_whole_cohort(monkeypatch, kind, size, per_block):
    cfg = BLOCK_CONFIGS[kind]
    whole = simulate(cfg)
    blocks = blocks_of(cfg, monkeypatch, {"1 step": 1, "7 steps": 7, "20 steps": 20,
                                          "unbounded": sys.maxsize}[size])
    # a block is PART_STEPS // horizon patients (horizon 6), the last one the rest
    assert [len(b) for b in blocks] == [min(per_block, 23 - first)
                                        for first in range(0, 23, per_block)]
    assert sum(map(dataset_payload, blocks), []) == dataset_payload(whole)
    assert all(b.schema == whole.schema and b.n_actions == whole.n_actions
               and b.provenance == whole.provenance for b in blocks)


@pytest.mark.parametrize("kind", BLOCK_CONFIGS)
def test_a_one_patient_cohort_is_one_block(monkeypatch, kind):
    cfg = replace(BLOCK_CONFIGS[kind], n_patients=1)
    assert blocks_of(cfg, monkeypatch, 1) == [simulate(cfg)]


@pytest.mark.parametrize("generate", [generate_chronic, generate_episodic])
def test_a_patient_range_must_be_a_non_empty_part_of_the_cohort(generate):
    cfg = BLOCK_CONFIGS["chronic" if generate is generate_chronic else "episodic"]
    assert generate(cfg, 5, 9).ids == ["p000005", "p000006", "p000007", "p000008"]
    for first, stop in ((-1, 3), (4, 4), (20, 24), (2.0, 5)):
        with pytest.raises(SimError, match=re.escape(
                f"patients {first}:{stop} are not a non-empty range of the cohort's 23")):
            generate(cfg, first, stop)


# a chronic config whose patients stop at every stage from 1 to 9
INVARIANT_CONFIGS = {
    "chronic": ChronicSimConfig(n_patients=60, n_actions=8, horizon_range=(1, 9),
                                hidden_confounder=True, seed=3),
    "episodic": EpisodicSimConfig(n_patients=40, dose_levels=3, horizon=4, seed=4),
}


@pytest.mark.parametrize("kind", INVARIANT_CONFIGS)
def test_generation_asks_the_truth_policy_about_the_pipeline_states(kind, monkeypatch):
    """Generation is a rollout of the truth policy: the states it asks about
    at stage t are, bit for bit, the states the data pipeline builds from the
    cohort's stage-t steps, so rollouts and cohorts share one dynamics."""
    cfg = INVARIANT_CONFIGS[kind]
    asked = []
    real = sim.truth_policy

    def spy(cfg, assembler=None):
        policy = real(cfg, assembler)
        probabilities_batch = policy.probabilities_batch

        def ask(states, prev_actions, stages, evaluation=None):
            asked.append((states.copy(), np.array(prev_actions), np.array(stages)))
            return probabilities_batch(states, prev_actions, stages, evaluation)
        policy.probabilities_batch = ask
        return policy

    monkeypatch.setattr(sim, "truth_policy", spy)
    cohort = simulate(cfg)
    built = build_states(impute_and_encode(cohort))
    assert len(asked) == built.stages.max()
    assert set(np.diff(cohort.offsets)) >= ({1, 9} if kind == "chronic" else {4})
    for t, (states, prev, stages) in enumerate(asked, start=1):
        at = built.stages == t
        assert states.shape == built.states[at].shape and np.all(stages == t)
        assert states.tobytes() == built.states[at].tobytes(), t
        assert prev.tobytes() == built.prev_actions[at].tobytes(), t


def test_monte_carlo_value_is_deterministic():
    cfg = ChronicSimConfig(n_patients=10, seed=21)
    pol = RandomPolicy(cfg.n_actions)
    assert monte_carlo_value(pol, cfg, 2000) == monte_carlo_value(pol, cfg, 2000)


# ---------------------------------------------------------------------------
# chronic cohort shape
# ---------------------------------------------------------------------------

def test_chronic_horizons_and_features_are_in_range():
    cfg = ChronicSimConfig(n_patients=300, seed=11)
    ds = generate_chronic(cfg)
    lo, hi = cfg.horizon_range
    assert np.all((lo <= ds.lengths) & (ds.lengths <= hi))
    assert np.all((0 <= ds.actions) & (ds.actions < cfg.n_actions))
    index = column(ds, "disease_index")
    assert np.all((cfg.index_range[0] <= index) & (index <= cfg.index_range[1]))
    # categorical values are stored as their index in ("g0", "g1")
    assert set(column(ds, "biomarker").tolist()) == {0.0, 1.0}


def test_time_on_treatment_tracks_stay_runs():
    ds = generate_chronic(ChronicSimConfig(n_patients=300, seed=12))
    tot = column(ds, "time_on_tx")
    for lo, hi in zip(ds.offsets[:-1], ds.offsets[1:]):
        run = 0
        prev = None
        for r in range(lo, hi):
            assert tot[r] == run
            run = run + 1 if ds.actions[r] == prev else 1
            prev = ds.actions[r]


def test_stay_rate_clears_the_inertia_bound():
    ds = generate_chronic(ChronicSimConfig(n_patients=2000, seed=13))
    data = build_states(impute_and_encode(ds))
    follow = data.stages > 1
    stay = (data.actions[follow] == data.prev_actions[follow]).mean()
    assert stay >= 0.7


def test_switching_increases_with_disease_index():
    cfg = ChronicSimConfig(n_patients=4000, seed=14)
    data = build_states(impute_and_encode(generate_chronic(cfg)))
    asm = default_assembler(cfg)
    idx = data.states[:, asm.column("disease_index")]
    follow = data.stages > 1
    switched = data.actions[follow] != data.prev_actions[follow]
    z = idx[follow]
    low = switched[z <= np.median(z)].mean()
    high = switched[z > np.median(z)].mean()
    assert high > low + 0.05


def test_flat_switch_coefficient_flattens_the_gradient():
    cfg = ChronicSimConfig(n_patients=4000, switch_index_coef=0.0, seed=14)
    data = build_states(impute_and_encode(generate_chronic(cfg)))
    asm = default_assembler(cfg)
    idx = data.states[:, asm.column("disease_index")]
    follow = data.stages > 1
    switched = data.actions[follow] != data.prev_actions[follow]
    z = idx[follow]
    low = switched[z <= np.median(z)].mean()
    high = switched[z > np.median(z)].mean()
    assert abs(high - low) < 0.04


# ---------------------------------------------------------------------------
# replayable truth policy
# ---------------------------------------------------------------------------

def test_truth_probabilities_lie_on_the_simplex_with_floor():
    cfg = ChronicSimConfig(n_patients=1500, seed=15)
    data = build_states(impute_and_encode(generate_chronic(cfg)))
    probs = truth_policy(cfg).probabilities_batch(
        data.states, data.prev_actions, data.stages
    )
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.min() >= cfg.floor_epsilon / cfg.n_actions * (1.0 - 1e-12)


def test_logged_first_actions_match_truth_frequencies():
    cfg = ChronicSimConfig(n_patients=6000, seed=16)
    data = build_states(impute_and_encode(generate_chronic(cfg)))
    probs = truth_policy(cfg).probabilities_batch(
        data.states, data.prev_actions, data.stages
    )
    first = data.stages == 1
    n = int(first.sum())
    for a in range(cfg.n_actions):
        p = probs[first, a].mean()
        emp = (data.actions[first] == a).mean()
        sigma = np.sqrt(probs[first, a].var() / n + p * (1 - p) / n)
        assert abs(emp - p) <= 4 * max(sigma, 1e-6)


def test_logged_stay_rate_matches_truth_probabilities():
    cfg = ChronicSimConfig(n_patients=6000, seed=17)
    data = build_states(impute_and_encode(generate_chronic(cfg)))
    probs = truth_policy(cfg).probabilities_batch(
        data.states, data.prev_actions, data.stages
    )
    follow = data.stages > 1
    rows = np.flatnonzero(follow)
    p_stay = probs[rows, data.prev_actions[rows]]
    emp = (data.actions[rows] == data.prev_actions[rows]).mean()
    sigma = np.sqrt((p_stay * (1 - p_stay)).sum()) / len(rows)
    assert abs(emp - p_stay.mean()) <= 4 * sigma


def test_truth_policy_self_weights_are_exactly_one():
    cfg = ChronicSimConfig(n_patients=300, seed=18)
    data = build_states(impute_and_encode(generate_chronic(cfg)))
    tp = truth_policy(cfg)
    weights = importance_weights(tp, tp, data)
    assert len(weights) == data.n_trajectories
    assert np.all(weights.weights == 1.0)


def test_truth_policy_scalar_wrapper_agrees_with_batch():
    cfg = ChronicSimConfig(n_patients=50, seed=19)
    data = build_states(impute_and_encode(generate_chronic(cfg)))
    tp = truth_policy(cfg)
    batch = tp.probabilities_batch(data.states, data.prev_actions, data.stages)
    # the first row queried alone, as a one-row batch
    one = tp.probabilities_batch(data.states[:1], data.prev_actions[:1],
                                 data.stages[:1])[0]
    np.testing.assert_array_equal(one, batch[0])


def test_truth_policy_rejects_unknown_configs():
    with pytest.raises(SimError, match="no truth policy"):
        truth_policy(object())


# ---------------------------------------------------------------------------
# episodic cohort
# ---------------------------------------------------------------------------

def test_episodic_rewards_are_terminal_only():
    cfg = EpisodicSimConfig(n_patients=400, seed=23)
    ds = generate_episodic(cfg)
    assert np.all(ds.lengths == cfg.horizon)
    inner = np.ones(ds.n_steps, dtype=bool)
    inner[ds.offsets[1:] - 1] = False
    assert np.all(ds.rewards[inner] == 0.0)
    assert set(terminal_rewards(ds).tolist()) == {100.0, -100.0}


def test_zero_hazard_scale_means_everyone_survives():
    ds = generate_episodic(EpisodicSimConfig(n_patients=300, hazard_scale=0.0, seed=24))
    assert np.all(terminal_rewards(ds) == 100.0)


def test_survival_matches_the_closed_form():
    cfg = EpisodicSimConfig(n_patients=6000, seed=25)
    ds = generate_episodic(cfg)
    p = episodic_survival_probabilities(cfg, ds)
    emp = np.mean(terminal_rewards(ds) > 0)
    sigma = np.sqrt((p * (1 - p)).sum()) / len(p)
    assert abs(emp - p.mean()) <= 4 * sigma


def test_survival_rate_is_near_the_tuned_target():
    ds = generate_episodic(EpisodicSimConfig(n_patients=4000, seed=26))
    emp = np.mean(terminal_rewards(ds) > 0)
    assert 0.6 <= emp <= 0.8


def test_action_ids_factor_into_dose_bins():
    L = 5
    a = np.arange(L * L)
    f, v = action_to_doses(a, L)
    np.testing.assert_array_equal(f * L + v, a)
    assert f.max() == v.max() == L - 1


def test_episodic_truth_frequencies_match_logged_actions():
    cfg = EpisodicSimConfig(n_patients=4000, seed=27)
    data = build_states(impute_and_encode(generate_episodic(cfg)))
    probs = truth_policy(cfg).probabilities_batch(
        data.states, data.prev_actions, data.stages
    )
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    rows = np.arange(len(data.actions))
    assert probs[rows, data.actions].min() > 0.0
    modal = probs.argmax(axis=1)
    agree = (data.actions == modal).mean()
    expected = probs.max(axis=1).mean()
    assert abs(agree - expected) <= 0.02


# ---------------------------------------------------------------------------
# rollout oracle
# ---------------------------------------------------------------------------

def test_mc_value_of_truth_policy_matches_dataset_mean():
    cfg = ChronicSimConfig(n_patients=4000, seed=31)
    data = build_states(impute_and_encode(generate_chronic(cfg)))
    rets = np.bincount(data.traj_index, weights=data.rewards)
    v, se = monte_carlo_value(truth_policy(cfg), cfg, 30000)
    data_se = rets.std(ddof=1) / np.sqrt(len(rets))
    assert abs(v - rets.mean()) <= 4 * np.sqrt(se**2 + data_se**2)


def test_mc_value_of_episodic_truth_matches_dataset_mean():
    cfg = EpisodicSimConfig(n_patients=4000, seed=32)
    ds = generate_episodic(cfg)
    term = terminal_rewards(ds)
    v, se = monte_carlo_value(truth_policy(cfg), cfg, 30000)
    data_se = term.std(ddof=1) / np.sqrt(len(term))
    assert abs(v - term.mean()) <= 4 * np.sqrt(se**2 + data_se**2)


@pytest.mark.parametrize("cfg, bound_mib", [(ChronicSimConfig(), 17.0),
                                             (EpisodicSimConfig(), 40.0)],
                         ids=["chronic", "episodic"])
def test_a_rollout_keeps_no_step_arrays(cfg, bound_mib):
    # the tracemalloc peak measured 15.3 (chronic) and 37.2 MiB (episodic)
    # with numpy 2 on Python 3.11; keeping the (n, H) covariate, action and
    # reward arrays of the 30,000 rollouts read 23.5 and 44.3 MiB
    policy = truth_policy(cfg)
    tracemalloc.start()
    try:
        monte_carlo_value(policy, cfg, 30000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


class ChronicOraclePolicy:
    """A reference policy with generator knowledge: one-hot on the most
    effective drug of the patient's biomarker subgroup."""

    def __init__(self, cfg: ChronicSimConfig):
        self.n_actions = cfg.n_actions
        self.best = np.argmax(cfg.effects(), axis=1)
        self.g1 = default_assembler(cfg).column("biomarker=g1")

    def probabilities_batch(self, states, prev_actions, stages, evaluation=None):
        best = self.best[(np.asarray(states)[:, self.g1] > 0.5).astype(np.int64)]
        out = np.zeros((len(best), self.n_actions))
        out[np.arange(len(best)), best] = 1.0
        return out


def test_oracle_drug_policy_beats_behavior_by_a_wide_margin():
    cfg = ChronicSimConfig(n_patients=10, seed=33)
    vb, _ = monte_carlo_value(truth_policy(cfg), cfg, 20000)
    vo, _ = monte_carlo_value(ChronicOraclePolicy(cfg), cfg, 20000)
    assert vo > vb + 20.0


def test_oracle_drug_policy_is_one_hot_on_the_strongest_effect():
    cfg = ChronicSimConfig(n_patients=10, seed=34)
    data = build_states(impute_and_encode(generate_chronic(cfg)))
    probs = ChronicOraclePolicy(cfg).probabilities_batch(
        data.states, data.prev_actions, data.stages
    )
    asm = default_assembler(cfg)
    g = (data.states[:, asm.column("biomarker=g1")] > 0.5).astype(int)
    best = np.argmax(cfg.effects(), axis=1)
    np.testing.assert_array_equal(probs.sum(axis=1), 1.0)
    assert np.all(probs[np.arange(len(g)), best[g]] == 1.0)


def test_mc_standard_error_shrinks_with_more_rollouts():
    cfg = ChronicSimConfig(n_patients=10, seed=35)
    pol = RandomPolicy(cfg.n_actions)
    _, se_small = monte_carlo_value(pol, cfg, 5000)
    _, se_large = monte_carlo_value(pol, cfg, 20000)
    assert se_large < 0.7 * se_small


def test_mc_requires_a_known_config_and_enough_rollouts():
    cfg = ChronicSimConfig(n_patients=10, seed=36)
    with pytest.raises(SimError, match="n_rollouts"):
        monte_carlo_value(RandomPolicy(4), cfg, 1)
    with pytest.raises(SimError, match="cannot roll out"):
        monte_carlo_value(RandomPolicy(4), object(), 100)


@pytest.mark.parametrize("bad", [2.5, "5", 1e3, True, None])
def test_mc_refuses_a_rollout_count_that_is_not_an_integer(bad):
    with pytest.raises(SimError, match=re.escape(
            f"n_rollouts must be an integer, got {bad!r}")):
        monte_carlo_value(RandomPolicy(4), ChronicSimConfig(n_patients=10, seed=36), bad)


def test_mc_takes_a_numpy_integer_rollout_count():
    cfg = ChronicSimConfig(n_patients=10, seed=36)
    assert (monte_carlo_value(RandomPolicy(4), cfg, np.int64(50))
            == monte_carlo_value(RandomPolicy(4), cfg, 50))


def test_any_config_function_refuses_an_unknown_config():
    for call, refusal in ((simulate, "cannot simulate a"),
                          (default_assembler, "no state layout for a"),
                          (truth_policy, "no truth policy for")):
        with pytest.raises(SimError, match=f"^{refusal} object$"):
            call(object())


def test_mc_respects_state_config_variants():
    cfg = ChronicSimConfig(n_patients=10, seed=37)
    lean = StateConfig(switch_count=False, mean_reward=False)
    v_full, _ = monte_carlo_value(truth_policy(cfg), cfg, 3000)
    v_lean, _ = monte_carlo_value(
        truth_policy(cfg, default_assembler(cfg, lean)), cfg, 3000,
        state_config=lean,
    )
    assert v_full == v_lean


# ---------------------------------------------------------------------------
# configuration and manifests
# ---------------------------------------------------------------------------

def test_config_validation_messages():
    with pytest.raises(SimError, match="n_patients"):
        ChronicSimConfig(n_patients=0)
    with pytest.raises(SimError, match=r"K must lie in \[2, 8\]"):
        ChronicSimConfig(n_patients=5, n_actions=9)
    with pytest.raises(SimError, match="horizon"):
        ChronicSimConfig(n_patients=5, horizon_range=(4, 2))
    with pytest.raises(SimError, match="floor_epsilon"):
        ChronicSimConfig(n_patients=5, floor_epsilon=0.0)
    with pytest.raises(SimError, match="effect matrix"):
        ChronicSimConfig(n_patients=5, effect_matrix=((1.0, 2.0),))
    with pytest.raises(SimError, match="dose_levels"):
        EpisodicSimConfig(n_patients=5, dose_levels=1)
    with pytest.raises(SimError, match="hazard_scale"):
        EpisodicSimConfig(n_patients=5, hazard_scale=-0.5)


def test_malformed_config_values_are_sim_errors_naming_the_key():
    for cls, key, bad, message in (
            (ChronicSimConfig, "n_patients", "x", "n_patients must be an integer"),
            (EpisodicSimConfig, "horizon", 2.5, "horizon must be an integer"),
            (ChronicSimConfig, "drift", None, "drift must be a finite number"),
            (EpisodicSimConfig, "hazard_scale", float("nan"),
             "hazard_scale must be a finite number"),
            (ChronicSimConfig, "hidden_confounder", "yes", "hidden_confounder must be a boolean"),
            (ChronicSimConfig, "horizon_range", 3, "horizon_range must be a pair of integers"),
            (ChronicSimConfig, "index_range", ["a", 1], "index_range must be a pair"),
            (ChronicSimConfig, "effect_matrix", [[1, 2, 3, 4], "abcd"], "effect matrix"),
            (ChronicSimConfig, "typo", 1, "unknown ChronicSimConfig keys ['typo']")):
        with pytest.raises(SimError, match=re.escape(message)):
            cls.from_json({key: bad})
    with pytest.raises(SimError, match="needs a JSON object"):
        EpisodicSimConfig.from_json([1])


def test_numpy_typed_values_write_the_provenance_of_plain_ones():
    plain = [ChronicSimConfig(n_patients=5, n_actions=3, horizon_range=(2, 4),
                              index_range=(0, 70.0), drift=2.5,
                              effect_matrix=((5.0, 1, 0.5), (0.25, 1.0, 5)), seed=3),
             EpisodicSimConfig(n_patients=6, dose_levels=3, hazard_scale=0.5, seed=3)]
    typed = [ChronicSimConfig(n_patients=np.int64(5), n_actions=np.int32(3),
                              horizon_range=(np.int64(2), np.uint8(4)),
                              index_range=(0, np.float32(70.0)), drift=np.float32(2.5),
                              effect_matrix=[[np.float32(5.0), 1, 0.5], [np.float64(0.25), 1.0, 5]],
                              seed=np.int64(3)),
             EpisodicSimConfig(n_patients=np.int64(6), dose_levels=np.int16(3),
                               hazard_scale=np.float32(0.5), seed=np.uint64(3))]
    for a, b in zip(plain, typed):
        assert b == a
        assert simulate(b).provenance == simulate(a).provenance
    assert type(typed[0].horizon_range[1]) is int and type(typed[0].drift) is float


def test_custom_effect_matrix_is_used_verbatim():
    m = ((5.0, 1.0, 0.0), (0.0, 1.0, 5.0))
    cfg = ChronicSimConfig(n_patients=5, n_actions=3, effect_matrix=m)
    np.testing.assert_array_equal(cfg.effects(), np.asarray(m))


def test_config_json_round_trips():
    c = ChronicSimConfig(n_patients=7, n_actions=5, effect_matrix=None,
                         baseline_index_tilt=1.1, seed=9)
    assert ChronicSimConfig.from_json(c.to_json()) == c
    e = EpisodicSimConfig(n_patients=7, dose_levels=4, hazard_scale=0.5, seed=9)
    assert EpisodicSimConfig.from_json(e.to_json()) == e


def test_provenance_embeds_a_replayable_config():
    cfg = EpisodicSimConfig(n_patients=25, seed=41)
    ds = simulate(cfg)
    back = config_from_provenance(ds.provenance)
    assert back == cfg
    again = simulate(back)
    assert dataset_payload(again) == dataset_payload(ds)


def test_manifest_file_round_trip(tmp_path):
    cfg = ChronicSimConfig(n_patients=12, seed=42)
    path = tmp_path / "manifest.json"
    write_manifest(path, cfg)
    assert read_manifest(path) == cfg


def test_provenance_rejects_foreign_payloads():
    with pytest.raises(SimError, match="not a generator manifest"):
        config_from_provenance("just some text")
    with pytest.raises(SimError, match="not a generator manifest"):
        config_from_provenance('{"foo": 1}')
    bad = config_to_provenance(ChronicSimConfig(n_patients=5)).replace(
        '"version": 1', '"version": 99'
    )
    with pytest.raises(SimError, match="unsupported manifest version"):
        config_from_provenance(bad)
    with pytest.raises(SimError, match="unknown simulator kind"):
        config_from_provenance(
            '{"simulator": "weird", "version": 1, "config": {}}'
        )


def test_a_manifest_integer_too_long_to_convert_is_a_sim_error(tmp_path):
    # more digits than Python converts to an int: a bare ValueError before
    text = '{"simulator": "chronic", "version": ' + "1" * 5000 + "}"
    with pytest.raises(SimError, match="provenance is not a generator manifest: Exceeds"):
        config_from_provenance(text)
    path = tmp_path / "manifest.json"
    for text in (text, "[]"):
        path.write_text(text)
        with pytest.raises(SimError, match=re.escape(
                f"manifest {path} is not a generator manifest")):
            read_manifest(path)


def test_a_manifest_nested_too_deep_is_a_sim_error(tmp_path):
    # nested past the recursion limit: a bare RecursionError before
    text = '{"simulator": "chronic", "config": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(SimError, match="provenance is not a generator manifest: a value "
                                       "nested too deep"):
        config_from_provenance(text)
    path = tmp_path / "manifest.json"
    path.write_text(text)
    with pytest.raises(SimError, match=re.escape(
            f"manifest {path} is not a generator manifest: a value nested too deep")):
        read_manifest(path)


@pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
def test_provenance_version_is_an_integer_not_one_of_its_equals(version):
    """``true == 1`` and ``1.0 == 1``, so an equality test would read these
    as version 1."""
    text = config_to_provenance(ChronicSimConfig(n_patients=5))
    assert text.endswith(', "version": 1}')
    with pytest.raises(SimError, match=re.escape(
            f"malformed generator manifest: 'version' must be an integer, "
            f"got {json.loads(version)!r}")):
        config_from_provenance(text.replace('"version": 1}', f'"version": {version}}}'))
    with pytest.raises(SimError, match="unsupported manifest version None"):
        config_from_provenance(text.replace(', "version": 1}', "}"))
