"""Release gate: ten end-to-end checks over the full pipeline.

Every test prints a single PASS/FAIL verdict line (visible under ``pytest -s``,
or in captured output on failure) and then asserts, so a red run still shows
the whole scoreboard up to the first failure. The checks combine exact
self-consistency identities, oracle equivalence against independently written
reference implementations, and qualitative patterns on the bundled simulators.
"""

import time
from pathlib import Path

import numpy as np

from clinpol.behavior import fit_dt, fit_dtbls, fit_dts
from clinpol.data import (
    NONE_ACTION,
    SplitSpec,
    build_states,
    impute_and_encode,
    split_dataset,
)
from clinpol.harness import ExperimentConfig, run_experiment
from clinpol.metrics import auroc_macro, binary_auroc, sce
from clinpol.ope import (
    effective_sample_size,
    importance_weights,
    is_estimate,
    median_iqr,
    wis_estimate,
)
from clinpol.policies import RandomPolicy, SwitchAdjustedPolicy, TopKPolicy
from clinpol.sim import (
    ChronicSimConfig,
    EpisodicSimConfig,
    generate_chronic,
    generate_episodic,
    monte_carlo_value,
    truth_policy,
)
from clinpol.tree import TreeHyperparams, tree_from_json, tree_to_json

from test_behavior import leaf_model
from test_calibration import oracle_pairwise_auroc, sce_oracle
from test_tree import assert_tree_matches_oracle

HP4 = TreeHyperparams(max_depth=4, min_leaf_fraction=0.01)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}  {label}", flush=True)
    assert ok, f"{label}: {detail}"


def _prepared(raw):
    return build_states(impute_and_encode(raw))


# ---------------------------------------------------------------------------
# 1. self-evaluation exactness
# ---------------------------------------------------------------------------

def test_01_self_evaluation_is_exact():
    t0 = time.perf_counter()
    data = _prepared(generate_chronic(ChronicSimConfig(n_patients=2000, seed=11)))
    mean_return = float(np.mean(data.trajectory_returns()))
    # the dts first-stage distribution is supported only on observed switch
    # targets, so its components stay shallow enough to cover every logged
    # first action; zero-support evaluation is a separate, tested error path
    hp3 = TreeHyperparams(max_depth=3, min_leaf_fraction=0.01)
    models = (
        fit_dt(data, HP4),
        fit_dts(data, hp3, hp3),
        fit_dtbls(data, HP4, HP4, HP4),
    )
    ok = True
    notes = []
    for model in models:
        weights = importance_weights(TopKPolicy(model, model.n_actions), model, data)
        res = wis_estimate(weights)
        weights_one = bool(np.all(weights.weights == 1.0))
        value_gap = abs(res.value - mean_return)
        ess_exact = res.ess == float(res.n) and res.n == data.n_trajectories
        ok = ok and weights_one and value_gap <= 1e-12 and ess_exact
        notes.append(f"{model.kind}: gap={value_gap:.1e} ess={res.ess:.0f}/{res.n}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict(
        1,
        "k=K self-evaluation gives unit weights, the mean return, and ESS = n",
        ok,
        f"{'; '.join(notes)}; elapsed {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. importance sampling agrees with rollout values
# ---------------------------------------------------------------------------

def test_02_is_estimate_tracks_rollout_value():
    t0 = time.perf_counter()
    # the fat-tail guard: a probability floor of 0.2/K and short horizons keep
    # per-step ratios bounded, so 10^4 trajectories carry a usable SE
    base = dict(n_patients=10_000, floor_epsilon=0.2, horizon_range=(3, 4))
    target = RandomPolicy(n_actions=4)
    mc_value, mc_se = monte_carlo_value(
        target, ChronicSimConfig(seed=0, **base), 100_000
    )
    hits = 0
    worst = 0.0
    for i in range(50):
        cfg = ChronicSimConfig(seed=1000 + i, **base)
        data = _prepared(generate_chronic(cfg))
        weights = importance_weights(target, truth_policy(cfg), data)
        res = is_estimate(weights)
        wg = weights.weights * weights.returns
        se = float(wg.std(ddof=1) / np.sqrt(len(wg)))
        z = (res.value - mc_value) / float(np.hypot(se, mc_se))
        worst = max(worst, abs(z))
        hits += abs(z) <= 3.0
    elapsed = time.perf_counter() - t0
    ok = hits >= 45 and elapsed < 300.0
    _verdict(
        2,
        "IS over 10^4 trajectories lands within 3 SE of the rollout value",
        ok,
        f"hits {hits}/50, worst |z| {worst:.2f}, elapsed {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 3. ESS grows with k on the episodic simulator
# ---------------------------------------------------------------------------

def test_03_episodic_ess_grows_with_k():
    hp = TreeHyperparams(max_depth=6, min_leaf_fraction=0.005)
    per_k = {1: [], 2: [], 3: []}
    for i in range(20):
        data = _prepared(
            generate_episodic(EpisodicSimConfig(n_patients=2000, seed=300 + i))
        )
        model = fit_dt(data, hp)
        for k in per_k:
            res = wis_estimate(
                importance_weights(TopKPolicy(model, k), model, data)
            )
            per_k[k].append(res.ess)
    med = {k: float(np.median(v)) for k, v in per_k.items()}
    ok = med[1] < med[2] < med[3]
    _verdict(
        3,
        "median ESS increases strictly from k=1 to k=2 to k=3",
        ok,
        f"medians {med[1]:.1f}, {med[2]:.1f}, {med[3]:.1f}",
    )


# ---------------------------------------------------------------------------
# 4. the learned top-1 policy beats the behavior policy
# ---------------------------------------------------------------------------

def test_04_learned_top1_beats_behavior():
    wins = 0
    first = None
    for i in range(50):
        cfg = ChronicSimConfig(n_patients=2000, seed=2000 + i)
        data = _prepared(generate_chronic(cfg))
        model = fit_dtbls(data, HP4, HP4, HP4)
        if first is None:
            first = (model, cfg)
        res = wis_estimate(importance_weights(TopKPolicy(model, 1), model, data))
        wins += res.value > float(np.mean(data.trajectory_returns()))
    model, cfg = first
    policy_value, policy_se = monte_carlo_value(TopKPolicy(model, 1), cfg, 20_000)
    behavior_value, behavior_se = monte_carlo_value(truth_policy(cfg), cfg, 20_000)
    margin = policy_value - behavior_value
    # the rollout check keeps the win count honest: the estimated advantage
    # must reflect a real one, not estimator optimism
    ok = wins >= 40 and margin > 3.0 * float(np.hypot(policy_se, behavior_se))
    _verdict(
        4,
        "top-1 WIS beats the behavior mean in >= 40/50 seeds and in truth",
        ok,
        f"wins {wins}/50, rollout margin {margin:.2f} "
        f"(policy {policy_value:.2f} vs behavior {behavior_value:.2f})",
    )


# ---------------------------------------------------------------------------
# 5. estimate spread widens as the switch push grows
# ---------------------------------------------------------------------------

def test_05_wis_spread_grows_with_switch_push():
    p1_grid = (0.0, 0.1, 0.3, 0.5)
    values = {p1: [] for p1 in p1_grid}
    for i in range(50):
        cfg = ChronicSimConfig(n_patients=2000, seed=4000 + i)
        data = _prepared(generate_chronic(cfg))
        model = fit_dtbls(data, HP4, HP4, HP4)
        for p1 in p1_grid:
            res = wis_estimate(
                importance_weights(SwitchAdjustedPolicy(model, 2, p1), model, data)
            )
            values[p1].append(res.value)
    widths = []
    for p1 in p1_grid:
        _, q1, q3 = median_iqr(values[p1])
        widths.append(q3 - q1)
    ok = all(b >= a for a, b in zip(widths, widths[1:]))
    _verdict(
        5,
        "IQR width of WIS values is non-decreasing in p1 at fixed k",
        ok,
        "widths " + ", ".join(f"{w:.2f}" for w in widths),
    )


# ---------------------------------------------------------------------------
# 6. tree fitting matches the exhaustive split oracle
# ---------------------------------------------------------------------------

def test_06_tree_splits_match_oracle_on_random_data():
    rng = np.random.default_rng(20260823)
    internal = 0
    trees_with_splits = 0
    for _ in range(100):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(1, 6))
        n_classes = int(rng.integers(2, 6))
        X = rng.random((n, d))
        for j in range(d):
            # quantized columns create the value ties that stress the
            # threshold and tie-break logic
            if rng.random() < 0.6:
                levels = int(rng.integers(2, 13))
                X[:, j] = np.floor(X[:, j] * levels) / levels
        y = (np.digitize(X[:, 0], [0.33, 0.66]) + rng.integers(0, 2, size=n)) % n_classes
        hp = TreeHyperparams(
            max_depth=int(rng.integers(2, 5)),
            min_leaf_fraction=float(rng.choice([0.02, 0.05, 0.1])),
        )
        tree = assert_tree_matches_oracle(X, y, hp, n_classes)
        clone = tree_from_json(tree_to_json(tree))
        Xq = rng.random((50, d))
        assert np.array_equal(tree.predict_proba_batch(Xq), clone.predict_proba_batch(Xq))

        def n_internal(node):
            return 0 if node.is_leaf else 1 + n_internal(node.left) + n_internal(node.right)

        count = n_internal(tree.root)
        internal += count
        trees_with_splits += count > 0
    ok = trees_with_splits >= 90 and internal >= 300
    _verdict(
        6,
        "100 random datasets: every split oracle-optimal, JSON round trip exact",
        ok,
        f"{trees_with_splits}/100 trees split, {internal} internal nodes checked",
    )


# ---------------------------------------------------------------------------
# 7. switch composition battery
# ---------------------------------------------------------------------------

def test_07_composition_battery():
    S = np.zeros(1)
    # p_switch = 0.2 with conditional (0, 0.6, 0.4): exact complement and products
    m = leaf_model([8, 2], [5, 3, 2])
    out = m.action_probabilities_batch(S[None, :], [0], [2])[0]
    exact_mid = (
        out[0] == 1.0 - 0.2
        and out[1] == 0.2 * (0.3 / 0.5)
        and out[2] == 0.2 * (0.2 / 0.5)
        and bool(np.allclose(out, [0.8, 0.12, 0.08], rtol=0.0, atol=1e-12))
    )
    # p_switch = 0: probability mass stays on the previous treatment
    never = leaf_model([10, 0], [5, 3, 2]).action_probabilities_batch(S[None, :], [1], [2])[0]
    exact_zero = never.tolist() == [0.0, 1.0, 0.0]
    # p_switch = 1: the composition collapses to the conditional distribution
    always_model = leaf_model([0, 10], [5, 3, 2])
    always = always_model.action_probabilities_batch(S[None, :], [0], [2])[0]
    cond = always_model.conditional_switch_batch(S[None, :], [0])[0]
    exact_one = bool(np.array_equal(always, cond)) and always[0] == 0.0

    # fitted compositions on 10^4 logged follow-up states stay on the simplex
    data = _prepared(generate_chronic(ChronicSimConfig(n_patients=3000, seed=77)))
    follow = data.subset(data.prev_actions != NONE_ACTION)
    assert len(follow) >= 10_000
    worst = 0.0
    nonneg = True
    for hp in (HP4, TreeHyperparams(max_depth=7, min_leaf_fraction=0.02)):
        model = fit_dts(data, hp, hp)
        p = model.action_probabilities_batch(
            follow.states[:10_000], follow.prev_actions[:10_000], follow.stages[:10_000]
        )
        worst = max(worst, float(np.max(np.abs(p.sum(axis=1) - 1.0))))
        nonneg = nonneg and bool(np.all(p >= 0.0))
    ok = exact_mid and exact_zero and exact_one and worst <= 1e-9 and nonneg
    _verdict(
        7,
        "switch composition: boundary cases exact, 10^4 rows on the simplex",
        ok,
        f"mid={exact_mid} zero={exact_zero} one={exact_one} max|sum-1|={worst:.1e}",
    )


# ---------------------------------------------------------------------------
# 8. metric oracles
# ---------------------------------------------------------------------------

def test_08_metric_oracles():
    rng = np.random.default_rng(8)
    auroc_exact = True
    for trial in range(12):
        n = int(rng.integers(2, 501))
        scores = rng.random(n)
        if trial % 2:
            # coarse scores force tied pairs
            scores = np.round(scores, 1)
        positives = np.zeros(n, dtype=bool)
        positives[rng.permutation(n)[: int(rng.integers(1, n))]] = True
        auroc_exact = auroc_exact and (
            binary_auroc(scores, positives) == oracle_pairwise_auroc(scores, positives)
        )

    sce_gap = 0.0
    for n_classes, n_bins in ((3, 10), (5, 10), (4, 7)):
        scores = rng.dirichlet(np.ones(n_classes), size=400)
        labels = rng.integers(0, n_classes, size=400)
        sce_gap = max(
            sce_gap,
            abs(sce(scores, labels, n_bins=n_bins) - sce_oracle(scores, labels, n_bins)),
        )

    ess_exact = (
        effective_sample_size([1.0, 1.0, 1.0, 1.0]) == 4.0
        and effective_sample_size([2.0, 0.0, 0.0, 0.0]) == 1.0
        and effective_sample_size([1.0, 2.0, 3.0]) == 18.0 / 7.0
    )
    ok = auroc_exact and sce_gap <= 1e-12 and ess_exact
    _verdict(
        8,
        "AUROC matches pair counting, SCE matches the loop, ESS cases exact",
        ok,
        f"auroc_exact={auroc_exact} sce_gap={sce_gap:.1e} ess_exact={ess_exact}",
    )


# ---------------------------------------------------------------------------
# 9. models that see the baseline/follow-up structure rank higher
# ---------------------------------------------------------------------------

def test_09_structured_models_rank_higher():
    hp = TreeHyperparams(max_depth=2, min_leaf_fraction=0.01)
    scores = {"dt": [], "dts": [], "dtbls": []}
    for i in range(20):
        raw = generate_chronic(ChronicSimConfig(n_patients=1500, seed=100 + i))
        train_ds, val_ds, _ = split_dataset(raw, SplitSpec(0.8, 0.25, seed=100 + i))
        train = build_states(impute_and_encode(train_ds))
        val = build_states(impute_and_encode(val_ds, stats_source=train_ds))
        fitted = {
            "dt": fit_dt(train, hp),
            "dts": fit_dts(train, hp, hp),
            "dtbls": fit_dtbls(train, hp, hp, hp),
        }
        for kind, model in fitted.items():
            probs = model.action_probabilities_batch(
                val.states, val.prev_actions, val.stages
            )
            scores[kind].append(auroc_macro(probs, val.actions))
    med = {kind: float(np.median(v)) for kind, v in scores.items()}
    ok = med["dtbls"] >= med["dts"] >= med["dt"]
    _verdict(
        9,
        "median held-out AUROC orders dtbls >= dts >= dt",
        ok,
        f"dtbls {med['dtbls']:.4f}, dts {med['dts']:.4f}, dt {med['dt']:.4f}",
    )


# ---------------------------------------------------------------------------
# 10. the full pipeline is byte-reproducible and fast enough
# ---------------------------------------------------------------------------

def test_10_pipeline_is_byte_reproducible(tmp_path):
    policies = (
        {"type": "behavior"},
        {"type": "mc", "k": 1},
        {"type": "mc", "k": 2},
        {"type": "mc", "k": 3},
        {"type": "mc_o", "k": 2},
        {"type": "mc_switch_adj", "k": 2, "p1": 0.1},
    )

    def run(out_dir):
        return run_experiment(ExperimentConfig(
            simulator=ChronicSimConfig(n_patients=2000, seed=0),
            n_repeats=50,
            model="dtbls",
            n_candidates=30,
            policies=policies,
            estimator="wis",
            out_dir=str(out_dir),
            seed=123,
        ))

    t0 = time.perf_counter()
    first = run(tmp_path / "a")
    single = time.perf_counter() - t0
    second = run(tmp_path / "b")

    identical = all(
        Path(first[name]).read_bytes() == Path(second[name]).read_bytes()
        for name in first
    )
    n_rows = len(Path(first["rows"]).read_text().splitlines()) - 1
    n_failures = len(Path(first["failures"]).read_text().splitlines()) - 1
    ok = identical and n_rows == 50 * 6 and n_failures == 0 and single < 600.0
    _verdict(
        10,
        "50-repeat pipeline byte-identical across runs, under 10 minutes",
        ok,
        f"identical={identical} rows={n_rows} failures={n_failures} "
        f"single run {single:.0f}s",
    )
