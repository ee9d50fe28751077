"""
What would a different prescribing rule be worth?
=================================================

With a behavior model in hand we can reweight the logged trajectories to
estimate the value of counterfactual policies. The top-k family keeps the
model's k most probable drugs and renormalizes; k = 1 is "always give the
modal drug", k = K returns the behavior policy itself. Because the data come
from a simulator here, every estimate can be checked against fresh rollouts,
which real registry data never allows.
"""

import numpy as np

from clinpol import (
    BestOutcomePolicy,
    ChronicSimConfig,
    Evaluation,
    TopKPolicy,
    TreeHyperparams,
    build_states,
    effective_sample_size,
    fit_dtbls,
    generate_chronic,
    importance_weights,
    impute_and_encode,
    monte_carlo_value,
    truth_policy,
    wis_estimate,
)

cfg = ChronicSimConfig(n_patients=2000, seed=21)
data = build_states(impute_and_encode(generate_chronic(cfg)))

hp = TreeHyperparams(max_depth=4, min_leaf_fraction=0.01)
model = fit_dtbls(data, hp)

# one evaluation of the model on the cohort serves every policy below: each
# policy transforms its probabilities, and it is every weight's denominator
evaluation = Evaluation(model, data)

behavior_mean = float(np.mean(data.trajectory_returns()))
print(f"behavior policy mean return: {behavior_mean:.2f}")

# ---------------------------------------------------------------------------
# WIS estimates for the top-k family, with rollout truth alongside
# ---------------------------------------------------------------------------

print(f"\n{'policy':10s} {'WIS':>8s} {'ESS':>8s} {'rollout':>8s}")
for k in (1, 2, 3, 4):
    policy = TopKPolicy(model, k)
    weights = importance_weights(policy, model, data, evaluation)
    res = wis_estimate(weights)
    rollout, se = monte_carlo_value(policy, cfg, 20_000)
    print(f"mc k={k:<5d} {res.value:8.2f} {res.ess:8.1f} {rollout:8.2f}")

# k = K reproduces the behavior policy: every weight is exactly 1
full = importance_weights(TopKPolicy(model, 4), model, data, evaluation)
print(f"\nk = K self-check: all weights 1 -> {bool(np.all(full.weights == 1.0))}, "
      f"ESS = {effective_sample_size(full.weights):.0f} of n = {len(full)}")

# ---------------------------------------------------------------------------
# outcome-guided selection inside the top-k set
# ---------------------------------------------------------------------------

# mc_o picks, among the k most probable drugs, the one with the best average
# observed outcome in the matching leaf
res_o = wis_estimate(importance_weights(BestOutcomePolicy(model, 2), model, data,
                                        evaluation))
print(f"\nmc_o k=2: WIS {res_o.value:.2f}, ESS {res_o.ess:.1f}")

# ---------------------------------------------------------------------------
# how good could it get? the generator's own oracle
# ---------------------------------------------------------------------------

true_value, se = monte_carlo_value(truth_policy(cfg), cfg, 20_000)
print(f"\nrollout value of the generating policy: {true_value:.2f} (se {se:.2f})")
print("the top-1 policy beats it because practice variation is exploitable:")
print("clinicians mostly pick the right drug for the biomarker group, and the")
print("modal choice strips the exploration noise away")
