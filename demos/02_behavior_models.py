"""
Modeling how clinicians choose treatments
=========================================

Three behavior models of increasing structure. A plain tree (dt) predicts the
drug from the state directly. The switch model (dts) first asks "stay or
switch?" and only models the new drug on switch events, which matches how
maintenance prescribing actually works. The baseline variant (dtbls) adds a
dedicated tree for the first prescription, whose rules differ from follow-up
care. All three expose the same probability interface.
"""

from pathlib import Path

import numpy as np

from clinpol import (
    ChronicSimConfig,
    SplitSpec,
    TreeHyperparams,
    auroc_macro,
    build_states,
    fit_dt,
    fit_dtbls,
    fit_dts,
    fit_imputation,
    generate_chronic,
    impute_and_encode,
    sce,
    split_dataset,
    tree_to_dot,
)

# ---------------------------------------------------------------------------
# cohort -> encoded step matrices
# ---------------------------------------------------------------------------

raw = generate_chronic(ChronicSimConfig(n_patients=1500, seed=3))
train_ds, val_ds, test_ds = split_dataset(raw, SplitSpec(0.8, 0.25, seed=3))

# imputation statistics come from the training patients only and are reused
# for the other partitions
stats = fit_imputation(train_ds)
train, val, test = (build_states(impute_and_encode(part, stats))
                    for part in (train_ds, val_ds, test_ds))
print(f"train {train.n_trajectories} patients / {len(train)} steps, "
      f"val {val.n_trajectories}, test {test.n_trajectories}")
print(f"state features: {train.feature_names}")

# ---------------------------------------------------------------------------
# fit all three kinds with a shared capacity budget
# ---------------------------------------------------------------------------

hp = TreeHyperparams(max_depth=2, min_leaf_fraction=0.01)
models = {
    "dt": fit_dt(train, hp),
    "dts": fit_dts(train, hp),
    "dtbls": fit_dtbls(train, hp),
}

print("\nvalidation AUROC (uncalibrated):")
for kind, model in models.items():
    probs = model.action_probabilities_batch(val.states, val.prev_actions, val.stages)
    print(f"  {kind:6s} {auroc_macro(probs, val.actions):.4f}")

# ---------------------------------------------------------------------------
# calibrate the winner on validation, then report held-out quality
# ---------------------------------------------------------------------------

best = models["dtbls"].calibrate(val)
probs = best.action_probabilities_batch(test.states, test.prev_actions, test.stages)
print(f"\ncalibrated dtbls on test: AUROC {auroc_macro(probs, test.actions):.4f}, "
      f"SCE {sce(probs, test.actions):.4f}")

# probabilities always form a distribution over the K drugs
print(f"max |row sum - 1| on test: {np.max(np.abs(probs.sum(axis=1) - 1.0)):.2e}")

# ---------------------------------------------------------------------------
# the fitted trees are small enough to read
# ---------------------------------------------------------------------------

switch_tree = best.trees["switch"]
dot = tree_to_dot(switch_tree, class_names=("stay", "switch"))
out = Path("demo_output")
out.mkdir(exist_ok=True)
(out / "switch_tree.dot").write_text(dot, encoding="utf-8")
print(f"\nswitch tree written to {out / 'switch_tree.dot'}; its root split:")
# node 0 of the preorder node arrays is the root; a leaf's feature is -1
feature, threshold = switch_tree.feature[0], switch_tree.threshold[0]
print(f"  {switch_tree.feature_names[feature]} <= {threshold:.3f}" if feature >= 0
      else "  none, the tree is one leaf")
