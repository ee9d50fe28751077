"""
A full repeated-splits experiment in one call
=============================================

The harness wraps the whole workflow: simulate (or load) a cohort, split it,
pick hyperparameters by validation AUROC, calibrate the winner, evaluate a
panel of policies, and write tidy CSVs. Every repeat derives its randomness
from the master seed and its repeat index, so reruns reproduce the output
byte for byte. The same run is available as `clinpol experiment` on the
command line.
"""

import csv
from pathlib import Path

from clinpol import ChronicSimConfig, ExperimentConfig, run_experiment

config = ExperimentConfig(
    simulator=ChronicSimConfig(n_patients=400, seed=0),
    n_repeats=5,
    model="dtbls",
    n_candidates=8,
    policies=(
        {"type": "behavior"},
        {"type": "mc", "k": 1},
        {"type": "mc", "k": 2},
        {"type": "mc_switch_adj", "k": 2, "p1": 0.1},
    ),
    estimator="wis",
    out_dir="demo_output/experiment",
    seed=42,
)

paths = run_experiment(config)
print("files written:")
for name, path in sorted(paths.items()):
    print(f"  {name:9s} {path}")

# ---------------------------------------------------------------------------
# the summary table aggregates over repeats
# ---------------------------------------------------------------------------

with open(paths["summary"], encoding="utf-8") as fh:
    rows = list(csv.DictReader(fh))

print(f"\n{'policy':22s} {'k':>2s} {'value median':>13s} {'ess median':>11s}")
for row in rows:
    label = row["policy"] + (f" p1={row['p1']}" if row["p1"] else "")
    print(f"{label:22s} {row['k']:>2s} {float(row['value_median']):13.2f} "
          f"{float(row['ess_median']):11.1f}")

# a second run with the same config is byte-identical
again = run_experiment(ExperimentConfig(
    simulator=config.simulator, n_repeats=config.n_repeats, model=config.model,
    n_candidates=config.n_candidates, policies=config.policies,
    estimator=config.estimator, out_dir="demo_output/experiment_b",
    seed=config.seed,
))
identical = all(
    Path(paths[name]).read_bytes() == Path(again[name]).read_bytes()
    for name in paths
)
print(f"\nrerun byte-identical: {identical}")
