"""
Simulating treatment cohorts
============================

Two synthetic generators ship with the package. The chronic one produces
variable-length medication histories where clinicians switch drugs when the
disease index climbs; the episodic one produces fixed-length dosing episodes
with a terminal survival outcome. Both are seeded per patient, so any cohort
can be regenerated bit for bit from its config.
"""

from pathlib import Path

import numpy as np

from clinpol import (
    ChronicSimConfig,
    EpisodicSimConfig,
    generate_chronic,
    generate_episodic,
    load_dataset,
    save_dataset,
)
from clinpol.sim import read_manifest, write_manifest

# ---------------------------------------------------------------------------
# a chronic cohort
# ---------------------------------------------------------------------------

cfg = ChronicSimConfig(n_patients=500, seed=7)
cohort = generate_chronic(cfg)

# a cohort is stored as columns: one row per step, and trajectory i is the
# rows offsets[i]:offsets[i + 1]
lengths = cohort.lengths
print(f"chronic cohort: {len(cohort)} patients, "
      f"{cohort.n_steps} steps, horizons {lengths.min()}..{lengths.max()}")

# every step records covariates, the chosen drug, and the reward; a
# categorical covariate holds its category's index in the schema
print(f"first step of patient {cohort.ids[0]}:")
print(f"  covariates {dict(zip(cohort.schema.names, cohort.covariates[0].tolist()))}")
print(f"  action {cohort.actions[0]}, reward {cohort.rewards[0]:.2f}")

# the effect matrix behind the generator: row 0 is the g0 biomarker group,
# row 1 is g1; entry [g, a] is how much drug a lowers group g's index
print("true effect matrix:")
print(np.array2string(cfg.effects(), precision=1))

# ---------------------------------------------------------------------------
# an episodic cohort
# ---------------------------------------------------------------------------

ecfg = EpisodicSimConfig(n_patients=500, seed=7)
episodic = generate_episodic(ecfg)

returns = np.add.reduceat(episodic.rewards, episodic.offsets[:-1])
print(f"\nepisodic cohort: {len(episodic)} patients of "
      f"horizon {ecfg.horizon}, K = {ecfg.n_actions} dose pairs")
print(f"survival fraction: {np.mean(returns > 0):.3f}")

# ---------------------------------------------------------------------------
# cohorts round-trip through JSONL with their provenance attached
# ---------------------------------------------------------------------------

out = Path("demo_output")
out.mkdir(exist_ok=True)
save_dataset(cohort, out / "chronic_demo.jsonl")
manifest = out / "chronic_demo.manifest.json"
write_manifest(manifest, cfg)
reloaded = load_dataset(out / "chronic_demo.jsonl")

print(f"\nJSONL round trip preserves every step: {reloaded == cohort}")

# the manifest reads back as the config that generated the cohort
if read_manifest(manifest) != cfg:
    raise SystemExit(f"{manifest} does not read back as its config")
print(f"{manifest} reads back as its config")

# regeneration from the same config is bitwise identical, so the manifest
# plus the seed is a complete record of the cohort
again = generate_chronic(cfg)
print(f"regenerated rewards identical: {np.array_equal(again.rewards, cohort.rewards)}")
