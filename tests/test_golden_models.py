"""Byte-level golden hashes of selected behavior models.

The pinned digests were computed on the per-node ``argsort`` splitter that
preceded the shared presorted split search; they hold the winners of
``select_model`` and models fitted at fixed hyperparameters (and so every
tree, threshold, leaf count, outcome average and calibration in them) to
exactly what that implementation produced.
"""

import hashlib
import json

import pytest

from clinpol.behavior import model_to_json
from clinpol.data import (
    SplitSpec,
    build_states,
    fit_imputation,
    impute_and_encode,
    split_dataset,
)
from clinpol.harness import fit_model, select_model
from clinpol.sim import ChronicSimConfig, EpisodicSimConfig, generate_chronic, generate_episodic
from clinpol.tree import TreeHyperparams


def digest(model) -> str:
    text = json.dumps(model_to_json(model), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def cohort(kind, n, seed):
    if kind == "chronic":
        return generate_chronic(ChronicSimConfig(n_patients=n, seed=seed))
    return generate_episodic(EpisodicSimConfig(n_patients=n, seed=seed))


@pytest.mark.parametrize("kind, seed, expected", [
    ("chronic", 21, "6c4a674416fbc728c5a616f26d30cbb1aa1dfa63df62aa2d67d7997c98282dc7"),
    ("episodic", 22, "7bea4181111775c96d6564db5018140e69e01df01aa7308cca912aadeadda587"),
])
def test_selected_model_is_pinned(kind, seed, expected):
    train_ds, val_ds, _ = split_dataset(cohort(kind, 300, seed), SplitSpec(seed=5))
    stats = fit_imputation(train_ds)
    train = build_states(impute_and_encode(train_ds, stats))
    val = build_states(impute_and_encode(val_ds, stats))
    assert digest(select_model(train, val, "dtbls", 30, seed=17)) == expected


@pytest.mark.parametrize("kind, n, seed, model_type, depth, fraction, expected", [
    ("chronic", 90, 7, "dt", 7, 0.05,
     "87d148d16f0d1d1406402265691d3bdb1770f2094bdf384daf6cf377d7d6d868"),
    ("chronic", 90, 7, "dtbls", 2, 0.05,
     "2390a0b98a9f855dd536116fcbb1368465bcd76212e4c2f9bf6d894d99379160"),
    ("episodic", 150, 8, "dtbls", 7, 0.05,
     "7c9c7997745a1a72cb6ca3e7aa012be06d41a50b381d2634cf5f8882e21888a1"),
])
def test_fitted_model_is_pinned(kind, n, seed, model_type, depth, fraction, expected):
    ds = impute_and_encode(cohort(kind, n, seed))
    hp = TreeHyperparams(max_depth=depth, min_leaf_fraction=fraction)
    assert digest(fit_model(model_type, build_states(ds), hp)) == expected
