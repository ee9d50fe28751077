"""Patient streams: ``sim._streams`` seeds each patient exactly as NumPy's
``PCG64(SeedSequence([seed, patient]))`` does.

Needs only numpy and ``clinpol.sim``, so it can run alone under the oldest
numpy that clinpol allows.
"""

import sys

import numpy as np
import pytest

from clinpol import data, sim
from clinpol.sim import ChronicSimConfig, EpisodicSimConfig, generate_chronic, simulate

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
# one-word and two-word indices, at and around the word boundaries
INDICES = [0, 1, 2**16, 2**31, 2**32 - 1, 2**32, 2**40]


def reference_streams(cfg, patients):
    """The per-patient streams as NumPy builds them, one object pair each."""
    for row, i in enumerate(patients):
        yield row, np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))


def states(cfg, patients, streams):
    """The bit-generator state each stream yields, each stream then left
    with half a 64-bit word buffered, as an ``integers(2)`` draw leaves it."""
    out = []
    for _, rng in streams(cfg, patients):
        out.append(rng.bit_generator.state)
        rng.integers(2)
    return out


def payload(ds):
    return (ds.ids, ds.offsets.tobytes(), ds.covariates.tobytes(), ds.actions.tobytes(),
            ds.rewards.tobytes())


@pytest.mark.parametrize("seed", SEEDS)
def test_each_patient_starts_where_numpy_seeds_it(seed):
    cfg = ChronicSimConfig(n_patients=2**40 + 1, seed=seed)
    for i in INDICES:
        patients = range(i, i + 1)
        assert states(cfg, patients, sim._streams) == states(cfg, patients, reference_streams)


@pytest.mark.parametrize("seed", [3, 2**63 - 1])
def test_a_range_across_the_word_boundary_starts_where_numpy_seeds_it(seed):
    cfg = ChronicSimConfig(n_patients=2**33, seed=seed)
    patients = range(2**32 - 4, 2**32 + 4)
    got = states(cfg, patients, sim._streams)
    assert len(got) == 8
    assert got == states(cfg, patients, reference_streams)


COHORTS = {
    "chronic": ChronicSimConfig(n_patients=40, seed=11),
    "chronic, confounded": ChronicSimConfig(n_patients=40, seed=2**40 + 3,
                                            hidden_confounder=True),
    "episodic": EpisodicSimConfig(n_patients=40, seed=2**32),
    "episodic, 3 doses": EpisodicSimConfig(n_patients=40, seed=2**63 - 1, dose_levels=3),
}


def blocks(cfg, monkeypatch, part_steps):
    monkeypatch.setattr(data, "PART_STEPS", part_steps)
    out = []
    simulate(cfg, each=out.append)
    return [payload(b) for b in out]


@pytest.mark.parametrize("part_steps", [1, 7, sys.maxsize], ids=["1", "7", "unbounded"])
@pytest.mark.parametrize("name", COHORTS)
def test_cohorts_are_the_bytes_of_per_patient_seeding(monkeypatch, name, part_steps):
    cfg = COHORTS[name]
    got = blocks(cfg, monkeypatch, part_steps)
    monkeypatch.setattr(sim, "_streams", reference_streams)
    assert got == blocks(cfg, monkeypatch, part_steps)


@pytest.mark.parametrize("hidden_confounder", [False, True])
def test_a_range_across_the_word_boundary_is_the_bytes_of_per_patient_seeding(
        monkeypatch, hidden_confounder):
    cfg = ChronicSimConfig(n_patients=2**33, seed=5, hidden_confounder=hidden_confounder)
    got = payload(generate_chronic(cfg, 2**32 - 6, 2**32 + 6))
    monkeypatch.setattr(sim, "_streams", reference_streams)
    assert got == payload(generate_chronic(cfg, 2**32 - 6, 2**32 + 6))
