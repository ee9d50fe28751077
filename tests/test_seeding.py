"""Patient streams and draws: ``sim._streams`` seeds each patient exactly
as NumPy's ``PCG64(SeedSequence([seed, patient]))`` does, and the integers
and uniforms read off raw words are the ones numpy's own calls draw.

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


# The draws. Each patient's integers and uniforms are read off one block of
# raw words by numpy's rules, reimplemented; these tests hold them to the
# per-quantity calls they replace.

def reference_chronic_draws(cfg, patients):
    """``sim._chronic_draws`` as numpy's own calls make it, one call per
    quantity on each patient's own generator."""
    n, (lo, hi) = len(patients), cfg.horizon_range
    T, g = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    age, idx, confound = np.empty(n), np.empty(n), np.zeros(n)
    U, Z = np.empty((n, hi)), np.empty((n, hi))
    for row, rng in reference_streams(cfg, patients):
        T[row], g[row] = rng.integers(lo, hi + 1), rng.integers(2)
        age[row], idx[row] = rng.uniform(35.0, 85.0), rng.uniform(20.0, 60.0)
        U[row] = rng.random(hi)
        Z[row] = rng.standard_normal(hi)
        if cfg.hidden_confounder:
            confound[row] = cfg.confounder_scale * rng.standard_normal()
    return (T, g, age, idx, confound), U, Z


def reference_episodic_draws(cfg, patients):
    """``sim._episodic_draws`` as numpy's own calls make it."""
    n, H = len(patients), cfg.horizon
    frailty, sev, vol = np.empty(n), np.empty(n), np.empty(n)
    U, Z, u_surv = np.empty((n, H)), np.empty((n, H, 2)), np.empty(n)
    for row, rng in reference_streams(cfg, patients):
        frailty[row] = np.clip(rng.normal(50.0, 15.0), 0.0, 100.0)
        sev[row], vol[row] = rng.uniform(30.0, 80.0), rng.uniform(20.0, 80.0)
        U[row] = rng.random(H)
        Z[row] = rng.standard_normal((H, 2))
        u_surv[row] = rng.random()
    return (frailty, sev, vol), U, Z, u_surv


def reference_cohort(monkeypatch, cfg, first=0, stop=None):
    with monkeypatch.context() as m:
        m.setattr(sim, "_chronic_draws", reference_chronic_draws)
        m.setattr(sim, "_episodic_draws", reference_episodic_draws)
        return payload(sim._KINDS[type(cfg)].generate(cfg, first, stop))


HORIZON_RANGES = [(3, 3), (1, 1), (3, 5), (1, 7), (2, 9)]


@pytest.mark.parametrize("hidden_confounder", [False, True])
@pytest.mark.parametrize("horizon_range", HORIZON_RANGES, ids=str)
def test_chronic_cohorts_are_the_bytes_of_per_quantity_draws(monkeypatch, horizon_range,
                                                             hidden_confounder):
    """Caught: the horizon read from the high half of word 0 and the
    subgroup from the low half, or a one-value horizon taking bits."""
    cfg = ChronicSimConfig(n_patients=300, seed=2**40 + 3, horizon_range=horizon_range,
                           hidden_confounder=hidden_confounder)
    assert payload(generate_chronic(cfg)) == reference_cohort(monkeypatch, cfg)
    assert payload(generate_chronic(cfg, 17, 90)) == reference_cohort(monkeypatch, cfg, 17, 90)


@pytest.mark.parametrize("name", [name for name in COHORTS if name.startswith("episodic")])
def test_episodic_cohorts_are_the_bytes_of_per_quantity_draws(monkeypatch, name):
    """Caught: the severity and volume scales swapped."""
    cfg = COHORTS[name]
    assert payload(sim.generate_episodic(cfg)) == reference_cohort(monkeypatch, cfg)


def test_the_lemire_rule_is_numpys_where_a_quarter_of_draws_reject():
    """At n = 3 * 2**30 + 1, 2**32 % n is about 2**30, so a quarter of the
    words reject. An accepted word is numpy's value, and numpy takes only
    its low half (one half stays buffered); on a rejected one numpy goes on
    to the high half. Caught: rejecting below n, the bound Lemire's rule
    checks first, in place of ``2**32 % n``.
    """
    n = 3 * 2**30 + 1
    gens = [np.random.default_rng(s) for s in range(4000)]
    words = np.array([np.random.default_rng(s).bit_generator.random_raw() for s in range(4000)],
                     dtype=np.uint64)
    values, rejected = sim._lemire32(words & np.uint64(2**32 - 1), n)
    again, rejected_again = sim._lemire32(words >> np.uint64(32), n)
    assert 0.2 < rejected.mean() < 0.3
    for rng, low, low_out, high, high_out in zip(gens, values, rejected, again, rejected_again):
        got = rng.integers(0, n)
        buffered = rng.bit_generator.state["has_uint32"]
        if not low_out:
            assert (got, buffered) == (low, 1)
        elif not high_out:
            assert (got, buffered) == (high, 0)


@pytest.mark.parametrize("hidden_confounder", [False, True])
def test_rows_that_reject_are_drawn_again_by_numpy(monkeypatch, hidden_confounder):
    """A rejection flagged on every third row leaves the bytes as they
    were. Caught: a redraw seeded by row in place of patient index."""
    cfg = ChronicSimConfig(n_patients=300, seed=7, horizon_range=(2, 9),
                           hidden_confounder=hidden_confounder)
    lemire = sim._lemire32

    def every_third(words, n):
        values, rejected = lemire(words, n)
        return values, rejected | (np.arange(len(words)) % 3 == 0)
    want = [reference_cohort(monkeypatch, cfg), reference_cohort(monkeypatch, cfg, 40, 95)]
    monkeypatch.setattr(sim, "_lemire32", every_third)
    assert [payload(generate_chronic(cfg)), payload(generate_chronic(cfg, 40, 95))] == want


@pytest.mark.parametrize("bounds", [sim.AGE_RANGE, sim.INDEX_START_RANGE,
                                    sim.SEVERITY_START_RANGE, sim.VOLUME_START_RANGE],
                         ids=str)
def test_scaled_doubles_are_numpys_uniforms(bounds):
    """Caught: ``low * (1 - u) + high * u``, which is the same number in
    exact arithmetic."""
    words = np.random.default_rng(3).bit_generator.random_raw(10**6)
    want = np.random.default_rng(3).uniform(*bounds, 10**6)
    assert sim._uniform(sim._doubles(words), bounds).tobytes() == want.tobytes()
