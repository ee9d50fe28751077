"""Synthetic treatment cohorts with known generators and a rollout oracle.

Two generators produce datasets in the core container format:

* ``generate_chronic``: a relapsing-disease cohort. Each patient carries a
  latent-but-biomarker-visible subgroup that decides which drug works best.
  Prescribers mostly stay on the current drug (switch propensity is a logit
  in disease index and time on treatment), mostly pick the subgroup's
  effective drug, and always keep a uniform exploration floor, so every
  action has positive probability everywhere. Reward is 10 minus the next
  observed disease index.
* ``generate_episodic``: a fixed-horizon acute-care cohort with 25 actions
  (5 fluid dose bins x 5 vasopressor dose bins). Rewards are 0 until the
  terminal step, which pays +100 or -100 from a survival draw whose hazard
  grows with accumulated dose mismatch and patient frailty.

Both behavior policies are closed-form functions of stored features only, so
``truth_policy`` can replay the exact generator probabilities on any dataset
row; nothing the generator consults is hidden from the saved data. (The one
deliberate exception: ``hidden_confounder`` adds an unstored outcome shift to
the chronic generator for documentation examples and is off by default.)

Each simulator's dynamics are written once, as a loop that steps patients
under any policy on states assembled as the data pipeline assembles them,
with random draws its caller supplies. Generating a cohort is a rollout of
the truth policy under per-patient streams; ``monte_carlo_value`` rolls out
any policy, fitted-model ones included, under one stream per config seed,
and keeps only the history its states need, not the step arrays a cohort
hands out. A table keyed by config class gives the functions that take any
config their simulator's schema, truth probabilities, generator and loop.

Determinism: every patient draws from the stream that
``PCG64(SeedSequence([seed, patient_index]))`` starts, with a fixed draw
order, and every step after the draws works row by row, so datasets are
bitwise stable under regeneration regardless of batching: a generator makes
any range of patients, and ``simulate(cfg, each=...)`` hands the cohort out
in blocks that concatenate to the whole. The streams are not built one
object pair per patient: ``_streams`` runs numpy's SeedSequence hash and
PCG64 seeding for a whole range at once and sets one reused generator's
state per patient. Nor is each quantity one numpy call: a chronic patient
takes its integers and uniforms as one block of raw words, read by numpy's
own rules (Lemire's bounded integers, ``(w >> 11) * 2**-53`` doubles,
``low + (high - low) * u`` uniforms) for the whole range at once, and an
episodic patient its start and action uniforms as one call, scaled
afterwards. The normals stay one call per patient, since numpy's ziggurat
tables are not public. ``tests/test_seeding.py`` holds the states, the
draw rules and the cohorts to numpy's own objects and calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import data
from .checks import ANY, INT, NUMBER, Config, Items, Spec, is_integer, is_number, member, setting
from .data import (
    CATEGORICAL,
    NONE_ACTION,
    Dataset,
    Feature,
    FeatureSchema,
    StateAssembler,
    StateConfig,
)
from .errors import ClinpolError

INDEX_CENTER = 40.0  # disease-index standardization used by the switch logit
INDEX_SCALE = 15.0
FRAILTY_CENTER = 50.0
FRAILTY_SCALE = 15.0

MC_SALT = 22695477  # keeps the rollout stream away from patient streams

# the uniform start draws, (low, high) each, one place for the cohorts and
# the rollouts: chronic age and initial disease index, episodic initial
# severity and volume
AGE_RANGE = (35.0, 85.0)
INDEX_START_RANGE = (20.0, 60.0)
SEVERITY_START_RANGE = (30.0, 80.0)
VOLUME_START_RANGE = (20.0, 80.0)


class SimError(ClinpolError):
    pass


# how both simulator configs word a malformed value: "n_patients must be ..."
_SIM_WORDING = {"error": SimError, "lead": "malformed simulator config", "quote": False}


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row from one uniform each."""
    cum = np.cumsum(probs, axis=1)
    a = (cum < u[:, None]).sum(axis=1)
    return np.minimum(a, probs.shape[1] - 1)


def _patients(cfg, first: int, stop: int | None) -> range:
    """Patients ``first:stop`` of the cohort, all of them by default; a range
    that is empty or reaches past the cohort raises a :class:`SimError`."""
    stop = cfg.n_patients if stop is None else stop
    if not (is_integer(first) and is_integer(stop) and 0 <= first < stop <= cfg.n_patients):
        raise SimError(f"patients {first}:{stop} are not a non-empty range of the "
                       f"cohort's {cfg.n_patients}")
    return range(first, stop)


# NumPy's SeedSequence (NEP 19) hash and PCG64 seeding constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF


def _words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, 0 as ``[0]``, as SeedSequence reads it."""
    return [(n >> 32 * j) & _MASK32 for j in range(max(1, (n.bit_length() + 31) // 32))]


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix with its running constant, over uint32 arrays."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x, y):
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _carry(limbs):
    """128-bit little-endian 32-bit limbs, each a uint64 array, with their
    carries propagated and the top one dropped (mod 2**128)."""
    out, carry = [], 0
    for limb in limbs:
        s = limb + carry
        out.append(s & np.uint64(_MASK32))
        carry = s >> np.uint64(32)
    return out


def _add128(a, b):
    return _carry([x + y for x, y in zip(a, b)])


def _mul128(a, m: int):
    """``a * m`` mod 2**128 for limbs ``a`` and a constant ``m``."""
    cols = [0] * 4
    for i in range(4):
        for j in range(4 - i):
            p = a[i] * np.uint64(m >> 32 * j & _MASK32)
            cols[i + j] = cols[i + j] + (p & np.uint64(_MASK32))
            if i + j < 3:
                cols[i + j + 1] = cols[i + j + 1] + (p >> np.uint64(32))
    return _carry(cols)


def _ints(limbs) -> list[int]:
    """Limbs as Python integers."""
    hi = (limbs[2] | limbs[3] << np.uint64(32)).tolist()
    lo = (limbs[0] | limbs[1] << np.uint64(32)).tolist()
    return [h << 64 | l for h, l in zip(hi, lo)]


def _pcg64_seeds(entropy) -> tuple[list[int], list[int]]:
    """The (state, inc) of ``PCG64(SeedSequence(words))`` for each column of
    ``entropy``, a list of equal-length uint32 arrays, one per word.

    Every column has the same number of words, so the hash runs the same
    constants for all of them and is computed for the whole block at once."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    # mix_entropy
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words, read in little-endian pairs
    hashmix = _hasher(_INIT_B, _MULT_B)
    w = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    # pcg64_set_seed: the first uint64 pair is the 128-bit state seed, the
    # second the stream, each as (high, low)
    seed128, initseq = [w[2], w[3], w[0], w[1]], [w[6], w[7], w[4], w[5]]
    # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1 and
    # state = (inc + seed128) * MULT + inc
    inc = _carry([x << np.uint64(1) for x in initseq])
    inc[0] |= np.uint64(1)
    state = _add128(_mul128(_add128(inc, seed128), _PCG_MULT), inc)
    return _ints(state), _ints(inc)


def _streams(cfg, patients: range):
    """(row, generator) of each patient, seeded as
    ``PCG64(SeedSequence([seed, patient]))`` would seed it.

    The seeds of the whole range are hashed at once, a run of patients whose
    indices have the same number of 32-bit words at a time; each patient
    then gets the one reused generator with its state set, nothing buffered,
    from one state dict that is refilled per patient.
    """
    seed_words = _words(int(cfg.seed))
    states, incs = [], []
    first, stop = patients.start, patients.stop
    while first < stop:
        k = len(_words(first))
        end = min(stop, 1 << 32 * k)  # the indices with k words
        carry = np.arange(end - first, dtype=np.uint64)
        index_words = []
        for j in range(k):
            s = carry + np.uint64(first >> 32 * j & _MASK32)
            index_words.append((s & np.uint64(_MASK32)).astype(np.uint32))
            carry = s >> np.uint64(32)
        s, i = _pcg64_seeds([np.full(end - first, w, dtype=np.uint32) for w in seed_words]
                            + index_words)
        states += s
        incs += i
        first = end
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    seeded = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": seeded, "has_uint32": 0, "uinteger": 0}
    for row, (state, inc) in enumerate(zip(states, incs)):
        seeded["state"], seeded["inc"] = state, inc
        bitgen.state = full
        yield row, rng


def _lemire32(words, n: int):
    """``Generator.integers(0, n)`` for 2 <= n < 2**32 from 32-bit ``words``
    (uint64 arrays), by numpy's rule (Lemire 2019): the value is the top half
    of ``word * n``, and a word whose low half is below ``2**32 % n`` is
    rejected, numpy drawing another 32 bits in its place. Returns (values,
    rejected)."""
    m = words * np.uint64(n)
    return (m >> np.uint64(32)).astype(np.int64), (m & np.uint64(_MASK32)) < (1 << 32) % n


def _doubles(words) -> np.ndarray:
    """numpy's doubles in [0, 1) from PCG64 output words: ``(w >> 11) * 2**-53``."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _uniform(u, bounds) -> np.ndarray:
    """``Generator.uniform(low, high)`` from its double ``u``, in numpy's
    arithmetic ``low + (high - low) * u``."""
    low, high = bounds
    return low + (high - low) * u


class _History:
    """The history a simulated patient's next state carries, built as
    ``data.build_states`` builds it from the stored steps (previous action and
    reward, switch count, running mean of the rewards so far). A rollout
    that needs only the returns records this and no more."""

    def __init__(self, cfg, state_config: StateConfig, n: int):
        self.schema = _KINDS[type(cfg)].schema(cfg)
        self.asm = default_assembler(cfg, state_config)
        self.prev = np.full(n, NONE_ACTION, dtype=np.int64)
        self.prev_reward = np.zeros(n)
        self.switches = np.zeros(n)
        self.returns = np.zeros(n)  # rewards so far, summed in stage order

    def act(self, policy, t: int, rows, raw, u) -> np.ndarray:
        """Draw the stage-t actions of ``rows``, whose covariates are ``raw``
        (categorical ones as category indices), from ``policy``, one uniform
        of ``u`` each."""
        encoded = [raw[:, [j]] if f.kind != CATEGORICAL
                   else raw[:, [j]] == np.arange(len(f.categories))
                   for j, f in enumerate(self.schema)]
        prev = self.prev[rows]
        states = self.asm.assemble_batch(np.hstack(encoded), prev, self.prev_reward[rows],
                                         self.switches[rows],
                                         self.returns[rows] / max(t - 1, 1))
        return _sample_rows(policy.probabilities_batch(states, prev, np.full(len(rows), t)), u)

    def record(self, t: int, rows, a, r) -> None:
        """Record the stage-t actions ``a`` and rewards ``r`` of ``rows``."""
        if t > 1:
            self.switches[rows] += a != self.prev[rows]
        self.prev[rows] = a
        self.prev_reward[rows] = r
        self.returns[rows] += r


class _Steps(_History):
    """A :class:`_History` that also keeps the (n, H) step arrays of its
    patients, whose horizons are ``T``, for :func:`_cohort` to hand out."""

    def __init__(self, cfg, T: np.ndarray, H: int):
        super().__init__(cfg, StateConfig(), len(T))
        self.T = T
        self.features = np.zeros((len(T), H, len(self.schema)))
        self.actions = np.zeros((len(T), H), dtype=np.int64)
        self.rewards = np.zeros((len(T), H))

    def act(self, policy, t: int, rows, raw, u) -> np.ndarray:
        self.features[rows, t - 1] = raw
        a = super().act(policy, t, rows, raw, u)
        self.actions[rows, t - 1] = a
        return a

    def record(self, t: int, rows, a, r) -> None:
        super().record(t, rows, a, r)
        self.rewards[rows, t - 1] = r


def _cohort(cfg, patients: range, steps: _Steps) -> Dataset:
    """Hand the steps of ``patients`` over as a dataset: row i keeps its
    first T[i] steps, and patient ``patients[i]`` keeps its id in the cohort."""
    keep = np.arange(steps.actions.shape[1]) < steps.T[:, None]
    return Dataset(
        schema=steps.schema,
        n_actions=cfg.n_actions,
        covariates=steps.features[keep],
        actions=steps.actions[keep],
        rewards=steps.rewards[keep],
        offsets=np.concatenate(([0], np.cumsum(steps.T))),
        ids=[f"p{i:06d}" for i in patients],
        provenance=config_to_provenance(cfg),
    )


# ---------------------------------------------------------------------------
# chronic cohort
# ---------------------------------------------------------------------------

@dataclass
class ChronicSimConfig(Config, **_SIM_WORDING, noun="ChronicSimConfig"):
    """Relapsing-disease generator parameters.

    The per-subgroup effect matrix (rows = 2 subgroups, columns = K actions)
    gives how many index points each drug removes per stage; when omitted it
    is derived so each subgroup has one strong drug, one moderate one, and
    weak alternatives. Prescriber preference logits are proportional to the
    (row-normalized) effect matrix, which is exactly the exploitable practice
    variation: the modal prescription is the right drug, but real mass goes
    to weaker ones.
    """

    n_patients: int = setting(1000, least=1)
    n_actions: int = 4
    horizon_range: tuple = setting((3, 6), Items(INT, 2))
    index_range: tuple = setting((0.0, 76.0), Items(NUMBER, 2))
    switch_intercept: float = -1.6
    switch_index_coef: float = 0.8
    switch_time_coef: float = -0.3
    baseline_index_tilt: float = 0.8
    preference_sharpness: float = 2.4
    effect_matrix: tuple | None = setting(None, ANY)  # shape checked below
    effect_primary: float = 12.0
    effect_secondary: float = 4.0
    effect_other: float = 1.0
    drift: float = 3.0
    noise_scale: float = setting(2.0, least=0)
    floor_epsilon: float = 0.08
    hidden_confounder: bool = False
    confounder_scale: float = 4.0
    seed: int = setting(0, least=0)

    def __post_init__(self):
        super().__post_init__()
        if not (2 <= self.n_actions <= 8):
            raise SimError(f"K must lie in [2, 8], got {self.n_actions}")
        lo, hi = self.horizon_range
        if not (1 <= lo <= hi):
            raise SimError(f"invalid horizon range {self.horizon_range}")
        ilo, ihi = self.index_range
        if not ilo < ihi:
            raise SimError(f"invalid index range {self.index_range}")
        if not (0.0 < self.floor_epsilon < 1.0):
            raise SimError(
                f"floor_epsilon must lie in (0, 1), got {self.floor_epsilon}"
            )
        m = self.effect_matrix
        if m is None:
            return
        if not (isinstance(m, (tuple, list)) and len(m) == 2
                and all(isinstance(r, (tuple, list)) and len(r) == self.n_actions
                        and all(map(is_number, r)) for r in m)):
            raise SimError(f"effect matrix must be 2 rows of {self.n_actions} finite "
                           f"numbers, got {m!r}")
        self.effect_matrix = tuple(tuple(map(NUMBER.read, r)) for r in m)

    def effects(self) -> np.ndarray:
        """Per-subgroup index drop for each action, shape (2, K)."""
        if self.effect_matrix is not None:
            return np.asarray(self.effect_matrix, dtype=np.float64)
        K = self.n_actions
        eff = np.full((2, K), self.effect_other)
        for g in range(2):
            primary = g % K
            secondary = (g + 2) % K
            eff[g, primary] = self.effect_primary
            if secondary != primary:
                eff[g, secondary] = self.effect_secondary
        return eff

    def preference_logits(self) -> np.ndarray:
        eff = self.effects()
        return self.preference_sharpness * eff / eff.max(axis=1, keepdims=True)


def chronic_schema(cfg: ChronicSimConfig) -> FeatureSchema:
    return FeatureSchema((
        Feature("disease_index"),
        Feature("age"),
        Feature("time_on_tx"),
        Feature("biomarker", CATEGORICAL, ("g0", "g1")),
    ))


def _chronic_probs(cfg: ChronicSimConfig, index, tot, subgroup, prev,
                   first) -> np.ndarray:
    """Exact behavior probabilities from the quantities the generator uses.

    ``index`` and ``tot`` (time on treatment) are float arrays, ``first`` a
    boolean array marking t=1 rows (prev is ignored there), all aligned. The
    truth policy reads them out of assembled states, and generation is a
    rollout of the truth policy, so a cohort's actions are drawn from these
    probabilities and no others.
    """
    g = np.asarray(subgroup, dtype=np.int64)
    prev = np.asarray(prev, dtype=np.int64)
    n, K = len(index), cfg.n_actions
    z = (index - INDEX_CENTER) / INDEX_SCALE
    pref = cfg.preference_logits()[g]
    core = np.empty((n, K), dtype=np.float64)

    if np.any(first):
        logits = pref[first].copy()
        primary = g[first] % K
        logits[np.arange(len(primary)), primary] += cfg.baseline_index_tilt * z[first]
        core[first] = _softmax(logits)

    rest = ~first
    if np.any(rest):
        ps = 1.0 / (1.0 + np.exp(-(cfg.switch_intercept
                                   + cfg.switch_index_coef * z[rest]
                                   + cfg.switch_time_coef * (tot[rest] - 1.0))))
        target = np.exp(pref[rest])
        rows = np.arange(len(target))
        target[rows, prev[rest]] = 0.0
        target = target / target.sum(axis=1, keepdims=True)
        composed = ps[:, None] * target
        composed[rows, prev[rest]] = 1.0 - ps
        core[rest] = composed

    eps = cfg.floor_epsilon
    return (1.0 - eps) * core + eps / K


def _chronic_start(cfg: ChronicSimConfig, rng, size=None):
    """Horizon, subgroup, age and initial index, one each or ``size`` each."""
    lo, hi = cfg.horizon_range
    return (rng.integers(lo, hi + 1, size=size), rng.integers(2, size=size),
            rng.uniform(*AGE_RANGE, size=size), rng.uniform(*INDEX_START_RANGE, size=size))


def _chronic_draws(cfg: ChronicSimConfig, patients: range):
    """The start (horizons, subgroups, ages, initial indices, confounder
    shifts) and the (n, H) action uniforms and index noise of ``patients``.

    Each patient draws, in order: horizon, subgroup, age, initial index,
    action uniforms, index noise, then the optional confounder. All but the
    normals are read off one block of ``3 + H`` raw words: the two integers
    from word 0 as numpy's 32-bit rule takes them (the horizon from its low
    half and the subgroup from its high half; a one-value horizon takes no
    bits, and the subgroup the low half), the doubles from the words after.
    A row whose horizon numpy would reject (chance below H / 2**32) is drawn
    again by numpy's own calls.
    """
    n, (lo, hi) = len(patients), cfg.horizon_range
    H, confounded = hi, int(cfg.hidden_confounder)
    words, Z = np.empty((n, 3 + H), dtype=np.uint64), np.empty((n, H + confounded))
    for row, rng in _streams(cfg, patients):
        words[row] = rng.bit_generator.random_raw(3 + H)
        Z[row] = rng.standard_normal(H + confounded)
    halves = words[:, 0] & np.uint64(_MASK32), words[:, 0] >> np.uint64(32)
    if lo == hi:
        T, rejected = np.full(n, lo), np.zeros(n, dtype=bool)
        g, _ = _lemire32(halves[0], 2)
    else:
        T, rejected = _lemire32(halves[0], hi - lo + 1)
        T += lo
        g, _ = _lemire32(halves[1], 2)
    u = _doubles(words[:, 1:])
    age, idx, U = _uniform(u[:, 0], AGE_RANGE), _uniform(u[:, 1], INDEX_START_RANGE), u[:, 2:]
    for row in np.flatnonzero(rejected):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, patients[row]]))
        T[row], g[row], age[row], idx[row] = _chronic_start(cfg, rng)
        U[row] = rng.random(H)
        Z[row] = rng.standard_normal(H + confounded)
    confound = cfg.confounder_scale * Z[:, H] if confounded else np.zeros(n)
    return (T, g, age, idx, confound), U, Z[:, :H]


def _run_chronic(cfg: ChronicSimConfig, policy, steps: _History, start, draw) -> _History:
    """Step the patients of ``start`` (horizons, subgroups, ages, initial
    indices, confounder shifts) to their horizons under ``policy``, recording
    into ``steps``.

    ``draw(t, rows)`` gives the stage-t action uniforms and index noise of
    ``rows``, the patients whose horizon reaches t.
    """
    T, g, age, idx, confound = start
    eff = cfg.effects()
    ilo, ihi = cfg.index_range
    tot = np.zeros(len(T))
    for t in range(1, cfg.horizon_range[1] + 1):
        rows = np.flatnonzero(T >= t)  # the patients that reach stage t
        u, z = draw(t, rows)
        a = steps.act(policy, t, rows,
                      np.column_stack([idx[rows], age[rows], tot[rows], g[rows]]), u)
        nxt = np.clip(idx[rows] - eff[g[rows], a] + cfg.drift + confound[rows]
                      + cfg.noise_scale * z, ilo, ihi)
        tot[rows] = np.where(a == steps.prev[rows], tot[rows] + 1, 1)
        idx[rows] = nxt
        steps.record(t, rows, a, 10.0 - nxt)
    return steps


def generate_chronic(cfg: ChronicSimConfig, first: int = 0,
                     stop: int | None = None) -> Dataset:
    """Simulate patients ``first:stop`` of the chronic cohort, all of them by
    default; bitwise deterministic in (cfg, seed), and a patient's rows are
    the same in every range that holds it."""
    patients = _patients(cfg, first, stop)
    start, U, Z = _chronic_draws(cfg, patients)
    steps = _run_chronic(cfg, truth_policy(cfg), _Steps(cfg, start[0], cfg.horizon_range[1]), start,
                         lambda t, rows: (U[rows, t - 1], Z[rows, t - 1]))
    return _cohort(cfg, patients, steps)


# ---------------------------------------------------------------------------
# episodic cohort
# ---------------------------------------------------------------------------

@dataclass
class EpisodicSimConfig(Config, **_SIM_WORDING, noun="EpisodicSimConfig"):
    """Acute-care generator: K = dose_levels^2 joint fluid/vasopressor bins."""

    n_patients: int = setting(1000, least=1)
    dose_levels: int = setting(5, least=2)
    horizon: int = setting(6, least=2)
    preference_sharpness: float = 2.5
    hazard_scale: float = setting(1.0, least=0)
    hazard_intercept: float = -1.3
    hazard_mismatch_coef: float = 0.10
    hazard_frailty_coef: float = 0.35
    sev_mismatch_coef: float = 1.5
    sev_drift: float = -3.0
    sev_noise: float = 2.0
    vol_fluid_coef: float = 3.0
    vol_drift: float = 6.0
    vol_noise: float = 2.0
    seed: int = setting(0, least=0)

    def __post_init__(self):
        super().__post_init__()
        if self.preference_sharpness <= 0.0:
            raise SimError(
                f"preference_sharpness must be > 0, got {self.preference_sharpness}"
            )

    @property
    def n_actions(self) -> int:
        return self.dose_levels**2


def episodic_schema(cfg: EpisodicSimConfig) -> FeatureSchema:
    return FeatureSchema((
        Feature("severity"),
        Feature("volume"),
        Feature("frailty"),
    ))


def action_to_doses(action, dose_levels: int):
    """Action id -> (fluid bin, vasopressor bin)."""
    a = np.asarray(action, dtype=np.int64)
    return a // dose_levels, a % dose_levels


def _dose_targets(cfg: EpisodicSimConfig, sev, vol):
    top = cfg.dose_levels - 1
    tf = top * np.clip(np.asarray(vol, dtype=np.float64) / 100.0, 0.0, 1.0)
    tv = top * np.clip(np.asarray(sev, dtype=np.float64) / 100.0, 0.0, 1.0)
    return tf, tv


def _episodic_probs(cfg: EpisodicSimConfig, sev, vol) -> np.ndarray:
    """Softmax over joint dose bins, peaked near the state's ideal doses."""
    tf, tv = _dose_targets(cfg, sev, vol)
    L = cfg.dose_levels
    f = (np.arange(L * L) // L).astype(np.float64)
    v = (np.arange(L * L) % L).astype(np.float64)
    logits = -cfg.preference_sharpness * (
        (f[None, :] - tf[:, None]) ** 2 + (v[None, :] - tv[:, None]) ** 2
    )
    return _softmax(logits)


def _episodic_mismatch(cfg: EpisodicSimConfig, sev, vol, action) -> np.ndarray:
    f, v = action_to_doses(action, cfg.dose_levels)
    tf, tv = _dose_targets(cfg, sev, vol)
    return np.abs(f - tf) + np.abs(v - tv)


def _survival_probability(cfg: EpisodicSimConfig, mismatch_sum, frailty) -> np.ndarray:
    arg = (cfg.hazard_intercept
           + cfg.hazard_mismatch_coef * np.asarray(mismatch_sum, dtype=np.float64)
           + cfg.hazard_frailty_coef
           * (np.asarray(frailty, dtype=np.float64) - FRAILTY_CENTER) / FRAILTY_SCALE)
    hazard = cfg.hazard_scale * np.logaddexp(0.0, arg)
    return np.exp(-hazard)


def _episodic_start(cfg: EpisodicSimConfig, rng, size=None):
    """Frailty, initial severity and initial volume, one each or ``size`` each."""
    return (np.clip(rng.normal(FRAILTY_CENTER, FRAILTY_SCALE, size=size), 0.0, 100.0),
            rng.uniform(*SEVERITY_START_RANGE, size=size),
            rng.uniform(*VOLUME_START_RANGE, size=size))


def _episodic_draws(cfg: EpisodicSimConfig, patients: range):
    """The start (frailties, initial severities and volumes), the (n, H)
    action uniforms, the (n, H, 2) severity and volume noise and the
    survival uniforms of ``patients``.

    Each patient draws, in order: frailty, initial severity and volume,
    action uniforms, state noise, survival uniform; the two start uniforms
    come in one call with the action uniforms and are scaled afterwards.
    """
    n, H = len(patients), cfg.horizon
    frailty, u, Z, u_surv = np.empty(n), np.empty((n, 2 + H)), np.empty((n, H, 2)), np.empty(n)
    for row, rng in _streams(cfg, patients):
        frailty[row] = rng.normal(FRAILTY_CENTER, FRAILTY_SCALE)
        u[row] = rng.random(2 + H)
        Z[row] = rng.standard_normal((H, 2))
        u_surv[row] = rng.random()
    start = (np.clip(frailty, 0.0, 100.0), _uniform(u[:, 0], SEVERITY_START_RANGE),
             _uniform(u[:, 1], VOLUME_START_RANGE))
    return start, u[:, 2:], Z, u_surv


def _run_episodic(cfg: EpisodicSimConfig, policy, steps: _History, start, draw) -> _History:
    """Step the patients of ``start`` (frailties, initial severities and
    volumes) through the horizon under ``policy``, recording into ``steps``.

    ``draw(t, rows)`` gives the stage-t action uniforms, severity noise,
    volume noise and, at the last stage only (None before), survival uniforms.
    """
    frailty, sev, vol = start
    H = cfg.horizon
    msum = np.zeros(len(frailty))
    rows = np.arange(len(frailty))  # every patient reaches every stage
    for t in range(1, H + 1):
        u, z_sev, z_vol, u_surv = draw(t, rows)
        a = steps.act(policy, t, rows, np.column_stack([sev, vol, frailty]), u)
        m = _episodic_mismatch(cfg, sev, vol, a)
        msum += m
        f, _ = action_to_doses(a, cfg.dose_levels)
        sev = np.clip(sev + cfg.sev_mismatch_coef * m + cfg.sev_drift
                      + cfg.sev_noise * z_sev, 0.0, 100.0)
        vol = np.clip(vol - cfg.vol_fluid_coef * f + cfg.vol_drift
                      + cfg.vol_noise * z_vol, 0.0, 100.0)
        r = 0.0
        if u_surv is not None:
            r = np.where(u_surv < _survival_probability(cfg, msum, frailty), 100.0, -100.0)
        steps.record(t, rows, a, r)
    return steps


def generate_episodic(cfg: EpisodicSimConfig, first: int = 0,
                      stop: int | None = None) -> Dataset:
    """Simulate patients ``first:stop`` of the acute cohort, all of them by
    default; bitwise deterministic in (cfg, seed), and a patient's rows are
    the same in every range that holds it."""
    patients = _patients(cfg, first, stop)
    n, H = len(patients), cfg.horizon
    start, U, Z, u_surv = _episodic_draws(cfg, patients)
    steps = _run_episodic(cfg, truth_policy(cfg), _Steps(cfg, np.full(n, H), H), start,
                          lambda t, rows: (U[rows, t - 1], Z[rows, t - 1, 0],
                                           Z[rows, t - 1, 1],
                                           u_surv[rows] if t == H else None))
    return _cohort(cfg, patients, steps)


def episodic_survival_probabilities(cfg: EpisodicSimConfig, ds: Dataset) -> np.ndarray:
    """Closed-form per-patient survival chance, recomputed from stored steps.

    The generator draws survival from this chance; it is the reference that
    ``tests/test_sim.py::test_survival_matches_the_closed_form`` holds a
    generated cohort's survival rate to."""
    sev, vol, frailty = (ds.covariates[:, ds.schema.names.index(name)]
                         for name in ("severity", "volume", "frailty"))
    msum = ds.cumsum(_episodic_mismatch(cfg, sev, vol, ds.actions))[ds.offsets[1:] - 1]
    return _survival_probability(cfg, msum, frailty[ds.offsets[:-1]])


# ---------------------------------------------------------------------------
# replayable ground truth
# ---------------------------------------------------------------------------

def default_assembler(cfg, state_config: StateConfig = StateConfig()) -> StateAssembler:
    schema = _kind(cfg, "no state layout for a").schema(cfg)
    return StateAssembler(schema.encoded_names(), cfg.n_actions, state_config)


class TruthPolicy:
    """Exact generator probabilities, read back out of assembled states.

    The probability function is the simulator's, from the ``_KINDS`` table.
    ``probabilities_batch`` takes a policy's optional ``evaluation`` argument
    and ignores it: the generator's probabilities need no behavior model.
    """

    kind = "truth"

    def __init__(self, cfg, assembler: StateAssembler | None = None):
        self._probs = _kind(cfg, "no truth policy for").truth
        self.cfg = cfg
        self.n_actions = cfg.n_actions
        self._asm = assembler or default_assembler(cfg)

    def _columns(self, states, *names):
        """The columns ``names`` of ``states``, laid out by the assembler."""
        states = np.asarray(states, dtype=np.float64)
        return [states[:, self._asm.column(name)] for name in names]

    def probabilities_batch(self, states, prev_actions, stages,
                            evaluation=None) -> np.ndarray:
        return self._probs(self, states, prev_actions, stages)

    # the truth policy serves both sides of an evaluation: target policy and
    # behavior-model denominator
    def action_probabilities_batch(self, states, prev_actions, stages) -> np.ndarray:
        return self.probabilities_batch(states, prev_actions, stages)


def _chronic_truth(policy: TruthPolicy, states, prev_actions, stages) -> np.ndarray:
    index, tot, g1 = policy._columns(states, "disease_index", "time_on_tx", "biomarker=g1")
    return _chronic_probs(policy.cfg, index, tot, g1 > 0.5, prev_actions,
                          np.asarray(stages) == 1)


def _episodic_truth(policy: TruthPolicy, states, prev_actions, stages) -> np.ndarray:
    return _episodic_probs(policy.cfg, *policy._columns(states, "severity", "volume"))


def truth_policy(cfg, assembler: StateAssembler | None = None) -> TruthPolicy:
    return TruthPolicy(cfg, assembler)


# ---------------------------------------------------------------------------
# rollout oracle
# ---------------------------------------------------------------------------

def monte_carlo_value(policy, cfg, n_rollouts: int,
                      state_config: StateConfig = StateConfig()):
    """On-policy mean return and its standard error under the generator.

    The rollouts run the generator's own loop under ``policy``, so their
    states are assembled exactly as the data pipeline assembles them from a
    cohort, and any policy usable on built datasets can be rolled out
    unchanged. They draw from one stream per config seed: the start of every
    rollout, then stage by stage the draws of the rollouts that reach it.
    """
    if not is_integer(n_rollouts):
        raise SimError(f"n_rollouts must be an integer, got {n_rollouts!r}")
    if n_rollouts < 2:
        raise SimError(f"n_rollouts must be >= 2, got {n_rollouts}")
    kind = _kind(cfg, "cannot roll out a")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, MC_SALT]))
    start, draw = kind.rollouts(cfg, rng, n_rollouts)
    returns = kind.run(cfg, policy, _History(cfg, state_config, n_rollouts), start,
                       draw).returns
    value = float(returns.mean())
    se = float(returns.std(ddof=1) / np.sqrt(len(returns)))
    return value, se


def _chronic_rollouts(cfg: ChronicSimConfig, rng, n: int):
    start = (*_chronic_start(cfg, rng, n),
             cfg.confounder_scale * rng.standard_normal(n) if cfg.hidden_confounder
             else np.zeros(n))
    return start, lambda t, rows: (rng.random(len(rows)), rng.standard_normal(len(rows)))


def _episodic_rollouts(cfg: EpisodicSimConfig, rng, n: int):
    def draw(t, rows):
        k = len(rows)
        return (rng.random(k), rng.standard_normal(k), rng.standard_normal(k),
                rng.random(k) if t == cfg.horizon else None)
    return _episodic_start(cfg, rng, n), draw


@dataclass(frozen=True)
class _Kind:
    """What each simulator brings to the functions that take any config."""

    schema: object      # cfg -> FeatureSchema
    truth: object       # (TruthPolicy, states, prev, stages) -> its probabilities
    horizon: object     # cfg -> the most stages a patient has
    generate: object    # generate_chronic or generate_episodic
    run: object         # its simulation loop, recording into a _History
    rollouts: object    # (cfg, rng, n) -> start and draws of n rollouts


_KINDS = {
    ChronicSimConfig: _Kind(chronic_schema, _chronic_truth,
                            lambda cfg: cfg.horizon_range[1], generate_chronic,
                            _run_chronic, _chronic_rollouts),
    EpisodicSimConfig: _Kind(episodic_schema, _episodic_truth, lambda cfg: cfg.horizon,
                             generate_episodic, _run_episodic, _episodic_rollouts),
}


def _kind(cfg, refusal: str) -> _Kind:
    """The table entry of ``cfg``'s simulator; for any other object, a
    :class:`SimError` that starts with ``refusal``."""
    kind = _KINDS.get(type(cfg))
    if kind is None:
        raise SimError(f"{refusal} {type(cfg).__name__}")
    return kind


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

MANIFEST_VERSION = 1

SIMULATORS = {"chronic": ChronicSimConfig, "episodic": EpisodicSimConfig}
# a simulator config as a spec, {"kind": <its SIMULATORS key>, "config": {...}}
SIMULATOR = Spec(SIMULATORS, "simulator")


def config_to_provenance(cfg) -> str:
    spec = SIMULATOR.dump(cfg)
    return json.dumps(
        {"simulator": spec["kind"], "version": MANIFEST_VERSION, "config": spec["config"]},
        sort_keys=True,
    )


def config_from_provenance(text: str):
    """Rebuild the generator config embedded in a dataset's provenance."""
    return _config_from_manifest(
        data.parse_json(text, SimError, "provenance is not a generator manifest"), "provenance")


def _config_from_manifest(obj, source: str):
    """The generator config of the parsed manifest that ``source`` names."""
    if not isinstance(obj, dict) or "simulator" not in obj:
        raise SimError(f"{source} is not a generator manifest")
    # read as an integer, so that neither true nor 1.0 passes for version 1
    version = member(obj, "version", INT, SimError, "generator manifest", None)
    if version != MANIFEST_VERSION:
        raise SimError(f"unsupported manifest version {version!r}")
    kind = obj["simulator"]
    if not (isinstance(kind, str) and kind in SIMULATORS):
        raise SimError(f"unknown simulator kind {kind!r}")
    return SIMULATORS[kind].from_json(obj.get("config"))


def simulate(cfg, each=None) -> Dataset | None:
    """The cohort of ``cfg``.

    With ``each``, the cohort is generated a block at a time and each
    block's ``Dataset`` is passed to ``each`` in patient order; None is
    returned. A block is ``data.PART_STEPS // horizon`` patients (at least
    one; 682 at horizon 6), so it holds at most ``PART_STEPS`` steps, the
    size of a part that ``load_dataset(path, each=...)`` reads, and the
    blocks concatenate to the whole cohort bit for bit.
    """
    kind = _kind(cfg, "cannot simulate a")
    if each is None:
        return kind.generate(cfg)
    block = max(1, data.PART_STEPS // kind.horizon(cfg))
    for first in range(0, cfg.n_patients, block):
        each(kind.generate(cfg, first, min(first + block, cfg.n_patients)))


def write_manifest(path, cfg) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_provenance(cfg) + "\n")


def read_manifest(path):
    source = f"manifest {path}"
    return _config_from_manifest(
        data.read_json(path, SimError, f"{source} is not a generator manifest"), source)
