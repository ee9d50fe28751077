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

``monte_carlo_value`` estimates any policy's expected return by on-policy
rollouts, assembling the same state vectors the data pipeline builds so
fitted-model policies can be rolled out directly.

Determinism: every patient draws from ``SeedSequence([seed, patient_index])``
with a fixed draw order, so datasets are bitwise stable under regeneration
regardless of batching. Rollouts use a single dedicated stream per config
seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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


class SimError(ClinpolError):
    pass


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row from one uniform each."""
    cum = np.cumsum(probs, axis=1)
    a = (cum < u[:, None]).sum(axis=1)
    return np.minimum(a, probs.shape[1] - 1)


def _cohort(cfg, schema: FeatureSchema, T, columns, actions, rewards) -> Dataset:
    """Hand (n, H) generator arrays over as a dataset: patient i keeps t < T[i].

    ``columns`` holds one (n, H) array per schema feature, a categorical
    one as category indices.
    """
    keep = np.arange(actions.shape[1]) < T[:, None]
    return Dataset(
        schema=schema,
        n_actions=cfg.n_actions,
        covariates=np.stack([c[keep] for c in columns], axis=1),
        actions=actions[keep],
        rewards=rewards[keep],
        offsets=np.concatenate(([0], np.cumsum(T))),
        ids=[f"p{i:06d}" for i in range(len(T))],
        provenance=config_to_provenance(cfg),
    )


# ---------------------------------------------------------------------------
# chronic cohort
# ---------------------------------------------------------------------------

@dataclass
class ChronicSimConfig:
    """Relapsing-disease generator parameters.

    The per-subgroup effect matrix (rows = 2 subgroups, columns = K actions)
    gives how many index points each drug removes per stage; when omitted it
    is derived so each subgroup has one strong drug, one moderate one, and
    weak alternatives. Prescriber preference logits are proportional to the
    (row-normalized) effect matrix, which is exactly the exploitable practice
    variation: the modal prescription is the right drug, but real mass goes
    to weaker ones.
    """

    n_patients: int = 1000
    n_actions: int = 4
    horizon_range: tuple = (3, 6)
    index_range: tuple = (0.0, 76.0)
    switch_intercept: float = -1.6
    switch_index_coef: float = 0.8
    switch_time_coef: float = -0.3
    baseline_index_tilt: float = 0.8
    preference_sharpness: float = 2.4
    effect_matrix: tuple | None = None
    effect_primary: float = 12.0
    effect_secondary: float = 4.0
    effect_other: float = 1.0
    drift: float = 3.0
    noise_scale: float = 2.0
    floor_epsilon: float = 0.08
    hidden_confounder: bool = False
    confounder_scale: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if self.n_patients < 1:
            raise SimError(f"n_patients must be >= 1, got {self.n_patients}")
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
        if self.noise_scale < 0.0:
            raise SimError(f"noise scale must be >= 0, got {self.noise_scale}")
        if self.seed < 0:
            raise SimError(f"seed must be >= 0, got {self.seed}")
        if self.effect_matrix is not None:
            m = np.asarray(self.effect_matrix, dtype=np.float64)
            if m.shape != (2, self.n_actions):
                raise SimError(
                    f"effect matrix must have shape (2, {self.n_actions}), got {m.shape}"
                )

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

    def to_json(self) -> dict:
        return {
            "n_patients": self.n_patients,
            "n_actions": self.n_actions,
            "horizon_range": list(self.horizon_range),
            "index_range": list(self.index_range),
            "switch_intercept": self.switch_intercept,
            "switch_index_coef": self.switch_index_coef,
            "switch_time_coef": self.switch_time_coef,
            "baseline_index_tilt": self.baseline_index_tilt,
            "preference_sharpness": self.preference_sharpness,
            "effect_matrix": (None if self.effect_matrix is None
                              else [list(r) for r in self.effect_matrix]),
            "effect_primary": self.effect_primary,
            "effect_secondary": self.effect_secondary,
            "effect_other": self.effect_other,
            "drift": self.drift,
            "noise_scale": self.noise_scale,
            "floor_epsilon": self.floor_epsilon,
            "hidden_confounder": self.hidden_confounder,
            "confounder_scale": self.confounder_scale,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChronicSimConfig":
        obj = dict(obj)
        obj["horizon_range"] = tuple(obj.get("horizon_range", (3, 6)))
        obj["index_range"] = tuple(obj.get("index_range", (0.0, 76.0)))
        if obj.get("effect_matrix") is not None:
            obj["effect_matrix"] = tuple(tuple(r) for r in obj["effect_matrix"])
        return cls(**obj)


def chronic_schema(cfg: ChronicSimConfig) -> FeatureSchema:
    return FeatureSchema((
        Feature("disease_index"),
        Feature("age"),
        Feature("time_on_tx"),
        Feature("biomarker", CATEGORICAL, ("g0", "g1")),
    ))


def _chronic_probs(cfg: ChronicSimConfig, index, time_on_tx, subgroup, prev,
                   first) -> np.ndarray:
    """Exact behavior probabilities from the quantities the generator uses.

    ``first`` marks t=1 rows (prev is ignored there); all inputs are aligned
    arrays. This single routine serves generation, the replayable truth
    policy, and rollouts, so their probabilities agree bit for bit.
    """
    index = np.asarray(index, dtype=np.float64)
    tot = np.asarray(time_on_tx, dtype=np.float64)
    g = np.asarray(subgroup, dtype=np.int64)
    prev = np.asarray(prev, dtype=np.int64)
    first = np.asarray(first, dtype=bool)
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


def generate_chronic(cfg: ChronicSimConfig) -> Dataset:
    """Simulate the chronic cohort; bitwise deterministic in (cfg, seed)."""
    n = cfg.n_patients
    lo, hi = cfg.horizon_range
    H = hi
    T = np.empty(n, dtype=np.int64)
    g = np.empty(n, dtype=np.int64)
    age = np.empty(n, dtype=np.float64)
    idx = np.empty(n, dtype=np.float64)
    U = np.empty((n, H), dtype=np.float64)
    Z = np.empty((n, H), dtype=np.float64)
    confound = np.zeros(n, dtype=np.float64)
    # fixed per-patient draw order: horizon, subgroup, age, initial index,
    # action uniforms, index noise, then the optional confounder
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
        T[i] = rng.integers(lo, hi + 1)
        g[i] = rng.integers(2)
        age[i] = rng.uniform(35.0, 85.0)
        idx[i] = rng.uniform(20.0, 60.0)
        U[i] = rng.random(H)
        Z[i] = rng.standard_normal(H)
        if cfg.hidden_confounder:
            confound[i] = cfg.confounder_scale * rng.standard_normal()

    eff = cfg.effects()
    ilo, ihi = cfg.index_range
    prev = np.full(n, NONE_ACTION, dtype=np.int64)
    tot = np.zeros(n, dtype=np.int64)
    feat_index = np.zeros((n, H))
    feat_tot = np.zeros((n, H))
    actions = np.zeros((n, H), dtype=np.int64)
    rewards = np.zeros((n, H))

    for t in range(1, H + 1):
        probs = _chronic_probs(cfg, idx, tot, g, prev, np.full(n, t == 1))
        a = _sample_rows(probs, U[:, t - 1])
        feat_index[:, t - 1] = idx
        feat_tot[:, t - 1] = tot
        actions[:, t - 1] = a
        nxt = np.clip(idx - eff[g, a] + cfg.drift + confound
                      + cfg.noise_scale * Z[:, t - 1], ilo, ihi)
        rewards[:, t - 1] = 10.0 - nxt
        tot = np.where(a == prev, tot + 1, 1)
        prev = a
        idx = nxt

    return _cohort(cfg, chronic_schema(cfg), T,
                   [feat_index, np.repeat(age[:, None], H, axis=1), feat_tot,
                    np.repeat(g[:, None], H, axis=1)],
                   actions, rewards)


# ---------------------------------------------------------------------------
# episodic cohort
# ---------------------------------------------------------------------------

@dataclass
class EpisodicSimConfig:
    """Acute-care generator: K = dose_levels^2 joint fluid/vasopressor bins."""

    n_patients: int = 1000
    dose_levels: int = 5
    horizon: int = 6
    preference_sharpness: float = 2.5
    hazard_scale: float = 1.0
    hazard_intercept: float = -1.3
    hazard_mismatch_coef: float = 0.10
    hazard_frailty_coef: float = 0.35
    sev_mismatch_coef: float = 1.5
    sev_drift: float = -3.0
    sev_noise: float = 2.0
    vol_fluid_coef: float = 3.0
    vol_drift: float = 6.0
    vol_noise: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.n_patients < 1:
            raise SimError(f"n_patients must be >= 1, got {self.n_patients}")
        if self.dose_levels < 2:
            raise SimError(f"dose_levels must be >= 2, got {self.dose_levels}")
        if self.horizon < 2:
            raise SimError(f"horizon must be >= 2, got {self.horizon}")
        if self.hazard_scale < 0.0:
            raise SimError(f"hazard_scale must be >= 0, got {self.hazard_scale}")
        if self.preference_sharpness <= 0.0:
            raise SimError(
                f"preference_sharpness must be > 0, got {self.preference_sharpness}"
            )
        if self.seed < 0:
            raise SimError(f"seed must be >= 0, got {self.seed}")

    @property
    def n_actions(self) -> int:
        return self.dose_levels**2

    def to_json(self) -> dict:
        return {
            "n_patients": self.n_patients,
            "dose_levels": self.dose_levels,
            "horizon": self.horizon,
            "preference_sharpness": self.preference_sharpness,
            "hazard_scale": self.hazard_scale,
            "hazard_intercept": self.hazard_intercept,
            "hazard_mismatch_coef": self.hazard_mismatch_coef,
            "hazard_frailty_coef": self.hazard_frailty_coef,
            "sev_mismatch_coef": self.sev_mismatch_coef,
            "sev_drift": self.sev_drift,
            "sev_noise": self.sev_noise,
            "vol_fluid_coef": self.vol_fluid_coef,
            "vol_drift": self.vol_drift,
            "vol_noise": self.vol_noise,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "EpisodicSimConfig":
        return cls(**obj)


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


def generate_episodic(cfg: EpisodicSimConfig) -> Dataset:
    """Simulate the acute cohort; bitwise deterministic in (cfg, seed)."""
    n, H = cfg.n_patients, cfg.horizon
    frailty = np.empty(n)
    sev = np.empty(n)
    vol = np.empty(n)
    U = np.empty((n, H))
    Z = np.empty((n, H, 2))
    u_surv = np.empty(n)
    # fixed per-patient draw order: frailty, severity, volume, action
    # uniforms, state noise, survival uniform
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
        frailty[i] = np.clip(rng.normal(FRAILTY_CENTER, FRAILTY_SCALE), 0.0, 100.0)
        sev[i] = rng.uniform(30.0, 80.0)
        vol[i] = rng.uniform(20.0, 80.0)
        U[i] = rng.random(H)
        Z[i] = rng.standard_normal((H, 2))
        u_surv[i] = rng.random()

    feat_sev = np.zeros((n, H))
    feat_vol = np.zeros((n, H))
    actions = np.zeros((n, H), dtype=np.int64)
    msum = np.zeros(n)

    for t in range(1, H + 1):
        probs = _episodic_probs(cfg, sev, vol)
        a = _sample_rows(probs, U[:, t - 1])
        feat_sev[:, t - 1] = sev
        feat_vol[:, t - 1] = vol
        actions[:, t - 1] = a
        m = _episodic_mismatch(cfg, sev, vol, a)
        msum += m
        f, _ = action_to_doses(a, cfg.dose_levels)
        sev = np.clip(sev + cfg.sev_mismatch_coef * m + cfg.sev_drift
                      + cfg.sev_noise * Z[:, t - 1, 0], 0.0, 100.0)
        vol = np.clip(vol - cfg.vol_fluid_coef * f + cfg.vol_drift
                      + cfg.vol_noise * Z[:, t - 1, 1], 0.0, 100.0)

    survived = u_surv < _survival_probability(cfg, msum, frailty)
    rewards = np.zeros((n, H))
    rewards[:, H - 1] = np.where(survived, 100.0, -100.0)
    return _cohort(cfg, episodic_schema(cfg), np.full(n, H),
                   [feat_sev, feat_vol, np.repeat(frailty[:, None], H, axis=1)],
                   actions, rewards)


def episodic_survival_probabilities(cfg: EpisodicSimConfig, ds: Dataset) -> np.ndarray:
    """Closed-form per-patient survival chance, recomputed from stored steps."""
    sev, vol, frailty = (ds.covariates[:, ds.schema.names.index(name)]
                         for name in ("severity", "volume", "frailty"))
    msum = ds.cumsum(_episodic_mismatch(cfg, sev, vol, ds.actions))[ds.offsets[1:] - 1]
    return _survival_probability(cfg, msum, frailty[ds.offsets[:-1]])


# ---------------------------------------------------------------------------
# replayable ground truth
# ---------------------------------------------------------------------------

def default_assembler(cfg, state_config: StateConfig = StateConfig()) -> StateAssembler:
    schema = (chronic_schema(cfg) if isinstance(cfg, ChronicSimConfig)
              else episodic_schema(cfg))
    return StateAssembler(schema.encoded_names(), cfg.n_actions, state_config)


class _TruthBase:
    """Exact generator probabilities, read back out of assembled states.

    ``probabilities_batch`` takes a policy's optional ``evaluation`` argument
    and ignores it: the generator's probabilities need no behavior model.
    """

    kind = "truth"

    def probabilities_batch(self, states, prev_actions, stages,
                            evaluation=None) -> np.ndarray:
        raise NotImplementedError

    # the truth policy serves both sides of an evaluation: target policy and
    # behavior-model denominator
    def action_probabilities_batch(self, states, prev_actions, stages) -> np.ndarray:
        return self.probabilities_batch(states, prev_actions, stages)


class ChronicTruthPolicy(_TruthBase):
    def __init__(self, cfg: ChronicSimConfig, assembler: StateAssembler | None = None):
        self.cfg = cfg
        asm = assembler or default_assembler(cfg)
        self.n_actions = cfg.n_actions
        self._c_index = asm.column("disease_index")
        self._c_tot = asm.column("time_on_tx")
        self._c_g1 = asm.column("biomarker=g1")

    def probabilities_batch(self, states, prev_actions, stages,
                            evaluation=None) -> np.ndarray:
        states = np.asarray(states, dtype=np.float64)
        prev = np.asarray(prev_actions, dtype=np.int64)
        t = np.asarray(stages, dtype=np.int64)
        return _chronic_probs(
            self.cfg,
            states[:, self._c_index],
            states[:, self._c_tot],
            (states[:, self._c_g1] > 0.5).astype(np.int64),
            prev,
            t == 1,
        )


class EpisodicTruthPolicy(_TruthBase):
    def __init__(self, cfg: EpisodicSimConfig, assembler: StateAssembler | None = None):
        self.cfg = cfg
        asm = assembler or default_assembler(cfg)
        self.n_actions = cfg.n_actions
        self._c_sev = asm.column("severity")
        self._c_vol = asm.column("volume")

    def probabilities_batch(self, states, prev_actions, stages,
                            evaluation=None) -> np.ndarray:
        states = np.asarray(states, dtype=np.float64)
        return _episodic_probs(self.cfg, states[:, self._c_sev], states[:, self._c_vol])


class ChronicOraclePolicy(_TruthBase):
    """One-hot on the subgroup's most effective drug (generator knowledge)."""

    def __init__(self, cfg: ChronicSimConfig, assembler: StateAssembler | None = None):
        self.cfg = cfg
        asm = assembler or default_assembler(cfg)
        self.n_actions = cfg.n_actions
        self._c_g1 = asm.column("biomarker=g1")
        self._best = np.argmax(cfg.effects(), axis=1)

    def probabilities_batch(self, states, prev_actions, stages,
                            evaluation=None) -> np.ndarray:
        states = np.asarray(states, dtype=np.float64)
        g = (states[:, self._c_g1] > 0.5).astype(np.int64)
        out = np.zeros((len(states), self.n_actions))
        out[np.arange(len(states)), self._best[g]] = 1.0
        return out


def truth_policy(cfg, assembler: StateAssembler | None = None) -> _TruthBase:
    if isinstance(cfg, ChronicSimConfig):
        return ChronicTruthPolicy(cfg, assembler)
    if isinstance(cfg, EpisodicSimConfig):
        return EpisodicTruthPolicy(cfg, assembler)
    raise SimError(f"no truth policy for {type(cfg).__name__}")


# ---------------------------------------------------------------------------
# rollout oracle
# ---------------------------------------------------------------------------

def monte_carlo_value(policy, cfg, n_rollouts: int,
                      state_config: StateConfig = StateConfig()):
    """On-policy mean return and its standard error under the generator.

    States are assembled exactly as the data pipeline assembles them
    (encoded covariates, previous-action one-hot, reward history aggregates)
    so any policy usable on built datasets can be rolled out unchanged.
    """
    if n_rollouts < 2:
        raise SimError(f"n_rollouts must be >= 2, got {n_rollouts}")
    if isinstance(cfg, ChronicSimConfig):
        returns = _rollout_chronic(policy, cfg, n_rollouts, state_config)
    elif isinstance(cfg, EpisodicSimConfig):
        returns = _rollout_episodic(policy, cfg, n_rollouts, state_config)
    else:
        raise SimError(f"cannot roll out a {type(cfg).__name__}")
    value = float(returns.mean())
    se = float(returns.std(ddof=1) / np.sqrt(len(returns)))
    return value, se


class _HistoryTracker:
    """Maintains the reward-history aggregates the state assembler expects."""

    def __init__(self, n: int):
        self.prev_reward = np.zeros(n)
        self.reward_sum = np.zeros(n)
        self.switch_count = np.zeros(n)
        self.mean_reward = np.zeros(n)
        self._last_prev = np.full(n, NONE_ACTION, dtype=np.int64)

    def update(self, actions, rewards, t: int):
        """Record stage-t actions/rewards; call after assembling stage t."""
        if t >= 2:
            changed = actions != self._last_prev
            self.switch_count = self.switch_count + changed
        self._last_prev = actions.copy()
        self.prev_reward = rewards.copy()
        self.reward_sum = self.reward_sum + rewards
        self.mean_reward = self.reward_sum / t


def _rollout_chronic(policy, cfg, n, state_config):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, MC_SALT]))
    asm = default_assembler(cfg, state_config)
    lo, hi = cfg.horizon_range
    T = rng.integers(lo, hi + 1, size=n)
    g = rng.integers(2, size=n)
    age = rng.uniform(35.0, 85.0, size=n)
    idx = rng.uniform(20.0, 60.0, size=n)
    confound = (cfg.confounder_scale * rng.standard_normal(n)
                if cfg.hidden_confounder else np.zeros(n))
    eff = cfg.effects()
    ilo, ihi = cfg.index_range

    prev = np.full(n, NONE_ACTION, dtype=np.int64)
    tot = np.zeros(n, dtype=np.int64)
    hist = _HistoryTracker(n)
    returns = np.zeros(n)
    for t in range(1, hi + 1):
        active = T >= t
        if not np.any(active):
            break
        na = int(active.sum())
        onehot_g = np.zeros((na, 2))
        onehot_g[np.arange(na), g[active]] = 1.0
        cov = np.column_stack([
            idx[active], age[active], tot[active].astype(np.float64), onehot_g
        ])
        states = asm.assemble_batch(cov, prev[active], hist.prev_reward[active],
                                    hist.switch_count[active],
                                    hist.mean_reward[active])
        probs = policy.probabilities_batch(states, prev[active], np.full(na, t))
        a = _sample_rows(probs, rng.random(na))
        nxt = np.clip(idx[active] - eff[g[active], a] + cfg.drift + confound[active]
                      + cfg.noise_scale * rng.standard_normal(na), ilo, ihi)
        r = 10.0 - nxt
        returns[active] += r

        full_a = prev.copy()
        full_r = np.zeros(n)
        full_a[active] = a
        full_r[active] = r
        # finished patients keep stale aggregates; they are never queried again
        hist.update(full_a, full_r, t)
        tot[active] = np.where(a == prev[active], tot[active] + 1, 1)
        prev[active] = a
        idx[active] = nxt
    return returns


def _rollout_episodic(policy, cfg, n, state_config):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, MC_SALT]))
    asm = default_assembler(cfg, state_config)
    H = cfg.horizon
    frailty = np.clip(rng.normal(FRAILTY_CENTER, FRAILTY_SCALE, size=n), 0.0, 100.0)
    sev = rng.uniform(30.0, 80.0, size=n)
    vol = rng.uniform(20.0, 80.0, size=n)

    prev = np.full(n, NONE_ACTION, dtype=np.int64)
    hist = _HistoryTracker(n)
    msum = np.zeros(n)
    for t in range(1, H + 1):
        cov = np.column_stack([sev, vol, frailty])
        states = asm.assemble_batch(cov, prev, hist.prev_reward,
                                    hist.switch_count, hist.mean_reward)
        probs = policy.probabilities_batch(states, prev, np.full(n, t))
        a = _sample_rows(probs, rng.random(n))
        m = _episodic_mismatch(cfg, sev, vol, a)
        msum += m
        f, _ = action_to_doses(a, cfg.dose_levels)
        sev = np.clip(sev + cfg.sev_mismatch_coef * m + cfg.sev_drift
                      + cfg.sev_noise * rng.standard_normal(n), 0.0, 100.0)
        vol = np.clip(vol - cfg.vol_fluid_coef * f + cfg.vol_drift
                      + cfg.vol_noise * rng.standard_normal(n), 0.0, 100.0)
        hist.update(a, np.zeros(n), t)
        prev = a

    survived = rng.random(n) < _survival_probability(cfg, msum, frailty)
    return np.where(survived, 100.0, -100.0)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

MANIFEST_VERSION = 1


def config_to_provenance(cfg) -> str:
    kind = "chronic" if isinstance(cfg, ChronicSimConfig) else "episodic"
    return json.dumps(
        {"simulator": kind, "version": MANIFEST_VERSION, "config": cfg.to_json()},
        sort_keys=True,
    )


def config_from_provenance(text: str):
    """Rebuild the generator config embedded in a dataset's provenance."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SimError(f"provenance is not a generator manifest: {e}") from None
    if not isinstance(obj, dict) or "simulator" not in obj:
        raise SimError("provenance is not a generator manifest")
    if obj.get("version") != MANIFEST_VERSION:
        raise SimError(f"unsupported manifest version {obj.get('version')!r}")
    kind = obj["simulator"]
    if kind == "chronic":
        return ChronicSimConfig.from_json(obj["config"])
    if kind == "episodic":
        return EpisodicSimConfig.from_json(obj["config"])
    raise SimError(f"unknown simulator kind {kind!r}")


def simulate(cfg) -> Dataset:
    if isinstance(cfg, ChronicSimConfig):
        return generate_chronic(cfg)
    if isinstance(cfg, EpisodicSimConfig):
        return generate_episodic(cfg)
    raise SimError(f"cannot simulate a {type(cfg).__name__}")


def write_manifest(path, cfg) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_provenance(cfg) + "\n")


def read_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return config_from_provenance(fh.read())
