"""Repeated-split experiment protocol: selection, calibration, policies, OPE.

One repeat is: split the cohort by trajectory, fit candidate behavior models
on the train partition, pick the best by validation AUROC, calibrate the
winner on the validation partition, build every configured target policy
from it, and estimate each policy's value on the test partition. The repeat
loop reruns this under fresh split seeds and aggregates medians and IQRs.

Determinism contract: all randomness of repeat ``r`` derives from
``SeedSequence([master_seed, r])``, so outputs are byte-identical across runs
and repeats could execute in any order (the final tables are merge-sorted by
seed and policy). Report files carry no timestamps.

Partition hygiene: trajectory id sets of train, validation, and test are
checked pairwise disjoint each repeat (a leak raises; it is never logged as
a failed repeat); imputation statistics come from the train partition only;
calibration sees only validation; OPE only test.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .behavior import MODEL_KINDS, Evaluation, TreeMemo, fit_dt, fit_dtbls, fit_dts
from .checks import is_integer, is_number
from .data import (
    Dataset,
    SplitSpec,
    StateConfig,
    build_states,
    fit_imputation,
    impute_and_encode,
    load_dataset,
    split_dataset,
)
from .errors import ClinpolError
from .metrics import auroc_macro, sce
from .ope import ESTIMATORS, importance_weights, median_iqr
from .policies import POLICY_TYPES, build_policy
from .sim import ChronicSimConfig, EpisodicSimConfig, simulate
from .tree import TreeHyperparams

log = logging.getLogger(__name__)


class HarnessError(ClinpolError):
    pass


# ---------------------------------------------------------------------------
# hyperparameter grid
# ---------------------------------------------------------------------------

DEFAULT_MAX_DEPTHS = (2, 3, 4, 5, 6, 7, 8, 9)
DEFAULT_MIN_LEAF_FRACTIONS = (0.01, 0.02, 0.03, 0.04, 0.05)


@dataclass(frozen=True)
class HyperparamGrid:
    """Search space for tree candidates; meta-models reuse one draw for
    every component tree."""

    max_depths: tuple = DEFAULT_MAX_DEPTHS
    min_leaf_fractions: tuple = DEFAULT_MIN_LEAF_FRACTIONS

    def __post_init__(self):
        for key, ok, what in (("max_depths", is_integer, "integers"),
                              ("min_leaf_fractions", is_number, "finite numbers")):
            value = getattr(self, key)
            if not (isinstance(value, (tuple, list)) and all(map(ok, value))):
                raise HarnessError(f"malformed grid: {key!r} must be a list of {what}, "
                                   f"got {value!r}")
        if not self.max_depths or not self.min_leaf_fractions:
            raise HarnessError("hyperparameter grid must not be empty")
        for d in self.max_depths:
            for f in self.min_leaf_fractions:
                TreeHyperparams(max_depth=d, min_leaf_fraction=f)

    def all(self) -> list:
        """Every cell in fixed (depth-major) order."""
        return [TreeHyperparams(max_depth=d, min_leaf_fraction=f)
                for d in self.max_depths for f in self.min_leaf_fractions]

    def to_json(self) -> dict:
        return {"max_depths": list(self.max_depths),
                "min_leaf_fractions": list(self.min_leaf_fractions)}

    @classmethod
    def from_json(cls, obj) -> "HyperparamGrid":
        def read(key, default):
            value = obj.get(key, default)
            return tuple(value) if isinstance(value, list) else value

        return cls(max_depths=read("max_depths", DEFAULT_MAX_DEPTHS),
                   min_leaf_fractions=read("min_leaf_fractions", DEFAULT_MIN_LEAF_FRACTIONS))


def sample_candidates(grid: HyperparamGrid, n_candidates: int, seed: int) -> list:
    """Uniform independent draws from the grid; reproducible from ``seed``."""
    if n_candidates < 1:
        raise HarnessError(f"n_candidates must be >= 1, got {n_candidates}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    out = []
    for _ in range(n_candidates):
        d = grid.max_depths[rng.integers(len(grid.max_depths))]
        f = grid.min_leaf_fractions[rng.integers(len(grid.min_leaf_fractions))]
        out.append(TreeHyperparams(max_depth=d, min_leaf_fraction=f))
    return out


def fit_model(model_type: str, data, hp: TreeHyperparams, memo: TreeMemo | None = None):
    """Fit one candidate; meta-models share ``hp`` across component trees.

    With a ``memo`` built for ``data``, component trees are cut from its deep
    trees instead of grown afresh; the fitted model is the same.
    """
    if model_type == "dt":
        return fit_dt(data, hp, memo=memo)
    if model_type == "dts":
        return fit_dts(data, hp, hp, memo=memo)
    if model_type == "dtbls":
        return fit_dtbls(data, hp, hp, hp, memo=memo)
    raise HarnessError(
        f"unknown model type {model_type!r}; valid types are {MODEL_KINDS}"
    )


# ---------------------------------------------------------------------------
# model selection
# ---------------------------------------------------------------------------

def select_model(train, validation, model_type: str, n_candidates: int,
                 seed: int, grid: HyperparamGrid | None = None):
    """Best-of-``n_candidates`` by validation AUROC, then calibrated.

    Ties keep the earliest sampled candidate (strict improvement replaces).
    Candidates that fail with a domain error (a ``ClinpolError``) are
    skipped; if every one fails the last failure is surfaced. Any other
    exception is a bug and propagates.

    Each component tree is grown once per distinct min-leaf fraction among
    the draws, to the deepest depth drawn with it, and each candidate's trees
    are that tree truncated at the candidate's depth. This is exact: greedy
    growth reads ``max_depth`` only as its stop rule, so a shallower fit is
    the deeper one cut (see :func:`clinpol.tree.truncate_tree`). Each deep
    tree routes the fitting and validation rows once, and every cut of it
    reads their leaf ids through :func:`clinpol.tree.leaf_map`. A cell drawn
    twice reuses the first draw's cut trees, so it is fitted again but scored
    once: a repeat replays the first draw's score or error, and a tie never
    replaces the leader, so the winner is the same.
    """
    if model_type not in MODEL_KINDS:
        raise HarnessError(
            f"unknown model type {model_type!r}; valid types are {MODEL_KINDS}"
        )
    grid = grid or HyperparamGrid()
    candidates = sample_candidates(grid, n_candidates, seed)
    memo = TreeMemo(train, candidates, validation)
    scored: dict[TreeHyperparams, float | ClinpolError] = {}
    best = None
    best_score = -math.inf
    last_error = None
    for hp in candidates:
        try:
            model = fit_model(model_type, train, hp, memo=memo)
        except ClinpolError as e:
            last_error = e
            log.warning("candidate %s failed: %s", hp, e)
            continue
        if hp not in scored:
            scored[hp] = _validation_score(model, validation, memo, hp)
        score = scored[hp]
        if isinstance(score, ClinpolError):
            last_error = score
            log.warning("candidate %s failed: %s", hp, score)
            continue
        if score > best_score:
            best, best_score = model, score
    if best is None:
        raise HarnessError(
            f"model selection failed: all {n_candidates} candidates failed "
            f"to fit (last error: {last_error})"
        )
    return best.calibrate(validation)


def _validation_score(model, validation, memo: TreeMemo,
                      hp: TreeHyperparams) -> float | ClinpolError:
    """Macro AUROC on the validation steps, or the error that leaves it
    undefined; the model's trees read the validation leaf ids of ``memo``."""
    try:
        probs = model.action_probabilities_batch(
            validation.states, validation.prev_actions, validation.stages,
            leaves=memo.validation_leaves(model, hp))
        score = auroc_macro(probs, validation.actions)
    except ClinpolError as e:
        return e
    if math.isnan(score):
        return HarnessError("validation AUROC undefined: no class has both outcomes")
    return score


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

_K_POLICIES = ("mc", "mc_o", "mc_switch_adj")


def _check_descriptor(desc) -> None:
    """Static descriptor checks; bounds that need K wait for the model."""
    if not isinstance(desc, dict) or "type" not in desc:
        raise HarnessError(f"policy descriptor needs a 'type' key, got {desc!r}")
    t = desc["type"]
    if t not in POLICY_TYPES:
        raise HarnessError(
            f"unknown policy type {t!r}; valid types are {POLICY_TYPES}"
        )
    if t in _K_POLICIES:
        k = desc.get("k")
        if not is_integer(k) or k < 1:
            raise HarnessError(
                f"policy {t!r} needs an integer k >= 1, got {desc.get('k')!r}"
            )
    for key in ("p1", "epsilon"):
        if not is_number(desc.get(key, 0.0)):
            raise HarnessError(
                f"policy {t!r}: {key} must be a number, got {desc[key]!r}"
            )
    p1 = desc.get("p1", 0.0)
    if not -1.0 <= float(p1) <= 1.0:
        raise HarnessError(f"p1 must lie in [-1, 1], got {p1!r}")
    eps = desc.get("epsilon", 0.0)
    if float(eps) < 0.0:
        raise HarnessError(f"epsilon must be >= 0, got {eps!r}")


def _unrunnable(desc, model_kind: str) -> str | None:
    """Why policy ``desc`` cannot run on a ``model_kind`` model, or None."""
    if (model_kind == "dt" and isinstance(desc, dict)
            and desc.get("type") == "mc_switch_adj"):
        return (f"policy {desc['type']!r} needs a switch-composed model "
                "(dts or dtbls), not 'dt'")
    return None


DEFAULT_POLICIES = (
    {"type": "behavior"},
    {"type": "mc", "k": 1},
    {"type": "mc", "k": 2},
    {"type": "mc", "k": 3},
)


@dataclass
class ExperimentConfig:
    """Everything one repeated-split run needs; JSON-round-trippable."""

    dataset: str | None = None
    simulator: object | None = None
    n_repeats: int = 50
    split: SplitSpec = field(default_factory=SplitSpec)
    model: str = "dtbls"
    n_candidates: int = 30
    policies: tuple = DEFAULT_POLICIES
    estimator: str = "wis"
    out_dir: str = "results"
    grid: HyperparamGrid = field(default_factory=HyperparamGrid)
    state_config: StateConfig = field(default_factory=StateConfig)
    seed: int = 0

    def __post_init__(self):
        self._check_types()
        if (self.dataset is None) == (self.simulator is None):
            raise HarnessError(
                "configure exactly one dataset source: a file path or a simulator"
            )
        if self.n_repeats < 1:
            raise HarnessError(f"n_repeats must be >= 1, got {self.n_repeats}")
        if self.model not in MODEL_KINDS:
            raise HarnessError(
                f"unknown model type {self.model!r}; valid types are {MODEL_KINDS}"
            )
        if self.estimator not in ESTIMATORS:
            raise HarnessError(
                f"unknown estimator {self.estimator!r}; valid estimators are "
                f"{tuple(ESTIMATORS)}"
            )
        if not self.policies:
            raise HarnessError("at least one policy descriptor is required")
        for desc in self.policies:
            _check_descriptor(desc)
            reason = _unrunnable(desc, self.model)
            if reason:
                raise HarnessError(reason)

    def _check_types(self) -> None:
        """Refuse a field of the wrong type by name; integers become ints."""
        def refuse(key, what):
            raise HarnessError(f"malformed experiment config: {key!r} must be {what}, "
                               f"got {getattr(self, key)!r}")

        for key in ("n_repeats", "n_candidates", "seed"):
            if not is_integer(getattr(self, key)):
                refuse(key, "an integer")
            setattr(self, key, int(getattr(self, key)))
        for key in ("model", "estimator", "out_dir"):
            if not isinstance(getattr(self, key), str):
                refuse(key, "a string")
        if self.dataset is not None and not isinstance(self.dataset, str):
            refuse("dataset", "a path")
        if self.simulator is not None and not isinstance(
                self.simulator, (ChronicSimConfig, EpisodicSimConfig)):
            refuse("simulator", "a simulator config")
        for key, kind in (("split", SplitSpec), ("grid", HyperparamGrid),
                          ("state_config", StateConfig)):
            if not isinstance(getattr(self, key), kind):
                refuse(key, f"a {kind.__name__}")
        if not isinstance(self.policies, (tuple, list)):
            refuse("policies", "a list of descriptors")

    def to_json(self) -> dict:
        out = {
            "n_repeats": self.n_repeats,
            "split": self.split.to_json(),
            "model": self.model,
            "n_candidates": self.n_candidates,
            "policies": [dict(d) for d in self.policies],
            "estimator": self.estimator,
            "out_dir": self.out_dir,
            "grid": self.grid.to_json(),
            "state_config": self.state_config.to_json(),
            "seed": self.seed,
        }
        if self.dataset is not None:
            out["dataset"] = self.dataset
        else:
            kind = "chronic" if isinstance(self.simulator, ChronicSimConfig) else "episodic"
            out["simulator"] = {"kind": kind, "config": self.simulator.to_json()}
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise HarnessError(f"experiment config must be a JSON object, got {obj!r}")
        # a key this version does not read must not be silently ignored
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise HarnessError(
                f"unknown experiment config keys {unknown}; valid keys are "
                f"{sorted(known)}"
            )
        sim = None
        if "simulator" in obj:
            sim = simulator_config_from_json(obj["simulator"])
        policies = obj.get("policies", [dict(d) for d in DEFAULT_POLICIES])
        if not isinstance(policies, list):
            raise HarnessError("malformed experiment config: 'policies' must be "
                               f"a list of descriptors, got {policies!r}")
        return cls(
            dataset=obj.get("dataset"),
            simulator=sim,
            n_repeats=obj.get("n_repeats", 50),
            split=SplitSpec.from_json(_config_object(obj, "split")),
            model=obj.get("model", "dtbls"),
            n_candidates=obj.get("n_candidates", 30),
            policies=tuple(policies),
            estimator=obj.get("estimator", "wis"),
            out_dir=obj.get("out_dir", "results"),
            grid=HyperparamGrid.from_json(_config_object(obj, "grid")),
            state_config=StateConfig.from_json(_config_object(obj, "state_config")),
            seed=obj.get("seed", 0),
        )


def _config_object(obj: dict, key: str) -> dict:
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise HarnessError(f"malformed experiment config: {key!r} must be a "
                           f"JSON object, got {value!r}")
    return value


def simulator_config_from_json(obj: dict):
    """Parse {"kind": "chronic"|"episodic", "config": {...}}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise HarnessError(f"simulator spec needs a 'kind' key, got {obj!r}")
    kind = obj["kind"]
    cfg = obj.get("config", {})
    if kind == "chronic":
        return ChronicSimConfig.from_json(cfg)
    if kind == "episodic":
        return EpisodicSimConfig.from_json(cfg)
    raise HarnessError(f"unknown simulator kind {kind!r}")


@dataclass(frozen=True)
class ReportRow:
    """One (seed, policy) result plus the seed's model quality."""

    seed: int
    model: str
    policy: dict
    value: float
    ess: float
    n: int
    auroc: float
    sce: float

    def __post_init__(self):
        for name in ("value", "ess", "auroc", "sce"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise HarnessError(f"report row field {name} is not finite: {v!r}")


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

ROW_COLUMNS = ("seed", "model", "policy", "k", "p1", "epsilon", "estimator",
               "value", "ess", "n", "auroc", "sce")
SUMMARY_COLUMNS = ("policy", "k", "p1", "epsilon", "estimator", "n_splits",
                   "n_missing_seeds", "value_median", "value_q1", "value_q3",
                   "ess_median", "ess_q1", "ess_q3")


def _desc_fields(desc: dict):
    k = desc.get("k")
    p1 = desc.get("p1")
    eps = desc.get("epsilon")
    return (desc["type"],
            "" if k is None else k,
            "" if p1 is None else repr(float(p1)),
            "" if eps is None else repr(float(eps)))


def _desc_sort_key(desc: dict):
    return (desc["type"], desc.get("k") or 0, float(desc.get("p1") or 0.0),
            float(desc.get("epsilon") or 0.0))


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every repeat and write the report files; returns their paths.

    A repeat that fails with a domain error (a ``ClinpolError``) is logged
    to ``failures.csv`` and excluded from every table; the summary counts
    missing seeds. Any other exception is a bug and propagates. Repeats are
    independent (per-repeat seeds derive from ``SeedSequence([master,
    repeat])``), so the sequential loop here could be parallelized without
    changing any output.
    """
    if cfg.dataset is not None:
        raw = load_dataset(cfg.dataset)
    else:
        raw = simulate(cfg.simulator)

    rows: list[ReportRow] = []
    failures: list[tuple] = []
    for r in range(cfg.n_repeats):
        ss = np.random.SeedSequence([cfg.seed, r])
        split_seed, select_seed = (int(x) for x in ss.generate_state(2))
        try:
            rows.extend(_run_repeat(cfg, raw, r, split_seed, select_seed))
        except ClinpolError as e:
            log.warning("seed %d failed: %s", r, e)
            failures.append((r, f"{type(e).__name__}: {e}"))

    os.makedirs(cfg.out_dir, exist_ok=True)
    paths = {name: os.path.join(cfg.out_dir, f"{name}.csv")
             for name in ("rows", "summary", "per_k", "per_p1", "failures")}

    rows.sort(key=lambda row: (row.seed, _desc_sort_key(row.policy)))
    _write_csv(paths["rows"], ROW_COLUMNS, [
        (row.seed, row.model, *_desc_fields(row.policy), cfg.estimator,
         row.value, row.ess, row.n, row.auroc, row.sce)
        for row in rows
    ])

    n_missing = cfg.n_repeats - len({row.seed for row in rows})
    groups: dict[tuple, list[ReportRow]] = {}
    for row in rows:
        groups.setdefault(_desc_sort_key(row.policy), []).append(row)
    summary = []
    for key in sorted(groups):
        grp = groups[key]
        vm, v1, v3 = median_iqr([g.value for g in grp])
        em, e1, e3 = median_iqr([g.ess for g in grp])
        summary.append((*_desc_fields(grp[0].policy), cfg.estimator, len(grp),
                        n_missing, vm, v1, v3, em, e1, e3))
    _write_csv(paths["summary"], SUMMARY_COLUMNS, summary)

    _write_csv(paths["per_k"], SUMMARY_COLUMNS,
               [s for s in summary if s[1] != ""])
    _write_csv(paths["per_p1"], SUMMARY_COLUMNS,
               [s for s in summary if s[2] != ""])
    _write_csv(paths["failures"], ("seed", "reason"), failures)
    return paths


def _run_repeat(cfg: ExperimentConfig, raw: Dataset, repeat: int,
                split_seed: int, select_seed: int) -> list:
    spec = replace(cfg.split, seed=split_seed)
    train_ds, val_ds, test_ds = split_dataset(raw, spec)

    ids = np.concatenate([train_ds.ids, val_ds.ids, test_ds.ids])
    if len(np.unique(ids)) < len(ids):
        raise RuntimeError("trajectory leaked across partitions")

    stats = fit_imputation(train_ds)
    train, val, test = (build_states(impute_and_encode(part, stats=stats),
                                     cfg.state_config)
                        for part in (train_ds, val_ds, test_ds))

    model = select_model(train, val, cfg.model, cfg.n_candidates, select_seed,
                         cfg.grid)
    # one evaluation of the model on the test steps serves the test metrics,
    # every policy and every importance-weight denominator
    evaluation = Evaluation(model, test)
    test_auroc = auroc_macro(evaluation.probs, test.actions)
    test_sce = sce(evaluation.probs, test.actions)

    out = []
    for desc in cfg.policies:
        policy = build_policy(desc, model)
        weights = importance_weights(policy, model, test, evaluation)
        result = ESTIMATORS[cfg.estimator](weights)
        out.append(ReportRow(seed=repeat, model=cfg.model, policy=dict(desc),
                             value=result.value, ess=result.ess, n=result.n,
                             auroc=test_auroc, sce=test_sce))
    return out


# ---------------------------------------------------------------------------
# model bundles
# ---------------------------------------------------------------------------

BUNDLE_VERSION = 1


def save_bundle(path, model, stats, state_config: StateConfig) -> None:
    """Persist a fitted model with everything needed to reuse it on raw data."""
    from .behavior import model_to_json

    payload = {
        "bundle_version": BUNDLE_VERSION,
        "model": model_to_json(model),
        "imputation": stats.to_json(),
        "state_config": state_config.to_json(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bundle(path):
    """Returns (model, imputation stats, state config)."""
    from .behavior import model_from_json
    from .data import ImputationStats

    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("bundle_version") if isinstance(payload, dict) else None
    if version != BUNDLE_VERSION:
        raise HarnessError(
            f"unsupported bundle version {version!r} (this library reads "
            f"version {BUNDLE_VERSION})"
        )
    for key in ("model", "imputation", "state_config"):
        if not isinstance(payload.get(key), dict):
            problem = "missing" if key not in payload else "not a JSON object"
            raise HarnessError(f"malformed bundle {path}: key {key!r} is {problem}")
    return (model_from_json(payload["model"]),
            ImputationStats.from_json(payload["imputation"]),
            StateConfig.from_json(payload["state_config"]))
