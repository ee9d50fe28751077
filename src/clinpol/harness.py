"""Repeated-split experiment protocol: selection, calibration, policies, OPE.

One repeat is: split the cohort by trajectory, fit candidate behavior models
on the train partition, pick the best by validation AUROC, calibrate the
winner on the validation partition, build every configured target policy
from it, and estimate each policy's value on the test partition. The repeat
loop reruns this under fresh split seeds and aggregates medians and IQRs.

Reports: a repeat returns one :class:`RepeatRecord`; one label per descriptor
(:func:`_label`) names its policy in every table; :func:`_write_summary` alone groups.

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
from dataclasses import dataclass, field, replace

import numpy as np

from .behavior import MODEL, Evaluation, TreeMemo, fit_dt, fit_dtbls, fit_dts
from .checks import INT, LIST, NUMBER, Config, Items, Nullable, checked, member, setting
from .data import (
    Dataset,
    SplitSpec,
    StateConfig,
    build_states,
    fit_imputation,
    impute_and_encode,
    load_dataset,
    read_json,
    split_dataset,
)
from .errors import ClinpolError, remember
from .metrics import auroc_macro, sce
from .ope import ESTIMATOR, ESTIMATORS, OPEResult, importance_weights, median_iqr
from .policies import PolicyError, build_policy, check_descriptor
from .sim import SIMULATOR, simulate
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
class HyperparamGrid(Config, error=HarnessError, lead="malformed grid"):
    """Search space for tree candidates. A candidate is one cell, which a
    model uses for every component tree (:func:`~clinpol.behavior.fit_dts`
    and :func:`~clinpol.behavior.fit_dtbls` take one)."""

    max_depths: tuple = setting(DEFAULT_MAX_DEPTHS, Items(INT))
    min_leaf_fractions: tuple = setting(DEFAULT_MIN_LEAF_FRACTIONS, Items(NUMBER))

    def __post_init__(self):
        super().__post_init__()
        if not self.max_depths or not self.min_leaf_fractions:
            raise HarnessError("hyperparameter grid must not be empty")
        for d in self.max_depths:
            for f in self.min_leaf_fractions:
                TreeHyperparams(max_depth=d, min_leaf_fraction=f)

    def all(self) -> list:
        """Every cell in fixed (depth-major) order."""
        return [TreeHyperparams(max_depth=d, min_leaf_fraction=f)
                for d in self.max_depths for f in self.min_leaf_fractions]


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
    """Fit one candidate, ``hp`` for every component tree.

    With a ``memo`` built for ``data``, component trees are cut from its deep
    trees; the fitted model is the one a fit without it gives.
    """
    checked(MODEL.read, model_type, HarnessError, "model_type")
    if model_type == "dt":
        return fit_dt(data, hp, memo=memo)
    if model_type == "dts":
        return fit_dts(data, hp, memo=memo)
    return fit_dtbls(data, hp, memo=memo)


# ---------------------------------------------------------------------------
# model selection
# ---------------------------------------------------------------------------

def select_model(train, validation, model_type: str, n_candidates: int,
                 seed: int, grid: HyperparamGrid | None = None):
    """Best-of-``n_candidates`` by validation AUROC, then calibrated.

    Ties keep the earliest sampled candidate (strict improvement replaces).
    Candidates that fail to fit or to score with a domain error (a
    ``ClinpolError``) are skipped; if every one fails the last failure is
    surfaced. Any other exception is a bug and propagates.

    One :class:`~clinpol.behavior.TreeMemo` makes every candidate's component
    trees. It grows each component once per distinct min-leaf fraction among
    the draws, to the deepest depth drawn with it, cuts that tree at each
    candidate's depth and tallies the cut's outcomes. This is exact: greedy
    growth reads ``max_depth`` only as its stop rule, so a shallower fit is
    the deeper one cut (see :func:`clinpol.tree.truncate_tree`). Each deep
    tree routes the fitting and validation rows once, and every cut of it
    reads their leaf ids through :func:`clinpol.tree.leaf_map`. A cell drawn
    twice reuses the first draw's cut trees, so it is fitted again but scored
    once: a repeat replays the first draw's score or error, and a tie never
    replaces the leader, so the winner is the same.
    """
    checked(MODEL.read, model_type, HarnessError, "model_type")
    grid = grid or HyperparamGrid()
    candidates = sample_candidates(grid, n_candidates, seed)
    memo = TreeMemo(train, candidates, validation)
    scores: dict[TreeHyperparams, float | ClinpolError] = {}
    best, best_score, last_error = None, -math.inf, None
    for hp in candidates:
        try:
            model = fit_model(model_type, train, hp, memo=memo)
            score = remember(scores, hp,
                             lambda: _validation_score(model, validation, memo, hp))
        except ClinpolError as e:
            last_error = e
            log.warning("candidate %s failed: %s", hp, e)
            continue
        if score > best_score:
            best, best_score = model, score
    if best is None:
        raise HarnessError(
            f"model selection failed: all {n_candidates} candidates failed "
            f"to fit (last error: {last_error})"
        )
    return best.calibrate(validation)


def _validation_score(model, validation, memo: TreeMemo, hp: TreeHyperparams) -> float:
    """Macro AUROC on the validation steps; the model's trees read the
    validation leaf ids of ``memo``. A score left undefined raises."""
    probs = model.action_probabilities_batch(
        validation.states, validation.prev_actions, validation.stages,
        leaves=memo.validation_leaves(model, hp))
    score = auroc_macro(probs, validation.actions)
    if math.isnan(score):
        raise HarnessError("validation AUROC undefined: no class has both outcomes")
    return score


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

DEFAULT_POLICIES = (
    {"type": "behavior"},
    {"type": "mc", "k": 1},
    {"type": "mc", "k": 2},
    {"type": "mc", "k": 3},
)


@dataclass(frozen=True)
class FitSettings(Config):
    """The settings of a behavior-model fit, declared once for every record
    that fits one: the model kind, how many grid candidates selection draws
    and from which grid, how the cohort splits, and the state layout."""

    model: str = setting("dtbls", MODEL)
    n_candidates: int = setting(30, least=1)
    grid: HyperparamGrid = field(default_factory=HyperparamGrid)
    split: SplitSpec = field(default_factory=SplitSpec)
    state_config: StateConfig = field(default_factory=StateConfig)


@dataclass(frozen=True)
class ExperimentConfig(FitSettings, error=HarnessError, lead="malformed experiment config",
                       noun="experiment config"):
    """Everything one repeated-split run needs; JSON-round-trippable."""

    dataset: str | None = None
    simulator: object | None = setting(None, Nullable(SIMULATOR))
    n_repeats: int = setting(50, least=1)
    policies: tuple = setting(DEFAULT_POLICIES, LIST)
    estimator: str = setting("wis", ESTIMATOR)
    out_dir: str = "results"
    seed: int = setting(0, least=0)

    def __post_init__(self):
        super().__post_init__()
        if (self.dataset is None) == (self.simulator is None):
            raise HarnessError(
                "configure exactly one dataset source: a file path or a simulator"
            )
        if not self.policies:
            raise HarnessError("at least one policy descriptor is required")
        # a simulator fixes K up front, so k and epsilon are bounded by it here
        K = None if self.simulator is None else self.simulator.n_actions
        first = {}  # each key's first position: one key is one summary row
        for i, desc in enumerate(self.policies):
            try:
                check_descriptor(desc, n_actions=K, model_kind=self.model)
            except PolicyError as e:
                raise HarnessError(str(e)) from None
            key = _label(desc)[1]
            if first.setdefault(key, i) != i:
                raise HarnessError(f"policies {first[key]} and {i} share the label {key} "
                                   "(type, k, p1, epsilon); the report could not tell them apart")


def simulator_config_from_json(obj):
    """Parse {"kind": "chronic"|"episodic", "config": {...}}."""
    return checked(SIMULATOR.load, obj, HarnessError, "simulator spec")


@dataclass(frozen=True)
class RepeatRecord:
    """One repeat's numbers: its seed, its model's test AUROC and SCE, and
    the OPE result of each configured descriptor, in config order.

    Every number is finite. Each result is checked as it comes (value, ESS,
    AUROC, SCE), so from an iterator no policy after a failing one is weighed.
    """

    seed: int
    auroc: float
    sce: float
    results: tuple[OPEResult, ...]

    def __post_init__(self):
        results = []
        for result in self.results:
            for name, v in (("value", result.value), ("ess", result.ess),
                            ("auroc", self.auroc), ("sce", self.sce)):
                if not math.isfinite(v):
                    raise HarnessError(f"report row field {name} is not finite: {v!r}")
            results.append(result)
        object.__setattr__(self, "results", tuple(results))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

ROW_COLUMNS = ("seed", "model", "policy", "k", "p1", "epsilon", "estimator",
               "value", "ess", "n", "auroc", "sce")
STAT_COLUMNS = ("value_median", "value_q1", "value_q3", "ess_median", "ess_q1", "ess_q3")
SUMMARY_COLUMNS = ("policy", "k", "p1", "epsilon", "estimator", "n_splits",
                   "n_missing_seeds", *STAT_COLUMNS)


def _label(desc: dict) -> tuple[tuple, tuple]:
    """A descriptor's written fields (type, k, p1, epsilon; one not set is
    blank) and its group and sort key (one not set counts as 0)."""
    t, k, p1, eps = (desc.get(name) for name in ("type", "k", "p1", "epsilon"))
    fields = (t, "" if k is None else k, "" if p1 is None else repr(float(p1)),
              "" if eps is None else repr(float(eps)))
    return fields, (t, k or 0, float(p1 or 0.0), float(eps or 0.0))


def _write_csv(path, header, rows) -> None:
    """The one writer of a report table. It writes a value as its ``str``,
    which for a Python float is its ``repr``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _write_summary(path, header, rows, extra: tuple = ()) -> list:
    """Group labelled rows, (key, label, value, ESS), by key and write and
    return one row per group in key order: its first row's label, its size,
    ``extra``, then the median and quartiles of its values and of its ESS.
    """
    groups: dict[tuple, tuple] = {}
    for key, label, value, ess in rows:
        _, values, esses = groups.setdefault(key, (label, [], []))
        values.append(value)
        esses.append(ess)
    table = [(*label, len(values), *extra, *median_iqr(values), *median_iqr(esses))
             for label, values, esses in (groups[key] for key in sorted(groups))]
    _write_csv(path, header, table)
    return table


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every repeat and write the report files; returns their paths.

    A repeat that fails with a domain error (a ``ClinpolError``) is logged
    to ``failures.csv`` and excluded from every table; the summary counts
    missing seeds. Any other exception is a bug and propagates. Repeats are
    independent (per-repeat seeds derive from ``SeedSequence([master,
    repeat])``), so the sequential loop here could be parallelized without
    changing any output. The output directory is made before the first
    repeat runs, so one that cannot be made fails the run before any fit.
    """
    if cfg.dataset is not None:
        raw = load_dataset(cfg.dataset)
    else:
        raw = simulate(cfg.simulator)
    os.makedirs(cfg.out_dir, exist_ok=True)

    records: list[RepeatRecord] = []
    failures: list[tuple] = []
    for r in range(cfg.n_repeats):
        ss = np.random.SeedSequence([cfg.seed, r])
        split_seed, select_seed = (int(x) for x in ss.generate_state(2))
        try:
            records.append(_run_repeat(cfg, raw, r, split_seed, select_seed))
        except ClinpolError as e:
            log.warning("seed %d failed: %s", r, e)
            failures.append((r, f"{type(e).__name__}: {e}"))

    paths = {name: os.path.join(cfg.out_dir, f"{name}.csv")
             for name in ("rows", "summary", "per_k", "per_p1", "failures")}

    # records come in seed order and the config's keys are distinct, so rows
    # in each record's key order are in (seed, key) order
    labels = sorted((_label(desc) + (i,) for i, desc in enumerate(cfg.policies)),
                    key=lambda label: label[1])
    rows = [(record, record.results[i], fields, key)
            for record in records for fields, key, i in labels]
    _write_csv(paths["rows"], ROW_COLUMNS, [
        (record.seed, cfg.model, *fields, cfg.estimator, result.value, result.ess,
         result.n, record.auroc, record.sce)
        for record, result, fields, _ in rows
    ])
    summary = _write_summary(
        paths["summary"], SUMMARY_COLUMNS,
        [(key, (*fields, cfg.estimator), result.value, result.ess)
         for _, result, fields, key in rows],
        (cfg.n_repeats - len(records),))
    for name, column in (("per_k", 1), ("per_p1", 2)):  # the rows that set k, then p1
        _write_csv(paths[name], SUMMARY_COLUMNS, [s for s in summary if s[column] != ""])
    _write_csv(paths["failures"], ("seed", "reason"), failures)
    return paths


def _run_repeat(cfg: ExperimentConfig, raw: Dataset, repeat: int,
                split_seed: int, select_seed: int) -> RepeatRecord:
    spec = replace(cfg.split, seed=split_seed)
    parts = list(split_dataset(raw, spec))
    # a set of the ids themselves: an array of them would be as wide as the longest
    if len(set().union(*(part.ids for part in parts))) < sum(map(len, parts)):
        raise RuntimeError("trajectory leaked across partitions")

    stats = fit_imputation(parts[0])

    def states(part: Dataset):
        return build_states(impute_and_encode(part, stats=stats), cfg.state_config)

    # each partition is let go once its states exist, and the test states are
    # built only once selection is done with the train and validation states
    train, val = states(parts.pop(0)), states(parts.pop(0))
    model = select_model(train, val, cfg.model, cfg.n_candidates, select_seed,
                         cfg.grid)
    del train, val
    test = states(parts.pop())
    # one evaluation of the model on the test steps serves the test metrics,
    # every policy and every importance-weight denominator
    evaluation = Evaluation(model, test)
    test_auroc = auroc_macro(evaluation.probs, test.actions)
    test_sce = sce(evaluation.probs, test.actions)

    # the record checks each result as it comes, before the next policy is weighed
    return RepeatRecord(repeat, test_auroc, test_sce, (
        ESTIMATORS[cfg.estimator](importance_weights(build_policy(desc, model), model,
                                                     test, evaluation))
        for desc in cfg.policies))


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

    payload = read_json(path, HarnessError, f"bundle {path} is not valid JSON")
    version = member(payload, "bundle_version", INT, HarnessError, f"bundle {path}")
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
