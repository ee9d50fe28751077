"""Command-line pipeline: simulate, fit, evaluate, export, report, experiment.

Every subcommand takes ``--seed``, ``--config``, and ``--out``; config files
are JSON with the key schemas documented in the README. A domain error
(``ClinpolError``, malformed JSON included) or an input error (``OSError``)
prints a single-line diagnostic to stderr and exits nonzero; any other
exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .behavior import Evaluation
from .checks import INT, LIST, Config, checked, setting
from .data import (
    _not_utf8,
    apply_imputation,
    build_states,
    fit_imputation,
    load_dataset,
    read_json,
    save_dataset,
    split_dataset,
)
from .errors import ClinpolError
from .harness import (
    ExperimentConfig,
    FitSettings,
    STAT_COLUMNS,
    _label,
    _write_csv,
    _write_summary,
    load_bundle,
    run_experiment,
    save_bundle,
    select_model,
    simulator_config_from_json,
)
from .ope import ESTIMATOR, ESTIMATORS, ImportanceWeights, importance_weights
from .policies import build_policy
from .sim import ChronicSimConfig, simulate
from .tree import tree_to_dot, tree_to_json

EVAL_COLUMNS = ("policy", "k", "p1", "estimator", "value", "ess", "n", "seed")


class CliError(ClinpolError):
    pass


@dataclass(frozen=True)
class FitConfig(FitSettings, error=CliError, lead="malformed fit config"):
    """The keys a ``fit`` config may set."""


@dataclass(frozen=True)
class EvaluateConfig(Config, error=CliError, lead="malformed evaluate config"):
    """The keys an ``evaluate`` config may set."""

    policies: tuple = setting(({"type": "behavior"},), LIST)
    estimator: str = setting("wis", ESTIMATOR)


def _read_json(path) -> dict:
    try:
        obj = read_json(path, CliError, f"config {path} is not valid JSON")
    except OSError as e:
        raise CliError(f"cannot read config {path}: {e.strerror}") from None
    if not isinstance(obj, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return obj


def _config(record, path):
    """The ``record`` the ``--config`` file at ``path`` sets, or the record's
    defaults without one."""
    return record.from_json(_read_json(path) if path else {}, path)


def _require_out(args) -> str:
    if not args.out:
        raise CliError("this subcommand needs --out")
    return args.out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    out = _require_out(args)
    cfg = (simulator_config_from_json(_read_json(args.config)) if args.config
           else ChronicSimConfig())
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    first = None

    def write(block):
        nonlocal first
        save_dataset(block, out, first)
        if first is None:
            first = block.take([])  # the cohort's header, without its rows

    # the cohort is generated and written block by block, so memory holds one block
    simulate(cfg, each=write)
    print(f"wrote {out}")
    return 0


def _cmd_fit(args) -> int:
    out = _require_out(args)
    cfg = _config(FitConfig, args.config)
    spec = cfg.split if args.seed is None else replace(cfg.split, seed=args.seed)
    split_seed, select_seed = (
        int(x) for x in np.random.SeedSequence([spec.seed]).generate_state(2)
    )
    ds = load_dataset(args.dataset)
    train_ds, val_ds, _ = split_dataset(ds, replace(spec, seed=split_seed))
    stats = fit_imputation(train_ds)
    train = build_states(apply_imputation(train_ds, stats), cfg.state_config)
    val = build_states(apply_imputation(val_ds, stats), cfg.state_config)
    model = select_model(train, val, cfg.model, cfg.n_candidates, select_seed, cfg.grid)
    save_bundle(out, model, stats, cfg.state_config)
    print(f"wrote {out}")
    return 0


def _cmd_evaluate(args) -> int:
    out = _require_out(args)
    if not args.model:
        raise CliError("evaluate needs --model (a fitted bundle)")
    cfg = _config(EvaluateConfig, args.config)
    if not cfg.policies:
        raise CliError(f"malformed evaluate config {args.config}: at least one policy "
                       "descriptor is required")
    seed = args.seed if args.seed is not None else 0

    model, stats, state_config = load_bundle(args.model)
    # every policy is built before the data is read, so a policy the model
    # cannot serve fails fast
    policies = [build_policy(desc, model) for desc in cfg.policies]
    weights = [[] for _ in policies]

    def weigh(part):
        data = build_states(apply_imputation(part, stats), state_config)
        # one evaluation of the model serves every policy and weight denominator
        evaluation = Evaluation(model, data)
        for policy, parts in zip(policies, weights):
            parts.append(importance_weights(policy, model, data, evaluation))

    # the cohort is weighed part by part, so a pass holds one part's states
    load_dataset(args.dataset, each=weigh)
    rows, joined = [], None
    for desc, parts in zip(cfg.policies, weights):
        # the policies' parts share returns and lengths: they are joined once
        joined = ImportanceWeights.joined(parts, joined)
        result = ESTIMATORS[cfg.estimator](joined)
        rows.append((*_label(desc)[0][:3], cfg.estimator, result.value,
                     result.ess, result.n, seed))
    _write_csv(out, EVAL_COLUMNS, rows)
    print(f"wrote {out}")
    return 0


def _cmd_export(args) -> int:
    out = _require_out(args)
    if not args.model:
        raise CliError("export needs --model (a fitted bundle)")
    model, _, _ = load_bundle(args.model)
    os.makedirs(out, exist_ok=True)
    written = []
    for name, tree in model.trees.items():
        class_names = (("stay", "switch") if name == "switch"
                       else [f"a{i}" for i in range(tree.n_classes)])
        dot_path = os.path.join(out, f"{name}.dot")
        with open(dot_path, "w", encoding="utf-8") as fh:
            fh.write(tree_to_dot(tree, class_names))
        json_path = os.path.join(out, f"{name}.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(tree_to_json(tree), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.extend([dot_path, json_path])
    print(f"wrote {len(written)} files to {out}")
    return 0


def _cmd_report(args) -> int:
    out = _require_out(args)
    try:
        with open(args.rows, encoding="utf-8", newline="") as fh:
            raw = list(csv.DictReader(fh))
    except OSError as e:
        raise CliError(f"cannot read rows {args.rows}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise _not_utf8(args.rows, e) from None
    needed = {"policy", "k", "p1", "estimator", "value", "ess"}
    if not raw or not needed.issubset(raw[0].keys()):
        raise CliError(f"rows file must have columns {sorted(needed)} with at least one row")
    rows, epsilons = [], {}
    for i, row in enumerate(raw, start=1):
        label = (row["policy"], row["k"], row["p1"], row["estimator"])
        try:  # a NaN or an infinity would make its group's median one
            value, ess = float(row["value"]), float(row["ess"])
        except (TypeError, ValueError):
            value = ess = math.nan
        if not (math.isfinite(value) and math.isfinite(ess)):
            raise CliError(f"rows {args.rows} row {i}: value and ess must be finite numbers")
        try:  # groups and their order are summary.csv's: by number, blank as 0
            k, p1 = (float(row[name] or 0) for name in ("k", "p1"))
        except (TypeError, ValueError):
            k = p1 = math.nan
        if not (math.isfinite(k) and math.isfinite(p1)):  # NaN equals no key, itself too
            raise CliError(f"rows {args.rows} row {i}: k and p1 must be finite numbers "
                           "or blank")
        key = (*_label({"type": row["policy"], "k": k, "p1": p1})[1], row["estimator"])
        rows.append((key, label, value, ess))
        # a group pools its rows, so it must hold one policy
        if "epsilon" in row and epsilons.setdefault(key, row["epsilon"]) != row["epsilon"]:
            raise CliError(f"rows {args.rows} row {i}: the group {label} holds more than "
                           f"one epsilon ({epsilons[key]!r} and {row['epsilon']!r})")
    _write_summary(out, ("policy", "k", "p1", "estimator", "n_rows", *STAT_COLUMNS), rows)
    print(f"wrote {out}")
    return 0


def _cmd_experiment(args) -> int:
    if not args.config:
        raise CliError("experiment needs --config (an experiment spec)")
    cfg = ExperimentConfig.from_json(_read_json(args.config))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    paths = run_experiment(cfg)
    print(f"wrote {paths['rows']} and {len(paths) - 1} companion files")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clinpol",
        description="Tree behavior policies, target policies, and "
                    "importance-sampling evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the config's seed)")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output file or directory")
        p.set_defaults(func=func)
        return p

    add("simulate", "generate a synthetic cohort as JSONL", _cmd_simulate)

    p_fit = add("fit", "select and calibrate a behavior model", _cmd_fit)
    p_fit.add_argument("dataset", help="cohort file (JSONL or CSV)")

    p_eval = add("evaluate", "off-policy estimates for configured policies",
                 _cmd_evaluate)
    p_eval.add_argument("dataset", help="held-out cohort file")
    p_eval.add_argument("--model", default=None, help="fitted model bundle")

    p_exp = add("export", "write component trees as DOT and JSON", _cmd_export)
    p_exp.add_argument("--model", default=None, help="fitted model bundle")

    p_rep = add("report", "median/IQR summary of evaluation rows", _cmd_report)
    p_rep.add_argument("rows", help="rows CSV produced by evaluate")

    add("experiment", "run the repeated-split protocol end to end",
        _cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            checked(INT.bounded(0).read, args.seed, CliError, "--seed")
        return args.func(args)
    # a domain or input error gets a single-line diagnostic and a nonzero
    # exit; anything else is a bug and raises with its traceback
    except (ClinpolError, OSError) as e:
        message = str(e).splitlines()[0] if str(e) else type(e).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
