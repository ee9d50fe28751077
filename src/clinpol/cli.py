"""Command-line pipeline: simulate, fit, evaluate, export, report, experiment.

Every subcommand takes ``--seed``, ``--config``, and ``--out``; config files
are JSON with the key schemas documented in the README. A domain error
(``ClinpolError``) or an input error (``OSError``, malformed JSON) prints a
single-line diagnostic to stderr and exits nonzero; any other exception is a
bug and propagates.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .behavior import Evaluation
from .data import (
    SplitSpec,
    StateConfig,
    apply_imputation,
    build_states,
    fit_imputation,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .errors import ClinpolError
from .harness import (
    ExperimentConfig,
    HarnessError,
    HyperparamGrid,
    _desc_fields,
    _unrunnable,
    _write_csv,
    load_bundle,
    run_experiment,
    save_bundle,
    select_model,
    simulator_config_from_json,
)
from .ope import ESTIMATORS, importance_weights, median_iqr
from .policies import build_policy
from .sim import ChronicSimConfig, simulate
from .tree import tree_to_dot, tree_to_json

EVAL_COLUMNS = ("policy", "k", "p1", "estimator", "value", "ess", "n", "seed")


class CliError(ClinpolError):
    pass


def _read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read config {path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise CliError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return obj


@contextmanager
def _parsing(what: str):
    """Report a malformed value met while reading a JSON input file as bad
    input (a ``CliError``), not as a bug."""
    try:
        yield
    except ClinpolError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CliError(f"malformed {what} ({type(e).__name__}: {e})") from None


def _require_out(args) -> str:
    if not args.out:
        raise CliError("this subcommand needs --out")
    return args.out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    out = _require_out(args)
    if args.config:
        with _parsing(f"simulator config {args.config}"):
            cfg = simulator_config_from_json(_read_json(args.config))
    else:
        cfg = ChronicSimConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    save_dataset(simulate(cfg), out)
    print(f"wrote {out}")
    return 0


def _cmd_fit(args) -> int:
    out = _require_out(args)
    cfg = _read_json(args.config) if args.config else {}
    model_type = cfg.get("model", "dtbls")
    with _parsing(f"fit config {args.config}"):
        n_candidates = int(cfg.get("n_candidates", 30))
        grid = HyperparamGrid.from_json(cfg.get("grid", {}))
        spec = SplitSpec.from_json(cfg.get("split", {}))
        state_config = StateConfig.from_json(cfg.get("state_config", {}))

    seed = args.seed if args.seed is not None else spec.seed
    split_seed, select_seed = (
        int(x) for x in np.random.SeedSequence([seed]).generate_state(2)
    )
    ds = load_dataset(args.dataset)
    train_ds, val_ds, _ = split_dataset(ds, replace(spec, seed=split_seed))
    stats = fit_imputation(train_ds)
    train = build_states(apply_imputation(train_ds, stats), state_config)
    val = build_states(apply_imputation(val_ds, stats), state_config)
    model = select_model(train, val, model_type, n_candidates, select_seed, grid)
    save_bundle(out, model, stats, state_config)
    print(f"wrote {out}")
    return 0


def _cmd_evaluate(args) -> int:
    out = _require_out(args)
    if not args.model:
        raise CliError("evaluate needs --model (a fitted bundle)")
    cfg = _read_json(args.config) if args.config else {}
    descriptors = cfg.get("policies", [{"type": "behavior"}])
    estimator = cfg.get("estimator", "wis")
    if estimator not in ESTIMATORS:
        raise CliError(
            f"unknown estimator {estimator!r}; valid estimators are "
            f"{tuple(ESTIMATORS)}"
        )
    seed = args.seed if args.seed is not None else 0

    with _parsing(f"bundle {args.model}"):
        model, stats, state_config = load_bundle(args.model)
    # every policy is built before the data is read, so a policy the model
    # cannot serve fails fast
    policies = []
    for desc in descriptors:
        reason = _unrunnable(desc, model.kind)
        if reason:
            raise CliError(reason)
        policies.append(build_policy(desc, model))
    data = build_states(
        apply_imputation(load_dataset(args.dataset), stats), state_config
    )
    # one evaluation of the model serves every policy and weight denominator
    evaluation = Evaluation(model, data)
    rows = []
    for desc, policy in zip(descriptors, policies):
        result = ESTIMATORS[estimator](
            importance_weights(policy, model, data, evaluation))
        rows.append((*_desc_fields(desc)[:3], estimator, result.value,
                     result.ess, result.n, seed))
    _write_csv(out, EVAL_COLUMNS, rows)
    print(f"wrote {out}")
    return 0


def _cmd_export(args) -> int:
    out = _require_out(args)
    if not args.model:
        raise CliError("export needs --model (a fitted bundle)")
    with _parsing(f"bundle {args.model}"):
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
            reader = csv.DictReader(fh)
            raw = list(reader)
    except OSError as e:
        raise CliError(f"cannot read rows {args.rows}: {e.strerror}") from None
    needed = {"policy", "k", "p1", "estimator", "value", "ess"}
    if not raw or not needed.issubset(raw[0].keys()):
        raise CliError(
            f"rows file must have columns {sorted(needed)} with at least one row"
        )
    groups: dict[tuple, list] = {}
    for i, row in enumerate(raw, start=1):
        key = (row["policy"], row["k"], row["p1"], row["estimator"])
        try:
            pair = (float(row["value"]), float(row["ess"]))
        except (TypeError, ValueError):
            raise CliError(f"rows {args.rows} row {i}: value and ess "
                           "must be numbers") from None
        groups.setdefault(key, []).append(pair)
    table = []
    for key in sorted(groups):
        vals = groups[key]
        vm, v1, v3 = median_iqr([v for v, _ in vals])
        em, e1, e3 = median_iqr([e for _, e in vals])
        table.append((*key, len(vals), vm, v1, v3, em, e1, e3))
    _write_csv(out, ("policy", "k", "p1", "estimator", "n_rows",
                     "value_median", "value_q1", "value_q3",
                     "ess_median", "ess_q1", "ess_q3"), table)
    print(f"wrote {out}")
    return 0


def _cmd_experiment(args) -> int:
    if not args.config:
        raise CliError("experiment needs --config (an experiment spec)")
    obj = _read_json(args.config)
    with _parsing(f"experiment config {args.config}"):
        cfg = ExperimentConfig.from_json(obj)
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
        return args.func(args)
    # a domain or input error gets a single-line diagnostic and a nonzero
    # exit; anything else is a bug and raises with its traceback
    except (ClinpolError, OSError, json.JSONDecodeError) as e:
        message = str(e).splitlines()[0] if str(e) else type(e).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
