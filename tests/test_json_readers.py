"""Every JSON reader, fed single-value mutants of a valid input, either builds
or refuses with a domain error; through ``clinpol`` it exits 0, or exits 1
with one ``error:`` line. A bug would raise out of the reader (or out of
``cli.main``), failing the test.

A mutant replaces the value at one key path (a dict key or a list index, at
any depth) with one of :data:`MUTANTS`.
"""

import json
import math
import re
from contextlib import contextmanager
from functools import reduce
from operator import getitem

import pytest

from clinpol.behavior import BehaviorError, model_from_json, model_to_json
from clinpol.cli import CliError, EvaluateConfig, FitConfig, main
from clinpol.errors import ClinpolError
from clinpol.harness import (
    ExperimentConfig,
    FitSettings,
    HarnessError,
    HyperparamGrid,
    load_bundle,
)
from clinpol.sim import ChronicSimConfig, EpisodicSimConfig

MUTANTS = (None, "x", [], {}, True, 2.5, -1, 10**400, math.nan, "3")
# 10**400 in one of these sizes a run that does not end (or one that dies
# allocating) wherever the integer rule is missing, so the CLI sweep leaves
# it out for them; test_config_mutants_build_or_raise_a_domain_error checks
# their int64 refusal by direct from_json calls, which start no run
COHORT_SIZES = ("n_patients", "n_repeats", "n_candidates", "horizon", "dose_levels")


def key_paths(obj, path=()):
    """The path to every value inside ``obj``, outer ones first."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from key_paths(value, path + (key,))


@contextmanager
def mutated(obj, path, value):
    """``obj`` with the value at ``path`` replaced, until the block ends."""
    parent = reduce(getitem, path[:-1], obj)
    old, parent[path[-1]] = parent[path[-1]], value
    try:
        yield obj
    finally:
        parent[path[-1]] = old


def mutants(obj, sizes_too=True):
    """(path, mutant) pairs; ``sizes_too=False`` leaves 10**400 out at the
    cohort-size keys."""
    for path in list(key_paths(obj)):
        for value in MUTANTS:
            if sizes_too or not (value == 10**400 and path[-1] in COHORT_SIZES):
                yield path, value


def built(read) -> bool:
    """Whether ``read()`` builds; a domain error is a refusal, anything else
    fails the test."""
    try:
        read()
    except ClinpolError:
        return False
    return True


def run(capsys, argv) -> int:
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 1), (argv, code)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return code


def write(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A cohort, a held-out cohort and a small fitted dtbls bundle."""
    work = tmp_path_factory.mktemp("fitted")
    sim = write(work / "sim.json", {"kind": "chronic", "config": {"n_patients": 150}})
    fit = write(work / "fit.json", {"model": "dtbls", "n_candidates": 1,
                                    "grid": {"max_depths": [2], "min_leaf_fractions": [0.05]}})
    cohort, heldout, bundle = work / "cohort.jsonl", work / "heldout.jsonl", work / "b.json"
    assert main(["simulate", "--config", sim, "--seed", "3", "--out", str(cohort)]) == 0
    assert main(["simulate", "--config", sim, "--seed", "4", "--out", str(heldout)]) == 0
    assert main(["fit", str(cohort), "--config", fit, "--out", str(bundle)]) == 0
    return cohort, heldout, bundle


# ---------------------------------------------------------------------------
# library readers
# ---------------------------------------------------------------------------

def test_config_mutants_build_or_raise_a_domain_error():
    full = ExperimentConfig(simulator=ChronicSimConfig(n_patients=40),
                            policies=({"type": "mc", "k": 1, "epsilon": 0.1},),
                            out_dir="out").to_json()
    readers = [(ExperimentConfig.from_json, full),
               (ExperimentConfig.from_json, {**full, "simulator": None, "dataset": "d.jsonl"}),
               (ChronicSimConfig.from_json, ChronicSimConfig().to_json()),
               (EpisodicSimConfig.from_json, EpisodicSimConfig().to_json())]
    counts = [0, 0]
    for read, obj in readers:
        for path, value in mutants(obj):
            with mutated(obj, path, value):
                ok = built(lambda: read(obj))
            counts[ok] += 1
            if value == 10**400 and path[-1] in COHORT_SIZES:
                assert not ok, path
    assert counts[0] > 0 and counts[1] > 0


def test_the_fit_settings_read_alike_in_both_records():
    """``FitConfig`` and ``ExperimentConfig`` declare the fit settings once,
    in ``FitSettings``: the same keys and defaults, and each mutant of them
    built by both or refused by both with one message after the lead."""
    shared = FitSettings().to_json()
    simulator = {"simulator": {"kind": "chronic"}}
    assert FitConfig().to_json() == shared
    assert {key: ExperimentConfig.from_json(simulator).to_json()[key]
            for key in shared} == shared

    def verdict(read):
        try:
            read()
        except ClinpolError as e:
            return str(e).removeprefix("malformed fit config: ").removeprefix(
                "malformed experiment config: ")
        return None

    outcomes = []
    for path, value in mutants(shared):
        with mutated(shared, path, value):
            fit = verdict(lambda: FitConfig.from_json(shared))
            experiment = verdict(lambda: ExperimentConfig.from_json({**shared, **simulator}))
        assert fit == experiment, (path, value)
        outcomes.append(fit is None)
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("record, error, key, names", [
    (ExperimentConfig, HarnessError, "model", "model type"),
    (ExperimentConfig, HarnessError, "estimator", "estimator"),
    (FitConfig, CliError, "model", "model type"),
    (EvaluateConfig, CliError, "estimator", "estimator"),
])
def test_a_model_kind_or_estimator_mutant_is_refused_naming_the_key(record, error, key,
                                                                     names):
    # the name is read by its config kind, so no hand check waits for it
    base = ({"simulator": {"kind": "chronic"}, "model": "dts"} if record is ExperimentConfig
            else {})
    for value in MUTANTS:
        with pytest.raises(error, match=re.escape(f"{key!r} ") + ".*"
                           + re.escape(f"an unknown {names}")):
            record.from_json({**base, key: value})
    valid = "dts" if key == "model" else "is"
    assert getattr(record.from_json({**base, key: valid}), key) == valid


def test_model_mutants_build_or_raise_a_domain_error(fitted):
    model = json.loads(json.dumps(model_to_json(load_bundle(fitted[2])[0])))
    outcomes = []
    for path, value in mutants(model):
        with mutated(model, path, value):
            outcomes.append(built(lambda: model_from_json(model)))
    assert any(outcomes) and not all(outcomes)


def test_bundle_mutants_load_or_raise_a_domain_error_and_evaluate_in_one_line(
        fitted, tmp_path, capsys):
    _, heldout, bundle = fitted
    obj = json.loads(bundle.read_text())
    path_out, out = tmp_path / "mutant.json", tmp_path / "eval.csv"
    loaded = []
    for path, value in mutants(obj):
        with mutated(obj, path, value):
            write(path_out, obj)
            if built(lambda: load_bundle(path_out)):
                loaded.append(path_out.read_text())
    assert 0 < len(loaded) < sum(1 for _ in mutants(obj))
    # a bundle that loads is fit for evaluate, or evaluate refuses it in one line
    for text in loaded:
        path_out.write_text(text)
        run(capsys, ["evaluate", heldout, "--model", path_out, "--out", out])


@pytest.mark.parametrize("path, error", [(("bundle_version",), HarnessError),
                                         (("model", "version"), BehaviorError),
                                         (("model", "n_actions"), BehaviorError)])
def test_bundle_and_model_integers_refuse_a_bool_or_a_float(fitted, tmp_path, path, error):
    """``true == 1`` and ``4.0 == 4``, so an equality test would let these load."""
    obj = json.loads(fitted[2].read_text())
    out = tmp_path / "mutant.json"
    held = reduce(getitem, path, obj)
    assert type(held) is int
    load_bundle(write(out, obj))
    for value in (True, float(held)):
        with mutated(obj, path, value):
            write(out, obj)
        with pytest.raises(error, match=re.escape(f"{path[-1]!r} must be an integer, "
                                                  f"got {value!r}")):
            load_bundle(out)


# ---------------------------------------------------------------------------
# the --config of every subcommand that takes one
# ---------------------------------------------------------------------------

def sweep(capsys, tmp_path, base, argv):
    """Run ``clinpol <argv> --config <mutant>`` for every mutant of ``base``;
    returns how many exited 0 and how many exited 1."""
    codes = [0, 0]
    config = tmp_path / "config.json"
    for path, value in mutants(base, sizes_too=False):
        with mutated(base, path, value):
            write(config, base)
        codes[run(capsys, [*argv, "--config", config])] += 1
    return codes


@pytest.mark.parametrize("kind", ["chronic", "episodic"])
def test_simulate_config_mutants(kind, tmp_path, capsys):
    config = {"chronic": ChronicSimConfig, "episodic": EpisodicSimConfig}[kind]
    base = {"kind": kind, "config": config(n_patients=30).to_json()}
    codes = sweep(capsys, tmp_path, base, ["simulate", "--out", tmp_path / "c.jsonl"])
    assert codes[0] > 0 and codes[1] > 0


def test_fit_config_mutants(fitted, tmp_path, capsys):
    base = {"model": "dtbls", "n_candidates": 1,
            "grid": {"max_depths": [2], "min_leaf_fractions": [0.05]},
            "split": {"train_fraction": 0.8, "validation_fraction": 0.2, "seed": 0},
            "state_config": {"switch_count": True, "mean_reward": False}}
    codes = sweep(capsys, tmp_path, base, ["fit", fitted[0], "--out", tmp_path / "b.json"])
    assert codes[0] > 0 and codes[1] > 0


def test_evaluate_config_mutants(fitted, tmp_path, capsys):
    _, heldout, bundle = fitted
    base = {"policies": [{"type": "behavior"}, {"type": "mc_switch_adj", "k": 1, "p1": 0.1}],
            "estimator": "wis"}
    codes = sweep(capsys, tmp_path, base, ["evaluate", heldout, "--model", bundle,
                                           "--out", tmp_path / "eval.csv"])
    assert codes[0] > 0 and codes[1] > 0


def test_experiment_config_mutants(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a mutant out_dir lands here
    base = ExperimentConfig(simulator=ChronicSimConfig(n_patients=40, horizon_range=(2, 3)),
                            n_repeats=1, model="dt", n_candidates=1,
                            policies=({"type": "behavior"},), out_dir="report",
                            grid=HyperparamGrid(max_depths=(2,), min_leaf_fractions=(0.05,))
                            ).to_json()
    codes = sweep(capsys, tmp_path, base, ["experiment"])
    assert codes[0] > 0 and codes[1] > 0
