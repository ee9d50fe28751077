"""Subcommand pipeline, exact CSV columns, and one-line failure modes."""

import csv
import hashlib
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clinpol import cli, data, harness
from clinpol.cli import main
from clinpol.data import ParseError, load_dataset, save_dataset
from clinpol.errors import ClinpolError
from clinpol.harness import ExperimentConfig, HarnessError, load_bundle
from clinpol.ope import median_iqr
from clinpol.policies import build_policy
from clinpol.sim import (
    ChronicSimConfig,
    EpisodicSimConfig,
    config_from_provenance,
    generate_chronic,
    generate_episodic,
)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def pipeline(tmp_path):
    """simulate + fit once; returns paths for downstream subcommands."""
    sim = write_json(tmp_path / "sim.json",
                     {"kind": "chronic", "config": {"n_patients": 300, "seed": 5}})
    fit = write_json(tmp_path / "fit.json", {"model": "dtbls", "n_candidates": 3})
    cohort = str(tmp_path / "cohort.jsonl")
    bundle = str(tmp_path / "bundle.json")
    assert main(["simulate", "--config", sim, "--out", cohort]) == 0
    assert main(["fit", cohort, "--config", fit, "--seed", "7",
                 "--out", bundle]) == 0
    return tmp_path, cohort, bundle


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------

def test_simulate_fit_evaluate_pipeline_smoke(pipeline):
    tmp_path, cohort, bundle = pipeline
    eval_cfg = write_json(tmp_path / "eval.json", {
        "policies": [{"type": "behavior"}, {"type": "mc", "k": 1}],
        "estimator": "wis",
    })
    out = str(tmp_path / "rows.csv")
    assert main(["evaluate", cohort, "--model", bundle, "--config", eval_cfg,
                 "--seed", "7", "--out", out]) == 0
    rows = read_rows(out)
    assert [r["policy"] for r in rows] == ["behavior", "mc"]


def test_evaluate_emits_the_exact_column_contract(pipeline):
    tmp_path, cohort, bundle = pipeline
    out = str(tmp_path / "rows.csv")
    assert main(["evaluate", cohort, "--model", bundle, "--out", out]) == 0
    with open(out) as fh:
        header = fh.readline().rstrip("\n")
    assert header == "policy,k,p1,estimator,value,ess,n,seed"


def test_behavior_evaluation_reproduces_the_dataset_mean(pipeline):
    tmp_path, cohort, bundle = pipeline
    out = str(tmp_path / "rows.csv")
    assert main(["evaluate", cohort, "--model", bundle, "--seed", "3",
                 "--out", out]) == 0
    row = read_rows(out)[0]
    ds = load_dataset(cohort)
    rets = np.add.reduceat(ds.rewards, ds.offsets[:-1])
    assert abs(float(row["value"]) - np.mean(rets)) <= 1e-12
    assert float(row["ess"]) == float(len(rets))
    assert int(row["n"]) == len(rets)
    assert row["seed"] == "3"


def test_export_writes_three_dot_files_for_dtbls(pipeline):
    tmp_path, _, bundle = pipeline
    out = tmp_path / "trees"
    assert main(["export", "--model", bundle, "--out", str(out)]) == 0
    dots = sorted(p.name for p in out.glob("*.dot"))
    assert dots == ["baseline.dot", "switch.dot", "treatment.dot"]
    jsons = sorted(p.name for p in out.glob("*.json"))
    assert jsons == ["baseline.json", "switch.json", "treatment.json"]
    assert (out / "switch.dot").read_text().startswith("digraph")


# SHA-256 of every file `clinpol export` writes for the pipeline's dtbls bundle
EXPORT_DIGESTS = {
    "baseline.dot": "f52840c5f4076600f151b45a2dbbcf2d152e0b6d184b0fa89eecf07614db7d39",
    "baseline.json": "cbe0372f1faa66aeab9e826df921b811c16eef868d819f5eb6e55eebc43436b1",
    "switch.dot": "4d66277e6aac264ee1bb78f5544a1634cc220c2e6d9eb26a78f6291fe0e738b4",
    "switch.json": "8b0f3992d2ad62281e4f0bcf7cbfc18855ddf9ddc5e74b60664b02b2d11c4c49",
    "treatment.dot": "20b90b0d7564aa66a6a154bb20fe44b0684fe81043e4dd0a21796f0ad2b0b329",
    "treatment.json": "b8326aa94b8f7f4e8a89f616a19cea7a8e2937372406227bc2cf1b1abc0945c9",
}


def test_export_bytes_are_pinned(pipeline):
    tmp_path, _, bundle = pipeline
    out = tmp_path / "trees"
    assert main(["export", "--model", bundle, "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == EXPORT_DIGESTS


def test_export_writes_one_tree_for_dt(pipeline, tmp_path):
    _, cohort, _ = pipeline
    fit = write_json(tmp_path / "fit_dt.json", {"model": "dt", "n_candidates": 2})
    bundle = str(tmp_path / "dt.json")
    assert main(["fit", cohort, "--config", fit, "--seed", "1",
                 "--out", bundle]) == 0
    out = tmp_path / "dt_trees"
    assert main(["export", "--model", bundle, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.dot")) == ["tree.dot"]


def test_report_summarizes_with_the_reference_quantiles(pipeline):
    tmp_path, cohort, bundle = pipeline
    rows_path = tmp_path / "rows.csv"
    with open(rows_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["policy", "k", "p1", "estimator", "value", "ess", "n", "seed"])
        for i, (v, e) in enumerate([(1.0, 10.0), (3.0, 30.0), (2.0, 20.0)]):
            w.writerow(["mc", 1, "", "wis", repr(v), repr(e), 5, i])
    out = str(tmp_path / "summary.csv")
    assert main(["report", str(rows_path), "--out", out]) == 0
    row = read_rows(out)[0]
    vm, v1, v3 = median_iqr([1.0, 3.0, 2.0])
    assert float(row["value_median"]) == vm
    assert float(row["value_q1"]) == v1
    assert float(row["value_q3"]) == v3
    assert row["n_rows"] == "3"


def test_report_of_an_experiments_rows_gives_its_summary(tmp_path):
    cfg = ExperimentConfig(
        simulator=ChronicSimConfig(n_patients=300, seed=4), n_repeats=3, model="dts",
        n_candidates=2, seed=3, out_dir=str(tmp_path / "exp"),
        policies=({"type": "mc", "k": 1}, {"type": "mc", "k": 2}, {"type": "mc", "k": 3},
                  {"type": "mc_switch_adj", "k": 2, "p1": 0.1},
                  {"type": "mc_switch_adj", "k": 2, "p1": -0.1}))
    paths = harness.run_experiment(cfg)
    out = str(tmp_path / "report.csv")
    assert main(["report", paths["rows"], "--out", out]) == 0
    report, summary = read_rows(out), read_rows(paths["summary"])
    assert len(report) == len(summary) == 5
    columns = ("policy", "k", "p1", "estimator", "value_median", "value_q1", "value_q3",
               "ess_median", "ess_q1", "ess_q3")
    assert [[r[c] for c in columns] for r in report] == [[s[c] for c in columns]
                                                         for s in summary]
    assert [r["n_rows"] for r in report] == [s["n_splits"] for s in summary]


def test_report_orders_its_groups_by_number_as_the_summary_does(tmp_path, capsys):
    # as text, "10" sorts before "2" and "-0.05" before "-0.1"
    descs = [{"type": "mc_switch_adj", "k": 2, "p1": -0.05}, {"type": "mc", "k": 10},
             {"type": "mc_switch_adj", "k": 2, "p1": -0.1}, {"type": "mc", "k": 2}]
    lines = ["seed,policy,k,p1,epsilon,estimator,value,ess"]
    lines += [",".join(map(str, (seed, *harness._label(desc)[0], "wis", float(i), 5.0)))
              for seed in range(3) for i, desc in enumerate(descs)]
    rows = tmp_path / "rows.csv"
    rows.write_text("\n".join(lines) + "\n")
    out = tmp_path / "s.csv"
    assert main(["report", str(rows), "--out", str(out)]) == 0
    report = read_rows(out)
    assert [(r["policy"], r["k"], r["p1"], r["n_rows"]) for r in report] == [
        ("mc", "2", "", "3"), ("mc", "10", "", "3"), ("mc_switch_adj", "2", "-0.1", "3"),
        ("mc_switch_adj", "2", "-0.05", "3")]
    # the summary's order is that of the descriptors' label keys
    assert [r["value_median"] for r in report] == [
        repr(float(descs.index(desc)))
        for desc in sorted(descs, key=lambda desc: harness._label(desc)[1])]
    for k, p1 in (("two", ""), ("nan", ""), ("2", "inf")):
        rows.write_text(f"policy,k,p1,estimator,value,ess\nmc,{k},{p1},wis,1.0,3.0\n")
        expect_error(capsys, ["report", str(rows), "--out", str(out)],
                     "row 1: k and p1 must be finite numbers or blank")


def test_report_refuses_a_value_or_ess_that_is_not_finite(tmp_path, capsys):
    # a NaN would make its group's median NaN, and an infinity its quartiles
    rows = tmp_path / "rows.csv"
    out = tmp_path / "s.csv"
    for value, ess in (("nan", "3.0"), ("1.0", "inf"), ("-inf", "3.0"), ("1.0", "NaN")):
        rows.write_text("seed,policy,k,p1,estimator,value,ess\n"
                        f"1,mc,2,,wis,1.5,3.0\n2,mc,2,,wis,{value},{ess}\n")
        expect_error(capsys, ["report", str(rows), "--out", str(out)],
                     f"rows {rows} row 2: value and ess must be finite numbers")
        assert not out.exists()


NOT_UTF8 = b"\xff\xfe{\x00}\x00\n"  # UTF-16 text, as an editor may save it


def test_a_config_that_is_not_utf8_is_a_one_line_error(tmp_path, capsys):
    config = tmp_path / "fit.json"
    config.write_bytes(NOT_UTF8)
    for argv in (["fit", "absent.jsonl", "--config", str(config), "--out", str(tmp_path / "b")],
                 ["experiment", "--config", str(config)]):
        expect_error(capsys, argv, f"{config} line 1: not UTF-8 text")


def test_a_bundle_that_is_not_utf8_is_a_one_line_error(tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(b'{"bundle_version": 1}\n' + NOT_UTF8)
    with pytest.raises(ParseError, match=re.escape(f"{bundle} line 2: not UTF-8 text")):
        load_bundle(bundle)
    expect_error(capsys, ["export", "--model", str(bundle), "--out", str(tmp_path / "t")],
                 f"{bundle} line 2: not UTF-8 text")


def test_a_bundle_that_is_not_json_is_a_one_line_error_naming_it(pipeline, capsys):
    tmp_path, cohort, _ = pipeline
    bundle = tmp_path / "broken.json"
    bundle.write_text('{"bundle_version": 1,')
    fragment = f"bundle {bundle} is not valid JSON"
    with pytest.raises(HarnessError, match=re.escape(fragment)):
        load_bundle(bundle)
    for argv in (["evaluate", cohort, "--model", str(bundle), "--out", str(tmp_path / "e")],
                 ["export", "--model", str(bundle), "--out", str(tmp_path / "t")]):
        expect_error(capsys, argv, fragment)


# more digits than Python converts to an int (4,300 by default)
TOO_LONG = "1" * 5000
TOO_LONG_ERROR = "Exceeds the limit (4300 digits) for integer string conversion"


def test_a_config_integer_too_long_to_convert_is_a_one_line_error(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text('{"n_repeats": ' + TOO_LONG + "}")
    expect_error(capsys, ["experiment", "--config", str(config)],
                 f"config {config} is not valid JSON: {TOO_LONG_ERROR}")


def test_a_bundle_integer_too_long_to_convert_is_a_one_line_error(tmp_path, capsys):
    bundle = tmp_path / "b.json"
    bundle.write_text('{"bundle_version": ' + TOO_LONG + "}")
    with pytest.raises(HarnessError, match=re.escape(f"bundle {bundle} is not valid JSON")):
        load_bundle(bundle)
    expect_error(capsys, ["export", "--model", str(bundle), "--out", str(tmp_path / "t")],
                 f"bundle {bundle} is not valid JSON: {TOO_LONG_ERROR}")


# a value nested past the interpreter's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000
DEEP_ERROR = "a value nested too deep to parse"


def test_a_config_nested_too_deep_is_a_one_line_error(tmp_path, capsys):
    config = tmp_path / "deep.json"
    config.write_text(DEEP)
    expect_error(capsys, ["experiment", "--config", str(config)],
                 f"config {config} is not valid JSON: {DEEP_ERROR}")


def test_a_bundle_nested_too_deep_is_a_one_line_error(tmp_path, capsys):
    bundle = tmp_path / "b.json"
    bundle.write_text('{"bundle_version": 1, "model": ' + DEEP + "}")
    with pytest.raises(HarnessError, match=re.escape(f"bundle {bundle} is not valid JSON")):
        load_bundle(bundle)
    expect_error(capsys, ["export", "--model", str(bundle), "--out", str(tmp_path / "t")],
                 f"bundle {bundle} is not valid JSON: {DEEP_ERROR}")


def test_a_rows_file_that_is_not_utf8_is_a_one_line_error(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_bytes(b"policy,k,p1,estimator,value,ess\nmc,1,,wis,1.0,3.0\n" + NOT_UTF8)
    out = tmp_path / "s.csv"
    expect_error(capsys, ["report", str(rows), "--out", str(out)],
                 f"{rows} line 3: not UTF-8 text")
    assert not out.exists()


def test_report_refuses_a_group_that_holds_two_epsilons(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    lines = ["seed,policy,k,p1,epsilon,estimator,value,ess"]
    lines += [f"{seed},mc,2,,{eps},wis,{-50.0 - seed - 30 * bool(eps)},9.0"
              for seed in range(3) for eps in ("", "0.05")]
    rows.write_text("\n".join(lines) + "\n")
    out = tmp_path / "s.csv"
    expect_error(capsys, ["report", str(rows), "--out", str(out)],
                 f"rows {rows} row 2: the group ('mc', '2', '', 'wis') holds more than one "
                 "epsilon ('' and '0.05')")
    assert not out.exists()
    # one epsilon a group, or no epsilon column, is summarized as before
    rows.write_text("\n".join(line for line in lines if ",0.05," not in line) + "\n")
    assert main(["report", str(rows), "--out", str(out)]) == 0
    assert [r["n_rows"] for r in read_rows(out)] == ["3"]


def test_fit_refuses_an_unknown_model_kind_before_reading_the_cohort(
        tmp_path, capsys, monkeypatch):
    def unread(*args, **kwargs):
        raise AssertionError("the cohort was read")

    monkeypatch.setattr(cli, "load_dataset", unread)
    fit = write_json(tmp_path / "fit.json", {"model": "xx"})
    expect_error(capsys, ["fit", str(tmp_path / "cohort.jsonl"), "--config", fit,
                          "--out", str(tmp_path / "b.json")],
                 f"malformed fit config {fit}: 'model' names an unknown model type 'xx'; "
                 "valid types are ['dt', 'dts', 'dtbls']")


def test_simulate_seed_flag_overrides_the_config(tmp_path):
    out = str(tmp_path / "cohort.jsonl")
    assert main(["simulate", "--seed", "9", "--out", out]) == 0
    ds = load_dataset(out)
    cfg = config_from_provenance(ds.provenance)
    assert cfg == ChronicSimConfig(seed=9)
    regenerated = generate_chronic(cfg)
    assert ds == regenerated


def test_experiment_subcommand_is_deterministic(tmp_path):
    cfg = {
        "simulator": {"kind": "chronic", "config": {"n_patients": 250, "seed": 2}},
        "n_repeats": 2,
        "n_candidates": 2,
        "policies": [{"type": "behavior"}, {"type": "mc", "k": 1}],
        "out_dir": "unused",
    }
    cfg_path = write_json(tmp_path / "exp.json", cfg)
    a, b = str(tmp_path / "runA"), str(tmp_path / "runB")
    assert main(["experiment", "--config", cfg_path, "--seed", "4", "--out", a]) == 0
    assert main(["experiment", "--config", cfg_path, "--seed", "4", "--out", b]) == 0
    for name in ("rows", "summary", "per_k", "per_p1", "failures"):
        assert (tmp_path / "runA" / f"{name}.csv").read_bytes() == \
            (tmp_path / "runB" / f"{name}.csv").read_bytes()
    rows = read_rows(tmp_path / "runA" / "rows.csv")
    assert {r["policy"] for r in rows} == {"behavior", "mc"}


def test_experiment_refuses_an_output_directory_under_a_file(tmp_path, capsys, monkeypatch):
    fitted, real_select = [], harness.select_model
    monkeypatch.setattr(harness, "select_model",
                        lambda *args: fitted.append(args) or real_select(*args))
    cfg_path = write_json(tmp_path / "exp.json", {
        "simulator": {"kind": "chronic", "config": {"n_patients": 100, "seed": 2}},
        "n_repeats": 3, "n_candidates": 2, "policies": [{"type": "behavior"}]})
    (tmp_path / "file").write_text("")
    expect_error(capsys, ["experiment", "--config", cfg_path,
                          "--out", str(tmp_path / "file" / "run")], "Not a directory")
    assert fitted == []


# ---------------------------------------------------------------------------
# evaluate in parts
# ---------------------------------------------------------------------------

EVAL_POLICIES = [{"type": "behavior"}, {"type": "mc", "k": 2, "epsilon": 0.05},
                 {"type": "mc_o", "k": 2}, {"type": "mc_switch_adj", "k": 2, "p1": 0.1},
                 {"type": "random", "seed": 3, "epsilon": 0.05}]


def edited_cohort(cohort, path, edits):
    """``cohort`` with ``edits`` (line number -> function of the line's object)
    applied; line 1 is the header."""
    lines = Path(cohort).read_text().splitlines()
    for lineno, edit in edits.items():
        lines[lineno - 1] = edit(json.loads(lines[lineno - 1]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def with_reward(t, reward):
    def edit(obj):
        obj["steps"][t]["reward"] = reward
        return json.dumps(obj)
    return edit


@pytest.mark.parametrize("size", ["1 step", "7 steps", "LOAD_CHUNK + 1 trajectories"])
def test_evaluate_writes_the_same_bytes_at_every_part_size(pipeline, monkeypatch, size):
    tmp_path, cohort, bundle = pipeline
    # a cut and a dropped trajectory ride along
    cohort = edited_cohort(cohort, tmp_path / "edited.jsonl",
                           {10: with_reward(1, None), 100: with_reward(0, None)})
    cfg = write_json(tmp_path / "eval.json", {"policies": EVAL_POLICIES})

    def evaluate(out):
        assert main(["evaluate", cohort, "--model", bundle, "--config", cfg,
                     "--out", str(out)]) == 0
        return out.read_bytes()

    whole = evaluate(tmp_path / "whole.csv")
    steps = [len(json.loads(line)["steps"]) for line in Path(cohort).read_text().splitlines()[1:]]
    monkeypatch.setattr(data, "PART_STEPS", {"1 step": 1, "7 steps": 7,
                                             "LOAD_CHUNK + 1 trajectories":
                                             sum(steps[:data.LOAD_CHUNK + 1])}[size])
    parts = []
    load_dataset(cohort, each=parts.append)
    assert len(parts) > 1
    assert evaluate(tmp_path / "parts.csv") == whole


def test_a_failed_pass_writes_no_eval_csv(pipeline, monkeypatch, capsys):
    tmp_path, cohort, bundle = pipeline
    monkeypatch.setattr(data, "PART_STEPS", 1)
    out = tmp_path / "eval.csv"
    # the parts before the broken line are weighed, then the pass fails
    broken = edited_cohort(cohort, tmp_path / "broken.jsonl", {200: lambda obj: "{not json"})
    expect_error(capsys, ["evaluate", broken, "--model", bundle, "--out", str(out)],
                 "broken.jsonl line 200:")
    assert not out.exists()
    empty = tmp_path / "empty.jsonl"
    empty.write_text(Path(cohort).read_text().splitlines(keepends=True)[0])
    expect_error(capsys, ["evaluate", str(empty), "--model", bundle, "--out", str(out)],
                 "error: no trajectories to estimate from")
    assert not out.exists()


@pytest.fixture()
def cohorts(tmp_path):
    """A fitted bundle and two cohorts, one four times the other's size."""
    sim = {n: write_json(tmp_path / f"sim{n}.json",
                         {"kind": "chronic", "config": {"n_patients": n}})
           for n in (256, 1024)}
    fit = write_json(tmp_path / "fit.json", {"model": "dtbls", "n_candidates": 3})
    bundle = str(tmp_path / "bundle.json")
    assert main(["simulate", "--config", sim[256], "--seed", "1",
                 "--out", str(tmp_path / "fitting.jsonl")]) == 0
    assert main(["fit", str(tmp_path / "fitting.jsonl"), "--config", fit,
                 "--out", bundle]) == 0
    for n in sim:
        assert main(["simulate", "--config", sim[n], "--seed", "2",
                     "--out", str(tmp_path / f"cohort{n}.jsonl")]) == 0
    return tmp_path, bundle


def test_an_evaluate_pass_holds_one_part_not_the_cohort(cohorts, monkeypatch):
    tmp_path, bundle = cohorts
    cfg = write_json(tmp_path / "eval.json", {"policies": EVAL_POLICIES})
    # the small cohort is about 1,150 steps, so both span several parts
    monkeypatch.setattr(data, "PART_STEPS", 300)

    def peak(n):
        tracemalloc.start()
        try:
            assert main(["evaluate", str(tmp_path / f"cohort{n}.jsonl"), "--model", bundle,
                         "--config", cfg, "--out", str(tmp_path / "eval.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(256)  # imports and first-use caches
    # only the per-trajectory weights grow with the cohort
    assert peak(1024) < 1.5 * peak(256)


# ---------------------------------------------------------------------------
# simulate in blocks
# ---------------------------------------------------------------------------

SIMULATORS = {"chronic": (ChronicSimConfig, generate_chronic),
              "episodic": (EpisodicSimConfig, generate_episodic)}


@pytest.mark.parametrize("kind", SIMULATORS)
@pytest.mark.parametrize("size", ["1 step", "7 steps", "unbounded"])
def test_simulate_writes_the_same_bytes_at_every_block_size(tmp_path, monkeypatch, kind, size):
    config, generate = SIMULATORS[kind]
    sim = write_json(tmp_path / "sim.json", {"kind": kind, "config": {"n_patients": 40}})
    whole = generate(config(n_patients=40, seed=9))
    monkeypatch.setattr(data, "PART_STEPS", {"1 step": 1, "7 steps": 7,
                                             "unbounded": sys.maxsize}[size])
    for name in ("cohort.jsonl", "cohort.csv"):
        save_dataset(whole, tmp_path / f"whole_{name}")
        assert main(["simulate", "--config", sim, "--seed", "9",
                     "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / name).read_bytes() == (tmp_path / f"whole_{name}").read_bytes()


def test_simulate_hands_each_block_to_one_save_dataset_call(tmp_path, monkeypatch):
    # perfbench traces generation and writing through these two names
    events = []

    def logged(name, record):
        original = getattr(cli, name)

        def call(*args, **kwargs):
            events.append((name, "enter", record(args)))
            result = original(*args, **kwargs)
            events.append((name, "exit", None))
            return result
        monkeypatch.setattr(cli, name, call)

    logged("simulate", lambda args: args[0].n_patients)
    logged("save_dataset", lambda args: (args[0].ids[0], len(args[0])))
    monkeypatch.setattr(data, "PART_STEPS", 60)  # 10 patients at horizon 6
    sim = write_json(tmp_path / "sim.json", {"kind": "chronic", "config": {"n_patients": 45}})
    assert main(["simulate", "--config", sim, "--out", str(tmp_path / "c.jsonl")]) == 0
    # one generation call, inside which each block is written by its own call
    assert events == [("simulate", "enter", 45),
                      *[event for first in range(0, 45, 10) for event in (
                          ("save_dataset", "enter", (f"p{first:06d}", min(10, 45 - first))),
                          ("save_dataset", "exit", None))],
                      ("simulate", "exit", None)]


def test_a_simulate_run_holds_one_block_not_the_cohort(tmp_path, monkeypatch):
    sim = {n: write_json(tmp_path / f"sim{n}.json",
                         {"kind": "chronic", "config": {"n_patients": n}})
           for n in (1000, 4000)}
    # 50 patients a block, so both cohorts span several blocks
    monkeypatch.setattr(data, "PART_STEPS", 300)

    def peak(n):
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", sim[n], "--seed", "2",
                         "--out", str(tmp_path / "cohort.jsonl")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # imports and first-use caches
    assert peak(4000) < 1.5 * peak(1000)


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def expect_error(capsys, argv, fragment):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert fragment in err


def test_k_zero_descriptor_cites_the_valid_range(pipeline, capsys):
    tmp_path, cohort, bundle = pipeline
    bad = write_json(tmp_path / "bad.json", {"policies": [{"type": "mc", "k": 0}]})
    expect_error(capsys, ["evaluate", cohort, "--model", bundle, "--config", bad,
                          "--out", str(tmp_path / "x.csv")], "[1, 4]")


def test_missing_out_and_model_flags_fail_in_one_line(pipeline, capsys):
    tmp_path, cohort, _ = pipeline
    expect_error(capsys, ["simulate"], "--out")
    expect_error(capsys, ["evaluate", cohort, "--out", str(tmp_path / "x.csv")],
                 "--model")
    expect_error(capsys, ["experiment"], "--config")


def test_bad_config_files_fail_in_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    expect_error(capsys, ["simulate", "--config", str(bad),
                          "--out", str(tmp_path / "x.jsonl")], "not valid JSON")
    expect_error(capsys, ["simulate", "--config", str(tmp_path / "absent.json"),
                          "--out", str(tmp_path / "x.jsonl")], "cannot read")


def test_unknown_estimator_fails_in_one_line(pipeline, capsys):
    tmp_path, cohort, bundle = pipeline
    bad = write_json(tmp_path / "bad.json", {"estimator": "dr"})
    expect_error(capsys, ["evaluate", cohort, "--model", bundle, "--config", bad,
                          "--out", str(tmp_path / "x.csv")], "unknown estimator")


def test_report_rejects_foreign_csvs(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text("a,b\n1,2\n")
    expect_error(capsys, ["report", str(rows), "--out", str(tmp_path / "s.csv")],
                 "columns")


def test_switch_policy_on_a_dt_bundle_is_refused_before_loading_data(pipeline, capsys):
    tmp_path, cohort, _ = pipeline
    fit = write_json(tmp_path / "fit_dt.json", {"model": "dt", "n_candidates": 2})
    bundle = str(tmp_path / "dt.json")
    assert main(["fit", cohort, "--config", fit, "--out", bundle]) == 0
    cfg = write_json(tmp_path / "eval.json", {"policies": [
        {"type": "behavior"}, {"type": "mc_switch_adj", "k": 2, "p1": 0.1}]})
    # the dataset does not exist: the policy check must come first
    expect_error(capsys, ["evaluate", str(tmp_path / "absent.jsonl"), "--model", bundle,
                          "--config", cfg, "--out", str(tmp_path / "x.csv")],
                 "needs a switch-composed model")
    # so does a policy that fails to build
    bad = write_json(tmp_path / "bad.json", {"policies": [{"type": "mc", "k": 9}]})
    expect_error(capsys, ["evaluate", str(tmp_path / "absent.jsonl"), "--model", bundle,
                          "--config", bad, "--out", str(tmp_path / "x.csv")], "[1, 4]")


def test_a_bug_in_a_subcommand_raises_instead_of_printing(pipeline, monkeypatch):
    tmp_path, cohort, bundle = pipeline
    from clinpol import cli

    def broken(*args, **kwargs):
        raise KeyError("a programming error")

    monkeypatch.setattr(cli, "build_policy", broken)
    with pytest.raises(KeyError, match="a programming error"):
        main(["evaluate", cohort, "--model", bundle, "--out", str(tmp_path / "x.csv")])


def test_input_errors_stay_one_line_diagnostics(tmp_path, capsys):
    listed = write_json(tmp_path / "list.json", [1, 2])
    expect_error(capsys, ["fit", "absent.jsonl", "--config", listed,
                          "--out", str(tmp_path / "b.json")], "must hold a JSON object")
    rows = tmp_path / "rows.csv"
    rows.write_text("policy,k,p1,estimator,value,ess\nmc,1,,wis,high,3.0\n")
    expect_error(capsys, ["report", str(rows), "--out", str(tmp_path / "s.csv")],
                 "row 1: value and ess must be finite numbers")
    # an unreadable output path is an input error, not a crash
    cohort = str(tmp_path / "missing_dir" / "cohort.jsonl")
    expect_error(capsys, ["simulate", "--out", cohort], "missing_dir")


def test_malformed_config_values_are_domain_errors(pipeline, capsys):
    tmp_path, cohort, bundle = pipeline
    out = str(tmp_path / "x")
    sim = write_json(tmp_path / "sim.json", {"kind": "chronic", "config": {"typo": 1}})
    expect_error(capsys, ["simulate", "--config", sim, "--out", out],
                 "malformed simulator config")
    fit = write_json(tmp_path / "fit.json", {"n_candidates": "many"})
    expect_error(capsys, ["fit", cohort, "--config", fit, "--out", out],
                 "malformed fit config")
    # a misspelt nested key is refused, not left at its default
    for key, typo, message in (("split", "train_fracton", "malformed split"),
                               ("state_config", "switch_cnt", "malformed state config"),
                               ("grid", "max_depth", "malformed grid")):
        fit = write_json(tmp_path / "fit.json", {key: {typo: 1}})
        expect_error(capsys, ["fit", cohort, "--config", fit, "--out", out],
                     f"{message}: unknown keys ['{typo}']")
    ev = write_json(tmp_path / "ev.json", {"policies": [{"type": "mc", "k": 1,
                                                         "epsilon": "some"}]})
    expect_error(capsys, ["evaluate", cohort, "--model", bundle, "--config", ev,
                          "--out", out], "epsilon must be a number")
    exp = write_json(tmp_path / "exp.json", {"simulator": {"kind": "chronic"},
                                             "n_repeats": "two"})
    expect_error(capsys, ["experiment", "--config", exp], "malformed experiment config")
    broken = write_json(tmp_path / "broken.json", {"bundle_version": 1})
    expect_error(capsys, ["export", "--model", broken, "--out", out],
                 "malformed bundle")


def test_fit_and_evaluate_refuse_unknown_top_level_keys(pipeline, capsys):
    tmp_path, cohort, bundle = pipeline
    out = str(tmp_path / "x")
    fit = write_json(tmp_path / "fit.json", {"n_candidate": 2, "modle": "dt"})
    expect_error(capsys, ["fit", cohort, "--config", fit, "--out", out],
                 f"malformed fit config {fit}: unknown keys ['modle', 'n_candidate']; "
                 "valid keys are ['grid', 'model', 'n_candidates', 'split', 'state_config']")
    ev = write_json(tmp_path / "ev.json", {"polices": [{"type": "mc", "k": 1}]})
    expect_error(capsys, ["evaluate", cohort, "--model", bundle, "--config", ev,
                          "--out", out],
                 f"malformed evaluate config {ev}: unknown keys ['polices']; "
                 "valid keys are ['estimator', 'policies']")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("policies", [{"type": "mc", "k": 1}, "behavior", None, 3])
def test_evaluate_refuses_policies_that_are_not_a_list(pipeline, capsys, policies):
    tmp_path, cohort, bundle = pipeline
    ev = write_json(tmp_path / "ev.json", {"policies": policies})
    expect_error(capsys, ["evaluate", cohort, "--model", bundle, "--config", ev,
                          "--out", str(tmp_path / "x.csv")],
                 f"malformed evaluate config {ev}: 'policies' must be a list, "
                 f"got {policies!r}")


def test_evaluate_refuses_an_empty_policy_list(pipeline, capsys):
    tmp_path, cohort, bundle = pipeline
    ev = write_json(tmp_path / "ev.json", {"policies": []})
    out = tmp_path / "x.csv"
    expect_error(capsys, ["evaluate", cohort, "--model", bundle, "--config", ev,
                          "--out", str(out)],
                 f"malformed evaluate config {ev}: at least one policy descriptor is required")
    assert not out.exists()


@pytest.mark.parametrize("estimator", [["wis"], {"wis": 1}, None])
def test_evaluate_refuses_an_estimator_that_is_no_name(pipeline, capsys, estimator):
    tmp_path, cohort, bundle = pipeline
    ev = write_json(tmp_path / "ev.json", {"estimator": estimator})
    expect_error(capsys, ["evaluate", cohort, "--model", bundle, "--config", ev,
                          "--out", str(tmp_path / "x.csv")], "unknown estimator")


@pytest.mark.parametrize("n_candidates", [2.7, True, "3", 2.0, None])
def test_fit_refuses_n_candidates_that_is_not_an_integer(pipeline, capsys, n_candidates):
    tmp_path, cohort, _ = pipeline
    fit = write_json(tmp_path / "fit.json", {"n_candidates": n_candidates})
    expect_error(capsys, ["fit", cohort, "--config", fit, "--out", str(tmp_path / "b.json")],
                 f"malformed fit config {fit}: 'n_candidates' must be an integer, "
                 f"got {n_candidates!r}")


# ---------------------------------------------------------------------------
# policy descriptors: one verdict from every reader
# ---------------------------------------------------------------------------

DESCRIPTOR_BASES = ({"type": "behavior"}, {"type": "mc_o", "k": 1},
                    {"type": "mc_switch_adj", "k": 2, "p1": 0.1, "epsilon": 0.05},
                    {"type": "random", "seed": 3, "epsilon": 0.05})
DESCRIPTOR_MUTANTS = (None, "x", "0.5", [], True, 2.5, -1, 10 ** 30, math.nan, math.inf)


def test_every_descriptor_mutant_gets_one_verdict_from_every_reader(pipeline, capsys):
    tmp_path, cohort, bundle = pipeline
    model = load_bundle(bundle)[0]
    K = model.n_actions

    def verdict(read):
        try:
            read()
        except ClinpolError as exc:
            return str(exc)
        return None

    def evaluate(desc):
        cfg = write_json(tmp_path / "eval.json", {"policies": [desc]})
        code = main(["evaluate", cohort, "--model", bundle, "--config", cfg,
                     "--out", str(tmp_path / "eval.csv")])
        err = capsys.readouterr().err
        assert (code == 0) == (err == ""), err
        return err.removeprefix("error: ").removesuffix("\n") or None

    mutants = [{**base, key: new} for base in DESCRIPTOR_BASES
               for key in ("type", "k", "p1", "epsilon", "seed", "name")
               for new in DESCRIPTOR_MUTANTS]
    accepted = 0
    for desc in mutants:
        built = verdict(lambda: build_policy(desc, model))
        configured = verdict(lambda: ExperimentConfig.from_json(
            {"dataset": cohort, "model": model.kind, "policies": [desc]}))
        simulated = verdict(lambda: ExperimentConfig.from_json(
            {"simulator": {"kind": "chronic"}, "model": model.kind, "policies": [desc]}))
        assert evaluate(desc) == built, desc
        # a simulator fixes K up front (the default chronic one at the bundle's K)
        assert (simulated is None) == (built is None), (desc, simulated, built)
        # a dataset config is read before any model gives K, so only the
        # bounds k <= K and epsilon <= 1/K wait for the model
        k, eps = desc.get("k"), desc.get("epsilon")
        past_k = type(k) is int and k > K
        past_eps = type(eps) in (int, float) and math.isfinite(eps) and eps > 1 / K
        if past_k or past_eps:
            assert configured is None and built is not None, desc
        else:
            assert (configured is None) == (built is None), (desc, configured, built)
        accepted += built is None
    assert 0 < accepted < len(mutants)
