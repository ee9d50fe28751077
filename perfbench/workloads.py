"""The benchmark's workloads: inputs from a seed, one operation, output checks.

Every workload reaches clinpol through its public entry points only:
``clinpol simulate`` and ``clinpol fit`` (via ``cli.main``) build the inputs,
and the timed operation is one ``harness.run_experiment`` call or one
``clinpol evaluate`` pass. Attributes are looked up on the modules at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass

from clinpol import cli, harness

import tracing

# Acceptance test 10's protocol: six policies, dtbls, 30 candidates, WIS,
# master seed 123. The cohort, not the protocol seed, comes from --seed, so
# every seed runs the same hyperparameter draws on a different cohort.
POLICIES = (
    {"type": "behavior"},
    {"type": "mc", "k": 1},
    {"type": "mc", "k": 2},
    {"type": "mc", "k": 3},
    {"type": "mc_o", "k": 2},
    {"type": "mc_switch_adj", "k": 2, "p1": 0.1},
)
MODEL = "dtbls"
ESTIMATOR = "wis"
MASTER_SEED = 123
# One repeat per operation: the operations of a run are identical, so their
# outputs must match byte for byte and their times give a median.
N_REPEATS = 1
DEFAULT_SEED = 0
# The host's speed drifts by tens of percent over seconds, so set-ups and
# operations alternate over the whole window rather than one after the
# other: a set-up precedes an operation whenever set-ups have taken at most
# SETUP_SHARE of the operations' time. A chronic set-up (0.1 s) then precedes
# every operation; the evaluate set-up (about 4 s) every third or so.
SETUP_SHARE = 0.5
MIN_SETUPS = 3
MIN_OPS = 3


class CheckError(Exception):
    """An output check failed; the benchmark result is not correct."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "experiment" or "evaluate"
    simulator: str                 # "chronic" or "episodic"
    n_patients: int
    heldout_patients: int = 0      # evaluate: size of the evaluated cohort
    n_candidates: int = 30
    required_setup: tuple = ("sim.generate", "data.save")
    required_op: tuple = ()        # span names that must record calls


_EXPERIMENT_SPANS = ("data.load", "data.split", "data.impute", "data.build_states",
                     "harness.select", "harness.candidate", "behavior.fit",
                     "behavior.calibrate", "behavior.predict", "tree.fit",
                     "tree.predict", "calibration.fit", "metrics.auroc",
                     "metrics.sce", "policies.build", "policies.probs",
                     "ope.weights", "harness.report_write")

WORKLOADS = {
    w.name: w for w in (
        Workload("chronic_experiment", "experiment", "chronic", 2000,
                 required_op=_EXPERIMENT_SPANS + ("ope.estimate",)),
        # held-out repeats fail on support today; estimates may never run
        Workload("episodic_experiment", "experiment", "episodic", 2000,
                 required_op=_EXPERIMENT_SPANS),
        Workload("chronic_evaluate", "evaluate", "chronic", 2000,
                 heldout_patients=20000,
                 required_setup=("sim.generate", "data.save", "harness.select",
                                 "tree.fit", "harness.save_bundle"),
                 required_op=("cli.main", "harness.load_bundle", "data.load",
                              "data.impute", "data.build_states",
                              "behavior.predict", "tree.predict",
                              "calibration.apply", "policies.build",
                              "policies.probs", "ope.weights", "ope.estimate")),
    )
}


# ---------------------------------------------------------------------------
# inputs and the operation
# ---------------------------------------------------------------------------

def _write_json(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    return str(path)


def run_cli(argv) -> None:
    """``clinpol <argv>`` in process; a nonzero exit is an error."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"clinpol {argv[0]} exited with {code}")


def setup(w: Workload, work: str, seed: int) -> list:
    """Write the workload's inputs under ``work``; returns the files made."""
    cohort = os.path.join(work, "cohort.jsonl")
    sim = _write_json(os.path.join(work, "sim.json"),
                      {"kind": w.simulator, "config": {"n_patients": w.n_patients}})
    run_cli(["simulate", "--config", sim, "--seed", seed, "--out", cohort])
    if w.kind == "experiment":
        return [cohort]
    bundle = os.path.join(work, "bundle.json")
    heldout = os.path.join(work, "heldout.jsonl")
    fit = _write_json(os.path.join(work, "fit.json"),
                      {"model": MODEL, "n_candidates": w.n_candidates})
    run_cli(["fit", cohort, "--config", fit, "--seed", seed, "--out", bundle])
    sim = _write_json(os.path.join(work, "heldout_sim.json"),
                      {"kind": w.simulator,
                       "config": {"n_patients": w.heldout_patients}})
    run_cli(["simulate", "--config", sim, "--seed", seed + 1, "--out", heldout])
    _write_json(os.path.join(work, "eval.json"),
                {"policies": list(POLICIES), "estimator": ESTIMATOR})
    return [cohort, bundle, heldout]


def operation(w: Workload, work: str, seed: int) -> list:
    """One timed operation; returns the output files it wrote."""
    if w.kind == "experiment":
        paths = harness.run_experiment(harness.ExperimentConfig(
            dataset=os.path.join(work, "cohort.jsonl"),
            n_repeats=N_REPEATS,
            model=MODEL,
            n_candidates=w.n_candidates,
            policies=POLICIES,
            estimator=ESTIMATOR,
            out_dir=os.path.join(work, "report"),
            seed=MASTER_SEED,
        ))
        return sorted(paths.values())
    out = os.path.join(work, "eval.csv")
    run_cli(["evaluate", os.path.join(work, "heldout.jsonl"),
             "--model", os.path.join(work, "bundle.json"),
             "--config", os.path.join(work, "eval.json"),
             "--seed", seed, "--out", out])
    return [out]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def digests(paths) -> dict:
    """SHA-256 of each file, keyed by file name."""
    out = {}
    for path in paths:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[os.path.basename(path)] = h.hexdigest()
    return out


def _read_rows(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_finite(rows, columns, where) -> None:
    for row in rows:
        for col in columns:
            if not math.isfinite(float(row[col])):
                raise CheckError(f"{where}: {col}={row[col]!r} is not finite")


def _check_behavior_ess(rows, where) -> None:
    for row in rows:
        if row["policy"] == "behavior" and float(row["ess"]) != float(row["n"]):
            raise CheckError(f"{where}: behavior ess {row['ess']} != n {row['n']}")


def domain_errors() -> frozenset:
    """Names of clinpol's ValueError subclasses: the only allowed failures."""
    import clinpol

    names = set()
    for module in vars(clinpol).values():
        if getattr(module, "__name__", "").startswith("clinpol."):
            for obj in vars(module).values():
                if (isinstance(obj, type) and issubclass(obj, ValueError)
                        and obj.__module__.startswith("clinpol.")):
                    names.add(obj.__name__)
    return frozenset(names)


def check_outputs(w: Workload, paths) -> dict:
    """Invariants that hold at every seed; returns the repeat failure count.

    A failure row naming anything but a clinpol domain error (an
    ``AssertionError``, ``TypeError``, ``KeyError``, a bare numpy
    ``ValueError``, ...) is a programming bug, not a failed repeat.
    """
    by_name = {os.path.basename(p): p for p in paths}
    if w.kind == "evaluate":
        rows = _read_rows(by_name["eval.csv"])
        if len(rows) != len(POLICIES):
            raise CheckError(f"eval.csv has {len(rows)} rows, expected {len(POLICIES)}")
        _check_finite(rows, ("value", "ess", "n"), "eval.csv")
        _check_behavior_ess(rows, "eval.csv")
        return {"repeats": 0, "failed_repeats": 0}
    failures = _read_rows(by_name["failures.csv"])
    allowed = domain_errors()
    for row in failures:
        kind = row["reason"].split(":", 1)[0]
        if kind not in allowed:
            raise CheckError(f"repeat {row['seed']} failed with {kind}, "
                             f"a programming error: {row['reason']}")
    rows = _read_rows(by_name["rows.csv"])
    expected = (N_REPEATS - len(failures)) * len(POLICIES)
    if len(rows) != expected:
        raise CheckError(f"rows.csv has {len(rows)} rows, expected {expected} "
                         f"({N_REPEATS} repeats, {len(failures)} failed)")
    _check_finite(rows, ("value", "ess", "n", "auroc", "sce"), "rows.csv")
    _check_behavior_ess(rows, "rows.csv")
    summary = _read_rows(by_name["summary.csv"])
    _check_finite(summary, ("value_median", "value_q1", "value_q3",
                            "ess_median", "ess_q1", "ess_q3"), "summary.csv")
    return {"repeats": N_REPEATS, "failed_repeats": len(failures)}


def check_pinned(w: Workload, found: dict, pinned: dict) -> None:
    """At the default seed, every input and output must match its pin."""
    if w.name not in pinned:
        raise CheckError(f"no pinned digests for {w.name}")
    _same(found, pinned[w.name], f"{w.name} digests and the pinned ones")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Timed operations attempted and failed (raised) in this run."""

    attempted: int = 0
    failed: int = 0

    def run(self, w: Workload, work: str, seed: int) -> list:
        self.attempted += 1
        try:
            return operation(w, work, seed)
        except BaseException:
            self.failed += 1
            raise


def _timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _same(found: dict, reference: dict, what: str) -> None:
    if found != reference:
        changed = sorted(k for k in set(found) | set(reference)
                         if found.get(k) != reference.get(k))
        raise CheckError(f"{what} differ: {', '.join(changed)}")


def timed_run(w: Workload, work: str, seed: int, seconds: float,
              tally: Tally) -> dict:
    """Untraced: set-ups and operations alternate for ``seconds``.

    A first set-up and operation warm up and give the reference bytes; every
    timed set-up and operation must reproduce them.
    """
    inputs = digests(setup(w, work, seed))
    paths = tally.run(w, work, seed)
    outputs = digests(paths)
    counts = check_outputs(w, paths)
    setup_times, op_times = [], []
    start = time.perf_counter()
    while (len(op_times) < MIN_OPS or len(setup_times) < MIN_SETUPS
           or time.perf_counter() - start + statistics.median(op_times) <= seconds):
        if (sum(setup_times) <= SETUP_SHARE * sum(op_times)
                or len(op_times) >= MIN_OPS and len(setup_times) < MIN_SETUPS):
            files, elapsed = _timed(setup, w, work, seed)
            setup_times.append(elapsed)
            _same(digests(files), inputs, "inputs of repeated set-ups")
        paths, elapsed = _timed(tally.run, w, work, seed)
        op_times.append(elapsed)
        _same(digests(paths), outputs, "outputs of repeated operations")
    return {"setup_times": setup_times, "op_times": op_times,
            "digests": {**inputs, **outputs}, **counts}


def traced_run(w: Workload, work: str, seed: int, tally: Tally) -> dict:
    """Per-layer metrics from one traced set-up and one traced operation.

    The traced set-up and operation must write exactly what the untraced
    ones write, and every layer the workload needs must record calls. After
    a warm-up operation, the tracing overhead compares the traced operation
    with the mean of an untraced one before and one after it.
    """
    inputs = digests(setup(w, work, seed))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("setup") as setup_root:
            files = setup(w, work, seed)
    finally:
        tracer.uninstall()
    _same(digests(files), inputs, "traced and untraced set-up inputs")

    paths = tally.run(w, work, seed)
    outputs = digests(paths)
    counts = check_outputs(w, paths)
    paths, before = _timed(tally.run, w, work, seed)
    _same(digests(paths), outputs, "outputs of repeated operations")
    gc.collect()
    tracer.install()
    try:
        with tracer.root("op") as op_root:
            paths = tally.run(w, work, seed)
    finally:
        tracer.uninstall()
    _same(digests(paths), outputs, "traced and untraced outputs")
    paths, after = _timed(tally.run, w, work, seed)
    _same(digests(paths), outputs, "outputs of repeated operations")

    setup_summary = tracer.summarize(setup_root)
    op_summary = tracer.summarize(op_root)
    for phase, summary, required in (("set-up", setup_summary, w.required_setup),
                                     ("operation", op_summary, w.required_op)):
        silent = [n for n in required if summary["by_name"].get(n, {}).get("calls", 0) == 0]
        if silent:
            raise CheckError(f"{w.name} {phase}: no calls traced for "
                             + ", ".join(silent))
        attributed = sum(tracing.layer_self_times(summary).values())
        if abs(attributed + summary["unattributed_s"] - summary["wall_s"]) > 1e-6:
            raise CheckError(f"{w.name} {phase}: layer self times do not add "
                             "up to the wall time")
    metrics = tracing.layer_metrics(setup_summary, op_summary)
    metrics["trace.overhead_share"] = op_summary["wall_s"] / ((before + after) / 2) - 1.0
    metrics["harness.repeats_failed"] = counts["failed_repeats"]
    return {"metrics": metrics, "digests": {**inputs, **outputs}, **counts}
