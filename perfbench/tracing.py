"""Span tracing for the benchmark, installed from outside the package.

Wrappers replace the module attributes and methods through which one clinpol
layer calls another (``harness.select_model``, ``behavior.fit_tree``,
``DecisionTree.predict_proba_batch``, ...). Each call records a span: name,
start, end, parent and a few counts. Spans stay in memory until the run ends.
A span's self time is its duration minus the time of its direct children;
calls are single-threaded, so children never overlap.

The benchmark opens one root span per traced set-up and per traced
operation. Everything under a root that no layer span covers is reported as
the unattributed remainder, so the layers' self times plus that remainder
add up to the root's wall time.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager

LAYERS = ("sim", "data", "tree", "calibration", "metrics", "behavior",
          "policies", "ope", "harness", "cli")

# Span records are lists: [name, start, end, parent index, counts or None].
NAME, START, END, PARENT, INFO = range(5)


class TraceError(RuntimeError):
    pass


def _rows(position):
    return lambda args, kwargs, result, exc: {"rows": len(args[position])}


def _steps(args, kwargs, result, exc):
    return None if exc is not None else {"steps": len(result)}


def _weights(args, kwargs, result, exc):
    if exc is not None:
        violated = type(exc).__name__ == "SupportViolationError"
        return {"support_violations": int(violated)}
    return {"trajectories": len(result)}


def _candidate(args, kwargs, result, exc):
    hp = args[2]
    return {"cell": (hp.max_depth, hp.min_leaf_fraction),
            "failed": int(isinstance(exc, ValueError))}


def _auroc(args, kwargs, result, exc):
    return {"nan": int(exc is None and math.isnan(result))}


_FIT = ("fit_dt", "fit_dts", "fit_dtbls")
_PREDICT = ("action_probabilities_batch", "outcome_batch")
_SWITCH = ("switch_probability_batch", "conditional_switch_batch")
_MODELS = ("TreeBehaviorModel", "SwitchTreatmentModel", "BaselineSwitchModel")
_POLICIES = ("BehaviorPolicy", "TopKPolicy", "BestOutcomePolicy",
             "SwitchAdjustedPolicy", "RandomPolicy", "SoftenedPolicy")

# (owner, attribute, span name, counter). The owner is "module" or
# "module:Class"; "module:NAME[]" names a dict whose entry is replaced.
TARGETS = (
    [("clinpol.cli", "main", "cli.main", None),
     ("clinpol.cli", "simulate", "sim.generate", None),
     ("clinpol.cli", "save_dataset", "data.save", None),
     ("clinpol.cli", "save_bundle", "harness.save_bundle", None),
     ("clinpol.cli", "load_bundle", "harness.load_bundle", None),
     ("clinpol.cli", "select_model", "harness.select", None),
     ("clinpol.cli", "fit_imputation", "data.impute", None),
     ("clinpol.cli", "apply_imputation", "data.impute", None),
     ("clinpol.cli", "build_policy", "policies.build", None),
     ("clinpol.cli", "importance_weights", "ope.weights", _weights),
     ("clinpol.harness", "run_experiment", "harness.run_experiment", None),
     ("clinpol.harness", "select_model", "harness.select", None),
     ("clinpol.harness", "fit_model", "harness.candidate", _candidate),
     ("clinpol.harness", "_write_csv", "harness.report_write", None),
     ("clinpol.harness", "impute_and_encode", "data.impute", None),
     ("clinpol.harness", "auroc_macro", "metrics.auroc", _auroc),
     ("clinpol.harness", "sce", "metrics.sce", None),
     ("clinpol.harness", "build_policy", "policies.build", None),
     ("clinpol.harness", "importance_weights", "ope.weights", _weights),
     ("clinpol.harness", "median_iqr", "ope.summary", None),
     ("clinpol.ope:ESTIMATORS[]", "wis", "ope.estimate", None),
     ("clinpol.ope:ESTIMATORS[]", "is", "ope.estimate", None),
     ("clinpol.behavior", "fit_tree", "tree.fit", _rows(0)),
     ("clinpol.behavior", "attach_outcomes", "tree.attach_outcomes", None),
     ("clinpol.behavior", "fit_calibration", "calibration.fit", None),
     ("clinpol.behavior", "apply_calibration_batch", "calibration.apply", None),
     ("clinpol.tree:DecisionTree", "predict_proba_batch", "tree.predict", _rows(1)),
     ("clinpol.tree:DecisionTree", "outcome_avg_batch", "tree.predict", _rows(1))]
    + [(f"clinpol.{m}", "load_dataset", "data.load", None)
       for m in ("cli", "harness")]
    + [(f"clinpol.{m}", "split_dataset", "data.split", None)
       for m in ("cli", "harness")]
    + [(f"clinpol.{m}", "build_states", "data.build_states", _steps)
       for m in ("cli", "harness")]
    + [("clinpol.harness", name, "behavior.fit", None) for name in _FIT]
    + [(f"clinpol.behavior:{cls}", "calibrate", "behavior.calibrate", None)
       for cls in _MODELS]
    + [(f"clinpol.behavior:{cls}", name, "behavior.predict", _rows(1))
       for cls in _MODELS for name in _PREDICT]
    + [(f"clinpol.behavior:{cls}", name, "behavior.predict", _rows(1))
       for cls in _MODELS[1:] for name in _SWITCH]
    + [(f"clinpol.policies:{cls}", "probabilities_batch", "policies.probs", None)
       for cls in _POLICIES]
)


def _resolve(owner: str):
    module_name, _, inner = owner.partition(":")
    obj = importlib.import_module(module_name)
    if inner:
        name = inner.removesuffix("[]")
        if not hasattr(obj, name):
            raise TraceError(f"trace target {owner} is missing")
        obj = getattr(obj, name)
    return obj


class Tracer:
    """Records spans while installed; ``uninstall`` restores every target."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _exit(self, record) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name):
        """A benchmark-level span; yields its index for ``summarize``."""
        index = len(self.spans)
        record = self._enter(name)
        try:
            yield index
        finally:
            self._exit(record)
            record[INFO] = {"end": len(self.spans)}

    def wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            record = self._enter(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self._exit(record)
                if counter is not None:
                    record[INFO] = counter(args, kwargs, result, exc)

        return functools.wraps(fn)(traced)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a missing one is an error, not a blind spot."""
        missing = []
        resolved = []
        for owner, attr, name, counter in TARGETS:
            try:
                obj = _resolve(owner)
            except TraceError:
                missing.append(f"{owner}.{attr}")
                continue
            if owner.endswith("[]"):
                present = attr in obj
            elif isinstance(obj, type):
                present = attr in vars(obj)
            else:
                present = hasattr(obj, attr)
            if not present:
                missing.append(f"{owner}.{attr}")
                continue
            resolved.append((obj, owner.endswith("[]"), attr, name, counter))
        if missing:
            raise TraceError("trace targets missing: " + ", ".join(missing))
        for obj, is_dict, attr, name, counter in resolved:
            if is_dict:
                original = obj[attr]
                obj[attr] = self.wrap(original, name, counter)
            else:
                original = vars(obj)[attr] if isinstance(obj, type) else getattr(obj, attr)
                setattr(obj, attr, self.wrap(original, name, counter))
            self._saved.append((obj, is_dict, attr, original))

    def uninstall(self) -> None:
        for obj, is_dict, attr, original in reversed(self._saved):
            if is_dict:
                obj[attr] = original
            else:
                setattr(obj, attr, original)
        self._saved.clear()

    # -- aggregation -------------------------------------------------------

    def summarize(self, root: int) -> dict:
        """Self time, calls, entries and counters per span name under ``root``.

        An entry is a call not made from a span of the same name: a
        ``behavior.predict`` nested in another ``behavior.predict`` (the
        baseline model delegating to its switch model) adds self time but is
        not a second entry, and its counters are not added again.
        """
        spans = self.spans
        end = spans[root][INFO]["end"]
        child_time = [0.0] * (end - root)
        for i in range(root + 1, end):
            s = spans[i]
            child_time[s[PARENT] - root] += s[END] - s[START]
        by_name: dict[str, dict] = {}
        for i in range(root + 1, end):
            s = spans[i]
            entry = by_name.setdefault(s[NAME], {"self_s": 0.0, "calls": 0,
                                                 "entries": 0, "info": []})
            self_s = (s[END] - s[START]) - child_time[i - root]
            if self_s < -1e-9:
                raise TraceError(f"span {s[NAME]} outlasts its parent")
            entry["self_s"] += self_s
            entry["calls"] += 1
            parent_name = spans[s[PARENT]][NAME]
            if parent_name == s[NAME]:
                continue
            entry["entries"] += 1
            if s[INFO] is not None:
                entry["info"].append((parent_name, s[INFO]))
        wall = spans[root][END] - spans[root][START]
        return {"wall_s": wall,
                "unattributed_s": wall - child_time[0],
                "spans": end - root - 1,
                "by_name": by_name}


def layer_of(span_name: str) -> str:
    return span_name.split(".")[0]


def layer_self_times(summary: dict) -> dict:
    """Self time per layer; with the remainder they sum to the wall time."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, entry in summary["by_name"].items():
        out[layer_of(name)] += entry["self_s"]
    return out


def layer_metrics(setup: dict, op: dict) -> dict:
    """Per-layer metrics of one traced set-up and one traced operation.

    ``sim.generate_s`` and ``data.save_s`` come from the set-up, where the
    cohorts are generated and written; every other metric comes from the
    operation.
    """
    b = op["by_name"]

    def self_s(*names, of=b):
        return sum(of[n]["self_s"] for n in names if n in of)

    def calls(name, key="calls"):
        return b[name][key] if name in b else 0

    def count(name, field):
        return sum(info.get(field, 0) for _, info in b.get(name, {"info": []})["info"])

    candidates = b.get("harness.candidate", {"info": []})["info"]
    cells: dict[str, set] = {}
    for parent, info in candidates:
        cells.setdefault(parent, set()).add(info["cell"])
    nan_scores = sum(info["nan"] for parent, info in
                     b.get("metrics.auroc", {"info": []})["info"]
                     if parent == "harness.select")
    out = {
        "sim.generate_s": self_s("sim.generate", of=setup["by_name"]),
        "data.save_s": self_s("data.save", of=setup["by_name"]),
        "data.load_s": self_s("data.load"),
        "data.impute_s": self_s("data.impute"),
        "data.build_states_s": self_s("data.build_states"),
        "data.steps": count("data.build_states", "steps"),
        "data.split_s": self_s("data.split"),
        "tree.fit_s": self_s("tree.fit", "tree.attach_outcomes"),
        "tree.fits": calls("tree.fit"),
        "tree.fit_rows": count("tree.fit", "rows"),
        "tree.predict_s": self_s("tree.predict"),
        "tree.predict_rows": count("tree.predict", "rows"),
        "calibration.fit_s": self_s("calibration.fit"),
        "calibration.apply_s": self_s("calibration.apply"),
        "metrics.auroc_s": self_s("metrics.auroc"),
        "metrics.auroc_calls": calls("metrics.auroc"),
        "metrics.sce_s": self_s("metrics.sce"),
        "behavior.fit_s": self_s("behavior.fit", "behavior.calibrate"),
        "behavior.predict_s": self_s("behavior.predict"),
        "behavior.predict_calls": calls("behavior.predict", "entries"),
        "behavior.predict_rows": count("behavior.predict", "rows"),
        "policies.probs_s": self_s("policies.probs"),
        "policies.probs_calls": calls("policies.probs", "entries"),
        "ope.weights_s": self_s("ope.weights"),
        "ope.estimate_s": self_s("ope.estimate"),
        "ope.trajectories": count("ope.weights", "trajectories"),
        "ope.support_violations": count("ope.weights", "support_violations"),
        "harness.select_s": self_s("harness.select"),
        "harness.candidates": len(candidates),
        "harness.candidates_failed": count("harness.candidate", "failed") + nan_scores,
        "harness.cells_useful_ratio": (sum(len(c) for c in cells.values())
                                       / len(candidates) if candidates else 0.0),
        "harness.report_write_s": self_s("harness.report_write"),
        "harness.load_bundle_s": self_s("harness.load_bundle"),
        "cli.evaluate_s": self_s("cli.main"),
    }
    for layer, seconds in layer_self_times(op).items():
        out[f"{layer}.self_s"] = seconds
    out["trace.op_wall_s"] = op["wall_s"]
    out["trace.unattributed_s"] = op["unattributed_s"]
    out["trace.spans"] = op["spans"]
    return out
