"""Tree-based behavior policy models for sequential treatment data.

Three model families estimate p(a_t | s_t), the probability that the observed
prescriber picks each treatment:

* ``dt``:  one K-class tree over all step records.
* ``dts``: a composition that mirrors how follow-up decisions are made. A
  binary *switch tree* predicts whether the current treatment changes at all,
  and a K-class *treatment tree*, fitted only on steps where a change
  happened, predicts what it changes to. The composed probability is

      p(a | s) = (1 - p_switch(s)) * 1[a = prev] + p_switch(s) * q(a | s)

  where q is the treatment tree's distribution with the previous action
  zeroed out and the rest renormalized. First-stage queries, where there is
  no previous treatment to stay on, fall through to the raw treatment-tree
  distribution.
* ``dtbls``: ``dts`` plus a dedicated K-class *baseline tree* fitted on
  first-stage records, replacing the treatment-tree fallback at t=1.

Each component tree can carry its own sigmoid recalibration, fitted on
held-out validation records and applied before composition. Leaf outcome
averages attached at fit time power outcome-guided target policies: staying
reads the switch tree's stay-leaf average, switching reads the treatment
tree's per-action average.

An :class:`Evaluation` evaluates a model once on one cohort; every target
policy and every importance-weight denominator reads that one record.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from functools import cached_property

import numpy as np

from .calibration import (
    CalibrationModel,
    apply_calibration_batch,
    fit_calibration,
    identity_calibration,
)
from .data import NONE_ACTION, StepData
from .errors import ClinpolError
from .tree import (
    DecisionTree,
    SplitSearch,
    TreeHyperparams,
    attach_outcomes,
    fit_tree,
    tree_from_json,
    tree_to_json,
    truncate_tree,
)

log = logging.getLogger(__name__)

MODEL_KINDS = ("dt", "dts", "dtbls")

STAY, SWITCH = 0, 1


class BehaviorError(ClinpolError):
    pass


class DegenerateSwitchError(BehaviorError):
    """Raised when fitting data contains no treatment changes at all."""


def _as_batch(states):
    states = np.asarray(states, dtype=np.float64)
    if states.ndim == 1:
        states = states[None, :]
    return states


def _take(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``a[mask]``, or ``a`` itself when the mask selects every row.

    Model queries are row-wise and read-only, so a full selection needs no
    copy; the t>1 states of a large cohort are megabytes.
    """
    return a if mask.all() else a[mask]


def _maybe_calibrate(cal: CalibrationModel, raw: np.ndarray) -> np.ndarray:
    # a fully-identity calibration must not perturb leaf frequencies, so the
    # sigmoid-and-renormalize path only runs when some class was fitted
    if np.all(cal.identity):
        return raw
    return apply_calibration_batch(cal, raw)


def _check_prev_stage(prev_actions, stages, n_actions):
    prev = np.asarray(prev_actions, dtype=np.int64)
    t = np.asarray(stages, dtype=np.int64)
    if prev.shape != t.shape:
        raise BehaviorError("prev_actions and stages disagree on shape")
    first = t == 1
    if np.any(first != (prev == NONE_ACTION)):
        raise BehaviorError("prev_action must be none exactly at t=1")
    if np.any(t < 1):
        raise BehaviorError("stages are 1-based")
    if np.any((~first) & ((prev < 0) | (prev >= n_actions))):
        raise BehaviorError(f"prev_action outside [0, {n_actions})")
    return prev, t


class _Base:
    """Shared scalar wrappers; subclasses implement the batch queries."""

    kind: str
    n_actions: int

    def action_probabilities(self, state, prev_action, t: int) -> np.ndarray:
        prev = NONE_ACTION if prev_action is None else int(prev_action)
        return self.action_probabilities_batch(_as_batch(state), [prev], [t])[0]

    def outcome(self, state, action: int, prev_action, t: int):
        """Average fitting-set outcome for taking ``action`` here, or None."""
        prev = NONE_ACTION if prev_action is None else int(prev_action)
        v = self.outcome_batch(_as_batch(state), [prev], [t])[0, int(action)]
        return None if np.isnan(v) else float(v)


class TreeBehaviorModel(_Base):
    """One K-class tree over every step record (model kind "dt")."""

    kind = "dt"

    def __init__(self, tree: DecisionTree, calibration: CalibrationModel | None = None):
        self.tree = tree
        self.n_actions = tree.n_classes
        self.calibration = calibration or identity_calibration(tree.n_classes)

    def calibrate(self, val: StepData) -> "TreeBehaviorModel":
        if len(val) >= 2:
            scores = self.tree.predict_proba_batch(val.states)
            self.calibration = fit_calibration(scores, val.actions)
        else:
            log.warning("dt calibration skipped: %d validation records", len(val))
        return self

    def action_probabilities_batch(self, states, prev_actions, stages,
                                   parts=None) -> np.ndarray:
        states = _as_batch(states)
        _check_prev_stage(prev_actions, stages, self.n_actions)
        raw = self.tree.predict_proba_batch(states)
        return _maybe_calibrate(self.calibration, raw)

    def outcome_batch(self, states, prev_actions, stages) -> np.ndarray:
        return self.tree.outcome_avg_batch(_as_batch(states))


class SwitchTreatmentModel(_Base):
    """Binary switch tree composed with a switch-only treatment tree ("dts")."""

    kind = "dts"

    def __init__(self, switch_tree: DecisionTree, treatment_tree: DecisionTree,
                 switch_calibration: CalibrationModel | None = None,
                 treatment_calibration: CalibrationModel | None = None):
        if switch_tree.n_classes != 2:
            raise BehaviorError("switch tree must be binary (stay/switch)")
        self.switch_tree = switch_tree
        self.treatment_tree = treatment_tree
        self.n_actions = treatment_tree.n_classes
        self.switch_calibration = switch_calibration or identity_calibration(2)
        self.treatment_calibration = (treatment_calibration
                                      or identity_calibration(self.n_actions))
        self.uniform_fallbacks = 0

    def calibrate(self, val: StepData) -> "SwitchTreatmentModel":
        follow = val.subset(val.stages > 1)
        if len(follow) >= 2:
            scores = self.switch_tree.predict_proba_batch(follow.states)
            self.switch_calibration = fit_calibration(scores, follow.switch_labels())
        else:
            log.warning("switch calibration skipped: %d follow-up records", len(follow))
        if len(follow):
            switched = follow.subset(follow.switch_labels() == 1)
            if len(switched) >= 2:
                scores = self.treatment_tree.predict_proba_batch(switched.states)
                self.treatment_calibration = fit_calibration(scores, switched.actions)
            else:
                log.warning("treatment calibration skipped: %d switch events", len(switched))
        return self

    # -- composition pieces ------------------------------------------------

    def switch_probability_batch(self, states) -> np.ndarray:
        """Calibrated probability that the treatment changes at this step."""
        raw = self.switch_tree.predict_proba_batch(_as_batch(states))
        return _maybe_calibrate(self.switch_calibration, raw)[:, SWITCH]

    def _treatment_probs(self, states) -> np.ndarray:
        raw = self.treatment_tree.predict_proba_batch(states)
        return _maybe_calibrate(self.treatment_calibration, raw)

    def conditional_switch_batch(self, states, prev_actions) -> np.ndarray:
        """Distribution over the *new* treatment given that a switch happens.

        The previous action's mass is removed and the rest renormalized; if
        nothing remains (a hard one-hot on the previous action) the mass
        spreads uniformly over the other K-1 actions.
        """
        states = _as_batch(states)
        prev = np.asarray(prev_actions, dtype=np.int64)
        if np.any((prev < 0) | (prev >= self.n_actions)):
            raise BehaviorError("conditional switch distribution needs a previous action")
        p = self._treatment_probs(states).copy()
        rows = np.arange(len(p))
        p[rows, prev] = 0.0
        denom = p.sum(axis=1)
        bad = denom <= 0.0
        if np.any(bad):
            self.uniform_fallbacks += int(bad.sum())
            log.debug("conditional switch distribution degenerate on %d states; "
                      "falling back to uniform over other actions", int(bad.sum()))
            p[bad] = 1.0 / (self.n_actions - 1)
            p[rows[bad], prev[bad]] = 0.0
            denom[bad] = p[bad].sum(axis=1)
        return p / denom[:, None]

    def action_probabilities_batch(self, states, prev_actions, stages,
                                   parts=None) -> np.ndarray:
        """The composed distribution; ``parts``, a dict if given, receives
        the composition's pieces on the t>1 rows: ``switch`` and
        ``conditional``."""
        states = _as_batch(states)
        prev, t = _check_prev_stage(prev_actions, stages, self.n_actions)
        out = np.empty((len(states), self.n_actions), dtype=np.float64)
        first = t == 1
        if np.any(first):
            # no previous treatment: any choice is a fresh start, so the raw
            # treatment distribution applies without exclusion
            out[first] = self._treatment_probs(_take(states, first))
        rest = ~first
        if np.any(rest):
            follow, follow_prev = _take(states, rest), _take(prev, rest)
            ps = self.switch_probability_batch(follow)
            q = self.conditional_switch_batch(follow, follow_prev)
            composed = ps[:, None] * q
            composed[np.arange(len(ps)), follow_prev] = 1.0 - ps
            out[rest] = composed
            if parts is not None:
                parts.update(switch=ps, conditional=q)
        return out

    def outcome_batch(self, states, prev_actions, stages) -> np.ndarray:
        states = _as_batch(states)
        prev, t = _check_prev_stage(prev_actions, stages, self.n_actions)
        out = self.treatment_tree.outcome_avg_batch(states).copy()
        rest = t > 1
        if np.any(rest):
            stay_avg = self.switch_tree.outcome_avg_batch(_take(states, rest))[:, STAY]
            out[np.nonzero(rest)[0], _take(prev, rest)] = stay_avg
        return out


class BaselineSwitchModel(_Base):
    """``dts`` with a dedicated first-stage tree (model kind "dtbls")."""

    kind = "dtbls"

    def __init__(self, baseline_tree: DecisionTree, inner: SwitchTreatmentModel,
                 baseline_calibration: CalibrationModel | None = None):
        if baseline_tree.n_classes != inner.n_actions:
            raise BehaviorError("baseline tree and treatment tree disagree on K")
        self.baseline_tree = baseline_tree
        self.inner = inner
        self.n_actions = inner.n_actions
        self.baseline_calibration = (baseline_calibration
                                     or identity_calibration(self.n_actions))

    @property
    def switch_tree(self):
        return self.inner.switch_tree

    @property
    def treatment_tree(self):
        return self.inner.treatment_tree

    def calibrate(self, val: StepData) -> "BaselineSwitchModel":
        first = val.subset(val.stages == 1)
        if len(first) >= 2:
            scores = self.baseline_tree.predict_proba_batch(first.states)
            self.baseline_calibration = fit_calibration(scores, first.actions)
        else:
            log.warning("baseline calibration skipped: %d first-stage records", len(first))
        self.inner.calibrate(val)
        return self

    def switch_probability_batch(self, states) -> np.ndarray:
        return self.inner.switch_probability_batch(states)

    def conditional_switch_batch(self, states, prev_actions) -> np.ndarray:
        return self.inner.conditional_switch_batch(states, prev_actions)

    def action_probabilities_batch(self, states, prev_actions, stages,
                                   parts=None) -> np.ndarray:
        states = _as_batch(states)
        prev, t = _check_prev_stage(prev_actions, stages, self.n_actions)
        out = np.empty((len(states), self.n_actions), dtype=np.float64)
        first = t == 1
        if np.any(first):
            raw = self.baseline_tree.predict_proba_batch(_take(states, first))
            out[first] = _maybe_calibrate(self.baseline_calibration, raw)
        rest = ~first
        if np.any(rest):
            out[rest] = self.inner.action_probabilities_batch(
                _take(states, rest), _take(prev, rest), _take(t, rest), parts)
        return out

    def outcome_batch(self, states, prev_actions, stages) -> np.ndarray:
        states = _as_batch(states)
        prev, t = _check_prev_stage(prev_actions, stages, self.n_actions)
        out = np.empty((len(states), self.n_actions), dtype=np.float64)
        first = t == 1
        if np.any(first):
            out[first] = self.baseline_tree.outcome_avg_batch(_take(states, first))
        rest = ~first
        if np.any(rest):
            out[rest] = self.inner.outcome_batch(
                _take(states, rest), _take(prev, rest), _take(t, rest))
        return out


def _descending_order(probs: np.ndarray) -> np.ndarray:
    """Each row's actions by descending probability; ties keep id order."""
    return np.argsort(-probs, axis=1, kind="stable")


def _read_only(a):
    if a is not None:
        a.flags.writeable = False
    return a


class Evaluation:
    """One evaluation of a behavior model on one :class:`StepData`.

    Every target policy is a transform of the behavior model, and the
    importance-weight denominator is the model itself, so one evaluation
    serves them all. It holds:

    * ``probs``: the calibrated action probabilities, one row per step;
    * ``switch`` and ``conditional``: for ``dts`` and ``dtbls``, the switch
      probability and the conditional switch distribution on the t>1 rows,
      in row order, from the very composition that made ``probs`` (None for
      ``dt`` or when every row is a first stage);
    * ``outcomes``: leaf outcome averages, evaluated on first use;
    * ``order``: :func:`_descending_order` of ``probs``, sorted on first use.

    Every query goes through the model's public batch methods. Tree and
    calibration queries are row-wise, so ``probs[rows]`` equals evaluating
    the model on those rows alone, bit for bit. The arrays are read-only:
    policies hand them out as they are.
    """

    def __init__(self, model, data: StepData):
        self.model = model
        self.data = data
        parts = {}
        self.probs = _read_only(model.action_probabilities_batch(
            data.states, data.prev_actions, data.stages, parts))
        self.switch = _read_only(parts.get("switch"))
        self.conditional = _read_only(parts.get("conditional"))

    @cached_property
    def outcomes(self) -> np.ndarray:
        d = self.data
        return _read_only(self.model.outcome_batch(d.states, d.prev_actions, d.stages))

    @cached_property
    def order(self) -> np.ndarray:
        return _read_only(_descending_order(self.probs))

    def check(self, model, states) -> None:
        """Refuse a query by another model or on other rows."""
        if model is not self.model:
            raise RuntimeError("evaluation record used with a different model")
        if states is not self.data.states:
            raise RuntimeError("evaluation record used with a different StepData")


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

class TreeMemo:
    """Deep component trees grown on one fitting set, for many candidates.

    Model selection fits the same component trees under many (max_depth,
    min_leaf_fraction) candidates. Growth reads ``max_depth`` only as its stop
    rule, so each component is grown once per fraction, to the deepest depth
    drawn for it, and every candidate's tree is that tree truncated. Keys are
    (component, min_leaf_fraction); a fit that raised raises the same error
    for every later candidate with that fraction. A component's first request
    grows its tree for every drawn fraction, so those fits can share one
    :class:`SplitSearch` that lives no longer than they do. One memo serves
    one fitting set: ``data`` is the :class:`StepData` passed to the fit calls.

    The memo also keeps every cut it hands out, outcomes attached, keyed by
    (component, hyperparameters), so a candidate drawn twice gets the same
    tree object. Sharing is safe: tree queries are pure, and calibration
    lives on the model, not on its trees. Likewise it keeps each component's
    fitting rows, taken once from ``data`` (see :meth:`fitting_set`).
    """

    def __init__(self, data: StepData, candidates):
        self.data = data
        # per fraction: its first candidate, at the deepest depth drawn with it
        self._deep: dict[float, TreeHyperparams] = {}
        for hp in candidates:
            first = self._deep.setdefault(hp.min_leaf_fraction, hp)
            if hp.max_depth > first.max_depth:
                self._deep[hp.min_leaf_fraction] = replace(first, max_depth=hp.max_depth)
        self._grown: dict[tuple, DecisionTree | ClinpolError] = {}
        self.cuts: dict[tuple, DecisionTree] = {}
        self._sets: dict[str, tuple | ClinpolError] = {}

    @property
    def fractions(self) -> tuple:
        return tuple(self._deep)

    def check(self, data: StepData) -> None:
        if data is not self.data:
            raise RuntimeError("tree memo used with a different fitting set")

    def fitting_set(self, name: str, build):
        """The memoized ``build()``; a domain error it raised is raised again
        on every later request, as a fresh build would."""
        if name not in self._sets:
            try:
                self._sets[name] = build()
            except ClinpolError as e:
                self._sets[name] = e
        found = self._sets[name]
        if isinstance(found, ClinpolError):
            raise found
        return found

    def deep_tree(self, component: str, hp: TreeHyperparams, grow) -> DecisionTree:
        """The memoized deep tree ``grow(deep_hp)`` for ``hp``'s fraction."""
        deep_hp = self._deep.get(hp.min_leaf_fraction)
        if deep_hp is None or hp.max_depth > deep_hp.max_depth:
            raise RuntimeError(f"tree memo grows no tree as deep as {hp}")
        key = (component, hp.min_leaf_fraction)
        if key not in self._grown:
            for f, deep_hp in self._deep.items():
                try:
                    tree = grow(deep_hp)
                except ClinpolError as e:
                    tree = e
                self._grown[(component, f)] = tree
        found = self._grown[key]
        if isinstance(found, ClinpolError):
            raise found
        return found


def _component_tree(component: str, X, y, rewards, hp: TreeHyperparams,
                    n_classes: int, feature_names, memo: TreeMemo | None) -> DecisionTree:
    """Grow (or look up) a component tree, cut it at ``hp`` and attach outcomes.

    Without a memo this is one fit at ``hp`` itself, so the cut keeps every
    node. Outcomes are tallied afresh on the fitting rows rather than summed
    from cut children, which would reorder the float sums.
    """
    if memo is None:
        deep = fit_tree(X, y, hp, n_classes=n_classes, feature_names=feature_names)
        return attach_outcomes(truncate_tree(deep, hp.max_depth), X, y, rewards)
    key = (component, hp)
    if key in memo.cuts:
        return memo.cuts[key]
    search = None

    def grow(deep_hp):
        nonlocal search
        if search is None:
            search = SplitSearch(X, y, n_classes, memo.fractions)
        return fit_tree(search.X, search.y, deep_hp, n_classes=n_classes,
                        feature_names=feature_names, search=search)

    deep = memo.deep_tree(component, hp, grow)
    cut = attach_outcomes(truncate_tree(deep, hp.max_depth), X, y, rewards)
    memo.cuts[key] = cut
    return cut


def _fitting_set(memo: TreeMemo | None, name: str, build):
    return build() if memo is None else memo.fitting_set(name, build)


def _first_stage_rows(data: StepData) -> StepData:
    first = data.subset(data.stages == 1)
    if len(first) == 0:
        raise BehaviorError("no first-stage records to fit a baseline tree")
    return first


def _switch_rows(data: StepData):
    """(follow-up rows, their switch labels, switch events) of ``data``."""
    follow = data.subset(data.stages > 1)
    if len(follow) == 0:
        raise DegenerateSwitchError(
            "degenerate switch data: no follow-up records to fit a switch tree"
        )
    labels = follow.switch_labels()
    if labels.sum() == 0:
        raise DegenerateSwitchError(
            "degenerate switch data: no treatment changes in fitting records"
        )
    switched = follow.subset(labels == 1)
    if np.any(switched.actions == switched.prev_actions):
        raise RuntimeError("a stay event reached the treatment tree's fitting set")
    return follow, labels, switched


def fit_dt(data: StepData, hp: TreeHyperparams, val: StepData | None = None,
           memo: TreeMemo | None = None) -> TreeBehaviorModel:
    """One K-class tree on all (state, action) pairs, outcomes attached."""
    if len(data) == 0:
        raise BehaviorError("no records to fit")
    if memo is not None:
        memo.check(data)
    tree = _component_tree("tree", data.states, data.actions, data.rewards, hp,
                           data.n_actions, data.feature_names, memo)
    model = TreeBehaviorModel(tree)
    if val is not None:
        model.calibrate(val)
    return model


def fit_dts(data: StepData, hp_switch: TreeHyperparams, hp_treatment: TreeHyperparams,
            val: StepData | None = None,
            memo: TreeMemo | None = None) -> SwitchTreatmentModel:
    """Switch tree on follow-up records, treatment tree on switch events only."""
    if memo is not None:
        memo.check(data)
    follow, labels, switched = _fitting_set(memo, "switch", lambda: _switch_rows(data))
    switch_tree = _component_tree("switch", follow.states, labels, follow.rewards,
                                  hp_switch, 2, follow.feature_names, memo)
    treat_tree = _component_tree("treatment", switched.states, switched.actions,
                                 switched.rewards, hp_treatment, data.n_actions,
                                 switched.feature_names, memo)
    model = SwitchTreatmentModel(switch_tree, treat_tree)
    if val is not None:
        model.calibrate(val)
    return model


def fit_dtbls(data: StepData, hp_baseline: TreeHyperparams, hp_switch: TreeHyperparams,
              hp_treatment: TreeHyperparams, val: StepData | None = None,
              memo: TreeMemo | None = None) -> BaselineSwitchModel:
    """``dts`` plus a first-stage tree fitted on t=1 records."""
    if memo is not None:
        memo.check(data)
    first = _fitting_set(memo, "baseline", lambda: _first_stage_rows(data))
    baseline = _component_tree("baseline", first.states, first.actions, first.rewards,
                               hp_baseline, data.n_actions, first.feature_names, memo)
    inner = fit_dts(data, hp_switch, hp_treatment, memo=memo)
    model = BaselineSwitchModel(baseline, inner)
    if val is not None:
        model.calibrate(val)
    return model


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

MODEL_FORMAT_VERSION = 1


def model_to_json(model) -> dict:
    """A versioned JSON envelope holding every tree and calibration."""
    obj = {"version": MODEL_FORMAT_VERSION, "kind": model.kind,
           "n_actions": model.n_actions}
    if model.kind == "dt":
        obj["trees"] = {"tree": tree_to_json(model.tree)}
        obj["calibration"] = {"tree": model.calibration.to_json()}
    elif model.kind == "dts":
        obj["trees"] = {"switch": tree_to_json(model.switch_tree),
                        "treatment": tree_to_json(model.treatment_tree)}
        obj["calibration"] = {"switch": model.switch_calibration.to_json(),
                              "treatment": model.treatment_calibration.to_json()}
    elif model.kind == "dtbls":
        obj["trees"] = {"baseline": tree_to_json(model.baseline_tree),
                        "switch": tree_to_json(model.switch_tree),
                        "treatment": tree_to_json(model.treatment_tree)}
        obj["calibration"] = {"baseline": model.baseline_calibration.to_json(),
                              "switch": model.inner.switch_calibration.to_json(),
                              "treatment": model.inner.treatment_calibration.to_json()}
    else:
        raise BehaviorError(f"unknown model kind {model.kind!r}")
    return obj


def model_from_json(obj):
    version = obj.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise BehaviorError(
            f"unsupported model format version {version!r} "
            f"(this library reads version {MODEL_FORMAT_VERSION})"
        )
    kind = obj.get("kind")
    trees = obj.get("trees", {})
    cals = obj.get("calibration", {})

    def cal(name, k):
        return (CalibrationModel.from_json(cals[name]) if name in cals
                else identity_calibration(k))

    if kind == "dt":
        tree = tree_from_json(trees["tree"])
        return TreeBehaviorModel(tree, cal("tree", tree.n_classes))
    if kind == "dts":
        sw = tree_from_json(trees["switch"])
        tr = tree_from_json(trees["treatment"])
        return SwitchTreatmentModel(sw, tr, cal("switch", 2), cal("treatment", tr.n_classes))
    if kind == "dtbls":
        base = tree_from_json(trees["baseline"])
        sw = tree_from_json(trees["switch"])
        tr = tree_from_json(trees["treatment"])
        inner = SwitchTreatmentModel(sw, tr, cal("switch", 2),
                                     cal("treatment", tr.n_classes))
        return BaselineSwitchModel(base, inner, cal("baseline", base.n_classes))
    raise BehaviorError(f"unknown model kind {kind!r}")
