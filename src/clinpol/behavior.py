"""Tree-based behavior policy models for sequential treatment data.

A behavior model estimates p(a_t | s_t), the probability that the observed
prescriber picks each treatment. One class, :class:`BehaviorModel`, composes
a model kind's component trees; its ``trees`` and ``calibrations`` are keyed
by the component names that model JSON v1 uses (:data:`COMPONENTS`):

* ``dt``:  one K-class ``tree`` over all step records.
* ``dts``: a composition that mirrors how follow-up decisions are made. A
  binary ``switch`` tree predicts whether the current treatment changes at
  all, and a K-class ``treatment`` tree, fitted only on steps where a change
  happened, predicts what it changes to. The composed probability is

      p(a | s) = (1 - p_switch(s)) * 1[a = prev] + p_switch(s) * q(a | s)

  where q is the treatment tree's distribution with the previous action
  zeroed out and the rest renormalized. First-stage queries, where there is
  no previous treatment to stay on, fall through to the raw treatment-tree
  distribution.
* ``dtbls``: ``dts`` plus a dedicated K-class ``baseline`` tree fitted on
  first-stage records, replacing the treatment-tree fallback at t=1.

:func:`component_rows` is the one rule for which rows each component is
fitted and calibrated on. Each component tree can carry its own sigmoid
recalibration, fitted on held-out validation records and applied before
composition. Leaf outcome averages attached at fit time power
outcome-guided target policies: staying reads the switch tree's stay-leaf
average, switching reads the treatment tree's per-action average.

An :class:`Evaluation` evaluates a model once on one cohort; every target
policy and every importance-weight denominator reads that one record.

The ``fit_*`` functions fit one model at one :class:`TreeHyperparams`, the
same for every component tree, and leave its calibration to
:meth:`BehaviorModel.calibrate`. A :class:`TreeMemo` grows every component
tree: it takes the fitting rows once, grows each component once per drawn
min-leaf fraction, then cuts that tree at each candidate's depth and tallies
the cut's leaf outcomes. Model selection hands every candidate one memo; a
fit given none builds a memo of its one cell.
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
from .checks import INT, OBJECT, OneOf, member
from .errors import ClinpolError, keep, remember
from .tree import (
    DecisionTree,
    SplitSearch,
    TreeError,
    TreeHyperparams,
    attach_outcomes,
    fit_tree,
    leaf_map,
    tree_from_json,
    tree_to_json,
    truncate_tree,
)

log = logging.getLogger(__name__)

MODEL_KINDS = ("dt", "dts", "dtbls")
MODEL = OneOf(MODEL_KINDS, "model type", "types")

# each kind's component trees, by their model JSON v1 names, in file order
COMPONENTS = {"dt": ("tree",), "dts": ("switch", "treatment"),
              "dtbls": ("baseline", "switch", "treatment")}

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


def _leaf_ids(tree: DecisionTree, states, rows=None) -> np.ndarray:
    """Each row's leaf in ``tree``, of the rows ``rows`` only if given.

    The routing is the tree query over the table of leaf ids, so that every
    routing a model makes is one ``predict_proba_batch`` call: the tree query
    perfbench/tracing.py times and counts. The ids are int32, which halves
    what an :class:`Evaluation` keeps of them.
    """
    return tree.predict_proba_batch(states, rows, np.arange(tree.n_leaves, dtype=np.int32))


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


def _n_classes(component: str, n_actions: int) -> int:
    return 2 if component == "switch" else n_actions


def component_rows(data: StepData, names) -> dict:
    """``{name: (rows, labels)}``: the positions in ``data`` of the rows that
    each named component is fitted and calibrated on (None for every row),
    and the class of each row. No state row is copied.

    * ``tree``: every step and its action;
    * ``baseline``: the t=1 steps and their actions;
    * ``switch``: the t>1 steps and their switch labels;
    * ``treatment``: the switch events and their actions.

    The switch events are taken from the t>1 rows, so one selection of those
    serves both ``switch`` and ``treatment``.
    """
    rows = {}
    if "tree" in names:
        rows["tree"] = (None, data.actions)
    if "baseline" in names:
        first = np.flatnonzero(data.stages == 1)
        rows["baseline"] = (first, data.actions[first])
    if "switch" in names or "treatment" in names:
        follow = np.flatnonzero(data.stages > 1)
        labels = data.switch_labels(follow)
        switched = follow[labels == 1]
        rows["switch"] = (follow, labels)
        rows["treatment"] = (switched, data.actions[switched])
    return {name: rows[name] for name in names}


def _at(values: np.ndarray, rows) -> np.ndarray:
    """``values`` at the row positions ``rows``, or all of it for None."""
    return values if rows is None else values[rows]


# the queries each kind class binds in its own namespace (see
# BehaviorModel.__init_subclass__)
_QUERIES = ("calibrate", "action_probabilities_batch", "outcome_batch",
            "switch_probability_batch", "conditional_switch_batch")


class BehaviorModel:
    """A model kind's component trees, each with its own calibration.

    ``trees`` and ``calibrations`` are dicts keyed by the kind's component
    names (:data:`COMPONENTS`); a component given no calibration gets the
    identity. The kind comes from the subclass: :class:`TreeBehaviorModel`,
    :class:`SwitchTreatmentModel` or :class:`BaselineSwitchModel`.

    Queries at t=1 read the ``baseline`` tree, else the ``treatment`` tree;
    queries at t>1 read the switch composition. ``dt`` has no switch tree and
    reads its one ``tree`` on every row.
    """

    kind: str

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # perfbench/tracing.py wraps these methods on each kind class and
        # finds a method only in the class's own namespace, not in a base;
        # so every kind class binds the one implementation here
        for name in _QUERIES:
            if name not in vars(cls):
                setattr(cls, name, vars(BehaviorModel)[name])

    def __init__(self, trees: dict, calibrations: dict | None = None):
        names = COMPONENTS[self.kind]
        if set(trees) != set(names):
            raise BehaviorError(f"a {self.kind} model has the trees {names}, "
                                f"got {tuple(trees)}")
        self.n_actions = trees[names[-1]].n_classes
        for name in names:
            want = _n_classes(name, self.n_actions)
            if trees[name].n_classes != want:
                raise BehaviorError(f"the {name} tree has {trees[name].n_classes} "
                                    f"classes, not {want}")
        calibrations = calibrations or {}
        for name, cal in calibrations.items():
            want = _n_classes(name, self.n_actions)
            if cal is not None and cal.n_classes != want:
                raise BehaviorError(f"the {name} calibration has {cal.n_classes} "
                                    f"classes, not {want}")
        self.trees = {name: trees[name] for name in names}
        self.calibrations = {
            name: (calibrations.get(name)
                   or identity_calibration(_n_classes(name, self.n_actions)))
            for name in names}

    def calibrate(self, val: StepData) -> "BehaviorModel":
        """Fit each component's calibration, in place, on its own rows of
        ``val`` (:func:`component_rows`), routed where they lie in
        ``val.states``; one with under two rows is kept."""
        for name, (rows, labels) in component_rows(val, self.trees).items():
            if len(labels) < 2:
                log.warning("%s calibration skipped: %d validation records",
                            name, len(labels))
                continue
            scores = self.trees[name].predict_proba_batch(val.states, rows)
            self.calibrations[name] = fit_calibration(scores, labels)
        return self

    # -- composition pieces ------------------------------------------------

    def _table(self, name: str) -> np.ndarray:
        """Component ``name``'s calibrated leaf table, one row per leaf.

        Calibration maps each row on its own, so mapping the leaf table once
        and gathering by leaf gives every query row the bits a per-row map
        would. A fully-identity calibration must not perturb leaf
        frequencies, so the sigmoid-and-renormalize map only runs when some
        class was fitted.
        """
        raw, cal = self.trees[name].leaf_probs, self.calibrations[name]
        return raw if np.all(cal.identity) else apply_calibration_batch(cal, raw)

    def _outcome_table(self, name: str) -> np.ndarray:
        """Component ``name``'s L × C table of leaf outcome averages."""
        table = self.trees[name].outcome_avg
        if table is None:
            raise TreeError(f"the {name} tree has no attached outcomes")
        return table

    @property
    def _first_stage(self) -> str:
        """The component t=1 rows read when a switch tree serves the rest."""
        return "baseline" if "baseline" in self.trees else "treatment"

    def _route(self, states, first, rest, route=None) -> dict:
        """``{(component, part): leaf ids}`` for each component's rows of
        ``states`` that a composed query reads: ``tree`` of every row (part
        ``"all"``), the first-stage component of the t=1 rows ``first``, and
        ``switch`` and ``treatment`` of the t>1 rows ``rest``; an empty part
        is not read. ``route(component, part, row positions)`` gives the ids;
        by default each component routes its own rows of ``states``, in place.
        """
        if route is None:
            def route(name, part, at):
                return _leaf_ids(self.trees[name], states, at)
        if "switch" not in self.trees:
            return {("tree", "all"): route("tree", "all", None)}
        reads = ((self._first_stage, "first", first), ("switch", "rest", rest),
                 ("treatment", "rest", rest))
        return {(name, part): route(name, part, at) for name, part, at in reads if len(at)}

    def switch_probability_batch(self, states) -> np.ndarray:
        """Calibrated probability that the treatment changes at this step."""
        return self.trees["switch"].predict_proba_batch(
            _as_batch(states), None, self._table("switch")[:, SWITCH])

    def conditional_switch_batch(self, states, prev_actions) -> np.ndarray:
        """Distribution over the *new* treatment given that a switch happens.

        The previous action's mass is removed and the rest renormalized; if
        nothing remains (a hard one-hot on the previous action) the mass
        spreads uniformly over the other K-1 actions.
        """
        prev = np.asarray(prev_actions, dtype=np.int64)
        if np.any((prev < 0) | (prev >= self.n_actions)):
            raise BehaviorError("conditional switch distribution needs a previous action")
        p = self.trees["treatment"].predict_proba_batch(
            _as_batch(states), None, self._table("treatment"))
        return self._conditional_switch(p, prev)[0]

    def _conditional_switch(self, p, prev):
        """:meth:`conditional_switch_batch` from the treatment probabilities
        ``p`` (a fresh array, changed in place) of rows whose previous
        actions ``prev`` are, and how many rows fell back to uniform."""
        at = np.arange(len(p))
        p[at, prev] = 0.0
        denom = p.sum(axis=1)
        bad = denom <= 0.0
        n_bad = int(bad.sum())
        if n_bad:
            log.debug("conditional switch distribution degenerate on %d states; "
                      "falling back to uniform over other actions", n_bad)
            p[bad] = 1.0 / (self.n_actions - 1)
            p[at[bad], prev[bad]] = 0.0
            denom[bad] = p[bad].sum(axis=1)
        p /= denom[:, None]
        return p, n_bad

    # -- queries -----------------------------------------------------------

    def _check_rows(self, states, prev_actions, stages):
        """Validated states, previous actions and stages, and the positions
        of the t=1 and the t>1 rows."""
        states = _as_batch(states)
        prev, t = _check_prev_stage(prev_actions, stages, self.n_actions)
        if len(prev) != len(states):
            raise BehaviorError(f"{len(states)} states but {len(prev)} previous actions")
        first = t == 1
        return states, prev, np.flatnonzero(first), np.flatnonzero(~first)

    def action_probabilities_batch(self, states, prev_actions, stages,
                                   parts=None, leaves=None) -> np.ndarray:
        """The composed distribution; ``parts``, a dict if given, receives
        the composition's pieces: ``leaves``, the leaf ids it read
        (:meth:`_route`), and on the t>1 rows ``switch``, ``conditional``
        and ``uniform_fallbacks``, the number of those rows whose
        conditional distribution fell back to uniform.

        Each component routes only its own rows of ``states``, in place;
        ``leaves`` given, from an earlier routing of the same rows, none is
        routed."""
        states, prev, first, rest = self._check_rows(states, prev_actions, stages)
        if leaves is None:
            leaves = self._route(states, first, rest)
        if parts is not None:
            parts["leaves"] = leaves
        if "switch" not in self.trees:
            return self._table("tree")[leaves["tree", "all"]]
        out = np.empty((len(states), self.n_actions), dtype=np.float64)
        if len(first):
            # no previous treatment: any choice is a fresh start, so the
            # first-stage distribution applies without exclusion
            name = self._first_stage
            out[first] = self._table(name)[leaves[name, "first"]]
        if len(rest):
            follow_prev = prev[rest]
            ps = self._table("switch")[:, SWITCH][leaves["switch", "rest"]]
            q, fallbacks = self._conditional_switch(
                self._table("treatment")[leaves["treatment", "rest"]], follow_prev)
            composed = ps[:, None] * q
            composed[np.arange(len(ps)), follow_prev] = 1.0 - ps
            out[rest] = composed
            if parts is not None:
                parts.update(switch=ps, conditional=q, uniform_fallbacks=fallbacks)
        return out

    def outcome_batch(self, states, prev_actions, stages, leaves=None) -> np.ndarray:
        """Average fitting-set outcome for taking each action here (NaN where
        the leaf never saw it): staying reads the switch tree's stay average,
        any other action the first-stage or treatment tree's. ``leaves`` as
        for :meth:`action_probabilities_batch`."""
        states, prev, first, rest = self._check_rows(states, prev_actions, stages)
        if leaves is None:
            leaves = self._route(states, first, rest)
        if "switch" not in self.trees:
            return self._outcome_table("tree")[leaves["tree", "all"]]
        out = np.empty((len(states), self.n_actions), dtype=np.float64)
        if len(first):
            name = self._first_stage
            out[first] = self._outcome_table(name)[leaves[name, "first"]]
        if len(rest):
            out[rest] = self._outcome_table("treatment")[leaves["treatment", "rest"]]
            stay_avg = self._outcome_table("switch")[:, STAY][leaves["switch", "rest"]]
            out[rest, prev[rest]] = stay_avg
        return out


class TreeBehaviorModel(BehaviorModel):
    """One K-class tree over every step record (model kind "dt")."""

    kind = "dt"


class SwitchTreatmentModel(BehaviorModel):
    """Binary switch tree composed with a switch-only treatment tree ("dts")."""

    kind = "dts"


class BaselineSwitchModel(BehaviorModel):
    """``dts`` with a dedicated first-stage tree (model kind "dtbls")."""

    kind = "dtbls"


_KIND_CLASSES = {cls.kind: cls for cls in
                 (TreeBehaviorModel, SwitchTreatmentModel, BaselineSwitchModel)}


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
    serves them all. ``data`` needs only ``states``, ``prev_actions`` and
    ``stages``: a policy asked about rows without a record builds one on
    them. It holds:

    * ``probs``: the calibrated action probabilities, one row per step;
    * ``switch`` and ``conditional``: for ``dts`` and ``dtbls``, the switch
      probability and the conditional switch distribution on the t>1 rows,
      in row order, from the very composition that made ``probs`` (None for
      ``dt`` or when every row is a first stage);
    * ``uniform_fallbacks``: how many of those rows' conditional
      distributions fell back to uniform (0 for ``dt``);
    * ``leaves``: each component's leaf ids, from the routing that made
      ``probs`` (see :meth:`BehaviorModel.action_probabilities_batch`);
    * ``outcomes``: leaf outcome averages, gathered by ``leaves`` on first
      use, so no row is routed twice;
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
        self.uniform_fallbacks = parts.get("uniform_fallbacks", 0)
        self.leaves = parts["leaves"]

    @cached_property
    def outcomes(self) -> np.ndarray:
        d = self.data
        return _read_only(self.model.outcome_batch(d.states, d.prev_actions, d.stages,
                                                   self.leaves))

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
    """Every component fit on one fitting set, ``data``, for one or many
    (max_depth, min_leaf_fraction) candidates: those of one model selection,
    or the one cell of a fit given no memo. No other code grows or tallies a
    component tree.

    The memo takes the components' fitting rows from ``data`` once
    (:meth:`fitting_set`), as row positions with their labels and rewards.
    Growth reads ``max_depth`` only as its stop rule, so :meth:`cut` grows
    each component through ``fit_tree`` once per drawn fraction, to the
    deepest depth drawn with it, cuts that tree at the candidate's depth and
    tallies the cut's leaf outcomes through ``attach_outcomes``. A
    component's first request grows it at every drawn fraction, on one copy
    of its state rows and one :class:`SplitSearch` planned for those cells,
    which grows every fraction's tree in one pass inside the first
    ``fit_tree`` call and writes each fitting row's leaf id as it goes; the
    copy and the search are dropped when the request is done. A step that
    raised a domain error raises it again for every later candidate that
    needs it (:func:`~clinpol.errors.remember`).

    Each cut is kept, keyed by (component, hyperparameters), so a candidate
    drawn twice gets the same tree object: tree queries are pure, and
    calibration lives on the model. Each deep tree's leaf ids of its fitting
    rows, and of the rows of ``validation`` its component reads (routed
    where they lie), are kept; a cut reads its leaf ids from those through
    :func:`~clinpol.tree.leaf_map`, exact because a cut keeps every path.
    So the memo keeps no state row: per fitting row, a position, a label, a
    reward and one leaf id per fraction, for as long as it lives.
    """

    def __init__(self, data: StepData, candidates, validation: StepData | None = None):
        self.data = data
        # per fraction: its first candidate, at the deepest depth drawn with it
        self._deep: dict[float, TreeHyperparams] = {}
        for hp in candidates:
            first = self._deep.setdefault(hp.min_leaf_fraction, hp)
            if hp.max_depth > first.max_depth:
                self._deep[hp.min_leaf_fraction] = replace(first, max_depth=hp.max_depth)
        self._sets: dict[tuple, dict | ClinpolError] = {}
        self._rows: dict[str, tuple] = {}  # component -> (rows, labels, rewards)
        self._grown: dict[tuple, DecisionTree | ClinpolError] = {}
        self.cuts: dict[tuple, DecisionTree] = {}
        self.validation = validation
        # (component, fraction, rows) -> leaf ids in the deep tree, where rows
        # is "fit" or a part of the validation rows (BehaviorModel._route)
        self._routed: dict[tuple, np.ndarray] = {}
        # (component, hyperparameters) -> the cut's leaf_map
        self._maps: dict[tuple, np.ndarray] = {}

    def check(self, data: StepData) -> None:
        if data is not self.data:
            raise RuntimeError("tree memo used with a different fitting set")

    def fitting_set(self, names: tuple) -> None:
        """Take the fitting rows of the components ``names`` from ``data``
        (:func:`_fitting_rows`) for :meth:`cut`, once."""
        self._rows.update(remember(self._sets, names, lambda: _fitting_rows(self.data, names)))

    def _deep_tree(self, component: str, hp: TreeHyperparams) -> DecisionTree:
        """The memoized deep tree of ``component`` for ``hp``'s fraction."""
        deep_hp = self._deep.get(hp.min_leaf_fraction)
        if deep_hp is None or hp.max_depth > deep_hp.max_depth:
            raise RuntimeError(f"tree memo grows no tree as deep as {hp}")
        key = (component, hp.min_leaf_fraction)
        if key not in self._grown:
            self._grow(component)
        return remember(self._grown, key, None)  # grown above; a kept error raises

    def _grow(self, component: str) -> None:
        """Grow ``component`` at every drawn fraction, keeping each tree and
        its fitting rows' leaf ids, or the domain error. The rows are copied
        once, for one :class:`SplitSearch` that grows every fraction's tree
        in one pass inside the first ``fit_tree`` call; both die with this
        call, since a kept error holds no frame of it."""
        rows, labels, _ = self._rows[component]
        X = _at(self.data.states, rows)
        n_classes = _n_classes(component, self.data.n_actions)
        search = {}  # the one SplitSearch, or the domain error building it raised

        def grow(f, deep_hp):
            s = remember(search, component, lambda: SplitSearch(
                X, labels, n_classes, tuple(self._deep.values())))
            deep = fit_tree(s.X, s.y, deep_hp, n_classes=n_classes,
                            feature_names=self.data.feature_names, search=s)
            self._routed[component, f, "fit"] = s.leaf_ids(deep_hp)
            return deep

        for f, deep_hp in self._deep.items():
            keep(self._grown, (component, f), lambda: grow(f, deep_hp))

    def cut(self, component: str, hp: TreeHyperparams) -> DecisionTree:
        """``component``'s tree at ``hp``: its memoized deep tree cut at
        ``hp.max_depth``, with the outcomes of its fitting rows attached.
        Outcomes are tallied afresh on the fitting rows rather than summed
        from cut children, which would reorder the float sums."""
        key = (component, hp)
        if key not in self.cuts:
            deep = self._deep_tree(component, hp)
            _, labels, rewards = self._rows[component]
            to_cut = leaf_map(deep, hp.max_depth)
            ids = to_cut[self._routed[component, hp.min_leaf_fraction, "fit"]]
            self.cuts[key] = attach_outcomes(truncate_tree(deep, hp.max_depth), ids,
                                             labels, rewards)
            self._maps[key] = to_cut
        return self.cuts[key]

    def validation_leaves(self, model: BehaviorModel, hp: TreeHyperparams) -> dict:
        """The ``leaves`` that ``model.action_probabilities_batch`` reads on
        the validation rows, for a model whose every tree is this memo's cut
        at ``hp``."""
        v = self.validation

        def route(name, part, rows):
            if model.trees[name] is not self.cuts.get((name, hp)):
                raise RuntimeError(f"the {name} tree is not this memo's cut at {hp}")
            key = (name, hp.min_leaf_fraction, part)
            if key not in self._routed:
                deep = self._grown[name, hp.min_leaf_fraction]
                self._routed[key] = _leaf_ids(deep, v.states, rows)
            return self._maps[name, hp][self._routed[key]]

        first = v.stages == 1
        return model._route(v.states, np.flatnonzero(first), np.flatnonzero(~first), route)


# the domain error for a component left with no fitting rows
_NO_ROWS = {
    "tree": (BehaviorError, "no records to fit"),
    "baseline": (BehaviorError, "no first-stage records to fit a baseline tree"),
    "switch": (DegenerateSwitchError,
               "degenerate switch data: no follow-up records to fit a switch tree"),
    "treatment": (DegenerateSwitchError,
                  "degenerate switch data: no treatment changes in fitting records"),
}


def _fitting_rows(data: StepData, names: tuple) -> dict:
    """``{name: (rows, labels, rewards)}``: :func:`component_rows` for
    fitting, with each row's reward, where an empty set is a domain error."""
    rows = component_rows(data, names)
    for name, (_, labels) in rows.items():
        if len(labels) == 0:
            error, message = _NO_ROWS[name]
            raise error(message)
    if "treatment" in rows:
        switched = rows["treatment"][0]
        if np.any(data.actions[switched] == data.prev_actions[switched]):
            raise RuntimeError("a stay event reached the treatment tree's fitting set")
    return {name: (at, labels, _at(data.rewards, at)) for name, (at, labels) in rows.items()}


def _fit(cls, data: StepData, hp: TreeHyperparams, memo: TreeMemo | None) -> BehaviorModel:
    """A ``cls`` model whose every component tree is ``memo``'s cut at ``hp``
    (:meth:`TreeMemo.cut`), outcomes attached and calibration the identity.
    Without a ``memo``, a memo of ``hp`` alone grows the trees."""
    names = COMPONENTS[cls.kind]
    if memo is None:
        memo = TreeMemo(data, (hp,))
    memo.check(data)
    memo.fitting_set(names)
    return cls({name: memo.cut(name, hp) for name in names})


def fit_dt(data: StepData, hp: TreeHyperparams, *,
           memo: TreeMemo | None = None) -> TreeBehaviorModel:
    """One K-class tree on all (state, action) pairs, outcomes attached."""
    return _fit(TreeBehaviorModel, data, hp, memo)


def fit_dts(data: StepData, hp: TreeHyperparams, *,
            memo: TreeMemo | None = None) -> SwitchTreatmentModel:
    """Switch tree on follow-up records, treatment tree on switch events only."""
    return _fit(SwitchTreatmentModel, data, hp, memo)


def fit_dtbls(data: StepData, hp: TreeHyperparams, *,
              memo: TreeMemo | None = None) -> BaselineSwitchModel:
    """``dts`` plus a first-stage tree fitted on t=1 records."""
    return _fit(BaselineSwitchModel, data, hp, memo)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

MODEL_FORMAT_VERSION = 1


def model_to_json(model: BehaviorModel) -> dict:
    """A versioned JSON envelope holding every tree and calibration."""
    return {"version": MODEL_FORMAT_VERSION, "kind": model.kind,
            "n_actions": model.n_actions,
            "trees": {name: tree_to_json(tree) for name, tree in model.trees.items()},
            "calibration": {name: cal.to_json()
                            for name, cal in model.calibrations.items()}}


def model_from_json(obj) -> BehaviorModel:
    """The model in an envelope written by :func:`model_to_json`; a
    malformed envelope raises a :class:`BehaviorError` naming the key."""
    if not isinstance(obj, dict):
        raise BehaviorError(f"a model must be a JSON object, got {type(obj).__name__}")
    version = member(obj, "version", INT, BehaviorError, "model JSON")
    if version != MODEL_FORMAT_VERSION:
        raise BehaviorError(
            f"unsupported model format version {version!r} "
            f"(this library reads version {MODEL_FORMAT_VERSION})"
        )
    kind = obj.get("kind")
    if kind not in MODEL_KINDS:
        raise BehaviorError(f"unknown model kind {kind!r}")
    parsed = {}
    for key, parse in (("trees", tree_from_json),
                       ("calibration", CalibrationModel.from_json)):
        found = member(obj, key, OBJECT, BehaviorError, "model JSON")
        parsed[key] = {}
        for name in COMPONENTS[kind]:
            try:
                parsed[key][name] = parse(found.get(name))
            except ClinpolError as exc:
                raise BehaviorError(f"model {key}[{name!r}]: {exc}") from None
    model = _KIND_CLASSES[kind](parsed["trees"], parsed["calibration"])
    n_actions = member(obj, "n_actions", INT, BehaviorError, "model JSON", model.n_actions)
    if n_actions != model.n_actions:
        raise BehaviorError(f"model 'n_actions' is {n_actions!r}, "
                            f"but its trees have {model.n_actions} actions")
    return model
