"""Greedy classification trees with probabilistic leaves and outcome tallies.

The splitter is deliberately hand-rolled so its conventions are pinned down
exactly and can be checked against a brute-force oracle:

* impurity is Gini, candidate thresholds are midpoints between consecutive
  distinct sorted values, and "x <= threshold" routes left;
* the best split minimizes the sample-weighted child impurity, with ties
  broken by lowest feature index and then lowest threshold;
* growth stops at ``max_depth``, at pure nodes, or when a child would fall
  below ceil(min_leaf_fraction * n_train) samples.

Leaves store their class counts (so ``predict_proba_batch`` returns empirical
frequencies) and, after :func:`attach_outcomes`, a per-class average outcome
used by outcome-guided target policies. Trees serialize to a JSON document
that reimports to identical predictions, and to Graphviz DOT for inspection.

Growth reads ``max_depth`` only as its stop rule, so the tree grown at depth
d is the tree grown at any deeper cap, cut at depth d (the nested-subtree
property behind CART cost-complexity pruning). Internal nodes keep their
class counts, and :func:`truncate_tree` makes that cut without refitting.
Leaves are numbered depth-first, so the deep leaves under one cut leaf are a
contiguous range: :func:`leaf_map` maps deep leaf ids to cut leaf ids, and
rows routed once through the deep tree are routed through every cut of it.

Every fit grows through a :class:`SplitSearch`, which tells column kinds
apart once per fitting set. A constant column cannot split and leaves the
search. A two-valued column (a one-hot indicator, say) has one boundary,
scored from a tally of the node's rows that hold its rarer value, so it is
never sorted. Only the other columns are sorted, once per fitting set. The
boundaries of both kinds go through one Gini sweep, in (feature, position)
order, with the arithmetic of a per-node sort; fits that share a search
(one per min-leaf fraction) share the node searches their trees have in
common.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ClinpolError


class TreeError(ClinpolError):
    pass


@dataclass(frozen=True)
class TreeHyperparams:
    """Depth cap and minimum leaf occupancy (as a fraction of fitting data)."""

    max_depth: int = 5
    min_leaf_fraction: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.max_depth < 1:
            raise TreeError(f"max_depth must be >= 1, got {self.max_depth}")
        if not (0.0 < self.min_leaf_fraction < 0.5):
            raise TreeError(
                f"min_leaf_fraction must be in (0, 0.5), got {self.min_leaf_fraction}"
            )

    def to_json(self) -> dict:
        return {"max_depth": self.max_depth, "min_leaf_fraction": self.min_leaf_fraction,
                "seed": self.seed}

    @classmethod
    def from_json(cls, obj) -> "TreeHyperparams":
        return cls(max_depth=int(obj["max_depth"]),
                   min_leaf_fraction=float(obj["min_leaf_fraction"]),
                   seed=int(obj.get("seed", 0)))


class Node:
    """Internal node (feature, threshold, children) or leaf.

    Both kinds carry the class counts of the samples that reached them; an
    internal node's counts are what a cut at that node leaves on the leaf.
    """

    __slots__ = ("feature", "threshold", "left", "right", "counts", "n", "leaf_id")

    def __init__(self):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.counts = None
        self.n = 0
        self.leaf_id = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTree:
    """A fitted tree. Queries are pure; refitting builds a new object.

    Attached outcomes are two L × C tables by leaf id, ``outcome_avg`` and
    ``outcome_count`` (None until :func:`attach_outcomes`); a tree with
    outcomes shares its nodes with the tree they were attached to.
    """

    def __init__(self, root: Node, n_classes: int, n_features: int,
                 hyperparams: TreeHyperparams, n_train: int, feature_names=None):
        self.root = root
        self.n_classes = n_classes
        self.n_features = n_features
        self.hyperparams = hyperparams
        self.n_train = n_train
        self.feature_names = list(feature_names) if feature_names is not None else None
        self.outcome_avg = self.outcome_count = None
        self._index_leaves()

    # -- structure ---------------------------------------------------------

    def _index_leaves(self):
        """Number leaves 0..L-1 in left-first depth-first order and cache matrices."""
        leaves = []

        def visit(node):
            if node.is_leaf:
                node.leaf_id = len(leaves)
                leaves.append(node)
            else:
                visit(node.left)
                visit(node.right)

        visit(self.root)
        self.leaves = leaves
        self._leaf_probs = np.stack([lf.counts / lf.n for lf in leaves])
        self._leaf_probs.flags.writeable = False

    def _with_outcomes(self, avg, count) -> "DecisionTree":
        """This tree, nodes shared, with the L × C outcome tables ``avg`` and
        ``count``."""
        avg.flags.writeable = count.flags.writeable = False
        out = copy.copy(self)
        out.outcome_avg, out.outcome_count = avg, count
        return out

    @property
    def leaf_probs(self) -> np.ndarray:
        """The read-only L × C table of leaf class frequencies, by leaf id."""
        return self._leaf_probs

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def depth(self) -> int:
        def d(node):
            return 0 if node.is_leaf else 1 + max(d(node.left), d(node.right))
        return d(self.root)

    # -- queries -----------------------------------------------------------

    def _check(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise TreeError(
                f"expected a 2-D array with {self.n_features} columns, got shape {X.shape}"
            )
        return X

    def leaf_index_batch(self, X, rows=None) -> np.ndarray:
        """The leaf of each row of ``X``, or of the rows ``rows`` (integer
        positions in ``X``) only, in their order; no row of ``X`` is copied."""
        X = self._check(X)
        if rows is not None:
            rows = np.asarray(rows)
            if rows.ndim != 1 or (len(rows) and rows.dtype.kind not in "iu"):
                raise TreeError("rows must be a 1-D array of row positions")
            if len(rows) and (rows.min() < 0 or rows.max() >= len(X)):
                raise TreeError(f"row position outside [0, {len(X)})")
            rows = rows.astype(np.intp, copy=False)
        out = np.empty(len(X) if rows is None else len(rows), dtype=np.int64)
        # (node, the places in out of the rows that reach it); the pending
        # nodes hold disjoint places, so a walk holds about one index per row
        pending = [(self.root, np.arange(len(out)))]
        while pending:
            node, at = pending.pop()
            if node.is_leaf:
                out[at] = node.leaf_id
                continue
            goes_left = X[at if rows is None else rows[at], node.feature] <= node.threshold
            pending.append((node.right, at[~goes_left]))
            pending.append((node.left, at[goes_left]))
        return out

    def predict_proba_batch(self, X, rows=None, table=None) -> np.ndarray:
        """Each row's leaf class frequencies, or its row of ``table``, an
        L × C array over this tree's leaves (a calibrated copy, say)."""
        return self._gather(self._leaf_probs if table is None else table, X, rows)

    def outcome_avg_batch(self, X, rows=None) -> np.ndarray:
        """Per-class average outcome of each row's leaf; NaN where no data.
        ``rows`` as for :meth:`leaf_index_batch`."""
        if self.outcome_avg is None:
            raise TreeError("tree has no attached outcomes")
        return self._gather(self.outcome_avg, X, rows)

    def _gather(self, table, X, rows) -> np.ndarray:
        if len(table) != self.n_leaves:
            raise TreeError(f"a leaf table needs {self.n_leaves} rows, got {len(table)}")
        return table[self.leaf_index_batch(X, rows)]


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _fitting_set(X, y, n_classes):
    """Validated float64 features, int64 labels and the class count."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2:
        raise TreeError(f"X must be 2-D, got shape {X.shape}")
    if len(X) != len(y):
        raise TreeError(f"X and y disagree on length: {len(X)} vs {len(y)}")
    if len(X) == 0:
        raise TreeError("cannot fit a tree on zero samples")
    if y.min() < 0:
        raise TreeError("negative class label")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    elif y.max() >= n_classes:
        raise TreeError(f"label {int(y.max())} outside [0, {n_classes})")
    return X, y, n_classes


class SplitSearch:
    """Split search over one fitting set, shared by every tree grown on it.

    Columns come in three kinds, told apart once per fitting set:

    * a constant column has no boundary at any node and leaves the search;
    * a two-valued column has one boundary, between its two values. A node
      scores it from the class counts of its rows that hold the column's
      rarer value, one ``bincount`` for all such columns at once;
    * every other column (more than two values, or a NaN) is sorted.

    Each sorted column is stable-argsorted once; a node holds its rows as a
    (sorted columns + 1, m) index matrix whose row j lists the node's rows in
    that column's order (ties in row order, as a per-node stable sort gives)
    and whose last row lists them in row order. Children get their rows by a
    stable partition of that matrix, so no node sorts.

    Trees with different min-leaf fractions pick the same split at most of
    the nodes they share, and a node's rows are fixed by its path from the
    root. One search per path therefore serves every fraction: it scores
    every boundary in the widest window (the smallest floor's) and keeps,
    for each floor ``ceil(fraction * n_train)``, the first minimum inside
    that floor's window.
    """

    def __init__(self, X, y, n_classes, min_leaf_fractions):
        self.X, self.y, self.n_classes = _fitting_set(X, y, n_classes)
        n = len(self.X)
        self.fractions = frozenset(float(f) for f in min_leaf_fractions)
        self.floors = sorted({math.ceil(f * n) for f in self.fractions})
        low, high = self.X.min(axis=0), self.X.max(axis=0)  # NaN if any
        is_low, is_high = self.X == low, self.X == high
        two = (low < high) & np.all(is_low | is_high, axis=0)
        self._sorted = np.flatnonzero(~two & ~(low == high))
        self._root = np.empty((len(self._sorted) + 1, n), dtype=np.int32)
        for i, j in enumerate(self._sorted):
            self._root[i] = np.argsort(self.X[:, j], kind="stable")
        self._root[-1] = np.arange(n)
        # a two-valued column's boundary: its feature, whether its rarer
        # value is the lower one, and the midpoint a sort would compute
        self._two = np.flatnonzero(two)
        rare_low = 2 * is_low[:, two].sum(axis=0) <= n
        rare = np.where(rare_low, is_low[:, two], is_high[:, two])
        self._rare_low = rare_low[:, None]
        self._midpoints = [float((low[j] + high[j]) / 2.0) for j in self._two]
        # each row's (two-valued column, class) cells, one per rarer value it
        # holds, padded with the spare cell len(two) * K: a node's rare-value
        # tallies are one bincount of its rows' cells
        K = self.n_classes
        width = int(rare.sum(axis=1).max(initial=0))
        cols = np.argsort(~rare, axis=1, kind="stable")[:, :width]
        self._cells = np.where(np.take_along_axis(rare, cols, axis=1),
                               cols * K + self.y[:, None], len(self._two) * K)
        self._found: dict[tuple, tuple] = {}
        self.searches = 0

    def check(self, X, y, n_classes, min_leaf_fraction) -> None:
        """Refuse rows, labels, classes or a fraction this search was not built for."""
        X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
        same = ((X is self.X or np.array_equal(X, self.X, equal_nan=True))
                and (y is self.y or np.array_equal(y, self.y)))
        if not same:
            raise RuntimeError("split search used with a different fitting set")
        if n_classes is not None and n_classes != self.n_classes:
            raise RuntimeError(
                f"split search built for {self.n_classes} classes, not {n_classes}")
        if min_leaf_fraction not in self.fractions:
            raise RuntimeError(
                f"split search not built for min_leaf_fraction {min_leaf_fraction}")

    def grow(self, hp: TreeHyperparams) -> Node:
        """The root of the tree greedy growth under ``hp`` gives."""
        floor = math.ceil(hp.min_leaf_fraction * len(self.X))
        slot = self.floors.index(floor)

        def grow(rows, path, depth) -> Node:
            node = Node()
            node.n = rows.shape[1]
            tally = np.bincount(self.y.take(rows[-1]), minlength=self.n_classes)
            node.counts = tally.astype(np.float64)
            pure = node.counts.max() == node.n
            if depth >= hp.max_depth or pure or node.n < 2 * floor:
                return node
            if path not in self._found:
                self._found[path] = self._search(rows, tally, node.counts)
            found = self._found[path][slot]
            if found is None:
                return node
            j, threshold = found
            node.feature = j
            node.threshold = threshold
            # np.compress on the flat matrix: boolean indexing is several
            # times slower on these unpredictable masks
            goes_left = (self.X[:, j] <= threshold).take(rows).ravel()
            n_left = int(np.count_nonzero(goes_left[-node.n:]))
            flat = rows.ravel()
            left = np.compress(goes_left, flat).reshape(len(rows), n_left)
            node.left = grow(left, path + ((j, threshold, True),), depth + 1)
            del left
            right = np.compress(~goes_left, flat).reshape(len(rows), node.n - n_left)
            node.right = grow(right, path + ((j, threshold, False),), depth + 1)
            return node

        return grow(self._root, (), 0)

    def _search(self, rows, tally, counts) -> tuple:
        """Each floor's best (feature, threshold) at one node, or None.

        Ties keep the lowest feature index, then the lowest threshold: the
        boundaries are scored in (feature, sorted position) order and argmin
        hits the first of equal minima.
        """
        self.searches += 1
        m = rows.shape[1]
        lo, hi = self.floors[0] - 1, m - self.floors[0] - 1
        # boundaries of the sorted columns, then of the two-valued ones: the
        # column, the last sorted position left of it and the class counts
        # left of it
        s_col, s_pos, s_left = self._sorted_boundaries(rows[:-1], tally, lo, hi)
        t_col, t_pos, t_left = self._two_valued_boundaries(rows[-1], tally, lo, hi)
        n_sorted = len(s_col)
        if n_sorted + len(t_col) == 0:
            return (None,) * len(self.floors)
        pos = np.concatenate((s_pos, t_pos))
        left = np.concatenate((s_left, t_left), dtype=np.float64)
        # the weighted child impurity, term for term as a per-feature sweep
        n_left = pos + 1
        n_l = n_left.astype(np.float64)
        n_r = m - n_l
        right = counts[None, :] - left
        left /= n_l[:, None]
        g_l = 1.0 - np.sum(np.square(left, out=left), axis=1)
        right /= n_r[:, None]
        g_r = 1.0 - np.sum(np.square(right, out=right), axis=1)
        weighted = (n_l * g_l + n_r * g_r) / m
        # (feature, position) order, so argmin's first minimum breaks ties
        feat = np.concatenate((self._sorted[s_col], self._two[t_col]))
        order = np.argsort(feat, kind="stable")
        weighted = weighted[order]
        # a boundary lies in floor f's window iff f <= its slack. Every one
        # lies in the smallest floor's; windows shrink as floors grow, so a
        # floor keeps the last minimum while that lies in its window
        slack = np.minimum(n_left, m - n_left)[order]
        best = int(np.argmin(weighted))
        out = []
        for floor in self.floors:
            if slack[best] < floor:
                score = np.where(slack >= floor, weighted, np.inf)
                best = int(np.argmin(score))
                if score[best] == np.inf:
                    break
            e = order[best]
            if e >= n_sorted:
                out.append((int(feat[e]), self._midpoints[t_col[e - n_sorted]]))
            else:
                j, s, i = int(feat[e]), s_col[e], int(pos[e])
                a, b = self.X[rows[s, i], j], self.X[rows[s, i + 1], j]
                out.append((j, float((a + b) / 2.0)))
        return tuple(out) + (None,) * (len(self.floors) - len(out))

    def _sorted_boundaries(self, order, counts, lo, hi):
        """(sorted column, position, left class counts) of each boundary
        between distinct sorted values at positions ``lo..hi``."""
        S, m = order.shape
        flat = np.multiply(order, self.X.shape[1], dtype=np.int64)
        flat += self._sorted[:, None]
        xv = self.X.take(flat)
        feat, pos = np.nonzero(xv[:, lo:hi + 1] != xv[:, lo + 1:hi + 2])
        del xv
        if len(feat) == 0:
            return feat, pos, np.empty((0, self.n_classes), dtype=np.int64)
        pos += lo
        at = feat * m + pos
        # class counts left of every boundary: tally the labels of each run
        # between consecutive boundaries (runs of all columns laid end to
        # end) and sum the runs; the runs before column s hold s * counts.
        # Work in place: these arrays are columns x m long.
        K = self.n_classes
        run = np.zeros(S * m, dtype=np.int64)
        run[m::m] = 1
        run[at + 1] = 1
        np.cumsum(run, out=run)
        at = run[at]
        n_runs = int(run[-1]) + 1
        run *= K
        run += self.y.take(order).ravel()
        cum = np.bincount(run, minlength=n_runs * K).reshape(n_runs, K)
        del run
        np.cumsum(cum, axis=0, out=cum)
        left = cum[at]
        del cum
        left -= feat[:, None] * counts
        return feat, pos, left

    def _two_valued_boundaries(self, node_rows, counts, lo, hi):
        """(two-valued column, position, left class counts) of each such
        column that holds both its values at the node, boundary in ``lo..hi``."""
        K = self.n_classes
        cells = np.bincount(self._cells.take(node_rows, axis=0).ravel(),
                            minlength=len(self._two) * K + 1)
        rare = cells[:-1].reshape(-1, K)
        left = np.where(self._rare_low, rare, counts - rare)
        pos = left.sum(axis=1) - 1
        keep = np.flatnonzero((pos >= lo) & (pos <= hi))
        return keep, pos[keep], left[keep]


def fit_tree(X, y, hp: TreeHyperparams, n_classes: int | None = None,
             feature_names=None, search: SplitSearch | None = None) -> DecisionTree:
    """Grow a tree on integer class labels ``y`` (< ``n_classes``).

    ``search`` shares split searches among fits on the same rows; it must
    have been built on ``X`` and ``y`` for ``hp.min_leaf_fraction``.
    Without one, the fit builds its own.
    """
    if search is None:
        search = SplitSearch(X, y, n_classes, (hp.min_leaf_fraction,))
    else:
        search.check(X, y, n_classes, hp.min_leaf_fraction)
    X = search.X
    if feature_names is not None and len(feature_names) != X.shape[1]:
        raise TreeError("feature_names length does not match X columns")
    return DecisionTree(search.grow(hp), search.n_classes, X.shape[1], hp, len(X),
                        feature_names)


def truncate_tree(tree: DecisionTree, max_depth: int) -> DecisionTree:
    """The tree a fresh fit with ``max_depth`` would grow, cut from a deeper one.

    Nodes at depth ``max_depth`` become leaves holding their own class counts;
    attached outcomes are dropped, since cut leaves have none. Exact because
    growth above the cap never depends on the cap.
    """
    if max_depth > tree.hyperparams.max_depth:
        raise TreeError(
            f"cannot truncate a depth-{tree.hyperparams.max_depth} tree "
            f"to depth {max_depth}"
        )
    hp = replace(tree.hyperparams, max_depth=max_depth)

    def cut(node, depth):
        m = Node()
        m.n = node.n
        m.counts = node.counts
        if not node.is_leaf and depth < max_depth:
            m.feature = node.feature
            m.threshold = node.threshold
            m.left = cut(node.left, depth + 1)
            m.right = cut(node.right, depth + 1)
        return m

    return DecisionTree(cut(tree.root, 0), tree.n_classes, tree.n_features, hp,
                        tree.n_train, tree.feature_names)


def leaf_map(tree: DecisionTree, max_depth: int) -> np.ndarray:
    """The leaf of ``truncate_tree(tree, max_depth)`` that each leaf of
    ``tree`` falls in, by leaf id.

    Leaves are numbered depth-first, so the leaves under one cut leaf are a
    contiguous range of ids, and ``leaf_map(tree, d)[tree.leaf_index_batch(X)]``
    routes ``X`` through the cut without walking it.
    """
    firsts = []

    def walk(node, depth):
        if node.is_leaf or depth == max_depth:
            while not node.is_leaf:
                node = node.left
            firsts.append(node.leaf_id)
        else:
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(tree.root, 0)
    return np.repeat(np.arange(len(firsts)), np.diff(firsts + [tree.n_leaves]))


def attach_outcomes(tree: DecisionTree, X, y_action, outcomes,
                    leaf_ids=None) -> DecisionTree:
    """Record per-leaf, per-class average outcomes from fitting data.

    ``outcomes[i]`` is tallied under class ``y_action[i]`` in the leaf that
    ``X[i]`` lands in; ``leaf_ids``, those leaves if already known, saves
    routing ``X``. Returns a new tree sharing ``tree``'s nodes; averages are
    NaN where a leaf saw no sample of a class ("no data"). Each cell's sum
    adds its outcomes in row order.
    """
    X = np.asarray(X, dtype=np.float64)
    y_action = np.asarray(y_action, dtype=np.int64)
    outcomes = np.asarray(outcomes, dtype=np.float64)
    if not (len(X) == len(y_action) == len(outcomes)):
        raise TreeError(
            f"misaligned arrays: {len(X)} rows, {len(y_action)} actions, "
            f"{len(outcomes)} outcomes"
        )
    if len(y_action) and (y_action.min() < 0 or y_action.max() >= tree.n_classes):
        raise TreeError(f"action id outside [0, {tree.n_classes})")
    if leaf_ids is None:
        leaf_ids = tree.leaf_index_batch(X)
    elif len(leaf_ids) != len(X):
        raise TreeError(f"{len(leaf_ids)} leaf ids for {len(X)} rows")

    L, C = tree.n_leaves, tree.n_classes
    cell = leaf_ids * C + y_action
    sums = np.bincount(cell, weights=outcomes, minlength=L * C).reshape(L, C)
    cnts = np.bincount(cell, minlength=L * C).reshape(L, C)
    with np.errstate(invalid="ignore"):
        avg = np.where(cnts > 0, sums / np.maximum(cnts, 1), np.nan)
    return tree._with_outcomes(avg, cnts)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def _node_to_json(node: Node, tree: DecisionTree):
    if node.is_leaf:
        obj = {
            "feature": None,
            "threshold": None,
            "n": int(node.n),
            "counts": [int(c) for c in node.counts],
        }
        if tree.outcome_avg is not None:
            avg = tree.outcome_avg[node.leaf_id]
            obj["outcome_avg"] = {
                str(c): (None if math.isnan(v) else float(v)) for c, v in enumerate(avg)
            }
            obj["outcome_count"] = {
                str(c): int(v) for c, v in enumerate(tree.outcome_count[node.leaf_id])
            }
        return obj
    return {
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "left": _node_to_json(node.left, tree),
        "right": _node_to_json(node.right, tree),
    }


def _node_from_json(obj, n_classes, outcomes: list) -> Node:
    """The node ``obj`` describes; each leaf appends its (averages, counts)
    to ``outcomes``, or None if it has none, in leaf-id order."""
    node = Node()
    if obj.get("feature") is None:
        node.counts = np.asarray(obj["counts"], dtype=np.float64)
        node.n = int(obj.get("n", node.counts.sum()))
        if "outcome_avg" in obj:
            avg = np.full(n_classes, np.nan)
            cnt = np.zeros(n_classes, dtype=np.int64)
            for k, v in obj["outcome_avg"].items():
                if v is not None:
                    avg[int(k)] = float(v)
            for k, v in obj.get("outcome_count", {}).items():
                cnt[int(k)] = int(v)
            outcomes.append((avg, cnt))
        else:
            outcomes.append(None)
    else:
        node.feature = int(obj["feature"])
        node.threshold = float(obj["threshold"])
        node.left = _node_from_json(obj["left"], n_classes, outcomes)
        node.right = _node_from_json(obj["right"], n_classes, outcomes)
        node.n = node.left.n + node.right.n
        node.counts = node.left.counts + node.right.counts
    return node


def tree_to_json(tree: DecisionTree) -> dict:
    return {
        "n_classes": tree.n_classes,
        "n_features": tree.n_features,
        "n_train": tree.n_train,
        "feature_names": tree.feature_names,
        "hyperparams": tree.hyperparams.to_json(),
        "tree": _node_to_json(tree.root, tree),
    }


def tree_from_json(obj) -> DecisionTree:
    """The tree :func:`tree_to_json` wrote. A missing key raises a
    :class:`TreeError` that names it, a value of the wrong type one that
    says what went wrong."""
    try:
        hp = TreeHyperparams.from_json(obj["hyperparams"])
        n_classes = int(obj["n_classes"])
        outcomes = []
        root = _node_from_json(obj["tree"], n_classes, outcomes)
        tree = DecisionTree(root, n_classes, int(obj["n_features"]), hp,
                            int(obj["n_train"]), obj.get("feature_names"))
        if all(o is None for o in outcomes):
            return tree
        if any(o is None for o in outcomes):
            raise TreeError("tree JSON has outcome averages on some leaves only")
        return tree._with_outcomes(*map(np.stack, zip(*outcomes)))
    except KeyError as exc:
        raise TreeError(f"tree JSON lacks the key {exc.args[0]!r}") from None
    except TreeError:
        raise
    except (AttributeError, TypeError, ValueError) as exc:
        raise TreeError(f"malformed tree JSON: {exc}") from None


def _feature_label(tree, j) -> str:
    if tree.feature_names is not None:
        return tree.feature_names[j]
    return f"x{j}"


def tree_to_dot(tree: DecisionTree, class_names=None) -> str:
    """Graphviz source: internal nodes as "name <= threshold", leaves with
    sample count, modal-class probability, and any attached outcome averages."""
    if class_names is None:
        class_names = [f"class {c}" for c in range(tree.n_classes)]
    lines = ["digraph tree {", '  node [shape=box, fontname="Helvetica"];']
    counter = [0]

    def emit(node) -> int:
        my_id = counter[0]
        counter[0] += 1
        if node.is_leaf:
            probs = node.counts / node.n
            top = int(np.argmax(probs))
            label = [f"leaf {node.leaf_id}", f"n={node.n}",
                     f"P({class_names[top]})={probs[top]:.3f}"]
            if tree.outcome_avg is not None:
                for c, v in enumerate(tree.outcome_avg[node.leaf_id]):
                    if not math.isnan(v):
                        label.append(f"avg({class_names[c]})={v:.3f}")
            lines.append(f'  n{my_id} [label="{_dot_escape(chr(10).join(label))}"];')
        else:
            text = f"{_feature_label(tree, node.feature)} <= {node.threshold:g}"
            lines.append(f'  n{my_id} [label="{_dot_escape(text)}"];')
            lid = emit(node.left)
            rid = emit(node.right)
            lines.append(f'  n{my_id} -> n{lid} [label="yes"];')
            lines.append(f'  n{my_id} -> n{rid} [label="no"];')
        return my_id

    emit(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
