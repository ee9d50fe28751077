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

A tree is one read-only array of its nodes in preorder, left child first,
whose fields are parallel node arrays, and a leaf's id is its rank among the
leaves in that order. Growth reads ``max_depth`` only as its stop rule, so
the tree grown at depth d is the tree grown at any deeper cap, cut at depth
d (the nested-subtree property behind CART cost-complexity pruning).
Internal nodes keep their class counts, and :func:`truncate_tree` makes that
cut without refitting: it keeps the nodes of depth at most d, one mask, and
those at depth d become leaves. A cut leaf's deep leaves follow it in
preorder, before the next cut leaf, so :func:`leaf_map` maps deep leaf ids
to cut leaf ids with one running count, and rows routed once through the
deep tree are routed through every cut of it.

Every fit grows through a :class:`SplitSearch`, which tells column kinds
apart once per fitting set. A constant column cannot split and leaves the
search. A two-valued column (a one-hot indicator, say) has one boundary,
scored from a tally of the node's rows that hold its rarer value, so it is
never sorted. Only the other columns are sorted, once per fitting set. The
boundaries of both kinds go through one Gini sweep, with the arithmetic of a
per-node sort and ties broken in (feature, position) order. The sweep takes
a node's boundaries in blocks of a fixed size, so its class-count arrays are
bounded by the block size times K, not by the boundaries times K. With two
classes, a block's left counts come from one running sum of the labels.

A search is built for the cells (depth cap, min-leaf fraction) it will grow,
and grows all of them in one depth-first pass: each node is tallied once
and searched once for every cell that reaches it, and its rows are split
once per distinct split those cells choose. Each cell's tree records the
leaf of every fitting row as the pass reaches it, so the fitting rows are
never routed back through the trees.
"""

from __future__ import annotations

import copy
import math
from dataclasses import MISSING, dataclass, replace

import numpy as np

from .checks import (
    ANY,
    INT,
    NUMBER,
    OBJECT,
    STR,
    Config,
    Items,
    Kind,
    Nullable,
    member,
    setting,
)
from .errors import ClinpolError


class TreeError(ClinpolError):
    pass


@dataclass(frozen=True)
class TreeHyperparams(Config, error=TreeError, lead="malformed tree hyperparameters",
                      quote=False):
    """Depth cap and minimum leaf occupancy (as a fraction of fitting data)."""

    max_depth: int = setting(5, least=1)
    min_leaf_fraction: float = 0.01
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.min_leaf_fraction < 0.5):
            raise TreeError(
                f"min_leaf_fraction must be in (0, 0.5), got {self.min_leaf_fraction}"
            )


def _node_array(records: list, n_classes: int) -> np.ndarray:
    """The node array (see :class:`DecisionTree`) of the nodes ``records``,
    each [feature, threshold, end, depth, n, class counts]."""
    return np.array([tuple(r) for r in records], dtype=[
        ("feature", np.intp), ("threshold", np.float64), ("end", np.intp),
        ("node_depth", np.intp), ("n", np.int64), ("counts", np.float64, (n_classes,))])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class DecisionTree:
    """A fitted tree. Queries are pure; refitting builds a new object.

    ``nodes`` is a read-only record array of the nodes in preorder, left
    child first: one allocation per tree, and a cut is one mask of it. Its
    fields are parallel arrays over the nodes, as scikit-learn's
    ``sklearn.tree._tree.Tree`` keeps them: ``feature``
    (-1 at a leaf), ``threshold`` (NaN at a leaf), ``end`` (node i's subtree
    is nodes i to ``end[i] - 1``, so an internal node's children are i + 1
    and ``end[i + 1]``), ``node_depth`` (0 at the root), and ``n`` and the
    (nodes, C) ``counts``: the fitting rows that reached the node, and their
    classes. An internal node's counts are what a cut at it leaves on the
    leaf. A leaf's id is its rank among the leaves in preorder; ``leaves``
    holds each leaf's node and ``leaf_probs`` its class frequencies (an
    L × C table), by leaf id.

    Attached outcomes are two L × C tables by leaf id, ``outcome_avg`` and
    ``outcome_count`` (None until :func:`attach_outcomes`); a tree with
    outcomes shares its nodes with the tree they were attached to.
    """

    def __init__(self, nodes: np.ndarray, n_classes: int, n_features: int,
                 hyperparams: TreeHyperparams, n_train: int, feature_names=None):
        self.nodes = _frozen(nodes)
        for name in nodes.dtype.names:  # read-only views, as of any frozen array
            setattr(self, name, nodes[name])
        self.n_classes = n_classes
        self.n_features = n_features
        self.hyperparams = hyperparams
        self.n_train = n_train
        self.feature_names = list(feature_names) if feature_names is not None else None
        self.outcome_avg = self.outcome_count = None
        is_leaf = self.feature < 0
        self.leaves = _frozen(np.flatnonzero(is_leaf))
        self.n_leaves = len(self.leaves)
        self._leaf_id = np.cumsum(is_leaf) - 1  # at a leaf, its id
        self.leaf_probs = _frozen(self.counts[self.leaves] / self.n[self.leaves, None])

    # -- structure ---------------------------------------------------------

    def _with_outcomes(self, avg, count) -> "DecisionTree":
        """This tree, nodes shared, with the L × C outcome tables ``avg`` and
        ``count``."""
        avg.flags.writeable = count.flags.writeable = False
        out = copy.copy(self)
        out.outcome_avg, out.outcome_count = avg, count
        return out

    def depth(self) -> int:
        return int(self.node_depth.max())

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
        pending = [(0, np.arange(len(out)))]
        # lists: an item of one reads faster than an array element
        feature, threshold, end = (a.tolist() for a in (self.feature, self.threshold, self.end))
        while pending:
            i, at = pending.pop()
            j = feature[i]
            if j < 0:
                out[at] = self._leaf_id[i]
                continue
            goes_left = X[at if rows is None else rows[at], j] <= threshold[i]
            pending.append((end[i + 1], at[~goes_left]))
            pending.append((i + 1, at[goes_left]))
        return out

    def predict_proba_batch(self, X, rows=None, table=None) -> np.ndarray:
        """Each row's leaf class frequencies, or its row of ``table``, an
        L × C array over this tree's leaves (a calibrated copy, say)."""
        return self._gather(self.leaf_probs if table is None else table, X, rows)

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
    # a NaN would give a split a NaN midpoint that no row goes left of
    if np.isnan(X).any():
        raise TreeError(f"feature {int(np.isnan(X).any(axis=0).argmax())} holds NaN")
    if y.min() < 0:
        raise TreeError("negative class label")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    elif y.max() >= n_classes:
        raise TreeError(f"label {int(y.max())} outside [0, {n_classes})")
    return X, y, n_classes


# the most (boundary, class) cells a node scores at once, 1,024 boundaries at
# K=25: a block's class counts are (max(1, _BLOCK // K), K) arrays, so they
# bound a node search's working set whatever K is
_BLOCK = 25_600


class SplitSearch:
    """Split search over one fitting set, for the trees planned on it.

    The search is built for a plan of cells, each a :class:`TreeHyperparams`
    (a depth cap and a min-leaf fraction), and grows every planned tree in
    one depth-first pass, on the first :meth:`grow`. Later calls hand out
    the trees grown then.

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

    A node scores its boundaries ``max(1, _BLOCK // K)`` at a time, and only
    the 1-D scores are kept for every boundary. With two classes, the left
    counts are one running sum of the labels in each column's sorted order
    (class 0 is the rows left minus class 1); with more, each block's come
    from a running integer tally of (run, class) cells. A node's working set
    is bounded by ``_BLOCK`` cells, not by its boundaries times K, and the
    scores have the bits of one sweep over all of them.

    Trees with different min-leaf fractions pick the same split at most of
    the nodes they share, and a node's rows are fixed by its path from the
    root. The pass visits each path once, with every cell that reaches it:
    it tallies the node once, searches it once for every floor
    ``ceil(fraction * n_train)`` (scoring every boundary in the widest
    window, the smallest floor's, and keeping each floor's first minimum
    inside its own window), and partitions the rows once per distinct split
    the cells chose there. Each cell appends its node to its tree's node
    list as the pass reaches it, and the pass reaches each cell's nodes in
    preorder, left child first: the order of :class:`DecisionTree`'s node
    array. A cell that stops at the node writes the node's leaf id, its
    rank among the leaves so far, over its rows, so :meth:`leaf_ids` gives
    each fitting row's leaf without routing it.
    """

    def __init__(self, X, y, n_classes, plan):
        self.X, self.y, self.n_classes = _fitting_set(X, y, n_classes)
        n = len(self.X)
        self.plan = tuple(dict.fromkeys(plan))  # the cells, each once
        self.floors = sorted({math.ceil(hp.min_leaf_fraction * n) for hp in self.plan})
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
        held = rare.sum(axis=1)
        row, col = np.nonzero(rare)  # row by row, each row's columns in order
        slot = np.arange(len(row)) - np.repeat(np.cumsum(held) - held, held)
        self._cells = np.full((n, int(held.max(initial=0))), len(self._two) * K,
                              dtype=np.int64)
        self._cells[row, slot] = col * K + self.y[row]
        self._grown: dict | None = None  # cell -> (node array, leaf ids), after the pass
        self.searches = 0

    def check(self, X, y, n_classes, hp: TreeHyperparams) -> None:
        """Refuse rows, labels, classes or a cell this search was not built for."""
        X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
        same = ((X is self.X or np.array_equal(X, self.X, equal_nan=True))
                and (y is self.y or np.array_equal(y, self.y)))
        if not same:
            raise RuntimeError("split search used with a different fitting set")
        if n_classes is not None and n_classes != self.n_classes:
            raise RuntimeError(
                f"split search built for {self.n_classes} classes, not {n_classes}")
        if hp not in self.plan:
            raise RuntimeError(f"split search plans no tree at {hp}")

    def grow(self, hp: TreeHyperparams) -> np.ndarray:
        """The node array of the tree greedy growth under the planned cell
        ``hp`` gives (see :class:`DecisionTree`)."""
        return self._pass()[hp][0]

    def leaf_ids(self, hp: TreeHyperparams) -> np.ndarray:
        """The int32 leaf id of each fitting row in the tree :meth:`grow`
        gives for ``hp``, written as the pass reached the tree's leaves."""
        return self._pass()[hp][1]

    def _pass(self) -> dict:
        if self._grown is None:
            self._grown = self._grow_plan()
        return self._grown

    def _grow_plan(self) -> dict:
        """``{cell: (node array, leaf ids)}``, every planned tree grown in
        one pass."""
        n = len(self.X)
        ids = [np.empty(n, dtype=np.int32) for _ in self.plan]
        leaves = [0] * len(self.plan)  # each cell's leaves so far
        # each cell's node records (see _node_array) in preorder
        trees = [[] for _ in self.plan]
        cells = []  # (cell, depth cap, floor, the floor's slot in a search)
        for c, hp in enumerate(self.plan):
            floor = math.ceil(hp.min_leaf_fraction * n)
            cells.append((c, hp.max_depth, floor, self.floors.index(floor)))

        def grow(rows, depth, cells) -> None:
            """Append the subtree at ``depth`` that each of the ``cells`` grows
            on ``rows`` to its node list."""
            m = rows.shape[1]
            tally = np.bincount(self.y.take(rows[-1]), minlength=self.n_classes)
            pure = np.count_nonzero(tally) == 1
            nodes, found = [], None
            splits: dict[tuple, list] = {}  # (feature, threshold) -> places in cells
            for i, (c, max_depth, floor, slot) in enumerate(cells):
                node = [-1, np.nan, 0, depth, m, tally]
                trees[c].append(node)
                nodes.append(node)
                if not (depth >= max_depth or pure or m < 2 * floor):
                    if found is None:
                        found = self._search(rows, tally, tally.astype(np.float64))
                    if found[slot] is not None:
                        node[:2] = found[slot]
                        splits.setdefault(found[slot], []).append(i)
                        continue
                ids[c][rows[-1]] = leaves[c]
                leaves[c] += 1
            for (j, threshold), at in splits.items():
                # np.compress on the flat matrix: boolean indexing is several
                # times slower on these unpredictable masks
                goes_left = (self.X[:, j] <= threshold).take(rows).ravel()
                n_left = int(np.count_nonzero(goes_left[-m:]))
                flat = rows.ravel()
                sub = [cells[i] for i in at]
                left = np.compress(goes_left, flat).reshape(len(rows), n_left)
                grow(left, depth + 1, sub)
                del left
                right = np.compress(~goes_left, flat).reshape(len(rows), m - n_left)
                grow(right, depth + 1, sub)
                del right
            for (c, *_), node in zip(cells, nodes):
                node[2] = len(trees[c])  # the end of its subtree

        grow(self._root, 0, cells)
        # the closure refers to itself and to the search; breaking that cycle
        # lets the search die with its last user, not at a later collection
        del grow
        return {hp: (_node_array(trees[c], self.n_classes), ids[c])
                for c, hp in enumerate(self.plan)}

    def _search(self, rows, tally, counts) -> tuple:
        """Each floor's best (feature, threshold) at one node, or None.

        Ties keep the lowest feature index, then the lowest threshold: of
        the boundaries with the least score, the one first in (feature,
        sorted position) order.
        """
        self.searches += 1
        m = rows.shape[1]
        lo, hi = self.floors[0] - 1, m - self.floors[0] - 1
        # boundaries of the sorted columns, then of the two-valued ones: the
        # column, the last sorted position left of it and, a block of
        # boundaries at a time, the class counts left of it
        t_col, t_pos, t_left = self._two_valued_boundaries(rows[-1], tally, lo, hi)
        s_col, s_pos, lefts = self._sorted_boundaries(rows[:-1], tally, lo, hi, t_left)
        n_sorted = len(s_col)
        if n_sorted + len(t_col) == 0:
            return (None,) * len(self.floors)
        n_left = np.concatenate((s_pos, t_pos))
        n_left += 1
        weighted = np.empty(len(n_left))
        start = 0
        for left in lefts:
            stop = start + len(left)
            _gini(left, n_left[start:stop], counts, m, weighted[start:stop])
            start = stop
        # a boundary lies in floor f's window iff f <= its slack. Every one
        # lies in the smallest floor's; windows shrink as floors grow, so a
        # floor keeps the last minimum while that lies in its window
        slack = np.minimum(n_left, m - n_left)
        score, best = weighted, None
        out = []
        for floor in self.floors:
            if best is None or slack[best] < floor:
                if best is not None:
                    score = np.where(slack >= floor, weighted, np.inf)
                best = int(np.argmin(score))
                if score[best] == np.inf:
                    break
                # ties go to the lowest (feature, position). Each kind's
                # boundaries are in that order, so argmin's first minimum is
                # it, unless a two-valued column of a lower feature ties
                if best < n_sorted < len(score):
                    e = n_sorted + int(np.argmin(score[n_sorted:]))
                    if (score[e] == score[best]
                            and self._two[t_col[e - n_sorted]] < self._sorted[s_col[best]]):
                        best = e
            if best >= n_sorted:
                t = t_col[best - n_sorted]
                out.append((int(self._two[t]), self._midpoints[t]))
            else:
                s, i = s_col[best], int(s_pos[best])
                j = int(self._sorted[s])
                a, b = self.X[rows[s, i], j], self.X[rows[s, i + 1], j]
                out.append((j, float((a + b) / 2.0)))
        return tuple(out) + (None,) * (len(self.floors) - len(out))

    def _sorted_boundaries(self, order, counts, lo, hi, tail):
        """(sorted column, position) of each boundary between distinct sorted
        values at positions ``lo..hi``, and an iterator over their float64
        left class counts, ``_BLOCK // K`` boundaries a block; ``tail`` (the
        two-valued boundaries' counts) closes the last block."""
        S, m = order.shape
        flat = np.multiply(order, self.X.shape[1], dtype=np.int64)
        flat += self._sorted[:, None]
        xv = self.X.take(flat)
        del flat
        feat, pos = np.nonzero(xv[:, lo:hi + 1] != xv[:, lo + 1:hi + 2])
        del xv
        if len(feat) == 0:
            return feat, pos, iter((tail.astype(np.float64),))
        pos += lo
        at = feat * m + pos
        if self.n_classes == 2:
            # class 1 left of each boundary: one running sum of the labels in
            # each column's sorted order
            ones = self.y.take(order)
            np.cumsum(ones, axis=1, out=ones)
            return feat, pos, _two_class_counts(ones.ravel()[at], pos, tail)
        # number the runs between consecutive boundaries (runs of all
        # columns laid end to end), then turn each sorted position's run
        # into its (run, class) cell. Work in place: these are columns x m.
        K = self.n_classes
        run = np.zeros(S * m, dtype=np.int64)
        run[m::m] = 1
        run[at + 1] = 1
        np.cumsum(run, out=run)
        at = run[at]
        run *= K
        run += self.y.take(order).ravel()
        return feat, pos, self._left_counts(run, at, feat, pos, m, counts, tail)

    def _left_counts(self, cells, runs, feat, pos, m, counts, tail):
        """The sorted boundaries' left class counts, ``_BLOCK // K`` (at least
        one) at a time.

        Boundary i ends the run ``runs[i]`` and sorted position ``pos[i]`` of
        column ``feat[i]``. A block tallies the (run, class) ``cells`` of its
        runs onto a running tally of the runs before it: integer counts,
        exact in any block order. The runs before column s hold s * counts.
        """
        K = self.n_classes
        step = max(1, _BLOCK // K)
        carry, first, begin = None, 0, 0
        for start in range(0, len(runs), step):
            stop = min(start + step, len(runs))
            last = int(runs[stop - 1])
            end = int(feat[stop - 1]) * m + int(pos[stop - 1]) + 1
            block = cells[begin:end]
            if first:
                block -= first * K  # in place: each cell is read once
            cum = np.bincount(block, minlength=(last + 1 - first) * K).reshape(-1, K)
            if carry is not None:
                cum[0] += carry
            np.cumsum(cum, axis=0, out=cum)
            left = cum[runs[start:stop] - first if first else runs[start:stop]]
            left -= feat[start:stop, None] * counts
            if stop < len(runs):
                carry, first, begin = cum[-1].copy(), last + 1, end
                left = left.astype(np.float64)
            else:
                left = np.concatenate((left, tail), dtype=np.float64)
            del cum
            yield left

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


def _two_class_counts(ones, pos, tail):
    """The two-class left counts of the sorted boundaries that end sorted
    positions ``pos`` with ``ones`` rows of class 1 left of them,
    ``_BLOCK // 2`` (at least one) at a time; ``tail`` closes the last
    block. Class 0 is the rows left, ``pos + 1``, less class 1."""
    step = max(1, _BLOCK // 2)
    for start in range(0, len(ones), step):
        stop = min(start + step, len(ones))
        left = np.empty((stop - start, 2))
        left[:, 1] = ones[start:stop]
        np.subtract(pos[start:stop] + 1, ones[start:stop], out=left[:, 0])
        if stop == len(ones):
            left = np.concatenate((left, tail), dtype=np.float64)
        yield left


def _gini(left, n_left, counts, m, out) -> None:
    """Write into ``out`` the weighted child impurity of the boundaries whose
    float64 left class counts are the rows of ``left`` (overwritten), with
    ``n_left`` rows left of each, at a node of ``m`` rows and ``counts``.

    Term for term as a per-feature sweep: each boundary's class terms are one
    row of a C-contiguous array, summed over that row alone. Two terms have
    one sum, so with two classes the columns are added instead.
    """
    n_l = n_left.astype(np.float64)
    n_r = m - n_l
    right = counts[None, :] - left
    left /= n_l[:, None]
    np.square(left, out=left)
    right /= n_r[:, None]
    np.square(right, out=right)
    if len(counts) == 2:
        g_l = 1.0 - (left[:, 0] + left[:, 1])
        g_r = 1.0 - (right[:, 0] + right[:, 1])
    else:
        g_l = 1.0 - np.sum(left, axis=1)
        g_r = 1.0 - np.sum(right, axis=1)
    np.divide(n_l * g_l + n_r * g_r, m, out=out)


def fit_tree(X, y, hp: TreeHyperparams, n_classes: int | None = None,
             feature_names=None, search: SplitSearch | None = None) -> DecisionTree:
    """Grow a tree on integer class labels ``y`` (< ``n_classes``).

    ``search`` grows the trees of several cells on the same rows in one
    pass; it must have been built on ``X`` and ``y`` with ``hp`` among its
    cells. Without one, the fit builds its own, for ``hp`` alone.
    """
    if search is None:
        search = SplitSearch(X, y, n_classes, (hp,))
    else:
        search.check(X, y, n_classes, hp)
    X = search.X
    if feature_names is not None and len(feature_names) != X.shape[1]:
        raise TreeError("feature_names length does not match X columns")
    return DecisionTree(search.grow(hp), search.n_classes, X.shape[1], hp, len(X),
                        feature_names)


def truncate_tree(tree: DecisionTree, max_depth: int) -> DecisionTree:
    """The tree a fresh fit with ``max_depth`` would grow, cut from a deeper one.

    The cut keeps the nodes of depth at most ``max_depth``: every ancestor
    of a kept node is kept, and precedes it in preorder. Nodes at depth
    ``max_depth`` become leaves holding their own class counts; attached
    outcomes are dropped, since cut leaves have none. Exact because growth
    above the cap never depends on the cap.
    """
    if max_depth > tree.hyperparams.max_depth:
        raise TreeError(
            f"cannot truncate a depth-{tree.hyperparams.max_depth} tree "
            f"to depth {max_depth}"
        )
    hp = replace(tree.hyperparams, max_depth=max_depth)
    keep = tree.node_depth <= max_depth
    cut = tree.nodes[keep]
    at_cap = cut["node_depth"] == max_depth
    cut["feature"][at_cap] = -1
    cut["threshold"][at_cap] = np.nan
    # a kept node's subtree ends after the kept nodes up to its deep end
    cut["end"] = np.cumsum(keep)[cut["end"] - 1]
    return DecisionTree(cut, tree.n_classes, tree.n_features, hp, tree.n_train,
                        tree.feature_names)


def leaf_map(tree: DecisionTree, max_depth: int) -> np.ndarray:
    """The leaf of ``truncate_tree(tree, max_depth)`` that each leaf of
    ``tree`` falls in, by leaf id.

    A node is a leaf of the cut if it is a leaf of depth at most
    ``max_depth`` or an internal node at that depth. Leaves are numbered in
    preorder, so a deep leaf falls in the last cut leaf at or before it, and
    ``leaf_map(tree, d)[tree.leaf_index_batch(X)]`` routes ``X`` through the
    cut without walking it.
    """
    cut_leaf = np.where(tree.feature < 0, tree.node_depth <= max_depth,
                        tree.node_depth == max_depth)
    return (np.cumsum(cut_leaf) - 1)[tree.leaves]


def attach_outcomes(tree: DecisionTree, leaf_ids, y_action, outcomes) -> DecisionTree:
    """Record per-leaf, per-class average outcomes from fitting data.

    ``outcomes[i]`` is tallied under class ``y_action[i]`` in leaf
    ``leaf_ids[i]``, the leaf its row lands in (``tree.leaf_index_batch``).
    Returns a new tree sharing ``tree``'s nodes; averages are NaN where a
    leaf saw no sample of a class ("no data"). Each cell's sum adds its
    outcomes in row order.
    """
    leaf_ids = np.asarray(leaf_ids, dtype=np.int64)
    y_action = np.asarray(y_action, dtype=np.int64)
    outcomes = np.asarray(outcomes, dtype=np.float64)
    if not (len(leaf_ids) == len(y_action) == len(outcomes)):
        raise TreeError(
            f"misaligned arrays: {len(leaf_ids)} leaf ids, {len(y_action)} actions, "
            f"{len(outcomes)} outcomes"
        )
    if len(y_action) and (y_action.min() < 0 or y_action.max() >= tree.n_classes):
        raise TreeError(f"action id outside [0, {tree.n_classes})")

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

def _nodes_to_json(tree: DecisionTree) -> dict:
    """The root's JSON object, each node's nesting its children's; built from
    the last node back, so that a node's children are built before it."""
    objs = [None] * len(tree.feature)
    for i in reversed(range(len(objs))):
        if tree.feature[i] >= 0:
            objs[i] = {"feature": int(tree.feature[i]), "threshold": float(tree.threshold[i]),
                       "left": objs[i + 1], "right": objs[tree.end[i + 1]]}
            continue
        objs[i] = obj = {"feature": None, "threshold": None, "n": int(tree.n[i]),
                         "counts": [int(c) for c in tree.counts[i]]}
        if tree.outcome_avg is not None:
            leaf = tree._leaf_id[i]
            obj["outcome_avg"] = {
                str(c): (None if math.isnan(v) else float(v))
                for c, v in enumerate(tree.outcome_avg[leaf])
            }
            obj["outcome_count"] = {
                str(c): int(v) for c, v in enumerate(tree.outcome_count[leaf])
            }
    return objs[0]


def _class_key(key, n_classes: int) -> int:
    """The class a leaf outcome key names; one outside [0, n_classes) would
    index past the table or wrap to its end."""
    text = str(key)
    # a key of 19 digits or more names no class (and int() refuses thousands)
    c = int(text) if text.isdecimal() and len(text) < 19 else -1
    if not 0 <= c < n_classes:
        raise TreeError(f"leaf outcome key {key!r} is not a class of a "
                        f"{n_classes}-class tree")
    return c


def _read(obj, key, kind: Kind, default=MISSING):
    return member(obj, key, kind, TreeError, "tree JSON", default)


_COUNT = INT.bounded(0)
_AVERAGE = Nullable(NUMBER)  # a leaf's average outcome of a class; null if it has none


def _nodes_from_json(doc, features: Kind, counts: Items, outcomes: list) -> np.ndarray:
    """The node array of the tree ``doc["tree"]`` describes; each leaf
    appends its (averages, counts) to ``outcomes``, or None if it has none,
    in leaf-id order. ``features`` and ``counts`` are what the tree's split
    features and leaf counts must be."""
    n_classes = counts.size
    nodes = []  # in preorder, each [feature, threshold, end, depth, n, counts]
    pending = [(doc, "tree", 0)]  # (parent, key, depth) of the nodes to read
    while pending:
        parent, key, depth = pending.pop()
        obj = _read(parent, key, OBJECT)
        feature = _read(obj, "feature", features, None)
        if feature is not None:
            nodes.append([feature, float(_read(obj, "threshold", NUMBER)), 0, depth, 0, None])
            pending += [(obj, "right", depth + 1), (obj, "left", depth + 1)]
            continue
        leaf_counts = np.array(_read(obj, "counts", counts), dtype=np.float64)
        n = _read(obj, "n", _COUNT, int(leaf_counts.sum()))
        if n == 0 or n != leaf_counts.sum():
            raise TreeError(f"malformed tree JSON: a leaf's 'n' is {n}, but its "
                            f"counts sum to {int(leaf_counts.sum())}")
        nodes.append([-1, np.nan, len(nodes) + 1, depth, n, leaf_counts])
        avg_obj = _read(obj, "outcome_avg", OBJECT, None)
        if avg_obj is None:
            outcomes.append(None)
            continue
        avg = np.full(n_classes, np.nan)
        cnt = np.zeros(n_classes, dtype=np.int64)
        for k in avg_obj:
            v = _read(avg_obj, k, _AVERAGE)
            if v is not None:
                avg[_class_key(k, n_classes)] = v
        count_obj = _read(obj, "outcome_count", OBJECT, {})
        for k in count_obj:
            cnt[_class_key(k, n_classes)] = _read(count_obj, k, _COUNT)
        outcomes.append((avg, cnt))
    # an internal node's end, n and counts from its children's, the last back
    for i in reversed(range(len(nodes))):
        node = nodes[i]
        if node[0] >= 0:
            left, right = nodes[i + 1], nodes[nodes[i + 1][2]]
            node[2], node[4], node[5] = right[2], left[4] + right[4], left[5] + right[5]
    if nodes[0][4] >= 2**63:  # the root's n, the most of any node's
        raise TreeError(f"malformed tree JSON: its leaves hold {nodes[0][4]} rows, past 2**63 - 1")
    return _node_array(nodes, n_classes)


def tree_to_json(tree: DecisionTree) -> dict:
    return {
        "n_classes": tree.n_classes,
        "n_features": tree.n_features,
        "n_train": tree.n_train,
        "feature_names": tree.feature_names,
        "hyperparams": tree.hyperparams.to_json(),
        "tree": _nodes_to_json(tree),
    }


def tree_from_json(obj) -> DecisionTree:
    """The tree :func:`tree_to_json` wrote. A missing key, or a value that is
    not of its kind (a split feature outside [0, n_features), say), raises a
    :class:`TreeError` that names it."""
    hyperparams = _read(obj, "hyperparams", OBJECT)
    for key in ("max_depth", "min_leaf_fraction"):
        _read(hyperparams, key, ANY)
    hp = TreeHyperparams.from_json(hyperparams)
    n_classes = _read(obj, "n_classes", INT.bounded(1))
    n_features = _read(obj, "n_features", INT.bounded(1))
    names = _read(obj, "feature_names", Nullable(Items(STR, n_features)), None)
    n_train = _read(obj, "n_train", _COUNT)
    outcomes = []
    nodes = _nodes_from_json(obj, Nullable(INT.bounded(0, n_features - 1)),
                             Items(_COUNT, n_classes), outcomes)
    tree = DecisionTree(nodes, n_classes, n_features, hp, n_train, names)
    if all(o is None for o in outcomes):
        return tree
    if any(o is None for o in outcomes):
        raise TreeError("tree JSON has outcome averages on some leaves only")
    return tree._with_outcomes(*map(np.stack, zip(*outcomes)))


def tree_to_dot(tree: DecisionTree, class_names=None) -> str:
    """Graphviz source: internal nodes as "name <= threshold", leaves with
    sample count, modal-class probability, and any attached outcome averages."""
    if class_names is None:
        class_names = [f"class {c}" for c in range(tree.n_classes)]
    names = tree.feature_names or [f"x{j}" for j in range(tree.n_features)]
    lines = ["digraph tree {", '  node [shape=box, fontname="Helvetica"];']
    # node i is n{i}; an internal node's edges follow its subtree, which
    # closes with a leaf
    open_nodes = []
    for i, j in enumerate(tree.feature):
        if j >= 0:
            text = f"{names[j]} <= {tree.threshold[i]:g}"
            lines.append(f'  n{i} [label="{_dot_escape(text)}"];')
            open_nodes.append(i)
            continue
        leaf = int(tree._leaf_id[i])
        probs = tree.leaf_probs[leaf]
        top = int(np.argmax(probs))
        label = [f"leaf {leaf}", f"n={tree.n[i]}", f"P({class_names[top]})={probs[top]:.3f}"]
        if tree.outcome_avg is not None:
            for c, v in enumerate(tree.outcome_avg[leaf]):
                if not math.isnan(v):
                    label.append(f"avg({class_names[c]})={v:.3f}")
        lines.append(f'  n{i} [label="{_dot_escape(chr(10).join(label))}"];')
        while open_nodes and tree.end[open_nodes[-1]] == i + 1:
            k = open_nodes.pop()
            lines.append(f'  n{k} -> n{k + 1} [label="yes"];')
            lines.append(f'  n{k} -> n{tree.end[k + 1]} [label="no"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
