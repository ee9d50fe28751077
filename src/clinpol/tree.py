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
    the cells chose there. A cell that stops at the node writes the node's
    leaf id over its rows: the pass reaches each cell's leaves in left-first
    order, the order :class:`DecisionTree` numbers them in, so
    :meth:`leaf_ids` gives each fitting row's leaf without routing it.
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
        self._grown: dict | None = None  # cell -> (root, leaf ids), after the pass
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

    def grow(self, hp: TreeHyperparams) -> Node:
        """The root of the tree greedy growth under the planned cell ``hp`` gives."""
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
        """``{cell: (root, leaf ids)}``, every planned tree grown in one pass."""
        n = len(self.X)
        ids = [np.empty(n, dtype=np.int32) for _ in self.plan]
        leaves = [0] * len(self.plan)  # each cell's leaves so far
        cells = []  # (cell, depth cap, floor, the floor's slot in a search)
        for c, hp in enumerate(self.plan):
            floor = math.ceil(hp.min_leaf_fraction * n)
            cells.append((c, hp.max_depth, floor, self.floors.index(floor)))

        def grow(rows, depth, cells) -> list:
            """The node at ``depth`` that each of the ``cells`` grows on ``rows``."""
            m = rows.shape[1]
            tally = np.bincount(self.y.take(rows[-1]), minlength=self.n_classes)
            counts = tally.astype(np.float64)
            pure = np.count_nonzero(tally) == 1
            nodes, found = [], None
            splits: dict[tuple, list] = {}  # (feature, threshold) -> places in cells
            for i, (c, max_depth, floor, slot) in enumerate(cells):
                node = Node()
                node.n, node.counts = m, counts
                nodes.append(node)
                if not (depth >= max_depth or pure or m < 2 * floor):
                    if found is None:
                        found = self._search(rows, tally, counts)
                    if found[slot] is not None:
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
                lefts = grow(left, depth + 1, sub)
                del left
                right = np.compress(~goes_left, flat).reshape(len(rows), m - n_left)
                rights = grow(right, depth + 1, sub)
                del right
                for i, l, r in zip(at, lefts, rights):
                    node = nodes[i]
                    node.feature, node.threshold, node.left, node.right = j, threshold, l, r
            return nodes

        roots = grow(self._root, 0, cells)
        # the closure refers to itself and to the search; breaking that cycle
        # lets the search die with its last user, not at a later collection
        del grow
        return {hp: (root, ids[c]) for c, (hp, root) in enumerate(zip(self.plan, roots))}

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


def _node_from_json(obj, features: Kind, counts: Items, outcomes: list) -> Node:
    """The node ``obj`` describes; each leaf appends its (averages, counts)
    to ``outcomes``, or None if it has none, in leaf-id order. ``features``
    and ``counts`` are what the tree's split features and leaf counts must be."""
    node = Node()
    n_classes = counts.size
    feature = _read(obj, "feature", features, None)
    if feature is None:
        node.counts = np.array(_read(obj, "counts", counts), dtype=np.float64)
        node.n = _read(obj, "n", _COUNT, int(node.counts.sum()))
        if node.n == 0 or node.n != node.counts.sum():
            raise TreeError(f"malformed tree JSON: a leaf's 'n' is {node.n}, but its "
                            f"counts sum to {int(node.counts.sum())}")
        avg_obj = _read(obj, "outcome_avg", OBJECT, None)
        if avg_obj is None:
            outcomes.append(None)
            return node
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
    else:
        node.feature = feature
        node.threshold = float(_read(obj, "threshold", NUMBER))
        node.left = _node_from_json(_read(obj, "left", OBJECT), features, counts, outcomes)
        node.right = _node_from_json(_read(obj, "right", OBJECT), features, counts, outcomes)
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
    root = _node_from_json(_read(obj, "tree", OBJECT), Nullable(INT.bounded(0, n_features - 1)),
                           Items(_COUNT, n_classes), outcomes)
    tree = DecisionTree(root, n_classes, n_features, hp, n_train, names)
    if all(o is None for o in outcomes):
        return tree
    if any(o is None for o in outcomes):
        raise TreeError("tree JSON has outcome averages on some leaves only")
    return tree._with_outcomes(*map(np.stack, zip(*outcomes)))


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
