"""Greedy classification trees with probabilistic leaves and outcome tallies.

The splitter is deliberately hand-rolled so its conventions are pinned down
exactly and can be checked against a brute-force oracle:

* impurity is Gini, candidate thresholds are midpoints between consecutive
  distinct sorted values, and "x <= threshold" routes left;
* the best split minimizes the sample-weighted child impurity, with ties
  broken by lowest feature index and then lowest threshold;
* growth stops at ``max_depth``, at pure nodes, or when a child would fall
  below ceil(min_leaf_fraction * n_train) samples.

Leaves store their class counts (so ``predict_proba`` returns empirical
frequencies) and, after :func:`attach_outcomes`, a per-class average outcome
used by outcome-guided target policies. Trees serialize to a JSON document
that reimports to identical predictions, and to Graphviz DOT for inspection.

Growth reads ``max_depth`` only as its stop rule, so the tree grown at depth
d is the tree grown at any deeper cap, cut at depth d (the nested-subtree
property behind CART cost-complexity pruning). Internal nodes keep their
class counts, and :func:`truncate_tree` makes that cut without refitting.

Every fit grows through a :class:`SplitSearch`: columns are sorted once per
fitting set, and fits that share a search (one per min-leaf fraction) share
the node searches their trees have in common.
"""

from __future__ import annotations

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
    """Internal node (feature, threshold, children) or leaf (outcomes).

    Both kinds carry the class counts of the samples that reached them; an
    internal node's counts are what a cut at that node leaves on the leaf.
    """

    __slots__ = ("feature", "threshold", "left", "right", "counts", "n",
                 "leaf_id", "outcome_avg", "outcome_count")

    def __init__(self):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.counts = None
        self.n = 0
        self.leaf_id = None
        self.outcome_avg = None
        self.outcome_count = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTree:
    """A fitted tree. Queries are pure; refitting builds a new object."""

    def __init__(self, root: Node, n_classes: int, n_features: int,
                 hyperparams: TreeHyperparams, n_train: int, feature_names=None):
        self.root = root
        self.n_classes = n_classes
        self.n_features = n_features
        self.hyperparams = hyperparams
        self.n_train = n_train
        self.feature_names = list(feature_names) if feature_names is not None else None
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
        self._refresh_outcome_cache()

    def _refresh_outcome_cache(self):
        if all(lf.outcome_avg is not None for lf in self.leaves):
            self._leaf_outcomes = np.stack([lf.outcome_avg for lf in self.leaves])
        else:
            self._leaf_outcomes = None

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

    def leaf_index_batch(self, X) -> np.ndarray:
        X = self._check(X)
        out = np.empty(len(X), dtype=np.int64)

        def route(node, idx):
            if node.is_leaf:
                out[idx] = node.leaf_id
                return
            mask = X[idx, node.feature] <= node.threshold
            route(node.left, idx[mask])
            route(node.right, idx[~mask])

        route(self.root, np.arange(len(X)))
        return out

    def predict_proba_batch(self, X) -> np.ndarray:
        return self._leaf_probs[self.leaf_index_batch(X)]

    def predict_proba(self, x) -> np.ndarray:
        return self.predict_proba_batch(np.asarray(x, dtype=np.float64)[None, :])[0]

    def outcome_avg_batch(self, X) -> np.ndarray:
        """Per-class average outcome of each row's leaf; NaN where no data."""
        if self._leaf_outcomes is None:
            raise TreeError("tree has no attached outcomes")
        return self._leaf_outcomes[self.leaf_index_batch(X)]


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

    Each column is stable-argsorted once; a node holds its rows as a
    (features + 1, m) index matrix whose row j lists the node's rows in
    feature-j order (ties in row order, as a per-node stable sort gives) and
    whose last row lists them in row order. Children get their rows by a
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
        self._root = np.empty((self.X.shape[1] + 1, n), dtype=np.int32)
        for j, column in enumerate(self.X.T):
            self._root[j] = np.argsort(column, kind="stable")
        self._root[-1] = np.arange(n)
        self._columns = np.arange(self.X.shape[1])[:, None]
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
            node.counts = np.bincount(self.y.take(rows[-1]),
                                      minlength=self.n_classes).astype(np.float64)
            pure = node.counts.max() == node.n
            if depth >= hp.max_depth or pure or node.n < 2 * floor:
                return node
            if path not in self._found:
                self._found[path] = self._search(rows, node.counts)
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

    def _search(self, rows, counts) -> tuple:
        """Each floor's best (feature, threshold) at one node, or None.

        Ties keep the lowest feature index, then the lowest threshold: the
        boundaries are scored in (feature, sorted position) order and argmin
        hits the first of equal minima.
        """
        self.searches += 1
        m = rows.shape[1]
        lo, hi = self.floors[0] - 1, m - self.floors[0] - 1
        order = rows[:-1]
        F = len(order)
        xv = self.X.take(np.multiply(order, F, dtype=np.int64) + self._columns)
        feat, pos = np.nonzero(xv[:, lo:hi + 1] != xv[:, lo + 1:hi + 2])
        del xv
        if len(feat) == 0:
            return (None,) * len(self.floors)
        pos += lo
        # class counts left of every boundary: tally the labels of each run
        # between consecutive boundaries (runs of all features laid end to
        # end) and sum the runs; the runs before feature j hold j * counts.
        # Work in place: these arrays are features x m long.
        K = self.n_classes
        run = np.zeros(F * m, dtype=np.int64)
        run[::m] = 1
        run[feat * m + pos + 1] = 1
        np.cumsum(run, out=run)
        run -= 1
        at = run[feat * m + pos]
        n_runs = int(run[-1]) + 1
        run *= K
        run += self.y.take(order).ravel()
        cum = np.bincount(run, minlength=n_runs * K).reshape(n_runs, K)
        del run
        np.cumsum(cum, axis=0, out=cum)
        left = cum[at]
        del cum
        left -= feat[:, None] * counts.astype(np.int64)
        left = left.astype(np.float64)
        # the weighted child impurity, term for term as a per-feature sweep
        n_l = (pos + 1).astype(np.float64)
        n_r = m - n_l
        right = counts[None, :] - left
        g_l = 1.0 - np.sum((left / n_l[:, None]) ** 2, axis=1)
        g_r = 1.0 - np.sum((right / n_r[:, None]) ** 2, axis=1)
        weighted = (n_l * g_l + n_r * g_r) / m
        # a boundary lies in floor f's window iff f <= its slack
        slack = np.minimum(pos + 1, m - 1 - pos)
        out = []
        for floor in self.floors:
            if slack.max() < floor:
                out.append(None)
                continue
            e = int(np.argmin(np.where(slack >= floor, weighted, np.inf)))
            j, i = int(feat[e]), int(pos[e])
            a, b = self.X[order[j, i], j], self.X[order[j, i + 1], j]
            out.append((j, float((a + b) / 2.0)))
        return tuple(out)


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
        m.counts = node.counts.copy()
        if not node.is_leaf and depth < max_depth:
            m.feature = node.feature
            m.threshold = node.threshold
            m.left = cut(node.left, depth + 1)
            m.right = cut(node.right, depth + 1)
        return m

    return DecisionTree(cut(tree.root, 0), tree.n_classes, tree.n_features, hp,
                        tree.n_train, tree.feature_names)


def attach_outcomes(tree: DecisionTree, X, y_action, outcomes) -> DecisionTree:
    """Record per-leaf, per-class average outcomes from fitting data.

    ``outcomes[i]`` is tallied under class ``y_action[i]`` in the leaf that
    ``X[i]`` lands in. Returns a new tree; averages are NaN where a leaf saw
    no sample of a class ("no data").
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

    out = _copy_tree(tree)
    L, C = out.n_leaves, out.n_classes
    sums = np.zeros((L, C), dtype=np.float64)
    cnts = np.zeros((L, C), dtype=np.int64)
    leaf_ids = out.leaf_index_batch(X)
    np.add.at(sums, (leaf_ids, y_action), outcomes)
    np.add.at(cnts, (leaf_ids, y_action), 1)
    with np.errstate(invalid="ignore"):
        avg = np.where(cnts > 0, sums / np.maximum(cnts, 1), np.nan)
    for lf in out.leaves:
        lf.outcome_avg = avg[lf.leaf_id].copy()
        lf.outcome_count = cnts[lf.leaf_id].copy()
    out._refresh_outcome_cache()
    return out


def _copy_tree(tree: DecisionTree) -> DecisionTree:
    def cp(node):
        m = Node()
        m.n = node.n
        m.counts = node.counts.copy()
        if node.is_leaf:
            if node.outcome_avg is not None:
                m.outcome_avg = node.outcome_avg.copy()
                m.outcome_count = node.outcome_count.copy()
        else:
            m.feature = node.feature
            m.threshold = node.threshold
            m.left = cp(node.left)
            m.right = cp(node.right)
        return m

    return DecisionTree(cp(tree.root), tree.n_classes, tree.n_features,
                        tree.hyperparams, tree.n_train, tree.feature_names)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def _node_to_json(node: Node):
    if node.is_leaf:
        obj = {
            "feature": None,
            "threshold": None,
            "n": int(node.n),
            "counts": [int(c) for c in node.counts],
        }
        if node.outcome_avg is not None:
            obj["outcome_avg"] = {
                str(c): (None if math.isnan(node.outcome_avg[c]) else float(node.outcome_avg[c]))
                for c in range(len(node.outcome_avg))
            }
            obj["outcome_count"] = {
                str(c): int(node.outcome_count[c]) for c in range(len(node.outcome_count))
            }
        return obj
    return {
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "left": _node_to_json(node.left),
        "right": _node_to_json(node.right),
    }


def _node_from_json(obj, n_classes) -> Node:
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
            node.outcome_avg = avg
            node.outcome_count = cnt
    else:
        node.feature = int(obj["feature"])
        node.threshold = float(obj["threshold"])
        node.left = _node_from_json(obj["left"], n_classes)
        node.right = _node_from_json(obj["right"], n_classes)
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
        "tree": _node_to_json(tree.root),
    }


def tree_from_json(obj) -> DecisionTree:
    hp = TreeHyperparams.from_json(obj["hyperparams"])
    n_classes = int(obj["n_classes"])
    root = _node_from_json(obj["tree"], n_classes)
    return DecisionTree(root, n_classes, int(obj["n_features"]), hp,
                        int(obj["n_train"]), obj.get("feature_names"))


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
            if node.outcome_avg is not None:
                for c in range(tree.n_classes):
                    if not math.isnan(node.outcome_avg[c]):
                        label.append(f"avg({class_names[c]})={node.outcome_avg[c]:.3f}")
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
