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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np


class TreeError(ValueError):
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

    @property
    def has_outcomes(self) -> bool:
        return self._leaf_outcomes is not None

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

def _gini_node(counts, n) -> float:
    p = counts / n
    return float(1.0 - np.dot(p, p))


def _best_split(X, y, idx, n_classes, floor):
    """Scan every feature for the impurity-minimizing split of one node.

    Returns (feature, threshold, weighted_child_impurity) or None. Ties keep
    the lowest feature index, then the lowest threshold (argmin hits the first
    of equal minima and thresholds increase along the sorted sweep).
    """
    n = len(idx)
    y_node = y[idx]
    best = None
    for j in range(X.shape[1]):
        xs = X[idx, j]
        order = np.argsort(xs, kind="stable")
        xv = xs[order]
        boundaries = np.nonzero(xv[:-1] != xv[1:])[0]
        if len(boundaries) == 0:
            continue
        lo, hi = floor - 1, n - floor - 1
        boundaries = boundaries[(boundaries >= lo) & (boundaries <= hi)]
        if len(boundaries) == 0:
            continue
        onehot = np.zeros((n, n_classes), dtype=np.float64)
        onehot[np.arange(n), y_node[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left = cum[boundaries]
        total = cum[-1]
        n_l = (boundaries + 1).astype(np.float64)
        n_r = n - n_l
        right = total[None, :] - left
        g_l = 1.0 - np.sum((left / n_l[:, None]) ** 2, axis=1)
        g_r = 1.0 - np.sum((right / n_r[:, None]) ** 2, axis=1)
        weighted = (n_l * g_l + n_r * g_r) / n
        pos = int(np.argmin(weighted))
        w = float(weighted[pos])
        if best is None or w < best[2]:
            i = boundaries[pos]
            threshold = (xv[i] + xv[i + 1]) / 2.0
            best = (j, float(threshold), w)
    return best


def fit_tree(X, y, hp: TreeHyperparams, n_classes: int | None = None,
             feature_names=None) -> DecisionTree:
    """Grow a tree on integer class labels ``y`` (< ``n_classes``)."""
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
    if feature_names is not None and len(feature_names) != X.shape[1]:
        raise TreeError("feature_names length does not match X columns")

    n_train = len(X)
    floor = math.ceil(hp.min_leaf_fraction * n_train)

    def grow(idx, depth) -> Node:
        node = Node()
        node.n = len(idx)
        node.counts = np.bincount(y[idx], minlength=n_classes).astype(np.float64)
        pure = node.counts.max() == node.n
        if depth >= hp.max_depth or pure or node.n < 2 * floor:
            return node
        found = _best_split(X, y, idx, n_classes, floor)
        if found is None:
            return node
        j, threshold, _ = found
        mask = X[idx, j] <= threshold
        node.feature = j
        node.threshold = threshold
        node.left = grow(idx[mask], depth + 1)
        node.right = grow(idx[~mask], depth + 1)
        return node

    root = grow(np.arange(n_train), 0)
    return DecisionTree(root, n_classes, X.shape[1], hp, n_train, feature_names)


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


def export_tree(tree: DecisionTree, fmt: str, class_names=None) -> str:
    """Serialize to "json" (round-trippable) or "dot" (Graphviz) text."""
    if fmt == "json":
        return json.dumps(tree_to_json(tree), sort_keys=True, indent=2) + "\n"
    if fmt == "dot":
        return tree_to_dot(tree, class_names=class_names)
    raise TreeError(f"unknown export format {fmt!r}; expected 'json' or 'dot'")
