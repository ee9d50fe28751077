"""Tree fitting against a brute-force split oracle, exports, outcome tallies."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from clinpol import tree as tree_module
from clinpol.tree import (
    SplitSearch,
    TreeError,
    TreeHyperparams,
    attach_outcomes,
    fit_tree,
    leaf_map,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    truncate_tree,
)

# the fields of a tree's node array, each an array over the nodes in preorder
NODE_ARRAYS = ("feature", "threshold", "end", "node_depth", "n", "counts")

# ---------------------------------------------------------------------------
# oracle: exhaustive Gini split search, written independently of the library
# ---------------------------------------------------------------------------

def oracle_gini(labels, n_classes):
    n = len(labels)
    g = 1.0
    for c in range(n_classes):
        p = sum(1 for v in labels if v == c) / n
        g -= p * p
    return g


def oracle_best_split(X, y, n_classes, floor):
    """Try every feature and every midpoint between consecutive distinct values."""
    n, d = X.shape
    best = None
    for j in range(d):
        vals = sorted(set(X[:, j]))
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2.0
            left = [y[i] for i in range(n) if X[i, j] <= thr]
            right = [y[i] for i in range(n) if X[i, j] > thr]
            if len(left) < floor or len(right) < floor:
                continue
            w = (len(left) * oracle_gini(left, n_classes)
                 + len(right) * oracle_gini(right, n_classes)) / n
            if best is None or w < best[2] - 1e-15:
                best = (j, thr, w)
            elif best is not None and abs(w - best[2]) <= 1e-15:
                # keep lowest feature index, then lowest threshold
                if (j, thr) < (best[0], best[1]):
                    best = (j, thr, w)
    return best


def collect_internal_nodes(tree, X):
    """(node, row_indices_reaching_node) pairs for every internal node; the
    nodes are preorder positions in the tree's node arrays."""
    out = []
    reaching = {0: np.arange(len(X))}  # node -> its rows, for nodes still ahead
    for node, feature in enumerate(tree.feature):
        idx = reaching.pop(node)
        if feature < 0:
            continue
        out.append((node, idx))
        mask = X[idx, feature] <= tree.threshold[node]
        reaching[node + 1], reaching[tree.end[node + 1]] = idx[mask], idx[~mask]
    assert not reaching
    return out


def assert_tree_matches_oracle(X, y, hp, n_classes):
    """Every internal node's split must be impurity-optimal per the oracle."""
    tree = fit_tree(X, y, hp, n_classes=n_classes)
    floor = math.ceil(hp.min_leaf_fraction * len(X))
    for node, idx in collect_internal_nodes(tree, X):
        got = oracle_best_split(X[idx], y[idx], n_classes, floor)
        assert got is not None
        j, thr, w = got
        # impurity of the library's chosen split, recomputed the oracle's way
        feature, threshold = tree.feature[node], tree.threshold[node]
        left = [y[i] for i in idx if X[i, feature] <= threshold]
        right = [y[i] for i in idx if X[i, feature] > threshold]
        w_chosen = (len(left) * oracle_gini(left, n_classes)
                    + len(right) * oracle_gini(right, n_classes)) / len(idx)
        assert abs(w_chosen - w) <= 1e-12
    return tree


# ---------------------------------------------------------------------------
# fitting basics
# ---------------------------------------------------------------------------

def test_pure_labels_give_single_leaf():
    X = np.array([[0.0], [1.0], [2.0]])
    tree = fit_tree(X, [1, 1, 1], TreeHyperparams(max_depth=4), n_classes=3)
    assert tree.n_leaves == 1
    assert tree.feature.tolist() == [-1] and np.isnan(tree.threshold[0])
    np.testing.assert_array_equal(tree.predict_proba_batch([[5.0]]), [[0.0, 1.0, 0.0]])


def test_separable_1d_split_lands_between_classes():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = [0, 0, 1, 1]
    tree = fit_tree(X, y, TreeHyperparams(max_depth=3, min_leaf_fraction=0.01))
    assert tree.feature[0] == 0
    assert 1.0 < tree.threshold[0] < 2.0
    assert tree.threshold[0] == 1.5
    np.testing.assert_array_equal(tree.predict_proba_batch([[0.2]]), [[1.0, 0.0]])
    np.testing.assert_array_equal(tree.predict_proba_batch([[2.9]]), [[0.0, 1.0]])


def test_root_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(200, 5))
    y = (X[:, 2] + 0.3 * rng.normal(size=200) > 0).astype(int)
    hp = TreeHyperparams(max_depth=1, min_leaf_fraction=0.05)
    tree = fit_tree(X, y, hp)
    floor = math.ceil(0.05 * 200)
    j, thr, w = oracle_best_split(X, np.asarray(y), 2, floor)
    assert tree.feature[0] == j
    assert tree.threshold[0] == pytest.approx(thr, abs=0.0)
    left = [y[i] for i in range(200) if X[i, tree.feature[0]] <= tree.threshold[0]]
    right = [y[i] for i in range(200) if X[i, tree.feature[0]] > tree.threshold[0]]
    w_chosen = (len(left) * oracle_gini(left, 2) + len(right) * oracle_gini(right, 2)) / 200
    assert abs(w_chosen - w) <= 1e-12


def test_every_internal_split_matches_oracle_small_sweep():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(30, 120))
        d = int(rng.integers(1, 5))
        C = int(rng.integers(2, 4))
        X = np.round(rng.normal(size=(n, d)), 2)
        y = rng.integers(0, C, size=n)
        hp = TreeHyperparams(max_depth=int(rng.integers(1, 4)),
                             min_leaf_fraction=float(rng.choice([0.02, 0.05, 0.1])))
        assert_tree_matches_oracle(X, y, hp, C)


def test_split_tie_breaks_lowest_feature_index():
    # two identical columns: feature 0 must win the tie
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = [0, 0, 1, 1]
    tree = fit_tree(X, y, TreeHyperparams(max_depth=1, min_leaf_fraction=0.01))
    assert tree.feature[0] == 0


def test_min_leaf_floor_is_respected():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(157, 3))
    y = rng.integers(0, 3, size=157)
    for frac in (0.02, 0.1, 0.25):
        hp = TreeHyperparams(max_depth=8, min_leaf_fraction=frac)
        tree = fit_tree(X, y, hp)
        floor = math.ceil(frac * 157)
        assert np.all(tree.n[tree.leaves] >= floor)


def test_depth_cap_is_respected():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(400, 4))
    y = rng.integers(0, 2, size=400)
    for depth in (1, 2, 5):
        tree = fit_tree(X, y, TreeHyperparams(max_depth=depth, min_leaf_fraction=0.01))
        assert tree.depth() <= depth


def test_single_sample_fits_single_leaf():
    tree = fit_tree(np.array([[1.0]]), [0], TreeHyperparams(), n_classes=2)
    assert tree.n_leaves == 1
    np.testing.assert_array_equal(tree.predict_proba_batch([[1.0]]), [[1.0, 0.0]])


def test_fit_rejects_empty_and_misaligned_input():
    with pytest.raises(TreeError, match="zero samples"):
        fit_tree(np.empty((0, 2)), [], TreeHyperparams())
    with pytest.raises(TreeError, match="disagree"):
        fit_tree(np.ones((3, 2)), [0, 1], TreeHyperparams())
    with pytest.raises(TreeError, match="outside"):
        fit_tree(np.ones((2, 1)), [0, 5], TreeHyperparams(), n_classes=2)


def test_fit_refuses_a_feature_holding_nan():
    # a boundary next to a NaN has a NaN midpoint: no row goes left of it, so
    # the split would leave an empty leaf with NaN probabilities
    X = np.column_stack([np.arange(40.0), np.r_[np.arange(39.0), np.nan]])
    y = (np.arange(40) % 2).astype(int)
    for fit in (lambda: fit_tree(X, y, TreeHyperparams(max_depth=3)),
                lambda: SplitSearch(X, y, 2, (TreeHyperparams(),))):
        with pytest.raises(TreeError, match="feature 1 holds NaN"):
            fit()


def test_hyperparams_validate_ranges():
    with pytest.raises(TreeError):
        TreeHyperparams(max_depth=0)
    with pytest.raises(TreeError):
        TreeHyperparams(min_leaf_fraction=0.0)
    with pytest.raises(TreeError):
        TreeHyperparams(min_leaf_fraction=0.5)


# ---------------------------------------------------------------------------
# leaf queries
# ---------------------------------------------------------------------------

def test_predict_proba_is_leaf_frequency():
    X = np.array([[0.0], [1.0], [2.0]])
    y = [0, 0, 1]
    # floor of 2 forbids any split, so the root leaf holds counts [2, 1]
    tree = fit_tree(X, y, TreeHyperparams(max_depth=4, min_leaf_fraction=0.45))
    assert tree.n_leaves == 1
    probs = tree.predict_proba_batch([[0.1]])
    np.testing.assert_allclose(probs, [[2 / 3, 1 / 3]], atol=1e-12)


def test_predict_proba_rows_sum_to_one():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(500, 4))
    y = rng.integers(0, 5, size=500)
    tree = fit_tree(X, y, TreeHyperparams(max_depth=6, min_leaf_fraction=0.01), n_classes=5)
    P = tree.predict_proba_batch(rng.normal(size=(10_000, 4)))
    assert np.all(np.abs(P.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(P >= 0.0)


def test_dimension_mismatch_raises():
    tree = fit_tree(np.ones((4, 2)), [0, 0, 1, 1], TreeHyperparams())
    with pytest.raises(TreeError, match="2 columns"):
        tree.predict_proba_batch([[1.0, 2.0, 3.0]])


def test_leaf_index_matches_training_tally():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(300, 3))
    y = rng.integers(0, 3, size=300)
    tree = fit_tree(X, y, TreeHyperparams(max_depth=4, min_leaf_fraction=0.05))
    ids = tree.leaf_index_batch(X)
    for leaf, node in enumerate(tree.leaves):
        got = np.bincount(y[ids == leaf], minlength=3)
        np.testing.assert_array_equal(got, tree.counts[node].astype(int))
        assert (ids == leaf).sum() == tree.n[node]
    # leaf ids are stable across refits of identical input
    ids2 = fit_tree(X, y, TreeHyperparams(max_depth=4, min_leaf_fraction=0.05)
                    ).leaf_index_batch(X)
    np.testing.assert_array_equal(ids, ids2)


def test_every_array_a_tree_hands_out_is_read_only():
    X, y, outcomes = tied_columns_data(8, 400, 3)
    deep = fit_tree(X, y, TreeHyperparams(max_depth=5, min_leaf_fraction=0.02), n_classes=3)
    probs = truncate_tree(deep, 1).leaf_probs.copy()
    cut = truncate_tree(deep, 2)
    with_outcomes = attach_outcomes(cut, cut.leaf_index_batch(X), y, outcomes)
    read = tree_from_json(json.loads(json_text(with_outcomes)))
    for tree in (deep, cut, with_outcomes, read):
        names = ("nodes",) + NODE_ARRAYS + ("leaves", "leaf_probs")
        if tree.outcome_avg is not None:
            names += ("outcome_avg", "outcome_count")
        for name in names:
            array = getattr(tree, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[-1]
    # a cut's counts are no way into the deep tree's, nor into a later cut's
    with pytest.raises(ValueError, match="read-only"):
        cut.counts[cut.leaves[0], 0] += 50
    assert truncate_tree(deep, 1).leaf_probs.tobytes() == probs.tobytes()


def test_single_leaf_tree_maps_everything_to_leaf_zero():
    tree = fit_tree(np.array([[0.0], [1.0]]), [1, 1], TreeHyperparams(), n_classes=2)
    assert tree.leaf_index_batch(np.array([[123.0]])).tolist() == [0]


def test_queries_on_selected_rows_read_those_rows_in_place():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(500, 3))
    y = rng.integers(0, 3, size=500)
    fitted = fit_tree(X, y, TreeHyperparams(max_depth=5, min_leaf_fraction=0.02))
    tree = attach_outcomes(fitted, fitted.leaf_index_batch(X), y, rng.normal(size=500))
    ids = tree.leaf_index_batch(X)
    for rows in (np.arange(500), np.flatnonzero(X[:, 0] > 0.3), np.array([7, 7, 3]),
                 [], np.arange(500)[::-1].astype(np.int32)):
        np.testing.assert_array_equal(tree.leaf_index_batch(X, rows), ids[rows])
        assert tree.predict_proba_batch(X, rows).tobytes() == \
            tree.predict_proba_batch(X[rows]).tobytes()
        assert tree.outcome_avg_batch(X, rows).tobytes() == \
            tree.outcome_avg_batch(X[rows]).tobytes()
    # a table over the leaves stands in for the leaf frequencies
    table = np.arange(tree.n_leaves * 2.0).reshape(tree.n_leaves, 2)
    np.testing.assert_array_equal(tree.predict_proba_batch(X, [4, 2], table),
                                  table[ids[[4, 2]]])
    with pytest.raises(TreeError, match=f"needs {tree.n_leaves} rows"):
        tree.predict_proba_batch(X, None, table[1:])
    for bad in ([500], [-1], [0.5], [[0, 1]]):
        with pytest.raises(TreeError, match="row position"):
            tree.leaf_index_batch(X, bad)
    assert not tree.leaf_probs.flags.writeable


# ---------------------------------------------------------------------------
# outcome attachment
# ---------------------------------------------------------------------------

def test_attach_outcomes_means_and_no_data():
    X = np.array([[0.0], [0.1], [0.2]])
    y_fit = [0, 0, 1]
    tree = fit_tree(X, y_fit, TreeHyperparams(max_depth=1, min_leaf_fraction=0.45),
                    n_classes=3)
    # single leaf: action 0 outcomes {2, 4}, action 1 outcome {1}, action 2 never seen
    out = attach_outcomes(tree, tree.leaf_index_batch(X), [0, 0, 1], [2.0, 4.0, 1.0])
    avg = out.outcome_avg_batch(X[:1])[0]
    assert avg[0] == 3.0
    assert avg[1] == 1.0
    assert math.isnan(avg[2])
    # original tree untouched
    with pytest.raises(TreeError):
        tree.outcome_avg_batch(X[:1])


def test_attach_outcomes_matches_group_by_oracle():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(400, 3))
    y = rng.integers(0, 4, size=400)
    outcomes = rng.normal(size=400)
    tree = fit_tree(X, y, TreeHyperparams(max_depth=3, min_leaf_fraction=0.02), n_classes=4)
    ids = tree.leaf_index_batch(X)
    fitted = attach_outcomes(tree, ids, y, outcomes)
    avg = fitted.outcome_avg_batch(X)
    for i in range(400):
        group = outcomes[(ids == ids[i]) & (y == y[i])]
        assert avg[i, y[i]] == pytest.approx(group.mean(), abs=1e-12)


def test_attach_outcomes_rejects_misaligned_arrays():
    tree = fit_tree(np.ones((2, 1)), [0, 1], TreeHyperparams())
    ids = tree.leaf_index_batch(np.ones((2, 1)))
    with pytest.raises(TreeError, match="misaligned arrays: 2 leaf ids, 2 actions, 1 outcomes"):
        attach_outcomes(tree, ids, [0, 1], [1.0])
    with pytest.raises(TreeError, match="misaligned arrays: 1 leaf ids, 2 actions"):
        attach_outcomes(tree, ids[1:], [0, 1], [1.0, 2.0])


def test_attach_outcomes_rejects_an_action_outside_the_classes():
    tree = fit_tree(np.ones((2, 1)), [0, 1], TreeHyperparams())
    ids = tree.leaf_index_batch(np.ones((2, 1)))
    for bad in ([0, 2], [-1, 0]):
        with pytest.raises(TreeError, match=r"action id outside \[0, 2\)"):
            attach_outcomes(tree, ids, bad, [1.0, 2.0])


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def json_text(tree) -> str:
    """The tree's JSON as text, keys sorted, so two exports compare as strings."""
    return json.dumps(tree_to_json(tree), sort_keys=True)


def test_single_leaf_dot_export():
    tree = fit_tree(np.array([[0.0]]), [0], TreeHyperparams(), n_classes=2)
    dot = tree_to_dot(tree)
    assert dot.count("[label=") == 1
    assert "->" not in dot


def test_depth_two_dot_structure():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    tree = fit_tree(X, y, TreeHyperparams(max_depth=2, min_leaf_fraction=0.01),
                    feature_names=["left_col", "right_col"])
    dot = tree_to_dot(tree)
    assert "<=" in dot
    assert "left_col" in dot or "right_col" in dot
    lines = dot.splitlines()
    n_nodes = sum(1 for l in lines if "[label=" in l and "->" not in l)
    n_edges = sum(1 for l in lines if "->" in l)
    assert n_edges == n_nodes - 1


def test_dot_and_json_bytes_of_a_deep_many_class_tree_are_pinned():
    X, y, outcomes = tied_columns_data(25, 900, 25)
    names = ['dose "mg"', "visits", "score", "flag"]  # a quote DOT must escape
    fitted = fit_tree(X, y, TreeHyperparams(max_depth=9, min_leaf_fraction=0.005),
                      n_classes=25, feature_names=names)
    tree = attach_outcomes(fitted, fitted.leaf_index_batch(X), y, outcomes)
    assert (tree.depth(), tree.n_leaves) == (9, 128)
    assert hashlib.sha256(tree_to_dot(tree).encode()).hexdigest() == \
        "638e5379bf74b0cb42fab8ea352a5a37ab56905741dffab7b49edfb12c831a0c"
    assert hashlib.sha256(json.dumps(tree_to_json(tree)).encode()).hexdigest() == \
        "4aaaccedb44ec9c809640489393d850c3971d53ba69691d45cb3a2f04349cae6"


@pytest.mark.parametrize("edit, message", [
    (lambda obj: {k: v for k, v in obj.items() if k != "hyperparams"},
     "tree JSON lacks the key 'hyperparams'"),
    (lambda obj: dict(obj, hyperparams={"max_depth": 3}),
     "tree JSON lacks the key 'min_leaf_fraction'"),
    (lambda obj: dict(obj, tree={"feature": 0, "threshold": 0.5, "left": {"counts": [1, 2]}}),
     "tree JSON lacks the key 'right'"),
    (lambda obj: dict(obj, tree=[1, 2]), "malformed tree JSON"),
    (lambda obj: dict(obj, tree={"feature": 0, "threshold": 0.5, "left": {"counts": [2**62, 0]},
                                 "right": {"counts": [0, 2**62]}}),
     r"its leaves hold 9223372036854775808 rows, past 2\*\*63 - 1"),
    (lambda obj: dict(obj, tree={"counts": [2**62, 2**62]}), "past 2"),
    (lambda obj: dict(obj, n_classes="two"), "malformed tree JSON"),
    (lambda obj: dict(obj, tree={"counts": [1, 2], "outcome_avg": {"7": 1.0}}),
     "leaf outcome key '7' is not a class of a 2-class tree"),
    (lambda obj: dict(obj, tree={"counts": [1, 2], "outcome_avg": {"-1": 1.0}}),
     "leaf outcome key '-1' is not a class"),
    (lambda obj: dict(obj, tree={"counts": [1, 2], "outcome_avg": {"0": 1.0},
                                 "outcome_count": {"2": 1}}),
     "leaf outcome key '2' is not a class"),
])
def test_malformed_tree_json_is_a_tree_error_naming_the_key(edit, message):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 2))
    tree = fit_tree(X, (X[:, 0] > 0).astype(int), TreeHyperparams(max_depth=2))
    with pytest.raises(TreeError, match=message):
        tree_from_json(edit(json.loads(json_text(tree))))


def test_json_round_trip_identical_predictions():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(500, 4))
    y = rng.integers(0, 3, size=500)
    outcomes = rng.normal(size=500)
    fitted = fit_tree(X, y, TreeHyperparams(max_depth=5, min_leaf_fraction=0.02), n_classes=3)
    tree = attach_outcomes(fitted, fitted.leaf_index_batch(X), y, outcomes)
    back = tree_from_json(json.loads(json_text(tree)))
    Xq = rng.normal(size=(1000, 4))
    np.testing.assert_array_equal(tree.predict_proba_batch(Xq),
                                  back.predict_proba_batch(Xq))
    np.testing.assert_array_equal(tree.leaf_index_batch(Xq), back.leaf_index_batch(Xq))
    a = tree.outcome_avg_batch(Xq)
    b = back.outcome_avg_batch(Xq)
    assert np.array_equal(a, b, equal_nan=True)


def test_export_is_bitwise_deterministic_across_refits():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(300, 3))
    y = rng.integers(0, 2, size=300)
    hp = TreeHyperparams(max_depth=4, min_leaf_fraction=0.03)
    a = json_text(fit_tree(X, y, hp))
    b = json_text(fit_tree(X.copy(), y.copy(), hp))
    assert a == b


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def tied_columns_data(seed, n, n_classes):
    """Features with many repeated values and labels that need deep trees."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        np.round(rng.normal(size=n), 1),
        rng.integers(0, 4, size=n).astype(float),
        np.round(rng.uniform(size=n), 2),
        rng.integers(0, 2, size=n).astype(float),
    ])
    score = X[:, 0] + 0.5 * X[:, 1] - X[:, 2] + 0.3 * rng.normal(size=n)
    y = np.clip(np.floor((score + 2.0) * n_classes / 6.0), 0, n_classes - 1)
    noisy = rng.random(n) < 0.2
    y[noisy] = rng.integers(0, n_classes, size=int(noisy.sum()))
    return X, y.astype(int), rng.normal(size=n)


@pytest.mark.parametrize("n_classes", [2, 4, 25])
def test_truncated_deep_tree_equals_a_fresh_fit(n_classes):
    X, y, outcomes = tied_columns_data(n_classes, 700, n_classes)
    Xq = tied_columns_data(100 + n_classes, 500, n_classes)[0]
    for frac in (0.005, 0.02, 0.06, 0.15):
        deep = fit_tree(X, y, TreeHyperparams(max_depth=9, min_leaf_fraction=frac),
                        n_classes=n_classes)
        for depth in range(1, 10):
            hp = TreeHyperparams(max_depth=depth, min_leaf_fraction=frac)
            fresh = fit_tree(X, y, hp, n_classes=n_classes)
            fresh = attach_outcomes(fresh, fresh.leaf_index_batch(X), y, outcomes)
            cut = truncate_tree(deep, depth)
            cut = attach_outcomes(cut, cut.leaf_index_batch(X), y, outcomes)
            assert json_text(cut) == json_text(fresh), (frac, depth)
            np.testing.assert_array_equal(cut.predict_proba_batch(Xq),
                                          fresh.predict_proba_batch(Xq))
            assert np.array_equal(cut.outcome_avg_batch(Xq),
                                  fresh.outcome_avg_batch(Xq), equal_nan=True)


@pytest.mark.parametrize("n_classes", [2, 4, 25])
def test_truncation_survives_a_json_round_trip_and_refuses_to_deepen(n_classes):
    X, y, _ = tied_columns_data(3, 400, n_classes)
    deep = fit_tree(X, y, TreeHyperparams(max_depth=6, min_leaf_fraction=0.02),
                    n_classes=n_classes)
    back = tree_from_json(json.loads(json_text(deep)))
    for depth in range(1, 7):
        assert (json_text(truncate_tree(back, depth))
                == json_text(truncate_tree(deep, depth))), depth
    with pytest.raises(TreeError, match="cannot truncate a depth-6 tree to depth 7"):
        truncate_tree(deep, 7)


# ---------------------------------------------------------------------------
# the shared split search
# ---------------------------------------------------------------------------

def per_node_sort_fit(X, y, hp, n_classes):
    """Reference grower: every node stable-argsorts every feature afresh.

    This is the splitter the presorted search replaced, kept term for term
    (the class axis summed in the same order), so its trees pin the
    search's tie order and float bits.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    floor = math.ceil(hp.min_leaf_fraction * len(X))

    def best_split(idx):
        n = len(idx)
        best = None
        for j in range(X.shape[1]):
            xs = X[idx, j]
            order = np.argsort(xs, kind="stable")
            xv = xs[order]
            b = np.nonzero(xv[:-1] != xv[1:])[0]
            b = b[(b >= floor - 1) & (b <= n - floor - 1)]
            if len(b) == 0:
                continue
            onehot = np.zeros((n, n_classes))
            onehot[np.arange(n), y[idx][order]] = 1.0
            cum = np.cumsum(onehot, axis=0)
            left, total = cum[b], cum[-1]
            n_l = (b + 1).astype(np.float64)
            n_r = n - n_l
            right = total[None, :] - left
            g_l = 1.0 - np.sum((left / n_l[:, None]) ** 2, axis=1)
            g_r = 1.0 - np.sum((right / n_r[:, None]) ** 2, axis=1)
            weighted = (n_l * g_l + n_r * g_r) / n
            pos = int(np.argmin(weighted))
            if best is None or weighted[pos] < best[2]:
                i = b[pos]
                best = (j, float((xv[i] + xv[i + 1]) / 2.0), weighted[pos])
        return best

    def grow(idx, depth):
        """The tree-JSON object of the node that holds the rows ``idx``."""
        counts = np.bincount(y[idx], minlength=n_classes)
        leaf = {"feature": None, "threshold": None, "n": len(idx),
                "counts": counts.tolist()}
        if depth >= hp.max_depth or counts.max() == len(idx) or len(idx) < 2 * floor:
            return leaf
        found = best_split(idx)
        if found is None:
            return leaf
        mask = X[idx, found[0]] <= found[1]
        return {"feature": found[0], "threshold": found[1],
                "left": grow(idx[mask], depth + 1), "right": grow(idx[~mask], depth + 1)}

    # read through the JSON reader, so the oracle owes nothing to the layout
    return tree_from_json({"n_classes": n_classes, "n_features": X.shape[1],
                           "n_train": len(X), "feature_names": None,
                           "hyperparams": hp.to_json(), "tree": grow(np.arange(len(X)), 0)})


FRACTIONS = (0.01, 0.02, 0.03, 0.04, 0.05)


def cells(max_depth, fractions):
    """A split search's plan: one cell per fraction, all at ``max_depth``."""
    return [TreeHyperparams(max_depth=max_depth, min_leaf_fraction=float(f))
            for f in fractions]


@pytest.mark.parametrize("n_classes", [2, 4, 25])
def test_shared_search_fits_equal_private_and_per_node_sort_fits(n_classes):
    X, y, _ = tied_columns_data(n_classes + 40, 600, n_classes)
    rng = np.random.default_rng(n_classes)
    for depth in range(1, 10):
        search = SplitSearch(X, y, n_classes, cells(depth, rng.permutation(FRACTIONS)))
        for frac in rng.permutation(FRACTIONS):
            hp = TreeHyperparams(max_depth=depth, min_leaf_fraction=float(frac))
            shared = json_text(fit_tree(X, y, hp, n_classes=n_classes,
                                        search=search))
            assert shared == json_text(fit_tree(X, y, hp, n_classes=n_classes))
            assert shared == json_text(per_node_sort_fit(X, y, hp, n_classes))


def permuted_count_columns(seed, n_classes=25, per_class=40, n_features=30):
    """Binary columns whose left class counts are permutations of one vector.

    Every column's split has the same Gini in exact arithmetic; in floats
    the class-axis sum order decides which column scores lowest, so these
    ties pin that order.
    """
    rng = np.random.default_rng(seed)
    y = np.repeat(np.arange(n_classes), per_class)
    base = rng.integers(0, per_class + 1, size=n_classes)
    X = np.zeros((len(y), n_features))
    for j in range(n_features):
        for k, count in enumerate(rng.permutation(base)):
            X[rng.choice(np.flatnonzero(y == k), size=count, replace=False), j] = 1.0
    return X, y


def test_float_ties_between_equal_gini_splits_break_as_per_node_sort_fits():
    hp = TreeHyperparams(max_depth=2, min_leaf_fraction=0.01)
    for seed in range(40):
        X, y = permuted_count_columns(seed)
        assert (json_text(fit_tree(X, y, hp, n_classes=25))
                == json_text(per_node_sort_fit(X, y, hp, 25))), seed


def test_shared_search_runs_fewer_node_searches_than_private_fits():
    X, y, _ = tied_columns_data(9, 800, 4)
    shared = SplitSearch(X, y, 4, cells(9, FRACTIONS))
    private = 0
    for frac in FRACTIONS:
        hp = TreeHyperparams(max_depth=9, min_leaf_fraction=frac)
        fit_tree(X, y, hp, n_classes=4, search=shared)
        alone = SplitSearch(X, y, 4, (hp,))
        fit_tree(X, y, hp, n_classes=4, search=alone)
        private += alone.searches
    assert 0 < shared.searches < private


def searched_paths(tree, hp):
    """{path: split}, a path being the (feature, threshold, went left) steps
    from the root, for each node of ``tree`` at which growth under ``hp``
    asks for a split search; the split is None at a leaf."""
    floor = math.ceil(hp.min_leaf_fraction * tree.n_train)
    out = {}
    paths = {0: ()}  # node -> its path, for nodes still ahead
    for node, depth in enumerate(tree.node_depth):
        path, n = paths.pop(node), tree.n[node]
        step = (int(tree.feature[node]), float(tree.threshold[node]))
        if depth < hp.max_depth and tree.counts[node].max() < n and n >= 2 * floor:
            out[path] = None if step[0] < 0 else step
        if step[0] >= 0:
            paths[node + 1] = path + (step + (True,),)
            paths[tree.end[node + 1]] = path + (step + (False,),)
    assert not paths
    return out


@pytest.mark.parametrize("n_classes", [2, 4, 25])
def test_one_pass_grows_each_planned_cell_and_writes_its_leaf_ids(n_classes):
    X, y, _ = tied_columns_data(70 + n_classes, 900, n_classes)
    # a fraction may be planned at two depths, and cells in any order
    plan = [TreeHyperparams(max_depth=d, min_leaf_fraction=f)
            for d, f in ((9, 0.03), (2, 0.01), (9, 0.01), (6, 0.05), (7, 0.02),
                         (9, 0.04), (3, 0.02))]
    search = SplitSearch(X, y, n_classes, plan + plan[:2])
    assert search.plan == tuple(plan)
    trees = [fit_tree(X, y, hp, n_classes=n_classes, search=search) for hp in plan]
    splits = {}  # path -> the splits the cells chose there
    for hp, tree in zip(plan, trees):
        ids = search.leaf_ids(hp)
        assert ids.dtype == np.int32
        np.testing.assert_array_equal(ids, tree.leaf_index_batch(X))
        want = json_text(fit_tree(X, y, hp, n_classes=n_classes))
        assert json_text(tree) == want
        assert want == json_text(per_node_sort_fit(X, y, hp, n_classes))
        for path, split in searched_paths(tree, hp).items():
            splits.setdefault(path, set()).add(split)
    # one search per distinct path, and some shared node splits two ways
    assert search.searches == len(splits)
    assert any(len(chosen - {None}) > 1 for chosen in splits.values())
    # later requests hand out the trees of the one pass
    again = fit_tree(X, y, plan[0], n_classes=n_classes, search=search)
    assert again.nodes is trees[0].nodes and search.searches == len(splits)


def test_shared_search_refuses_other_rows_classes_and_fractions():
    X, y, _ = tied_columns_data(4, 300, 3)
    search = SplitSearch(X, y, 3, cells(4, (0.02, 0.04)))
    hp = TreeHyperparams(max_depth=4, min_leaf_fraction=0.02)
    other_X = X.copy()
    other_X[0, 0] += 1.0
    other_y = y.copy()
    other_y[0] = (y[0] + 1) % 3
    for bad_X, bad_y in ((other_X, y), (X, other_y), (X[:-1], y[:-1])):
        with pytest.raises(RuntimeError, match="different fitting set"):
            fit_tree(bad_X, bad_y, hp, n_classes=3, search=search)
    with pytest.raises(RuntimeError, match="built for 3 classes"):
        fit_tree(X, y, hp, n_classes=4, search=search)
    for unplanned in (TreeHyperparams(max_depth=4, min_leaf_fraction=0.03),
                      TreeHyperparams(max_depth=3, min_leaf_fraction=0.02)):
        with pytest.raises(RuntimeError, match=r"plans no tree at TreeHyperparams\("):
            fit_tree(X, y, unplanned, n_classes=3, search=search)
    # an equal copy of the fitting set is the same fitting set
    copy = fit_tree(X.copy(), list(y), hp, n_classes=3, search=search)
    assert json_text(copy) == json_text(fit_tree(X, y, hp, n_classes=3))


# ---------------------------------------------------------------------------
# column kinds and leaf maps
# ---------------------------------------------------------------------------

def mixed_kind_columns(seed, n, n_classes):
    """Constant, two-valued and continuous columns, interleaved.

    The two-valued columns hold their rarer value low or high, some track
    the label (so they win splits and become one-valued below them), one
    mixes -0.0 and 0.0 into one value, and one is nested under a continuous
    column, so it turns one-valued in the nodes a split on that column makes.
    """
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, size=n)
    noisy = np.where(rng.random(n) < 0.3, rng.integers(0, n_classes, size=n), y)
    cont = np.round(rng.normal(size=n) + 0.2 * y, 1)
    signed_zero = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    X = np.column_stack([
        np.full(n, 3.5),
        np.where(rng.random(n) < 0.3, -2.5, 7.0),
        cont,
        *[(noisy == k).astype(float) for k in range(min(n_classes, 5))],
        np.where(rng.random(n) < 0.8, -2.5, 7.0),
        signed_zero,
        np.where(rng.random(n) < 0.1, 1.0, signed_zero),
        np.where(cont > 0.4, np.where(noisy % 2 == 0, 4.0, -1.0), -1.0),
        np.round(rng.normal(size=n), 1),
        np.where(noisy == 1, 5.0, 2.0),
        rng.normal(size=n),
    ])
    return X, y


@pytest.mark.parametrize("n_classes", [2, 4, 25])
def test_column_kinds_fit_as_per_node_sort_fits(n_classes):
    for seed in range(3):
        X, y = mixed_kind_columns(10 * n_classes + seed, 500, n_classes)
        search = SplitSearch(X, y, n_classes, cells(7, FRACTIONS))
        for frac in FRACTIONS:
            hp = TreeHyperparams(max_depth=7, min_leaf_fraction=frac)
            shared = json_text(fit_tree(X, y, hp, n_classes=n_classes, search=search))
            assert shared == json_text(per_node_sort_fit(X, y, hp, n_classes)), (seed, frac)


@pytest.mark.parametrize("n_classes", [2, 4, 25])
def test_two_valued_cells_list_each_rows_rarer_values_in_column_order(n_classes):
    X, y = mixed_kind_columns(n_classes, 500, n_classes)
    search = SplitSearch(X, y, n_classes, cells(7, FRACTIONS))
    low, high = X.min(axis=0), X.max(axis=0)
    two = search._two
    rare = np.where(search._rare_low[:, 0], X[:, two] == low[two], X[:, two] == high[two])
    assert rare.any(axis=0).all() and (rare.sum(axis=1) > 1).any()
    # a stable argsort puts each row's rarer-value columns first, in order
    width = int(rare.sum(axis=1).max())
    cols = np.argsort(~rare, axis=1, kind="stable")[:, :width]
    want = np.where(np.take_along_axis(rare, cols, axis=1),
                    cols * n_classes + y[:, None], len(two) * n_classes)
    assert search._cells.dtype == want.dtype
    np.testing.assert_array_equal(search._cells, want)


@pytest.mark.parametrize("n_classes", [2, 4, 25])
def test_equal_splits_of_both_column_kinds_go_to_the_lower_feature(n_classes):
    """A two-valued column and a sorted column that split the rows alike tie
    bit for bit; the lower feature wins, whichever kind it is."""
    rng = np.random.default_rng(n_classes)
    y = rng.integers(0, n_classes, size=300)
    two = ((y == 1) | (rng.random(300) < 0.1)).astype(float)
    sorted_ = 10.0 * two + rng.integers(0, 3, size=300)  # 0..2 and 10..12
    hp = TreeHyperparams(max_depth=3, min_leaf_fraction=0.01)
    for X, want in ((np.column_stack([two, sorted_]), (0, 0.5)),
                    (np.column_stack([sorted_, two]), (0, 6.0))):
        tree = fit_tree(X, y, hp, n_classes=n_classes)
        assert (tree.feature[0], tree.threshold[0]) == want
        assert json_text(tree) == json_text(per_node_sort_fit(X, y, hp, n_classes))


# block budgets in (boundary, class) cells; at K=25, 50 and 175 cells are
# blocks of 2 and 7 boundaries
BLOCKS = (1, 2, 7, 50, 175, 10**9)


def test_block_size_changes_no_tree_under_float_ties(monkeypatch):
    """Equal-Gini columns, two-valued and (with a third value) sorted, so the
    tied boundaries fall in different blocks of a small block size."""
    hp = TreeHyperparams(max_depth=2, min_leaf_fraction=0.01)
    for seed in range(8):
        X, y = permuted_count_columns(seed)
        third = X.copy()
        third[X.argmax(axis=0), np.arange(X.shape[1])] = 2.0
        for data in (X, third):
            want = json_text(per_node_sort_fit(data, y, hp, 25))
            for block in BLOCKS:
                monkeypatch.setattr(tree_module, "_BLOCK", block)
                assert json_text(fit_tree(data, y, hp, n_classes=25)) == want, (seed, block)


@pytest.mark.parametrize("n_classes", [2, 4, 25])
def test_block_size_changes_no_tree_of_a_shared_search(n_classes, monkeypatch):
    X, y = mixed_kind_columns(100 + n_classes, 500, n_classes)
    hps = [TreeHyperparams(max_depth=7, min_leaf_fraction=f) for f in FRACTIONS]
    want = [json_text(per_node_sort_fit(X, y, hp, n_classes)) for hp in hps]
    for block in BLOCKS:
        monkeypatch.setattr(tree_module, "_BLOCK", block)
        search = SplitSearch(X, y, n_classes, hps)
        got = [json_text(fit_tree(X, y, hp, n_classes=n_classes, search=search))
               for hp in hps]
        assert got == want, block


def test_a_root_search_holds_its_boundaries_in_blocks():
    """At K=25 the root of 6,000 rows with 4 continuous columns has about
    24,000 boundaries, so boundaries x K arrays of class counts would take
    about 4.6 MiB each."""
    rng = np.random.default_rng(0)
    n, K = 6000, 25
    y = rng.integers(0, K, size=n)
    X = np.column_stack([rng.normal(size=(n, 4)) + 0.1 * y[:, None],
                         rng.integers(0, K, size=n)[:, None] == np.arange(K)])
    search = SplitSearch(X, y, K, cells(5, (0.01, 0.02)))
    tally = np.bincount(y, minlength=K)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        found = search._search(search._root, tally, tally.astype(np.float64))
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert found[0] is not None
    assert extra < 3 * 2**20, extra / 2**20


def test_a_two_class_root_search_holds_its_boundaries_in_blocks():
    """The K=2 twin: the root's 24,000 boundaries have their left counts from
    one running sum of the labels, and each 1-D array over them takes 0.18
    MiB. The search holds about ten such at once, 1.98 MiB in all; the
    two-class counts of every boundary in one block, with what scoring them
    takes, would add 0.9 MiB."""
    rng = np.random.default_rng(0)
    n, K = 6000, 2
    y = rng.integers(0, K, size=n)
    X = np.column_stack([rng.normal(size=(n, 4)) + 0.1 * y[:, None],
                         rng.integers(0, K, size=n)[:, None] == np.arange(K)])
    search = SplitSearch(X, y, K, cells(5, (0.01, 0.02)))
    assert len(search._sorted) == 4
    tally = np.bincount(y, minlength=K)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        found = search._search(search._root, tally, tally.astype(np.float64))
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert found[0] is not None
    assert extra < 2.5 * 2**20, extra / 2**20


@pytest.mark.parametrize("n_classes", [2, 4, 25])
def test_leaf_maps_route_and_tally_as_the_cut_trees(n_classes):
    X, y, _ = tied_columns_data(50 + n_classes, 700, n_classes)
    Xq = tied_columns_data(60 + n_classes, 300, n_classes)[0]
    rng = np.random.default_rng(n_classes)
    # magnitudes far apart, so a sum in another order would change its bits
    outcomes = rng.normal(size=len(y)) * 10.0 ** rng.integers(-8, 9, size=len(y))
    deep = fit_tree(X, y, TreeHyperparams(max_depth=9, min_leaf_fraction=0.01),
                    n_classes=n_classes)
    deep_ids, deep_q = deep.leaf_index_batch(X), deep.leaf_index_batch(Xq)
    for depth in range(1, 10):
        cut = truncate_tree(deep, depth)
        to_cut = leaf_map(deep, depth)
        ids = to_cut[deep_ids]
        np.testing.assert_array_equal(ids, cut.leaf_index_batch(X))
        np.testing.assert_array_equal(to_cut[deep_q], cut.leaf_index_batch(Xq))
        fast = attach_outcomes(cut, ids, y, outcomes)
        # the tallies add each cell's outcomes in row order, as np.add.at does
        sums = np.zeros((cut.n_leaves, n_classes))
        cnts = np.zeros((cut.n_leaves, n_classes), dtype=np.int64)
        np.add.at(sums, (ids, y), outcomes)
        np.add.at(cnts, (ids, y), 1)
        with np.errstate(invalid="ignore"):
            avg = np.where(cnts > 0, sums / np.maximum(cnts, 1), np.nan)
        assert fast.outcome_avg.tobytes() == avg.tobytes()
        assert fast.outcome_count.tobytes() == cnts.tobytes()
        assert fast.nodes is cut.nodes and cut.outcome_avg is None
    with pytest.raises(TreeError, match="699 leaf ids, 700 actions, 700 outcomes"):
        attach_outcomes(cut, ids[1:], y, outcomes)
