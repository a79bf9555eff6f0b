"""Random-forest tests: split mechanics, determinism, and learning power."""

import multiprocessing
import random

import numpy as np
import pytest
import scipy.sparse as sp
from helpers import auroc_by_pair_counting, nitro_smiles_dataset

from submol.errors import ConfigError, TrainingError
from submol.features import DatasetMatrix, build_matrix, height_features
from submol.forest import (
    ForestConfig,
    ForestModel,
    _best_split,
    _Bootstrap,
    _Columns,
    _pick_features,
    _split_scores,
    _tree_scores,
    train_forest,
)
from submol.graph import parse_smiles


def matrix_from(rows, labels):
    X = sp.csr_matrix(np.asarray(rows, dtype=float))
    ids = tuple(str(i) for i in range(len(rows)))
    return DatasetMatrix(X, np.asarray(labels), ids, None)


def best_split(X, y, criterion):
    """``_best_split`` over every row and column of a dense node."""
    X = np.asarray(X, dtype=float)
    n = len(y)
    X = sp.csr_matrix(X)
    node = _Bootstrap(
        X, _Columns.of(X), np.asarray(y), np.ones(n, dtype=np.int64), np.ones(n, dtype=bool)
    )
    return _best_split(node, np.arange(n), np.arange(X.shape[1]), criterion)


# --- dense reference ----------------------------------------------------------
# A dense splitter that sorts every sampled column of the node's rows, zeros
# included.  The sparse trainer must grow the very same trees.


def dense_best_split(X, y, criterion):
    k, m = X.shape
    if k < 2:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    Xs = np.take_along_axis(X, order, axis=0)
    ys = np.take_along_axis(np.broadcast_to(y[:, None], (k, m)), order, axis=0)
    prefix = np.cumsum(ys, axis=0, dtype=float)
    total_pos = prefix[-1]
    n_left = np.arange(1, k, dtype=float)[:, None]
    p_left = prefix[:-1]
    scores = _split_scores(n_left, p_left, k - n_left, total_pos - p_left, k, criterion)
    scores[Xs[1:] <= Xs[:-1]] = np.inf
    pos = np.argmin(scores, axis=0)
    col_scores = scores[pos, np.arange(m)]
    j = int(np.argmin(col_scores))
    if not np.isfinite(col_scores[j]):
        return None
    lo, hi = Xs[pos[j], j], Xs[pos[j] + 1, j]
    threshold = (lo + hi) / 2.0
    if not threshold < hi:
        threshold = lo
    return float(col_scores[j]), j, float(threshold)


def dense_split_node(X, y, idx, rng, cfg):
    n_features = X.shape[1]
    feats = _pick_features(rng, n_features, cfg)
    if feats is None:
        best = dense_best_split(X[idx], y[idx], cfg.criterion)
        return None if best is None else (best[1], best[2])
    best = dense_best_split(X[np.ix_(idx, feats)], y[idx], cfg.criterion)
    if best is not None:
        return int(feats[best[1]]), best[2]
    remaining = np.setdiff1d(np.arange(n_features), feats)
    scan = rng.permutation(remaining)
    step = len(feats)
    for start in range(0, len(scan), step):
        chunk = np.sort(scan[start : start + step])
        best = dense_best_split(X[np.ix_(idx, chunk)], y[idx], cfg.criterion)
        if best is not None:
            return int(chunk[best[1]]), best[2]
    return None


def dense_grow_tree(X, y, rng, cfg):
    nodes = []
    stack = [(np.arange(len(y)), -1, "")]
    while stack:
        idx, parent, side = stack.pop()
        node_id = len(nodes)
        if parent >= 0:
            nodes[parent][side] = node_id
        pos = int(y[idx].sum())
        split = None
        if 0 < pos < len(idx):
            split = dense_split_node(X, y, idx, rng, cfg)
        if split is None:
            nodes.append({"prob": pos / len(idx)})
            continue
        feature, threshold = split
        go_left = X[idx, feature] <= threshold
        nodes.append({"feature": feature, "threshold": threshold, "left": -1, "right": -1})
        stack.append((idx[~go_left], node_id, "right"))
        stack.append((idx[go_left], node_id, "left"))
    return nodes


def dense_forest_trees(data, cfg, seed):
    X = data.X.toarray() if sp.issparse(data.X) else np.asarray(data.X, dtype=float)
    y = (data.y == 1).astype(np.int64)
    trees = []
    for s in np.random.SeedSequence(seed).spawn(cfg.trees):
        rng = np.random.default_rng(s)
        bootstrap = rng.integers(0, len(y), size=len(y))
        nodes = dense_grow_tree(X[bootstrap], y[bootstrap], rng, cfg)
        trees.append({"nodes": nodes})
    return trees


def bootstrap_draws(seed, trees, n):
    """Each tree's bootstrap rows: the first draw of its own rng stream."""
    return [
        np.random.default_rng(s).integers(0, n, size=n)
        for s in np.random.SeedSequence(seed).spawn(trees)
    ]


def _random_case(case):
    """A seeded random matrix: counts, signed integers or rounded reals, at
    full, 5 % or 30 % density; every fourth stores explicit zeros."""
    rnd = np.random.default_rng(1000 + case)
    n = int(rnd.integers(8, 60))
    n_cols = int(rnd.integers(1, 30))
    if case % 3 == 0:
        X = rnd.integers(0, 6, size=(n, n_cols)).astype(float)
    elif case % 3 == 1:
        X = rnd.integers(-4, 5, size=(n, n_cols)).astype(float)
    else:
        X = rnd.normal(size=(n, n_cols)).round(int(rnd.integers(0, 3)))
    X[rnd.uniform(size=(n, n_cols)) >= (1.0, 0.05, 0.3)[case // 3 % 3]] = 0.0
    y = np.where(rnd.uniform(size=n) < 0.5, 1, -1)
    y[0], y[1] = 1, -1
    M = sp.csr_matrix(X)
    if case % 4 == 3:
        M.data[::3] = 0.0
        X = M.toarray()
    return M, X, y


@pytest.mark.parametrize("case", range(30))
def test_sparse_trees_match_the_dense_reference(case):
    M, X, y = _random_case(case)
    assert np.array_equal(M.toarray(), X)
    data = DatasetMatrix(M, y, tuple(str(i) for i in range(len(y))), None)
    cfg = ForestConfig(
        trees=4,
        criterion=("gini", "entropy")[case % 2],
        max_features=("sqrt", "all", 2)[(case + case // 3) % 3],
    )
    model = train_forest(data, cfg, seed=case)
    assert model.trees == dense_forest_trees(data, cfg, seed=case)
    # the same trees from a dense input, and the same scores from either
    dense_input = DatasetMatrix(X, y, data.ids, None)
    assert train_forest(dense_input, cfg, seed=case).trees == model.trees
    expected = np.mean(
        [_dense_tree_scores(tree["nodes"], X) for tree in model.trees], axis=0
    )
    assert np.array_equal(model.score_rows(M), expected)
    assert np.array_equal(model.score_rows(X), expected)


def _dense_tree_scores(nodes, X):
    out = []
    for row in X:
        node = nodes[0]
        while "prob" not in node:
            side = "left" if row[node["feature"]] <= node["threshold"] else "right"
            node = nodes[node[side]]
        out.append(node["prob"])
    return np.array(out)


def test_training_leaves_the_callers_matrix_alone():
    M, _, y = _random_case(3)
    before = (M.data.copy(), M.indices.copy(), M.indptr.copy())
    assert (M.data == 0).any()
    data = DatasetMatrix(M, y, tuple(str(i) for i in range(len(y))), None)
    train_forest(data, ForestConfig(trees=3), seed=1)
    after = (M.data, M.indices, M.indptr)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def _refuse(*args, **kwargs):
    raise AssertionError("the forest must not densify")


def test_forest_never_densifies(monkeypatch):
    M, X, y = _random_case(4)
    data = DatasetMatrix(M, y, tuple(str(i) for i in range(len(y))), None)
    expected = train_forest(data, ForestConfig(trees=4), seed=3)
    monkeypatch.setattr(DatasetMatrix, "dense", _refuse)
    for matrix_class in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        monkeypatch.setattr(matrix_class, "toarray", _refuse)
        monkeypatch.setattr(matrix_class, "todense", _refuse)
    model = train_forest(data, ForestConfig(trees=4), seed=3)
    assert model.trees == expected.trees
    model.score_rows(M)


# --- split selection --------------------------------------------------------


def test_best_split_finds_clean_boundary():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    score, col, threshold = best_split(X, y, "gini")
    assert col == 0
    assert threshold == 1.5
    assert score == pytest.approx(0.0, abs=1e-15)


def test_best_split_midpoint_thresholds():
    X = np.array([[0.0], [10.0]])
    y = np.array([0, 1])
    _, _, threshold = best_split(X, y, "gini")
    assert threshold == 5.0


def test_best_split_tie_goes_to_lowest_column():
    # both columns separate perfectly; the first must win
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1])
    _, col, _ = best_split(X, y, "gini")
    assert col == 0


def test_best_split_tie_goes_to_lowest_threshold():
    # y = [0, 1, 0]: splitting at 0.5 or 1.5 makes the same impurity;
    # the earlier (lower) threshold must be chosen.
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 1, 0])
    _, _, threshold = best_split(X, y, "gini")
    assert threshold == 0.5


def test_best_split_constant_column_is_unsplittable():
    X = np.array([[1.0], [1.0]])
    y = np.array([0, 1])
    assert best_split(X, y, "gini") is None
    assert best_split(np.array([[1.0]]), np.array([1]), "gini") is None


def test_threshold_between_adjacent_floats_separates_them():
    # (lo + hi) / 2 rounds up to hi here, which would send every row left.
    lo, hi = 1 + 2**-52, 1 + 2**-51
    X = np.array([[lo], [hi], [lo], [hi]])
    y = np.array([0, 1, 0, 1])
    _, _, threshold = best_split(X, y, "gini")
    assert lo <= threshold < hi


def test_best_split_entropy_agrees_on_clean_data():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    for criterion in ("gini", "entropy"):
        _, col, threshold = best_split(X, y, criterion)
        assert (col, threshold) == (0, 1.5)


# --- manual trees -----------------------------------------------------------


def test_tree_scores_route_rows_by_threshold():
    nodes = [
        {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
        {"prob": 0.25},
        {"prob": 0.75},
    ]
    X = np.array([[0.0], [0.5], [1.0]])
    # x <= threshold goes left
    assert _tree_scores(nodes, X).tolist() == [0.25, 0.25, 0.75]


def test_model_averages_trees():
    cfg = ForestConfig(trees=2)
    trees = [
        {"nodes": [{"prob": 1.0}]},
        {"nodes": [{"prob": 0.0}]},
    ]
    model = ForestModel(cfg, 0, 1, trees)
    assert model.score_rows(np.array([[3.0]]))[0] == 0.5
    assert model.score_rows(np.array([3.0]))[0] == 0.5


def _split(**changes):
    node = {"feature": 1, "threshold": 0.5, "left": 1, "right": 2}
    return [{**node, **changes}, {"prob": 0.0}, {"prob": 1.0}]


@pytest.mark.parametrize("nodes", [
    [],
    [{"prob": "high"}],
    [{"prob": True}],
    [{"prob": 1.0, "left": 1}],
    _split(feature=2),
    _split(feature=-1),
    _split(feature=1.0),
    _split(threshold=None),
    _split(left=0),
    _split(right=3),
    _split(right=False),
    [{"feature": 1, "threshold": 0.5, "left": 1}, {"prob": 0.0}],
], ids=["empty", "text-prob", "bool-prob", "leaf-extra-key", "feature-too-large",
        "feature-negative", "feature-float", "no-threshold", "child-is-self",
        "child-outside", "bool-child", "no-right"])
def test_model_rejects_trees_outside_the_schema(nodes):
    with pytest.raises(ValueError, match="tree 0"):
        ForestModel(ForestConfig(trees=1), 0, 2, [{"nodes": nodes}])
    ForestModel(ForestConfig(trees=1), 0, 2, [{"nodes": _split()}])  # valid


@pytest.mark.parametrize("tree", [
    [],
    {},
    {"nodes": [{"prob": 1.0}], "bootstrap": [0]},
], ids=["not-an-object", "no-nodes", "extra-key"])
def test_model_rejects_trees_with_other_keys(tree):
    with pytest.raises(ValueError, match="tree 0 must be an object whose one key is nodes"):
        ForestModel(ForestConfig(trees=1), 0, 2, [tree])


def test_score_rows_checks_width():
    model = ForestModel(ForestConfig(trees=1), 0, 2, [{"nodes": [{"prob": 1.0}]}])
    with pytest.raises(ValueError, match="features"):
        model.score_rows(np.ones((1, 3)))


# --- training behavior ------------------------------------------------------


def test_each_tree_memorizes_its_bootstrap():
    # Unique feature values let a fully grown tree isolate every row, so
    # every tree scores its own bootstrap sample perfectly.
    rnd = np.random.default_rng(42)
    X = rnd.uniform(size=(30, 5))
    y = np.where(rnd.uniform(size=30) < 0.5, 1, -1)
    if len(set(y.tolist())) == 1:  # pragma: no cover - seed guards this
        y[0] = -y[0]
    data = matrix_from(X, y)
    model = train_forest(data, ForestConfig(trees=10), seed=7)
    target = (data.y == 1).astype(float)
    for tree, rows in zip(model.trees, bootstrap_draws(7, 10, len(y))):
        scores = _tree_scores(tree["nodes"], X[rows])
        assert np.array_equal(scores, target[rows])


def test_forest_learns_xor():
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([-1, 1, 1, -1])
    X = np.tile(corners, (10, 1))
    y = np.tile(labels, 10)
    model = train_forest(matrix_from(X, y), ForestConfig(trees=30), seed=3)
    scores = model.score_rows(corners)
    pred = np.where(scores > model.threshold, 1, -1)
    assert np.array_equal(pred, labels)


def test_forest_separates_nitro_marker():
    rnd = random.Random(8)
    smiles, labels = nitro_smiles_dataset(rnd, n_each=25)
    vectors = [height_features(parse_smiles(s), [0, 1]) for s in smiles]
    train_rows = list(range(0, 30))  # rows alternate +1/-1, so both halves mix
    test_rows = list(range(30, 50))
    train = build_matrix(
        [vectors[i] for i in train_rows], [labels[i] for i in train_rows]
    )
    held = build_matrix(
        [vectors[i] for i in test_rows], [labels[i] for i in test_rows],
        vocab=train.vocab,
    )
    model = train_forest(train, ForestConfig(trees=30), seed=5)
    scores = model.score_rows(held.dense())
    auroc = auroc_by_pair_counting(scores.tolist(), held.y.tolist())
    assert auroc >= 0.95


def test_sampled_columns_fall_back_to_full_scan():
    # 50 columns, only column 37 informative: whether or not the sqrt-sample
    # catches it, every tree must end up splitting on column 37.
    X = np.zeros((20, 50))
    X[:, 37] = np.arange(20, dtype=float)
    y = np.array([-1] * 10 + [1] * 10)
    model = train_forest(matrix_from(X, y), ForestConfig(trees=8), seed=11)
    for tree, rows in zip(model.trees, bootstrap_draws(11, 8, len(y))):
        root = tree["nodes"][0]
        boot_labels = set(y[rows].tolist())
        if len(boot_labels) == 1:
            continue  # a one-class bootstrap grows a bare leaf
        assert root["feature"] == 37


def test_training_is_deterministic_and_thread_independent():
    rnd = np.random.default_rng(0)
    X = rnd.uniform(size=(40, 8))
    y = np.where(rnd.uniform(size=40) < 0.5, 1, -1)
    y[0], y[1] = 1, -1
    data = matrix_from(X, y)
    a = train_forest(data, ForestConfig(trees=12), seed=21, threads=1)
    b = train_forest(data, ForestConfig(trees=12), seed=21, threads=4)
    c = train_forest(data, ForestConfig(trees=12), seed=21, threads=1)
    assert a.trees == b.trees == c.trees
    different = train_forest(data, ForestConfig(trees=12), seed=22)
    assert a.trees != different.trees


def test_worker_processes_grow_the_same_trees_and_exit():
    M, _, y = _random_case(7)
    data = DatasetMatrix(M, y, tuple(str(i) for i in range(len(y))), None)
    inline = train_forest(data, ForestConfig(trees=5), seed=9, threads=1)
    forked = train_forest(data, ForestConfig(trees=5), seed=9, threads=2)
    assert forked.trees == inline.trees
    assert multiprocessing.active_children() == []


def test_training_rejects_degenerate_data():
    with pytest.raises(TrainingError, match="one class"):
        train_forest(matrix_from([[0.0], [1.0]], [1, 1]), ForestConfig(trees=2), 0)
    with pytest.raises(TrainingError, match="two rows"):
        train_forest(matrix_from([[0.0]], [1]), ForestConfig(trees=2), 0)


def test_forest_config_validation():
    with pytest.raises(ConfigError, match="tree"):
        ForestConfig(trees=0)
    with pytest.raises(ConfigError, match="criterion"):
        ForestConfig(criterion="mse")
    with pytest.raises(ConfigError, match="rule"):
        ForestConfig(max_features="log2")
    with pytest.raises(ConfigError, match="positive"):
        ForestConfig(max_features=0)
    assert ForestConfig(max_features="all").max_features == "all"
    assert ForestConfig(max_features=3).max_features == 3


def test_max_features_all_still_learns():
    X = np.array([[0.0], [1.0], [2.0], [3.0]] * 5)
    y = np.array([-1, -1, 1, 1] * 5)
    model = train_forest(
        matrix_from(X, y), ForestConfig(trees=5, max_features="all"), seed=1
    )
    scores = model.score_rows(np.array([[0.0], [3.0]]))
    assert scores[0] < 0.5 < scores[1]
