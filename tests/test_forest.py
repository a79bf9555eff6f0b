"""Random-forest tests: split mechanics, determinism, and learning power."""

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
    _tree_scores,
    train_forest,
)
from submol.graph import parse_smiles


def matrix_from(rows, labels):
    X = sp.csr_matrix(np.asarray(rows, dtype=float))
    ids = tuple(str(i) for i in range(len(rows)))
    return DatasetMatrix(X, np.asarray(labels), ids, None)


# --- split selection --------------------------------------------------------


def test_best_split_finds_clean_boundary():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    score, col, threshold = _best_split(X, y, "gini")
    assert col == 0
    assert threshold == 1.5
    assert score == pytest.approx(0.0, abs=1e-15)


def test_best_split_midpoint_thresholds():
    X = np.array([[0.0], [10.0]])
    y = np.array([0, 1])
    _, _, threshold = _best_split(X, y, "gini")
    assert threshold == 5.0


def test_best_split_tie_goes_to_lowest_column():
    # both columns separate perfectly; the first must win
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1])
    _, col, _ = _best_split(X, y, "gini")
    assert col == 0


def test_best_split_tie_goes_to_lowest_threshold():
    # y = [0, 1, 0]: splitting at 0.5 or 1.5 makes the same impurity;
    # the earlier (lower) threshold must be chosen.
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 1, 0])
    _, _, threshold = _best_split(X, y, "gini")
    assert threshold == 0.5


def test_best_split_constant_column_is_unsplittable():
    X = np.array([[1.0], [1.0]])
    y = np.array([0, 1])
    assert _best_split(X, y, "gini") is None
    assert _best_split(np.array([[1.0]]), np.array([1]), "gini") is None


def test_best_split_entropy_agrees_on_clean_data():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    for criterion in ("gini", "entropy"):
        _, col, threshold = _best_split(X, y, criterion)
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
        {"nodes": [{"prob": 1.0}], "bootstrap": [0]},
        {"nodes": [{"prob": 0.0}], "bootstrap": [0]},
    ]
    model = ForestModel(cfg, 0, 1, trees)
    assert model.score_rows(np.array([[3.0]]))[0] == 0.5
    assert model.score_rows(np.array([3.0]))[0] == 0.5


def test_score_rows_checks_width():
    model = ForestModel(ForestConfig(trees=1), 0, 2, [{"nodes": [{"prob": 1.0}], "bootstrap": []}])
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
    for tree in model.trees:
        rows = np.asarray(tree["bootstrap"])
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
    for tree in model.trees:
        root = tree["nodes"][0]
        boot_labels = {y[i] for i in tree["bootstrap"]}
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
