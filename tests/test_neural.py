"""Network tests: band partitions, exact gradients, training behavior.

The gradient tests compare analytic backpropagation against central finite
differences, coordinate by coordinate.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from helpers import net_loss, perceptron_separable

from submol.errors import ConfigError, TrainingError
from submol.features import DatasetMatrix, FeatureVocabulary
from submol.neural import (
    MLP_HIDDEN,
    PARTITIONED_HIDDEN,
    NetConfig,
    NetParams,
    _sigmoid,
    init_params,
    net_forward,
    net_gradients,
    partition_bounds,
    partition_mask,
    train_mlp,
    train_partitioned_net,
)


def matrix_from(rows, labels, vocab=None):
    X = sp.csr_matrix(np.asarray(rows, dtype=float))
    ids = tuple(str(i) for i in range(len(rows)))
    return DatasetMatrix(X, np.asarray(labels), ids, vocab)


def blob_data(rng, n_each=20, gap=2.5, width=2, vocab=None):
    pos = rng.normal(gap, 0.5, size=(n_each, width))
    neg = rng.normal(-gap, 0.5, size=(n_each, width))
    X = np.vstack([pos, neg])
    y = np.array([1] * n_each + [-1] * n_each)
    return matrix_from(X, y, vocab)


# --- partitions -------------------------------------------------------------


@pytest.mark.parametrize(
    "n,expected",
    [
        (3, (1, 1, 1)),
        (4, (2, 1, 1)),
        (5, (2, 2, 1)),
        (9, (3, 3, 3)),
        (10, (4, 3, 3)),
        (100, (34, 33, 33)),
    ],
)
def test_partition_bounds(n, expected):
    bounds = partition_bounds(n)
    assert bounds == expected
    assert sum(bounds) == n


def test_partition_mask_three_features_exact():
    assert partition_mask(3).tolist() == [
        [1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0],
    ]


def test_partition_mask_band_coverage():
    mask = partition_mask(10)  # bands 4, 3, 3
    assert mask.shape == (PARTITIONED_HIDDEN, 10)
    assert mask.sum(axis=1).tolist() == [4.0, 7.0, 6.0, 3.0]
    # every feature feeds exactly two hidden nodes
    assert mask.sum(axis=0).tolist() == [2.0] * 10


def test_partition_mask_needs_three_nonempty_bands():
    with pytest.raises(ConfigError, match="three nonempty bands"):
        partition_mask(2)
    partition_mask(3)  # the smallest legal width


# --- forward pass -----------------------------------------------------------


def test_sigmoid_matches_definition():
    for z in (-3.0, -0.5, 0.0, 0.5, 3.0):
        assert _sigmoid(np.array(z)) == pytest.approx(
            1.0 / (1.0 + math.exp(-z)), abs=1e-15
        )


def test_sigmoid_is_overflow_safe():
    with np.errstate(over="raise"):
        assert _sigmoid(np.array(1000.0)) == 1.0
        assert _sigmoid(np.array(-1000.0)) == 0.0


def test_forward_hand_computed():
    p = NetParams(
        W1=np.array([[0.5]]), b1=np.array([0.0]), W2=np.array([2.0]), b2=-1.0
    )
    a1, out = net_forward(p, np.array([2.0]))
    hidden = 1.0 / (1.0 + math.exp(-1.0))
    assert a1[0] == pytest.approx(hidden, abs=1e-15)
    assert out == pytest.approx(1.0 / (1.0 + math.exp(-(2.0 * hidden - 1.0))), abs=1e-15)


def test_loss_is_half_squared_error():
    p = NetParams(
        W1=np.zeros((1, 1)), b1=np.array([0.0]), W2=np.array([0.0]), b2=0.0
    )
    # all-zero weights emit exactly 0.5 regardless of input
    assert net_loss(p, np.array([3.0]), 1.0) == pytest.approx(0.5 * 0.25, abs=1e-15)
    assert net_loss(p, np.array([3.0]), 0.0) == pytest.approx(0.5 * 0.25, abs=1e-15)


def test_masked_forward_ignores_masked_inputs():
    mask = np.array([[1.0, 0.0]])
    p = NetParams(
        W1=np.array([[0.7, 123.0]]),  # the 123 must never matter
        b1=np.array([0.0]),
        W2=np.array([1.0]),
        b2=0.0,
        mask=mask,
    )
    _, out_a = net_forward(p, np.array([1.0, 0.0]))
    _, out_b = net_forward(p, np.array([1.0, 99.0]))
    assert out_a == out_b


# --- gradients --------------------------------------------------------------


def numeric_gradients(p, x, target, eps=1e-5):
    grads = {}
    for name in ("W1", "b1", "W2"):
        arr = getattr(p, name)
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + eps
            hi = net_loss(p, x, target)
            arr[idx] = keep - eps
            lo = net_loss(p, x, target)
            arr[idx] = keep
            g[idx] = (hi - lo) / (2 * eps)
        grads[name] = g
    keep = p.b2
    p.b2 = keep + eps
    hi = net_loss(p, x, target)
    p.b2 = keep - eps
    lo = net_loss(p, x, target)
    p.b2 = keep
    grads["b2"] = (hi - lo) / (2 * eps)
    return grads


def assert_gradients_match(analytic, numeric, tol=1e-4):
    for a, n in zip(analytic, (numeric["W1"], numeric["b1"], numeric["W2"], numeric["b2"])):
        a = np.asarray(a, dtype=float)
        n = np.asarray(n, dtype=float)
        rel = np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        assert rel.max() < tol


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = init_params(5, MLP_HIDDEN, rng)
        x = rng.normal(size=5)
        target = float(rng.integers(0, 2))
        assert_gradients_match(net_gradients(p, x, target), numeric_gradients(p, x, target))


def test_partitioned_gradients_match_and_masked_are_exactly_zero():
    rng = np.random.default_rng(23)
    mask = partition_mask(6)
    for _ in range(10):
        p = init_params(6, PARTITIONED_HIDDEN, rng, mask)
        x = rng.normal(size=6)
        target = float(rng.integers(0, 2))
        gW1, gb1, gW2, gb2 = net_gradients(p, x, target)
        assert np.all(gW1[mask == 0.0] == 0.0)
        assert_gradients_match((gW1, gb1, gW2, gb2), numeric_gradients(p, x, target))


def test_init_params_ranges_and_mask():
    rng = np.random.default_rng(2)
    mask = partition_mask(9)
    p = init_params(9, PARTITIONED_HIDDEN, rng, mask)
    assert np.all(np.abs(p.W1) <= 0.1)
    assert np.all(np.abs(p.b1) <= 0.1)
    assert np.all(np.abs(p.W2) <= 0.1)
    assert abs(p.b2) <= 0.1
    assert np.all(p.W1[mask == 0.0] == 0.0)


# --- training ---------------------------------------------------------------


def test_mlp_separates_blobs():
    rng = np.random.default_rng(0)
    data = blob_data(rng)
    assert perceptron_separable(data.dense(), data.y)  # sanity: truly separable
    model = train_mlp(data, NetConfig(), seed=1)
    scores = model.score_rows(data.dense())
    pred = np.where(scores > model.threshold, 1, -1)
    assert np.array_equal(pred, data.y)
    assert model.kind == "mlp"
    assert model.snapshots == []  # unvoted keeps no per-epoch snapshots


def test_partitioned_net_separates_blobs():
    rng = np.random.default_rng(1)
    vocab = FeatureVocabulary(("0|a", "0|b", "0|c"), (1.0, 2.0, 3.0))
    data = blob_data(rng, width=3, vocab=vocab)
    model = train_partitioned_net(data, NetConfig(), seed=2)
    scores = model.score_rows(data.dense())
    pred = np.where(scores > model.threshold, 1, -1)
    assert np.array_equal(pred, data.y)
    assert model.kind == "pnet"
    mask = partition_mask(3)
    assert np.all(model.params.W1[mask == 0.0] == 0.0)


def test_partitioned_net_requires_vocabulary():
    rng = np.random.default_rng(3)
    with pytest.raises(ConfigError, match="vocabulary"):
        train_partitioned_net(blob_data(rng, width=3), NetConfig(), seed=0)


def test_voted_score_is_mean_over_snapshots():
    rng = np.random.default_rng(4)
    data = blob_data(rng, n_each=10)
    cfg = NetConfig(voted=True, max_epochs=6)
    model = train_mlp(data, cfg, seed=5)
    assert len(model.snapshots) == model.epochs_run >= 1
    row = data.dense()[0]
    expected = float(np.mean([net_forward(p, row)[1] for p in model.snapshots]))
    assert model.score_rows(row[None, :])[0] == pytest.approx(expected, abs=1e-15)


def test_training_is_deterministic_in_seed():
    rng = np.random.default_rng(6)
    data = blob_data(rng, n_each=8)
    a = train_mlp(data, NetConfig(max_epochs=10), seed=9)
    b = train_mlp(data, NetConfig(max_epochs=10), seed=9)
    c = train_mlp(data, NetConfig(max_epochs=10), seed=10)
    assert np.array_equal(a.params.W1, b.params.W1)
    assert np.array_equal(a.params.W2, b.params.W2)
    assert a.params.b2 == b.params.b2
    assert not np.array_equal(a.params.W1, c.params.W1)


def test_divergence_is_reported():
    X = np.array([[np.nan, 1.0], [np.nan, 0.0]])
    data = DatasetMatrix(X, np.array([1, -1]), ("0", "1"), None)
    with pytest.raises(TrainingError, match="diverged at epoch 0"):
        train_mlp(data, NetConfig(), seed=0)


def test_training_needs_rows_for_both_splits():
    with pytest.raises(TrainingError, match="two rows"):
        train_mlp(matrix_from([[1.0]], [1]), NetConfig(), seed=0)
    with pytest.raises(TrainingError, match="no training rows"):
        train_mlp(
            matrix_from([[1.0], [0.0]], [1, -1]),
            NetConfig(validation_fraction=0.9),
            seed=0,
        )


def test_net_config_validation():
    with pytest.raises(ConfigError, match="learning rate"):
        NetConfig(learning_rate=0.0)
    with pytest.raises(ConfigError, match="momentum"):
        NetConfig(momentum=1.0)
    with pytest.raises(ConfigError, match="momentum"):
        NetConfig(momentum=-0.1)
    with pytest.raises(ConfigError, match="validation fraction"):
        NetConfig(validation_fraction=1.0)
    with pytest.raises(ConfigError, match="epoch"):
        NetConfig(max_epochs=0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_net_config_rejects_non_finite_learning_rate(value):
    with pytest.raises(ConfigError, match="learning rate must be positive and finite"):
        NetConfig(learning_rate=value)


def test_score_rows_checks_width_and_single_scores():
    rng = np.random.default_rng(8)
    data = blob_data(rng, n_each=6)
    model = train_mlp(data, NetConfig(max_epochs=3), seed=0)
    with pytest.raises(ValueError, match="features"):
        model.score_rows(np.ones((1, 5)))
    row = data.dense()[0]
    assert model.score_rows(row)[0] == model.score_rows(row[None, :])[0]
    assert 0.0 < model.score_rows(row)[0] < 1.0
