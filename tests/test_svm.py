"""SVM tests: exact two-point dual solution, box bounds, kernels, optimality
against an independent QP solver, errors.

The two-point case has a closed-form dual optimum (alpha = 0.5 for both
points, zero bias, unit weight norm) that the solver must hit exactly.
"""

import os

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize

from submol.errors import ConfigError, TrainingError
from submol.features import DatasetMatrix, build_matrix
from submol.ingest import featurize_pairs, load_pairs
from submol.svm import SvmConfig, SvmModel, _kernel_matrix, _solve_dual, train_svm

DATA = os.path.join(os.path.dirname(__file__), "data")


def mat(rows, labels):
    X = sp.csr_matrix(np.asarray(rows, dtype=float))
    ids = tuple(str(i) for i in range(len(rows)))
    return DatasetMatrix(X, np.asarray(labels), ids, None)


def blobs(rng, n_each=12, gap=2.0):
    pos = rng.normal(gap, 0.6, size=(n_each, 2))
    neg = rng.normal(-gap, 0.6, size=(n_each, 2))
    X = np.vstack([pos, neg])
    y = np.array([1] * n_each + [-1] * n_each)
    return mat(X, y)


def full_alphas(model, X, y):
    """Each training row's alpha, from the solver that ``train_svm`` wraps."""
    return _solve_dual(_kernel_matrix(X, model.config), y.astype(float), model.config)[0]


def kkt_residual(model, X, y):
    """Largest KKT violation of the returned model over its training rows."""
    cfg = model.config
    box = np.where(y > 0, cfg.pos_cost_factor, 1.0) * cfg.C
    alphas = full_alphas(model, X, y)
    margin = y * model.score_rows(X) * model.norm_w - 1.0
    viol = np.maximum(
        np.where(alphas < box * (1.0 - 1e-8), -margin, 0.0),
        np.where(alphas > box * 1e-8, margin, 0.0),
    )
    return float(viol.max())


# --- exact closed-form case -------------------------------------------------


def test_two_point_problem_solved_exactly():
    model = train_svm(mat([[1.0], [-1.0]], [1, -1]), SvmConfig())
    assert model.alphas.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    assert model.norm_w == pytest.approx(1.0, abs=1e-12)
    # a linear model keeps only w = sum of alpha * y * x over support rows
    assert model.sv_rows is None
    assert model.w.tolist() == pytest.approx([1.0], abs=1e-12)
    # scores are signed distances: the midpoint is on the plane, the
    # training points sit one unit away on either side
    assert model.score_rows(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
    assert model.score_rows(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-12)
    assert model.score_rows(np.array([-1.0]))[0] == pytest.approx(-1.0, abs=1e-12)


def test_scaled_two_point_margin():
    # points at +-2: the plane is still x=0, the distance doubles
    model = train_svm(mat([[2.0], [-2.0]], [1, -1]), SvmConfig())
    assert model.score_rows(np.array([2.0]))[0] == pytest.approx(2.0, abs=1e-9)
    assert model.score_rows(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-9)


def test_separable_blobs_margin_property():
    data = blobs(np.random.default_rng(0))
    model = train_svm(data, SvmConfig(C=10.0))
    X, y = data.dense(), data.y
    alphas = full_alphas(model, X, y)
    # the stored alphas are the support rows' ones, in training order
    assert np.array_equal(model.alphas, alphas[alphas > 0])
    assert np.array_equal(model.sv_labels, y[alphas > 0])
    # non-bound support vectors sit exactly on the functional margin
    box = np.where(y > 0, model.config.pos_cost_factor, 1.0) * model.config.C
    raw = model.score_rows(X) * model.norm_w
    non_bound = (alphas > 1e-6) & (alphas < box - 1e-6)
    assert non_bound.any()
    assert np.allclose((raw * y)[non_bound], 1.0, atol=5e-3)


# --- per-class cost ---------------------------------------------------------


def test_positive_cost_factor_raises_positive_box():
    # interleaved 1-D points cannot be separated; with the positive box at
    # 5C the optimizer pushes a positive alpha beyond C while negatives cap
    # at C exactly
    data = mat([[0.0], [0.4], [0.2], [0.6]], [1, 1, -1, -1])
    model = train_svm(data, SvmConfig(C=1.0, pos_cost_factor=5.0))
    pos_alphas = model.alphas[model.sv_labels == 1]
    neg_alphas = model.alphas[model.sv_labels == -1]
    assert pos_alphas.max() > 1.0 + 1e-9
    assert pos_alphas.max() <= 5.0 + 1e-9
    assert neg_alphas.max() <= 1.0 + 1e-9


def test_equal_cost_keeps_all_alphas_within_c():
    data = mat([[0.0], [0.4], [0.2], [0.6]], [1, 1, -1, -1])
    model = train_svm(data, SvmConfig(C=1.0))
    assert model.alphas.max() <= 1.0 + 1e-9


# --- kernels ----------------------------------------------------------------


def xor_data():
    corners = [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]
    labels = [-1, 1, 1, -1]
    return mat(corners, labels), np.asarray(corners), np.asarray(labels)


def test_rbf_solves_xor_linear_cannot():
    data, corners, labels = xor_data()
    rbf = train_svm(data, SvmConfig(kernel="rbf", gamma=1.0, C=10.0))
    pred = np.where(rbf.score_rows(corners) > rbf.threshold, 1, -1)
    assert np.array_equal(pred, labels)
    linear = train_svm(data, SvmConfig(kernel="linear", C=1.0))
    pred = np.where(linear.score_rows(corners) > linear.threshold, 1, -1)
    assert (pred == labels).mean() <= 0.75


def test_rbf_kernel_value_definition():
    # K(x, z) = exp(-gamma * |x - z|^2) through the scoring path: a model
    # with one support vector scores exactly coef * K(x, sv) + bias
    cfg = SvmConfig(kernel="rbf", gamma=0.5)
    model = SvmModel(
        config=cfg, seed=0, n_features=2,
        alphas=np.array([1.0]), bias=0.25,
        sv_rows=np.array([[1.0, 0.0]]), sv_labels=np.array([1.0]), norm_w=1.0,
    )
    x = np.array([[0.0, 2.0]])
    expected = np.exp(-0.5 * 5.0) + 0.25
    assert model.score_rows(x)[0] == pytest.approx(expected, abs=1e-12)


# --- optimality against an independent solver -------------------------------


def oracle_problem(seed):
    rng = np.random.default_rng(seed)
    n = 12 + 2 * seed
    y = np.where(np.arange(n) % 3 == 0, 1, -1)
    X = rng.normal(size=(n, 3)) + 0.8 * y[:, None]  # overlapping classes
    cfg = SvmConfig(
        kernel=("linear", "rbf")[seed % 2],
        C=(0.5, 2.0, 8.0)[seed % 3],
        pos_cost_factor=(1.0, 2.0)[(seed // 2) % 2],
        gamma=0.5,
        tol=1e-6,
    )
    return X, y, cfg


def reference_dual(K, y, box):
    """Maximize the SVM dual with SLSQP, a general constrained solver."""
    Q = K * np.outer(y, y)
    result = minimize(
        lambda a: 0.5 * a @ Q @ a - a.sum(),
        np.zeros(len(y)),
        jac=lambda a: Q @ a - 1.0,
        method="SLSQP",
        bounds=list(zip(np.zeros(len(y)), box)),
        constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    assert result.success, result.message
    return -result.fun


@pytest.mark.parametrize("seed", range(10))
def test_dual_optimum_matches_independent_solver(seed):
    X, y, cfg = oracle_problem(seed)
    model = train_svm(mat(X, y), cfg)
    if cfg.kernel == "linear":
        K = X @ X.T
    else:
        K = np.exp(-cfg.gamma * ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    box = np.where(y > 0, cfg.pos_cost_factor * cfg.C, cfg.C)
    alphas = full_alphas(model, X, y)
    coef = alphas * y
    dual = alphas.sum() - 0.5 * coef @ K @ coef
    assert dual == pytest.approx(reference_dual(K, y.astype(float), box), rel=1e-8)
    # the residual is recomputed from scratch, so allow for rounding only
    assert kkt_residual(model, X, y) <= cfg.tol + 1e-12


def interaction_features():
    path = os.path.join(DATA, "interaction_200.csv")
    with open(path, encoding="utf-8", newline="") as handle:
        vectors, labels, ids = featurize_pairs(load_pairs(handle), [1])
    return build_matrix(vectors, labels, ids=ids)


def test_default_config_converges_on_raw_count_features():
    # wide integer count rows with large, uneven norms: the defaults must
    # still reach the tolerance rather than hit the step cap
    data = interaction_features()
    assert data.X.shape == (200, 2225)
    model = train_svm(data, SvmConfig())
    y = np.asarray(data.y, dtype=float)
    assert kkt_residual(model, data.dense(), y) <= model.config.tol + 1e-9


# --- failure modes ----------------------------------------------------------


def test_identical_opposite_points_stall():
    with pytest.raises(TrainingError, match="KKT"):
        train_svm(mat([[0.0], [0.0]], [1, -1]), SvmConfig())


def test_step_cap_reports_kkt_violation():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 2))
    y = np.where(rng.uniform(size=10) < 0.5, 1, -1)
    y[0], y[1] = 1, -1
    with pytest.raises(TrainingError, match="step cap.*KKT"):
        train_svm(mat(X, y), SvmConfig(max_steps=1))


def test_degenerate_training_data():
    with pytest.raises(TrainingError, match="two rows"):
        train_svm(mat([[1.0]], [1]), SvmConfig())
    with pytest.raises(TrainingError, match="one class"):
        train_svm(mat([[1.0], [2.0]], [1, 1]), SvmConfig())


def test_config_validation():
    with pytest.raises(ConfigError, match="kernel"):
        SvmConfig(kernel="poly")
    with pytest.raises(ConfigError, match="kernel"):
        SvmConfig(kernel="precomputed")
    with pytest.raises(ConfigError, match="cost"):
        SvmConfig(C=0.0)
    with pytest.raises(ConfigError, match="cost"):
        SvmConfig(pos_cost_factor=-1.0)
    with pytest.raises(ConfigError, match="gamma"):
        SvmConfig(kernel="rbf", gamma=0.0)
    with pytest.raises(ConfigError, match="tolerance"):
        SvmConfig(tol=0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field,named", [
    ("C", "cost"), ("pos_cost_factor", "cost"), ("gamma", "gamma"), ("tol", "tolerance"),
])
def test_config_rejects_non_finite_values(field, named, value):
    with pytest.raises(ConfigError, match=f"{named} .*positive and finite"):
        SvmConfig(kernel="rbf", **{field: value})


def test_score_rows_checks_width():
    model = train_svm(mat([[1.0], [-1.0]], [1, -1]), SvmConfig())
    with pytest.raises(ValueError, match="features"):
        model.score_rows(np.ones((1, 3)))


# --- determinism ------------------------------------------------------------


def test_training_ignores_seed_and_repeats_exactly():
    data = blobs(np.random.default_rng(2))
    a = train_svm(data, SvmConfig(C=2.0), seed=0)
    b = train_svm(data, SvmConfig(C=2.0), seed=12345)
    assert np.array_equal(a.alphas, b.alphas)
    assert a.bias == b.bias
    assert a.norm_w == b.norm_w
    assert np.array_equal(a.w, b.w)


def test_default_threshold_is_zero():
    model = train_svm(mat([[1.0], [-1.0]], [1, -1]), SvmConfig())
    assert model.threshold == 0.0
