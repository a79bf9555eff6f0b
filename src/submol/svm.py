"""Soft-margin SVM trained by deterministic pairwise dual optimization.

The solver repeatedly picks a Karush-Kuhn-Tucker violator and a partner
(the one with the largest error gap, falling back to index-order scans) and
solves the two-variable subproblem analytically, until no violation above
the tolerance remains.  The positive class gets its own box bound j*C so
class imbalance can be penalized asymmetrically.  Scores are signed
distances to the separating hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingError
from .features import DatasetMatrix, scoring_rows

_STEP_EPS = 1e-12
#: Alphas this close (relatively) to a box bound count as sitting on it.
_BOUND_EPS = 1e-8


@dataclass(frozen=True)
class SvmConfig:
    kernel: str = "linear"  # linear | rbf | precomputed
    C: float = 1.0
    pos_cost_factor: float = 1.0  # j: positives are boxed at j*C
    gamma: float = 1.0
    tol: float = 1e-3
    max_steps: int = 100_000

    def __post_init__(self):
        if self.kernel not in ("linear", "rbf", "precomputed"):
            raise ConfigError(f"unknown SVM kernel {self.kernel!r}")
        if self.C <= 0 or self.pos_cost_factor <= 0:
            raise ConfigError("cost parameters must be positive")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        if self.tol <= 0:
            raise ConfigError("tolerance must be positive")


def _kernel_matrix(X: np.ndarray, cfg: SvmConfig) -> np.ndarray:
    if cfg.kernel == "linear":
        return X @ X.T
    if cfg.kernel == "rbf":
        sq = (X * X).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
        return np.exp(-cfg.gamma * np.maximum(d2, 0.0))
    if X.shape[0] != X.shape[1]:
        raise ConfigError("a precomputed kernel needs a square matrix")
    return np.asarray(X, dtype=float)


@dataclass
class SvmModel:
    config: SvmConfig
    seed: int
    n_features: int
    alphas: np.ndarray
    bias: float
    sv_rows: np.ndarray  # training rows (or empty for precomputed kernels)
    sv_labels: np.ndarray
    sv_indices: np.ndarray
    norm_w: float
    threshold: float = 0.0

    def _raw_scores(self, X: np.ndarray) -> np.ndarray:
        coef = self.alphas * self.sv_labels
        cfg = self.config
        if cfg.kernel == "linear":
            w = coef @ self.sv_rows
            return X @ w + self.bias
        if cfg.kernel == "rbf":
            sq_x = (X * X).sum(axis=1)
            sq_s = (self.sv_rows * self.sv_rows).sum(axis=1)
            d2 = sq_x[:, None] + sq_s[None, :] - 2.0 * (X @ self.sv_rows.T)
            return np.exp(-cfg.gamma * np.maximum(d2, 0.0)) @ coef + self.bias
        # precomputed: rows are similarity columns against the training set
        return X[:, self.sv_indices] @ coef + self.bias

    def score_rows(self, X) -> np.ndarray:
        precomputed = self.config.kernel == "precomputed"
        X = scoring_rows(X, None if precomputed else self.n_features)
        raw = self._raw_scores(X)
        return raw / self.norm_w if self.norm_w > 0 else raw


def train_svm(data: DatasetMatrix, cfg: SvmConfig, seed: int = 0) -> SvmModel:
    """Solve the dual to tolerance; a pure function of (data, cfg).

    ``seed`` is accepted for interface uniformity; the solver's choices are
    all deterministic, so it never draws from the stream.  Raises
    :class:`TrainingError` naming the residual if the step cap is reached
    (or the solver stalls) with a violation above tolerance.
    """
    X = data.dense()
    y = np.asarray(data.y, dtype=float)
    n = len(y)
    if n < 2:
        raise TrainingError("training needs at least two rows")
    if np.all(y == 1) or np.all(y == -1):
        raise TrainingError("training rows are all one class")
    K = _kernel_matrix(X, cfg)
    box = np.where(y > 0, cfg.pos_cost_factor * cfg.C, cfg.C)

    alphas = np.zeros(n)
    bias = 0.0
    errors = -y.copy()  # f(x_i) - y_i with all alphas zero
    steps = 0

    def take_step(i: int, j: int) -> bool:
        nonlocal bias, errors, steps
        if i == j:
            return False
        ai, aj = alphas[i], alphas[j]
        s = y[i] * y[j]
        if s > 0:
            low, high = max(0.0, ai + aj - box[i]), min(box[j], ai + aj)
        else:
            low, high = max(0.0, aj - ai), min(box[j], box[i] + aj - ai)
        if high - low < _STEP_EPS:
            return False
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 0:
            return False
        aj_new = float(np.clip(aj + y[j] * (errors[i] - errors[j]) / eta, low, high))
        # Snap to the segment ends so alphas reach their bounds exactly
        # instead of stopping a rounding error short of them.
        if aj_new - low < _BOUND_EPS * (high - low):
            aj_new = low
        elif high - aj_new < _BOUND_EPS * (high - low):
            aj_new = high
        if abs(aj_new - aj) < _STEP_EPS * (aj_new + aj + _STEP_EPS):
            return False
        ai_new = ai + s * (aj - aj_new)
        di, dj = ai_new - ai, aj_new - aj
        b1 = bias - errors[i] - y[i] * di * K[i, i] - y[j] * dj * K[i, j]
        b2 = bias - errors[j] - y[i] * di * K[i, j] - y[j] * dj * K[j, j]
        if 0.0 < ai_new < box[i]:
            new_bias = b1
        elif 0.0 < aj_new < box[j]:
            new_bias = b2
        else:
            new_bias = (b1 + b2) / 2.0
        errors += y[i] * di * K[:, i] + y[j] * dj * K[:, j] + (new_bias - bias)
        alphas[i], alphas[j] = ai_new, aj_new
        bias = new_bias
        steps += 1
        if steps > cfg.max_steps:
            raise TrainingError(
                "SVM did not converge within the step cap; "
                f"max KKT violation {_max_violation(alphas, errors, y, box):.3g}"
            )
        return True

    def examine(i: int) -> bool:
        r = errors[i] * y[i]
        below_box = alphas[i] < box[i] * (1.0 - _BOUND_EPS)
        above_zero = alphas[i] > box[i] * _BOUND_EPS
        if not ((r < -cfg.tol and below_box) or (r > cfg.tol and above_zero)):
            return False
        gaps = np.abs(errors[i] - errors)
        gaps[i] = -1.0
        if take_step(i, int(np.argmax(gaps))):
            return True
        non_bound = np.nonzero((alphas > 0) & (alphas < box))[0]
        for j in non_bound:
            if take_step(i, int(j)):
                return True
        for j in range(n):
            if take_step(i, j):
                return True
        return False

    examine_all = True
    while True:
        if examine_all:
            changed = sum(examine(i) for i in range(n))
            if changed == 0:
                break
            examine_all = False
        else:
            non_bound = np.nonzero((alphas > 0) & (alphas < box))[0]
            changed = sum(examine(int(i)) for i in non_bound)
            if changed == 0:
                examine_all = True

    residual = _max_violation(alphas, errors, y, box)
    if residual > cfg.tol:
        # The running bias is only an estimate; a final step that lands both
        # multipliers on bounds can leave it outside the KKT-feasible window
        # even though the multipliers themselves are optimal.  Re-derive the
        # minimax bias from the final state before declaring a stall.
        u = K @ (alphas * y)
        candidates = y - u
        can_grow = alphas < box * (1.0 - _BOUND_EPS)
        can_shrink = alphas > box * _BOUND_EPS
        lower = (can_grow & (y > 0)) | (can_shrink & (y < 0))
        upper = (can_shrink & (y > 0)) | (can_grow & (y < 0))
        lo = float(np.max(candidates[lower], initial=-np.inf))
        hi = float(np.min(candidates[upper], initial=np.inf))
        if np.isfinite(lo) and np.isfinite(hi):
            bias = (lo + hi) / 2.0
        elif np.isfinite(lo) or np.isfinite(hi):
            bias = lo if np.isfinite(lo) else hi
        errors = u + bias - y
        residual = _max_violation(alphas, errors, y, box)
    if residual > cfg.tol:
        raise TrainingError(
            f"SVM stalled with max KKT violation {residual:.3g} above "
            f"tolerance {cfg.tol:g}"
        )

    support = np.nonzero(alphas > box * _BOUND_EPS)[0]
    coef = alphas[support] * y[support]
    norm_w_sq = float(coef @ K[np.ix_(support, support)] @ coef)
    model = SvmModel(
        config=cfg,
        seed=seed,
        n_features=X.shape[1],
        alphas=alphas[support].copy(),
        bias=bias,
        sv_rows=(X[support].copy() if cfg.kernel != "precomputed" else np.empty((0, 0))),
        sv_labels=y[support].copy(),
        sv_indices=support.copy(),
        norm_w=float(np.sqrt(max(norm_w_sq, 0.0))),
    )
    return model


def _max_violation(alphas, errors, y, box) -> float:
    r = errors * y
    can_grow = alphas < box * (1.0 - _BOUND_EPS)
    can_shrink = alphas > box * _BOUND_EPS
    viol = np.maximum(np.where(can_grow, -r, 0.0), np.where(can_shrink, r, 0.0))
    return float(np.max(viol, initial=0.0))
