"""Soft-margin SVM trained by second-order working-set selection.

Each step takes the row whose y*alpha may grow with the smallest error
f(x) - y, pairs it with the row whose y*alpha may shrink that promises the
largest decrease of the dual objective (Fan, Chen & Lin, JMLR 2005), and
solves the two-variable subproblem analytically.  The error gap between the
two sets bounds the KKT violation, so the loop stops when it falls to twice
the tolerance and the bias is set once, at its midpoint.  The positive class
gets its own box bound j*C so class imbalance can be penalized
asymmetrically.  Scores are signed distances to the separating hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

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
    alphas: NDArray[np.float64]
    bias: float
    sv_rows: NDArray[np.float64]  # training rows (or empty for precomputed kernels)
    sv_labels: NDArray[np.float64]
    sv_indices: NDArray[np.intp]
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
    (or no pair can move) with a violation above tolerance.
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
    errors = -y.copy()  # f(x_i) - y_i without the bias, all alphas zero
    diag = np.diag(K)
    steps = 0
    while True:
        can_grow = alphas < box * (1.0 - _BOUND_EPS)
        can_shrink = alphas > box * _BOUND_EPS
        up = np.where(y > 0, can_grow, can_shrink)  # y*alpha may grow
        down = np.where(y > 0, can_shrink, can_grow)  # y*alpha may shrink
        i = int(np.argmin(np.where(up, errors, np.inf)))
        max_down = float(np.max(errors[down]))
        gap = max_down - errors[i]
        if gap <= 2.0 * cfg.tol:
            break
        if steps >= cfg.max_steps:
            raise TrainingError(
                "SVM did not converge within the step cap; "
                f"max KKT violation {gap / 2.0:.3g}"
            )
        # Second-order partner: the largest decrease of the dual objective.
        eta = diag[i] + diag - 2.0 * K[i]
        rise = errors - errors[i]
        ok = down & (rise > 0) & (eta > 0)
        gain = np.where(ok, rise * rise / np.where(ok, eta, 1.0), -np.inf)
        j = int(np.argmax(gain))
        ai, aj = alphas[i], alphas[j]
        s, aj_new = y[i] * y[j], aj
        if ok[j]:
            if s > 0:
                low, high = max(0.0, ai + aj - box[i]), min(box[j], ai + aj)
            else:
                low, high = max(0.0, aj - ai), min(box[j], box[i] + aj - ai)
            aj_new = float(np.clip(aj - y[j] * rise[j] / eta[j], low, high))
            # Snap to the segment ends so alphas reach their bounds exactly
            # instead of stopping a rounding error short of them.
            if aj_new - low < _BOUND_EPS * (high - low):
                aj_new = low
            elif high - aj_new < _BOUND_EPS * (high - low):
                aj_new = high
        if abs(aj_new - aj) < _STEP_EPS * (aj_new + aj + _STEP_EPS):
            raise TrainingError(
                f"SVM stalled with max KKT violation {gap / 2.0:.3g} above "
                f"tolerance {cfg.tol:g}"
            )
        ai_new = ai + s * (aj - aj_new)
        errors += y[i] * (ai_new - ai) * K[:, i] + y[j] * (aj_new - aj) * K[:, j]
        alphas[i], alphas[j] = ai_new, aj_new
        steps += 1
    bias = -(errors[i] + max_down) / 2.0

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

