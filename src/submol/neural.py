"""Small sigmoid networks trained by online backpropagation.

Two variants share the machinery: a fully connected net with three hidden
nodes, and a four-hidden-node net whose input connections are masked so each
hidden node sees only a band of the mass-ordered feature columns (the three
consecutive thirds of the vocabulary, with the middle two nodes straddling
adjacent bands).  Training is per-sample gradient descent with momentum, a
learning rate annealed as rate/(1+epoch), and early stopping as soon as the
held-out validation error fails to improve after a full epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, TrainingError
from .features import DatasetMatrix, scoring_rows

#: Initial weights are drawn uniformly from this symmetric interval.
INIT_SCALE = 0.1

MLP_HIDDEN = 3
PARTITIONED_HIDDEN = 4


@dataclass(frozen=True)
class NetConfig:
    learning_rate: float = 0.5
    momentum: float = 0.9
    validation_fraction: float = 0.2
    max_epochs: int = 200
    voted: bool = False

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:  # NaN fails this too
            raise ConfigError("learning rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation fraction must lie in (0, 1)")
        if self.max_epochs < 1:
            raise ConfigError("need at least one training epoch")


def _sigmoid(z):
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                    np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))


@dataclass
class NetParams:
    """Weights of one input->hidden->output sigmoid network.

    ``mask`` (hidden x features, or None) marks allowed input connections;
    masked-out weights stay exactly zero and report exactly zero gradients.
    """

    W1: NDArray[np.float64]
    b1: NDArray[np.float64]
    W2: NDArray[np.float64]
    b2: float
    mask: NDArray[np.float64] | None = None

    def copy(self) -> "NetParams":
        return NetParams(
            self.W1.copy(), self.b1.copy(), self.W2.copy(), self.b2,
            None if self.mask is None else self.mask,
        )


def init_params(
    n_features: int, hidden: int, rng: np.random.Generator,
    mask: np.ndarray | None = None,
) -> NetParams:
    W1 = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(hidden, n_features))
    b1 = rng.uniform(-INIT_SCALE, INIT_SCALE, size=hidden)
    W2 = rng.uniform(-INIT_SCALE, INIT_SCALE, size=hidden)
    b2 = float(rng.uniform(-INIT_SCALE, INIT_SCALE))
    if mask is not None:
        W1 = W1 * mask
    return NetParams(W1, b1, W2, b2, mask)


def net_forward(p: NetParams, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Hidden activations and output for one input row."""
    W1 = p.W1 if p.mask is None else p.W1 * p.mask
    a1 = _sigmoid(W1 @ x + p.b1)
    out = _sigmoid(float(p.W2 @ a1) + p.b2)
    return a1, float(out)


def net_gradients(
    p: NetParams, x: np.ndarray, target: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Exact loss gradients (dW1, db1, dW2, db2) for one sample."""
    a1, out = net_forward(p, x)
    d2 = (out - target) * out * (1.0 - out)
    gW2 = d2 * a1
    gb2 = d2
    d1 = d2 * p.W2 * a1 * (1.0 - a1)
    gW1 = np.outer(d1, x)
    if p.mask is not None:
        gW1 = gW1 * p.mask
    return gW1, d1.copy(), gW2, gb2


@dataclass
class NetModel:
    kind: str
    config: NetConfig
    seed: int
    n_features: int
    params: NetParams
    snapshots: list[NetParams] = field(default_factory=list)
    epochs_run: int = 0
    threshold: float = 0.5

    def score_rows(self, X) -> np.ndarray:
        X = scoring_rows(X, self.n_features)
        sources = self.snapshots if self.config.voted else [self.params]
        out = np.zeros(X.shape[0])
        for p in sources:
            out += np.array([net_forward(p, row)[1] for row in X])
        return out / len(sources)


def partition_bounds(n_features: int) -> tuple[int, int, int]:
    """Sizes of the three consecutive mass-ordered column bands."""
    p1 = math.ceil(n_features / 3)
    p2 = math.ceil((n_features - p1) / 2)
    return p1, p2, n_features - p1 - p2


def partition_mask(n_features: int) -> np.ndarray:
    """Connectivity of the four hidden nodes over the three bands.

    Node 1 sees band 1, node 2 bands 1-2, node 3 bands 2-3, node 4 band 3.
    """
    p1, p2, p3 = partition_bounds(n_features)
    if min(p1, p2, p3) < 1:
        raise ConfigError(
            f"{n_features} features cannot be split into three nonempty bands"
        )
    mask = np.zeros((PARTITIONED_HIDDEN, n_features))
    mask[0, 0:p1] = 1.0
    mask[1, 0 : p1 + p2] = 1.0
    mask[2, p1:] = 1.0
    mask[3, p1 + p2 :] = 1.0
    return mask


def _train_net(
    data: DatasetMatrix, cfg: NetConfig, seed: int, kind: str,
    hidden: int, mask: np.ndarray | None,
) -> NetModel:
    X = data.dense()
    y01 = (data.y == 1).astype(float)
    n = len(y01)
    if n < 2:
        raise TrainingError("training needs at least two rows")
    rng = np.random.default_rng(seed)
    params = init_params(X.shape[1], hidden, rng, mask)
    perm = rng.permutation(n)
    val_size = max(1, math.ceil(cfg.validation_fraction * n))
    if val_size >= n:
        raise TrainingError("validation split leaves no training rows")
    val_idx, train_idx = perm[:val_size], perm[val_size:]

    deltas = [np.zeros_like(params.W1), np.zeros_like(params.b1),
              np.zeros_like(params.W2), 0.0]
    best_err = math.inf
    best_params = params.copy()
    snapshots: list[NetParams] = []
    epochs_run = 0
    for epoch in range(cfg.max_epochs):
        rate = cfg.learning_rate / (1.0 + epoch)
        for i in rng.permutation(train_idx):
            grads = net_gradients(params, X[i], y01[i])
            deltas[0] = -rate * grads[0] + cfg.momentum * deltas[0]
            deltas[1] = -rate * grads[1] + cfg.momentum * deltas[1]
            deltas[2] = -rate * grads[2] + cfg.momentum * deltas[2]
            deltas[3] = -rate * grads[3] + cfg.momentum * deltas[3]
            params.W1 += deltas[0]
            params.b1 += deltas[1]
            params.W2 += deltas[2]
            params.b2 += deltas[3]
            if not (np.isfinite(params.W1).all() and np.isfinite(params.W2).all()
                    and np.isfinite(params.b1).all() and math.isfinite(params.b2)):
                raise TrainingError(f"training diverged at epoch {epoch}")
        epochs_run = epoch + 1
        val_err = float(
            np.mean([(net_forward(params, X[i])[1] - y01[i]) ** 2 for i in val_idx])
        )
        snapshots.append(params.copy())
        if val_err < best_err:
            best_err = val_err
            best_params = params.copy()
        else:
            break
    final = params.copy() if cfg.voted else best_params
    return NetModel(kind, cfg, seed, X.shape[1], final,
                    snapshots if cfg.voted else [], epochs_run)


def train_mlp(data: DatasetMatrix, cfg: NetConfig, seed: int) -> NetModel:
    """Fully connected net: features -> 3 hidden sigmoids -> 1 output."""
    return _train_net(data, cfg, seed, "mlp", MLP_HIDDEN, None)


def train_partitioned_net(data: DatasetMatrix, cfg: NetConfig, seed: int) -> NetModel:
    """Mask-connected net: features -> 4 band-limited hidden -> 1 output.

    Requires a feature vocabulary on the data so the column order is the
    ascending-mass order the bands assume.
    """
    if data.vocab is None:
        raise ConfigError(
            "the partitioned network needs a mass-ordered feature vocabulary"
        )
    mask = partition_mask(data.X.shape[1])
    return _train_net(data, cfg, seed, "pnet", PARTITIONED_HIDDEN, mask)
