"""Random forest of fully grown CART-style trees, built from scratch.

Each tree trains on a bootstrap sample (n draws with replacement) and grows
until its leaves are pure or indivisible; no depth or size pruning.  Splits
consider a fresh random feature subset of ceil(sqrt(F)) columns, scoring
thresholds placed midway between consecutive distinct sorted values; exact
score ties go to the lowest column index, then the lowest threshold.  A
tree's leaf stores the positive fraction of its training rows, and the
forest scores a row by averaging the leaf values the row reaches.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigError, TrainingError
from .features import DatasetMatrix, scoring_rows


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 100
    criterion: str = "gini"
    max_features: str | int = "sqrt"

    def __post_init__(self):
        if self.trees < 1:
            raise ConfigError("a forest needs at least one tree")
        if self.criterion not in ("gini", "entropy"):
            raise ConfigError(f"unknown split criterion {self.criterion!r}")
        if isinstance(self.max_features, str):
            if self.max_features not in ("sqrt", "all"):
                raise ConfigError(f"unknown feature-sampling rule {self.max_features!r}")
        elif self.max_features < 1:
            raise ConfigError("max_features must be positive")


@dataclass
class ForestModel:
    config: ForestConfig
    seed: int
    n_features: int
    trees: list[dict[str, Any]] = field(default_factory=list)
    threshold: float = 0.5

    def score_rows(self, X) -> np.ndarray:
        X = scoring_rows(X, self.n_features)
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += _tree_scores(tree["nodes"], X)
        return total / len(self.trees)


def _xlog2x(v: np.ndarray) -> np.ndarray:
    out = np.zeros(v.shape)
    nz = v > 0
    out[nz] = v[nz] * np.log2(v[nz])
    return out


def _split_scores(n_left, p_left, n_right, p_right, k: int, criterion: str):
    """Total child impurity (lower is better), per candidate position."""
    q_left = n_left - p_left
    q_right = n_right - p_right
    if criterion == "gini":
        part_left = n_left - (p_left**2 + q_left**2) / n_left
        part_right = n_right - (p_right**2 + q_right**2) / n_right
    else:
        part_left = _xlog2x(n_left) - _xlog2x(p_left) - _xlog2x(q_left)
        part_right = _xlog2x(n_right) - _xlog2x(p_right) - _xlog2x(q_right)
    return (part_left + part_right) / k


def _best_split(
    X: np.ndarray, y: np.ndarray, criterion: str
) -> tuple[float, int, float] | None:
    """Best (score, column, threshold) over all columns of ``X``, or None."""
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
    threshold = (Xs[pos[j], j] + Xs[pos[j] + 1, j]) / 2.0
    return float(col_scores[j]), j, float(threshold)


def _pick_features(rng: np.random.Generator, n_features: int, cfg: ForestConfig):
    if cfg.max_features == "all":
        return None
    m = (
        math.ceil(math.sqrt(n_features))
        if cfg.max_features == "sqrt"
        else min(int(cfg.max_features), n_features)
    )
    if m >= n_features:
        return None
    return np.sort(rng.choice(n_features, size=m, replace=False))


def _split_node(
    X: np.ndarray, y: np.ndarray, idx: np.ndarray, rng: np.random.Generator,
    cfg: ForestConfig,
) -> tuple[int, float] | None:
    """Choose a split for the rows ``idx``; None when indivisible."""
    n_features = X.shape[1]
    feats = _pick_features(rng, n_features, cfg)
    if feats is None:
        best = _best_split(X[idx], y[idx], cfg.criterion)
        return None if best is None else (best[1], best[2])
    best = _best_split(X[np.ix_(idx, feats)], y[idx], cfg.criterion)
    if best is not None:
        return int(feats[best[1]]), best[2]
    # Every sampled column was constant here: scan the rest, in random
    # order, until a split turns up, so the tree can keep growing.
    remaining = np.setdiff1d(np.arange(n_features), feats)
    scan = rng.permutation(remaining)
    step = len(feats)
    for start in range(0, len(scan), step):
        chunk = np.sort(scan[start : start + step])
        best = _best_split(X[np.ix_(idx, chunk)], y[idx], cfg.criterion)
        if best is not None:
            return int(chunk[best[1]]), best[2]
    return None


def _grow_tree(
    X: np.ndarray, y: np.ndarray, rng: np.random.Generator, cfg: ForestConfig
) -> list[dict[str, Any]]:
    nodes: list[dict[str, Any]] = []
    stack: list[tuple[np.ndarray, int, str]] = [(np.arange(len(y)), -1, "")]
    while stack:
        idx, parent, side = stack.pop()
        node_id = len(nodes)
        if parent >= 0:
            nodes[parent][side] = node_id
        pos = int(y[idx].sum())
        split = None
        if 0 < pos < len(idx):
            split = _split_node(X, y, idx, rng, cfg)
        if split is None:
            nodes.append({"prob": pos / len(idx)})
            continue
        feature, threshold = split
        go_left = X[idx, feature] <= threshold
        nodes.append({"feature": feature, "threshold": threshold, "left": -1, "right": -1})
        stack.append((idx[~go_left], node_id, "right"))
        stack.append((idx[go_left], node_id, "left"))
    return nodes


def _tree_scores(nodes: list[dict[str, Any]], X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node_id, rows = stack.pop()
        if len(rows) == 0:
            continue
        node = nodes[node_id]
        if "prob" in node:
            out[rows] = node["prob"]
        else:
            go_left = X[rows, node["feature"]] <= node["threshold"]
            stack.append((node["left"], rows[go_left]))
            stack.append((node["right"], rows[~go_left]))
    return out


def train_forest(
    data: DatasetMatrix, cfg: ForestConfig, seed: int, threads: int = 1
) -> ForestModel:
    """Train a forest; a pure function of (data, cfg, seed).

    Every tree draws its own rng stream from the master seed, so results do
    not depend on ``threads`` or on the order trees finish.
    """
    X = data.dense()
    y = (data.y == 1).astype(np.int64)
    if len(y) < 2:
        raise TrainingError("training needs at least two rows")
    if y.min() == y.max():
        raise TrainingError("training rows are all one class")
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(cfg.trees)]

    def build(rng: np.random.Generator) -> dict[str, Any]:
        bootstrap = rng.integers(0, len(y), size=len(y))
        nodes = _grow_tree(X[bootstrap], y[bootstrap], rng, cfg)
        return {"nodes": nodes, "bootstrap": bootstrap.tolist()}

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(build, rngs))
    else:
        trees = [build(rng) for rng in rngs]
    return ForestModel(cfg, seed, X.shape[1], trees)
