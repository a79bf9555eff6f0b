"""Random forest of fully grown CART-style trees, built from scratch.

Each tree trains on a bootstrap sample (n draws with replacement) and grows
until its leaves are pure or indivisible; no depth or size pruning.  Splits
consider a fresh random feature subset of ceil(sqrt(F)) columns, scoring
thresholds placed midway between consecutive distinct values; exact score
ties go to the lowest column index, then the lowest threshold.  A tree's
leaf stores the positive fraction of its training rows, and the forest
scores a row by averaging the leaf values the row reaches.

Nothing densifies.  The training rows are kept once per forest, by row
(CSR) and by column (CSC); a tree keeps its bootstrap sample as a count per
training row, and a node as its distinct rows.  A node's split search finds
the stored entries of its sampled columns in the node's rows: a column that
stores few entries per node row is scanned, a longer one is searched row by
row, so the cost follows the node's rows, not the whole sample.  It sorts
them by value within each column; the rows a column does not store form one
block of zeros, sorted among the stored values by its value 0.  Scoring
reads one CSC column of a sparse input per internal node, and an array in
place.  With ``threads > 1`` the trees grow in forked worker processes
(:func:`submol.parallel.map_tasks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, TrainingError
from .features import DatasetMatrix
from .parallel import map_tasks


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

    def __post_init__(self):
        for t, tree in enumerate(self.trees):
            _check_tree(t, tree, self.n_features)

    def score_rows(self, X) -> np.ndarray:
        X = X.tocsc() if sp.issparse(X) else np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"rows have {X.shape[1]} features, the model expects {self.n_features}"
            )
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += _tree_scores(tree["nodes"], X)
        return total / len(self.trees)


def _by_row(X) -> sp.csr_matrix:
    """A CSR copy of a sparse matrix, duplicates summed, or of the nonzeros
    of an array of rows or of one row."""
    if sp.issparse(X):
        X = sp.csr_matrix(X, dtype=float, copy=True)
        X.sum_duplicates()  # also sorts each row's columns
        return X
    X = np.atleast_2d(np.asarray(X, dtype=float))
    nonzero = X != 0
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(nonzero, axis=1))))
    return sp.csr_matrix((X[nonzero], np.nonzero(nonzero)[1], indptr), X.shape)


class _Columns(NamedTuple):
    """CSC arrays of a matrix: each column's entries in ascending row order."""

    n_rows: int
    indptr: np.ndarray
    rows: np.ndarray
    keys: np.ndarray  # column * n_rows + row of each entry, then n_cols * n_rows
    values: np.ndarray

    @classmethod
    def of(cls, X: sp.csr_matrix) -> "_Columns":
        """``X`` must hold no duplicate entries."""
        Xc = X.tocsc()
        n, n_cols = X.shape
        keys = np.repeat(np.arange(n_cols, dtype=np.int64) * n, np.diff(Xc.indptr)) + Xc.indices
        # A last key past the end of the matrix: a lookup always lands on one.
        return cls(n, Xc.indptr, Xc.indices, np.append(keys, n_cols * n), Xc.data)

    def find(
        self, feats: np.ndarray, idx: np.ndarray, in_node: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The stored entries of columns ``feats`` in rows ``idx``: their
        positions, and for each the position of its column in ``feats``.

        ``feats`` and ``idx`` must be ascending, and ``in_node`` must mark
        the rows of ``idx`` among all rows.  A column that stores at most
        ``_SCAN`` times as many entries as ``idx`` holds rows is scanned,
        each entry's row checked in ``in_node``; in a longer one each row
        of ``idx`` is looked up.  So the cost follows the smaller of column
        and node.
        """
        starts = self.indptr[feats]
        lens = self.indptr[feats + 1] - starts
        scan = lens <= _SCAN * len(idx)
        take = _ranges(starts[scan], lens[scan])
        hit = in_node[self.rows[take]]
        take, owner = take[hit], np.repeat(np.flatnonzero(scan), lens[scan])[hit]
        if scan.all():
            return take, owner
        query = (feats[~scan, None] * self.n_rows + idx).ravel()
        at = np.searchsorted(self.keys, query)
        hit = self.keys[at] == query
        searched = np.repeat(np.flatnonzero(~scan), len(idx))[hit]
        return np.concatenate((take, at[hit])), np.concatenate((owner, searched))

    def column_in(self, j: int, idx: np.ndarray, in_node: np.ndarray) -> np.ndarray:
        """Column ``j`` in rows ``idx`` (as in :meth:`find`), as a dense vector."""
        s, e = self.indptr[j], self.indptr[j + 1]
        out = np.zeros(len(idx))
        if e - s <= _SCAN * len(idx):
            rows = self.rows[s:e]
            hit = in_node[rows]
            out[np.searchsorted(idx, rows[hit])] = self.values[s:e][hit]
        else:
            query = j * self.n_rows + idx
            at = np.searchsorted(self.keys, query)
            hit = self.keys[at] == query
            out[hit] = self.values[at[hit]]
        return out


#: A column is scanned, not searched row by row, up to this many entries
#: per node row: checking an entry's row costs a gather, looking a row up a
#: binary search over every stored entry.
_SCAN = 16


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``starts[i] : starts[i] + lens[i]``."""
    return np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)


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


class _Bootstrap(NamedTuple):
    """One tree's training rows, and the node it is splitting."""

    by_row: sp.csr_matrix  # the training matrix
    cols: _Columns  # and its columns
    y: np.ndarray  # labels, 0 or 1
    copies: np.ndarray  # how often the bootstrap drew each row
    in_node: np.ndarray  # marks the rows of the node being split


def _best_split(
    b: _Bootstrap, idx: np.ndarray, feats: np.ndarray, criterion: str
) -> tuple[float, int, float] | None:
    """Best (score, position in ``feats``, threshold) for the rows ``idx``.

    Candidates are the boundaries between consecutive distinct values of a
    column, in (column, value) order; the first of the lowest scores wins.
    None when every column of ``feats`` is constant on the node.
    """
    take, owner = b.cols.find(feats, idx, b.in_node)
    if not len(take):  # every column is all zeros here
        return None
    w = b.copies[idx]
    k, pos = int(w.sum()), int(w @ b.y[idx])
    m = len(feats)
    rows = b.cols.rows[take]
    weights = b.copies[rows]
    labels = weights * b.y[rows]
    # Each column that does not store all of the node's rows gets one more
    # entry: a block of value 0 that carries the rows it does not store.
    stored = np.bincount(owner, weights, m)
    zeros = np.flatnonzero(stored < k)
    values = np.concatenate((b.cols.values[take], np.zeros(len(zeros))))
    counts = np.concatenate((weights, k - stored[zeros]))
    positives = np.concatenate((labels, pos - np.bincount(owner, labels, m)[zeros]))
    owner = np.concatenate((owner, zeros))
    # By value, then stably by column: few columns make that a radix sort.
    order = np.argsort(values)
    order = order[np.argsort(owner[order].astype(np.min_scalar_type(m)), kind="stable")]
    values, counts, positives, owner = (
        values[order], counts[order], positives[order], owner[order]
    )
    # Candidates sit between neighbors of one column with distinct values.
    # Every column holds weight k, so the weight left of a candidate in
    # column c is that before it minus the c * k of earlier columns.
    cut = np.flatnonzero((owner[1:] == owner[:-1]) & (values[1:] != values[:-1]))
    if not len(cut):
        return None
    c = owner[cut]
    n_left = np.cumsum(counts)[cut] - c * k
    p_left = np.cumsum(positives)[cut] - c * pos
    scores = _split_scores(n_left, p_left, k - n_left, pos - p_left, k, criterion)
    best = int(np.argmin(scores))
    lo, hi = values[cut[best]], values[cut[best] + 1]
    threshold = (lo + hi) / 2.0
    if not threshold < hi:  # adjacent floats: the midpoint rounds up to hi
        threshold = lo
    return float(scores[best]), int(c[best]), float(threshold)


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
    b: _Bootstrap, idx: np.ndarray, rng: np.random.Generator, cfg: ForestConfig
) -> tuple[int, float] | None:
    """Choose a split for the rows ``idx``; None when indivisible."""
    n_features = b.by_row.shape[1]
    feats = _pick_features(rng, n_features, cfg)
    if feats is None:
        best = _best_split(b, idx, np.arange(n_features), cfg.criterion)
        return None if best is None else (best[1], best[2])
    best = _best_split(b, idx, feats, cfg.criterion)
    if best is not None:
        return int(feats[best[1]]), best[2]
    # Every sampled column was constant here: scan the rest, in random
    # order, until a split turns up, so the tree can keep growing.  A chunk
    # of columns that store nothing in the node's rows holds no split.
    remaining = np.ones(n_features, dtype=bool)
    remaining[feats] = False
    scan = rng.permutation(np.flatnonzero(remaining))
    indptr = b.by_row.indptr
    present = np.zeros(n_features, dtype=bool)
    present[b.by_row.indices[_ranges(indptr[idx], indptr[idx + 1] - indptr[idx])]] = True
    present = present[scan]
    step = len(feats)
    for start in range(0, len(scan), step):
        if not present[start : start + step].any():
            continue
        chunk = np.sort(scan[start : start + step])
        best = _best_split(b, idx, chunk, cfg.criterion)
        if best is not None:
            return int(chunk[best[1]]), best[2]
    return None


def _grow_tree(
    b: _Bootstrap, rng: np.random.Generator, cfg: ForestConfig
) -> list[dict[str, Any]]:
    """A node holds its distinct rows, ascending, each counted as often as
    the bootstrap drew it."""
    nodes: list[dict[str, Any]] = []
    stack: list[tuple[np.ndarray, int, str]] = [(np.flatnonzero(b.copies), -1, "")]
    while stack:
        idx, parent, side = stack.pop()
        node_id = len(nodes)
        if parent >= 0:
            nodes[parent][side] = node_id
        w = b.copies[idx]
        k, pos = int(w.sum()), int(w @ b.y[idx])
        split = None
        if 0 < pos < k:
            b.in_node[idx] = True
            split = _split_node(b, idx, rng, cfg)
        if split is None:
            b.in_node[idx] = False
            nodes.append({"prob": pos / k})
            continue
        feature, threshold = split
        go_left = b.cols.column_in(feature, idx, b.in_node) <= threshold
        b.in_node[idx] = False
        nodes.append({"feature": feature, "threshold": threshold, "left": -1, "right": -1})
        stack.append((idx[~go_left], node_id, "right"))
        stack.append((idx[go_left], node_id, "left"))
    return nodes


def _check_tree(t: int, tree: Any, n_features: int) -> None:
    """Raise ValueError unless tree ``t`` has the schema :func:`_build_tree`
    writes.

    A tree holds only its ``nodes``.  A leaf holds only a number ``prob``.
    An internal node holds only an integer ``feature`` in
    ``[0, n_features)``, a number ``threshold``, and ``left`` and ``right``
    children numbered after it and inside the tree, so every walk from the
    root ends at a leaf.
    """
    if not isinstance(tree, dict) or tree.keys() != {"nodes"}:
        raise ValueError(f"tree {t} must be an object whose one key is nodes")
    nodes = tree["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise ValueError(f"tree {t} has no node list")
    numbers = (int, float)  # a type test, so True and False are not numbers
    for i, node in enumerate(nodes):
        size = len(node) if type(node) is dict else 0
        if size == 1:
            valid = type(node.get("prob")) in numbers
        elif size == 4:
            feature, left, right = node.get("feature"), node.get("left"), node.get("right")
            valid = (
                type(feature) is int and 0 <= feature < n_features
                and type(node.get("threshold")) in numbers
                and type(left) is int and type(right) is int
                and i < left < len(nodes) and i < right < len(nodes)
            )
        else:
            valid = False
        if not valid:
            raise ValueError(f"tree {t} node {i} is neither a leaf nor a split: {node!r}")


def _tree_scores(nodes: list[dict[str, Any]], X) -> np.ndarray:
    """Scores of the rows of ``X``, a CSC matrix or an array."""
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
            go_left = _column(X, node["feature"], rows) <= node["threshold"]
            stack.append((node["left"], rows[go_left]))
            stack.append((node["right"], rows[~go_left]))
    return out


def _column(X, j: int, rows: np.ndarray) -> np.ndarray:
    """Column ``j`` of ``X`` in ``rows``: an array is read in place, a CSC
    matrix one column at a time."""
    if isinstance(X, np.ndarray):
        return X[rows, j]
    s, e = X.indptr[j], X.indptr[j + 1]
    return np.bincount(X.indices[s:e], X.data[s:e], X.shape[0])[rows]


def _build_tree(
    X: sp.csr_matrix, cols: _Columns, y: np.ndarray, rng: np.random.Generator,
    cfg: ForestConfig,
) -> dict[str, Any]:
    copies = np.bincount(rng.integers(0, len(y), size=len(y)), minlength=len(y))
    in_node = np.zeros(len(y), dtype=bool)
    return {"nodes": _grow_tree(_Bootstrap(X, cols, y, copies, in_node), rng, cfg)}


def train_forest(
    data: DatasetMatrix, cfg: ForestConfig, seed: int, threads: int = 1
) -> ForestModel:
    """Train a forest; a pure function of (data, cfg, seed).

    Every tree draws its own rng stream from the master seed, so results do
    not depend on ``threads`` or on the order trees finish.
    """
    y = (data.y == 1).astype(np.int64)
    if len(y) < 2:
        raise TrainingError("training needs at least two rows")
    if y.min() == y.max():
        raise TrainingError("training rows are all one class")
    X = _by_row(data.X)
    cols = _Columns.of(X)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(cfg.trees)]
    trees = map_tasks(_build_tree, [(X, cols, y, rng, cfg) for rng in rngs], threads)
    return ForestModel(cfg, seed, X.shape[1], trees)
