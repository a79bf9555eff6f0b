"""Similarity kernels over feature rows and Gram-matrix assembly.

Two kernels: plain cosine over whole rows, and a blockwise variant that
normalizes within each (height, distance) feature block separately and
averages the per-block cosines, so abundant blocks cannot drown out sparse
ones.  Empty rows (or empty blocks) contribute zero similarity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np
import scipy.sparse as sp

from .features import DatasetMatrix, scoring_rows


class ZeroRowWarning(UserWarning):
    """A row with no features took part in a normalized kernel."""


class KernelError(ValueError):
    """Raised when a kernel cannot be applied to the given rows."""


def _as_dense_rows(x) -> np.ndarray:
    if sp.issparse(x):
        x = x.toarray()
    x = np.asarray(x, dtype=float)
    return x.reshape(-1) if x.ndim > 1 else x


def cosine_kernel(x, y) -> float:
    """Cosine similarity of two feature rows; zero rows give 0.0."""
    xv, yv = _as_dense_rows(x), _as_dense_rows(y)
    nx, ny = np.linalg.norm(xv), np.linalg.norm(yv)
    if nx == 0.0 or ny == 0.0:
        warnings.warn("zero feature row in cosine kernel", ZeroRowWarning, stacklevel=2)
        return 0.0
    return float(xv @ yv / (nx * ny))


def nspdk_kernel(x, y, blocks: Sequence[np.ndarray]) -> float:
    """Mean of per-block cosine similarities between two rows.

    ``blocks`` lists the column indices of each (height, distance) block.
    Blocks where either row is all zero contribute 0.  Raises
    :class:`KernelError` when no block metadata is given.
    """
    if not len(blocks):
        raise KernelError("rows lack block metadata; a block list is required")
    xv, yv = _as_dense_rows(x), _as_dense_rows(y)
    total = 0.0
    for cols in blocks:
        xb, yb = xv[cols], yv[cols]
        nx, ny = np.linalg.norm(xb), np.linalg.norm(yb)
        if nx > 0.0 and ny > 0.0:
            total += float(xb @ yb / (nx * ny))
    return total / len(blocks)


@dataclass
class GramMatrix:
    """Symmetric kernel matrix over one set of rows."""

    values: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = len(self.ids)
        if self.values.shape != (n, n):
            raise ValueError("gram matrix must be square and match its ids")


def _row_normalize(X: np.ndarray) -> np.ndarray:
    norms = np.sqrt((X * X).sum(axis=1))
    out = np.zeros_like(X)
    nonzero = norms > 0.0
    out[nonzero] = X[nonzero] / norms[nonzero, None]
    return out


def _block_columns(data: DatasetMatrix) -> list[np.ndarray]:
    if data.vocab is None:
        raise KernelError("rows lack block metadata; a vocabulary is required")
    return [cols for _, cols in sorted(data.vocab.blocks().items())]


def kernel_feature_rows(
    train: DatasetMatrix, rows: DatasetMatrix, kernel: str = "cosine"
) -> np.ndarray:
    """Similarities of ``rows`` against every training row.

    The result (eval rows x train rows) serves as a kernelized data
    representation: models that only consume plain feature matrices can be
    fed these similarity columns instead.
    """
    A = rows.dense()
    B = train.dense()
    if A.shape[1] != B.shape[1]:
        raise KernelError("row sets have different widths")
    if kernel == "cosine":
        if (np.sqrt((A * A).sum(axis=1)) == 0.0).any() or (
            np.sqrt((B * B).sum(axis=1)) == 0.0
        ).any():
            warnings.warn(
                "zero feature row in cosine kernel", ZeroRowWarning, stacklevel=2
            )
        return _row_normalize(A) @ _row_normalize(B).T
    if kernel == "nspdk":
        if rows.vocab is None or train.vocab is None:
            raise KernelError("rows lack block metadata; a vocabulary is required")
        if rows.vocab.keys != train.vocab.keys:
            raise KernelError("row sets have different block structure")
        blocks = _block_columns(train)
        out = np.zeros((A.shape[0], B.shape[0]))
        for cols in blocks:
            out += _row_normalize(A[:, cols]) @ _row_normalize(B[:, cols]).T
        return out / len(blocks)
    raise KernelError(f"unknown kernel {kernel!r}")


class KernelizedModel:
    """A model trained on similarity columns against a fixed basis set.

    Wraps an inner model together with the basis rows, so new feature rows
    are first mapped to kernel similarities and then scored.
    """

    def __init__(self, kernel: str, basis: DatasetMatrix, inner):
        self.kernel = kernel
        self.basis = basis
        self.inner = inner
        self.threshold = inner.threshold

    def score_rows(self, X) -> np.ndarray:
        X = scoring_rows(X, None)  # the kernel checks the width
        rows = DatasetMatrix(
            X,
            np.ones(X.shape[0], dtype=int),
            tuple(str(i) for i in range(X.shape[0])),
            self.basis.vocab,
        )
        return self.inner.score_rows(kernel_feature_rows(self.basis, rows, self.kernel))


def gram_matrix(data: DatasetMatrix, kernel: str = "cosine") -> GramMatrix:
    """Kernel matrix of a row set against itself."""
    return GramMatrix(kernel_feature_rows(data, data, kernel), data.ids)


def save_gram(stream: TextIO, gram: GramMatrix) -> None:
    """Write the matrix: a header line with n, then n rows of n decimals."""
    n = len(gram.ids)
    stream.write(f"{n}\n")
    for row in gram.values:
        stream.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_gram(stream: TextIO, ids: Sequence[str] | None = None) -> GramMatrix:
    header = stream.readline()
    try:
        n = int(header)
    except ValueError:
        raise ValueError("gram file must start with the row count") from None
    values = np.empty((n, n))
    for r in range(n):
        fields = stream.readline().split()
        if len(fields) != n:
            raise ValueError(f"gram row {r + 1} has {len(fields)} entries, wanted {n}")
        values[r] = [float(f) for f in fields]
    if ids is None:
        ids = tuple(str(i) for i in range(n))
    return GramMatrix(values, tuple(ids))
