"""Similarity kernels over feature rows and Gram-matrix assembly.

Two kernels: plain cosine over whole rows, and a blockwise variant that
normalizes within each (namespace, height, distance) feature block
separately and averages the per-block cosines, so abundant blocks cannot
drown out sparse ones.  Empty rows (or empty blocks) contribute zero
similarity.  Kernel rows are one sparse product of block-normalized CSR
rows (Costa & De Grave, ICML 2010).  The row-by-row reference definitions,
``cosine_kernel`` and ``nspdk_kernel``, are the test suite's oracles and
live in ``tests/helpers.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np
import scipy.sparse as sp

from .features import DatasetMatrix


class ZeroRowWarning(UserWarning):
    """A row with no features took part in a normalized kernel."""


class KernelError(ValueError):
    """Raised when a kernel cannot be applied to the given rows."""


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


def _block_normalized(X, block_ids: np.ndarray, n_blocks: int):
    """CSR copy of ``X`` with each stored value divided by its (row, block)
    L2 norm, and the norms as an (rows x blocks) array.

    Values in a (row, block) whose norm is zero, stored zeros included,
    stay 0.  The copy has sorted column indices, which keeps ``A @ A.T``
    exactly symmetric.
    """
    X = sp.csr_matrix(X, dtype=float)
    if not X.has_canonical_format:
        X = X.copy()
        X.sum_duplicates()
    n_rows = X.shape[0]
    cells = np.repeat(np.arange(n_rows), np.diff(X.indptr)) * n_blocks
    cells += block_ids[X.indices]
    norms = np.sqrt(
        np.bincount(cells, weights=X.data * X.data, minlength=n_rows * n_blocks)
    )
    norm = norms[cells]
    data = np.divide(X.data, norm, out=np.zeros_like(X.data), where=norm > 0.0)
    normalized = sp.csr_matrix((data, X.indices, X.indptr), shape=X.shape)
    return normalized, norms.reshape(n_rows, n_blocks)


def kernel_feature_rows(
    train: DatasetMatrix, rows: DatasetMatrix, kernel: str = "cosine"
) -> np.ndarray:
    """Similarities of ``rows`` against every training row.

    The result (eval rows x train rows) serves as a kernelized data
    representation: models that only consume plain feature matrices can be
    fed these similarity columns instead.

    Both row sets stay sparse.  Each stored value is divided by the L2 norm
    of its (row, block), one sparse product ``A @ B.T`` sums the per-block
    cosines, since the blocks partition the columns, and the sum is divided
    by the block count.  Cosine is the case of one block.  A self-kernel
    (``rows is train``) normalizes once.
    """
    if rows.X.shape[1] != train.X.shape[1]:
        raise KernelError("row sets have different widths")
    if kernel == "cosine":
        block_ids, n_blocks = np.zeros(train.X.shape[1], dtype=np.intp), 1
    elif kernel == "nspdk":
        if rows.vocab is None or train.vocab is None:
            raise KernelError("rows lack block metadata; a vocabulary is required")
        if rows.vocab.keys != train.vocab.keys:
            raise KernelError("row sets have different block structure")
        block_ids = train.vocab.block_ids()
        if not len(block_ids):
            raise KernelError("rows lack block metadata; the vocabulary is empty")
        n_blocks = int(block_ids.max()) + 1
    else:
        raise KernelError(f"unknown kernel {kernel!r}")
    B, train_norms = _block_normalized(train.X, block_ids, n_blocks)
    if rows is train:
        A, row_norms = B, train_norms
    else:
        A, row_norms = _block_normalized(rows.X, block_ids, n_blocks)
    if kernel == "cosine" and not (row_norms.all() and train_norms.all()):
        warnings.warn("zero feature row in cosine kernel", ZeroRowWarning, stacklevel=2)
    return (A @ B.T).toarray() / n_blocks


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
        if not sp.issparse(X):
            X = np.atleast_2d(np.asarray(X, dtype=float))
        X = sp.csr_matrix(X, dtype=float)  # the kernel checks the width
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


#: About how many values :func:`save_gram` formats per block of rows; its
#: texts and indices take some 64 bytes a value, so a few MB.
SAVE_BLOCK_CELLS = 1 << 16


def save_gram(stream: TextIO, gram: GramMatrix) -> None:
    """Write the matrix: a header line with n, then n rows of n ``%.17g``
    decimals.

    Rows go out in blocks of about :data:`SAVE_BLOCK_CELLS` values.  Kernel
    values repeat, so a block formats each distinct value once, found by
    its bit pattern (``-0.0`` and NaN stay exact), and gathers its rows from
    those texts.  Where a block's distinct values are more than half its
    cells, formatting them costs more than it saves, and the block goes
    through the one-row template instead.
    """
    n = len(gram.ids)
    stream.write(f"{n}\n")
    line = " ".join(["%.17g"] * n) + "\n"
    step = max(1, SAVE_BLOCK_CELLS // max(n, 1))
    for r0 in range(0, n, step):
        block = np.ascontiguousarray(gram.values[r0 : r0 + step])
        distinct = np.count_nonzero(np.diff(np.sort(block.view(np.uint64), axis=None))) + 1
        if 2 * distinct > block.size:
            for row in block.tolist():
                stream.write(line % tuple(row))
            continue
        bits, cell = np.unique(block.view(np.uint64), return_inverse=True)
        texts = (" ".join(["%.17g"] * len(bits)) % tuple(bits.view(float).tolist())).split(" ")
        words = np.array(texts, dtype=object)[cell.reshape(block.shape)]
        stream.write("".join(" ".join(row) + "\n" for row in words.tolist()))


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
