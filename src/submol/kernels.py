"""Similarity kernels over feature rows, and the Gram matrix file.

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
from typing import Any, TextIO

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray

from .features import DatasetMatrix


class ZeroRowWarning(UserWarning):
    """A row with no features took part in a normalized kernel."""


class KernelError(ValueError):
    """Raised when a kernel cannot be applied to the given rows."""


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


def kernel_block_ids(data: DatasetMatrix, kernel: str) -> np.ndarray | None:
    """The column blocks ``kernel`` normalizes over, as
    :func:`kernel_feature_rows` takes them: None for cosine, one block, and
    the vocabulary's block of each column for nspdk."""
    if kernel == "cosine":
        return None
    if kernel != "nspdk":
        raise KernelError(f"unknown kernel {kernel!r}")
    if data.vocab is None:
        raise KernelError("rows lack block metadata; a vocabulary is required")
    if not len(data.vocab):
        raise KernelError("rows lack block metadata; the vocabulary is empty")
    return data.vocab.block_ids()


def kernel_feature_rows(train, rows, block_ids: np.ndarray | None = None) -> np.ndarray:
    """Similarities of the sparse ``rows`` against every ``train`` row.

    The result (rows x train rows) serves as a kernelized data
    representation: models that only consume plain feature matrices can be
    fed these similarity columns instead.

    Both row sets stay sparse.  Each stored value is divided by the L2 norm
    of its (row, block), with ``block_ids`` numbering each column's block
    from 0, one sparse product ``A @ B.T`` sums the per-block cosines, since
    the blocks partition the columns, and the sum is divided by the block
    count.  Without ``block_ids`` that is cosine, the case of one block.  A
    self-kernel (``rows is train``) normalizes once.
    """
    if rows.shape[1] != train.shape[1]:
        raise KernelError("row sets have different widths")
    cosine = block_ids is None
    if cosine:
        block_ids, n_blocks = np.zeros(train.shape[1], dtype=np.intp), 1
    else:
        n_blocks = int(block_ids.max()) + 1
    B, train_norms = _block_normalized(train, block_ids, n_blocks)
    if rows is train:
        A, row_norms = B, train_norms
    else:
        A, row_norms = _block_normalized(rows, block_ids, n_blocks)
    if cosine and not (row_norms.all() and train_norms.all()):
        warnings.warn("zero feature row in cosine kernel", ZeroRowWarning, stacklevel=2)
    return (A @ B.T).toarray() / n_blocks


@dataclass
class KernelizedModel:
    """A model trained on similarity columns against a fixed basis set.

    Keeps the basis rows (CSR), for nspdk each basis column's block, and the
    inner model, so new feature rows are first mapped to kernel similarities
    and then scored.
    """

    kernel: str
    basis: sp.csr_matrix
    block_ids: NDArray[np.intp] | None  # nspdk only
    inner: Any

    def __post_init__(self):
        self.basis = sp.csr_matrix(self.basis, dtype=float)
        width = self.basis.shape[1]
        if self.kernel == "cosine":
            valid = self.block_ids is None
        elif self.kernel == "nspdk":
            ids = self.block_ids
            # blocks numbered densely from 0: n_blocks is the number of ids
            valid = (
                ids is not None and ids.shape == (width,) and width > 0
                and 0 <= ids.min() and ids.max() < width and np.bincount(ids).all()
            )
        else:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if not valid:
            raise ValueError(
                "block_ids must give each basis column's block (nspdk only), "
                "numbered from 0 with none skipped"
            )

    @property
    def threshold(self) -> float:
        return self.inner.threshold

    def score_rows(self, X) -> np.ndarray:
        if not sp.issparse(X):
            X = np.atleast_2d(np.asarray(X, dtype=float))
        X = sp.csr_matrix(X, dtype=float)  # the kernel checks the width
        return self.inner.score_rows(kernel_feature_rows(self.basis, X, self.block_ids))


def gram_matrix(data: DatasetMatrix, kernel: str = "cosine") -> np.ndarray:
    """Kernel matrix of a row set against itself, n x n."""
    return kernel_feature_rows(data.X, data.X, kernel_block_ids(data, kernel))


#: About how many values :func:`save_gram` formats per block of rows; its
#: texts and indices take some 64 bytes a value, so a few MB.
SAVE_BLOCK_CELLS = 1 << 16


def save_gram(stream: TextIO, gram: np.ndarray) -> None:
    """Write the matrix: a header line with n, then n rows of n ``%.17g``
    decimals.

    Rows go out in blocks of about :data:`SAVE_BLOCK_CELLS` values.  Kernel
    values repeat, so a block formats each distinct value once, found by
    its bit pattern (``-0.0`` and NaN stay exact), and gathers its rows from
    those texts.  Where a block's distinct values are more than half its
    cells, formatting them costs more than it saves, and the block goes
    through the one-row template instead.
    """
    n = len(gram)
    stream.write(f"{n}\n")
    line = " ".join(["%.17g"] * n) + "\n"
    step = max(1, SAVE_BLOCK_CELLS // max(n, 1))
    for r0 in range(0, n, step):
        block = np.ascontiguousarray(gram[r0 : r0 + step])
        distinct = np.count_nonzero(np.diff(np.sort(block.view(np.uint64), axis=None))) + 1
        if 2 * distinct > block.size:
            for row in block.tolist():
                stream.write(line % tuple(row))
            continue
        bits, cell = np.unique(block.view(np.uint64), return_inverse=True)
        texts = (" ".join(["%.17g"] * len(bits)) % tuple(bits.view(float).tolist())).split(" ")
        words = np.array(texts, dtype=object)[cell.reshape(block.shape)]
        stream.write("".join(" ".join(row) + "\n" for row in words.tolist()))
