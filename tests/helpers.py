"""Shared generators and brute-force oracles for the test suite.

Everything here is deliberately independent of the library's own algorithms:
molecule strings are emitted from a simple valence-tracking grammar, graph
isomorphism is decided by exhaustive permutation, and ranking metrics are
recomputed by explicit pair counting, so library results can be checked
against a second route.  The row-by-row kernel definitions
(:func:`cosine_kernel`, :func:`nspdk_kernel`) and the one-sample net loss
(:func:`net_loss`) are the oracles of the sparse kernels and of the net
gradients.
"""

from __future__ import annotations

import itertools
import random
import warnings
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from submol.graph import AtomNode, MolecularGraph
from submol.kernels import KernelError, ZeroRowWarning
from submol.neural import NetParams, net_forward

#: Bonding capacity used by the molecule generator.
BUDGETS = {"C": 4, "N": 3, "O": 2, "P": 3, "S": 2, "F": 1, "Cl": 1, "Br": 1}
_HEAVY = ["C"] * 8 + ["N", "O", "S", "P"]
_LEAF = ["F", "Cl", "Br"]


def random_molecule_smiles(
    rnd: random.Random,
    max_atoms: int = 10,
    carbon_only: bool = False,
    root_reserve: int = 0,
) -> str:
    """A random valence-respecting SMILES string (tree plus optional rings).

    ``root_reserve`` keeps that many bonds of the first atom unused, so a
    substituent can later be attached to the front of the string safely.
    """
    n = rnd.randint(1, max_atoms)
    symbols: list[str] = []
    remaining: list[int] = []
    children: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        if carbon_only:
            sym = "C"
        elif i == 0:
            sym = rnd.choice(_HEAVY)
        else:
            pool = _HEAVY + (_LEAF if rnd.random() < 0.3 else [])
            sym = rnd.choice(pool)
        if i == 0:
            symbols.append(sym)
            remaining.append(BUDGETS[sym] - root_reserve)
            children[0] = []
            continue
        parents = [p for p in range(len(symbols)) if remaining[p] >= 1]
        if not parents:
            break
        p = rnd.choice(parents)
        max_order = min(remaining[p], BUDGETS[sym], 3)
        order = 1
        if max_order >= 2 and rnd.random() < 0.15:
            order = 2
            if max_order >= 3 and rnd.random() < 0.25:
                order = 3
        idx = len(symbols)
        symbols.append(sym)
        remaining.append(BUDGETS[sym] - order)
        remaining[p] -= order
        children[p].append((idx, order))
        children[idx] = []
    n = len(symbols)

    ring_edges: list[tuple[int, int]] = []
    if n >= 3 and rnd.random() < 0.5:
        adjacent = {
            (min(p, c), max(p, c)) for p in children for c, _ in children[p]
        }
        for _ in range(rnd.randint(1, 2)):
            candidates = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if remaining[u] >= 1 and remaining[v] >= 1 and (u, v) not in adjacent
            ]
            if not candidates:
                break
            u, v = rnd.choice(candidates)
            ring_edges.append((u, v))
            adjacent.add((u, v))
            remaining[u] -= 1
            remaining[v] -= 1

    ring_digits: dict[int, list[int]] = {}
    for digit, (u, v) in enumerate(ring_edges, start=1):
        ring_digits.setdefault(u, []).append(digit)
        ring_digits.setdefault(v, []).append(digit)
    bond_text = {1: "", 2: "=", 3: "#"}

    def emit(node: int) -> str:
        out = symbols[node] + "".join(str(d) for d in ring_digits.get(node, []))
        kids = children[node]
        for k, (child, order) in enumerate(kids):
            sub = bond_text[order] + emit(child)
            out += sub if k == len(kids) - 1 else f"({sub})"
        return out

    return emit(0)


def random_labeled_graph(
    rnd: random.Random,
    max_nodes: int = 8,
    labels: tuple[str, ...] = ("C", "N", "O"),
) -> MolecularGraph:
    """A random connected node-labeled graph with mixed bond orders."""
    n = rnd.randint(1, max_nodes)
    nodes = [
        AtomNode(
            rnd.choice(labels),
            hydrogens=rnd.randint(0, 2),
            charge=rnd.choice((0, 0, 0, 1, -1)),
        )
        for _ in range(n)
    ]
    edges: list[tuple[int, int, int]] = []
    present: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = rnd.randrange(v)
        edges.append((u, v, rnd.choice((1, 1, 2, 4))))
        present.add((u, v))
    for _ in range(rnd.randint(0, max(0, n - 2))):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u == v:
            continue
        a, b = min(u, v), max(u, v)
        if (a, b) in present:
            continue
        present.add((a, b))
        edges.append((a, b, rnd.choice((1, 2, 4))))
    return MolecularGraph(nodes, edges)


def permuted_graph(graph: MolecularGraph, perm: list[int]) -> MolecularGraph:
    """The same graph with node ``i`` renumbered to ``perm[i]``."""
    nodes: list[AtomNode | None] = [None] * len(graph)
    for i, node in enumerate(graph.nodes):
        nodes[perm[i]] = node
    edges = [(perm[i], perm[j], o) for i, j, o in graph.edges]
    return MolecularGraph(nodes, edges)  # type: ignore[arg-type]


def root_preserving_isomorphic(
    labels_a, edges_a, root_a, labels_b, edges_b, root_b
) -> bool:
    """Exhaustive-permutation oracle for rooted labeled-graph isomorphism."""
    n = len(labels_a)
    if n != len(labels_b) or len(edges_a) != len(edges_b):
        return False
    target = {(min(i, j), max(i, j), o) for i, j, o in edges_b}
    for perm in itertools.permutations(range(n)):
        if perm[root_a] != root_b:
            continue
        if any(labels_a[v] != labels_b[perm[v]] for v in range(n)):
            continue
        mapped = {
            (min(perm[i], perm[j]), max(perm[i], perm[j]), o) for i, j, o in edges_a
        }
        if mapped == target:
            return True
    return False


def auroc_by_pair_counting(scores, labels) -> float:
    """Mann-Whitney AUROC by explicit pair enumeration (ties count half)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == -1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def nitro_smiles_dataset(
    rnd: random.Random, n_each: int = 30
) -> tuple[list[str], list[int]]:
    """Carbon skeletons where a nitro group marks the positive class."""
    smiles: list[str] = []
    labels: list[int] = []
    for _ in range(n_each):
        backbone = random_molecule_smiles(
            rnd, max_atoms=8, carbon_only=True, root_reserve=1
        )
        smiles.append("O=N(=O)" + backbone)
        labels.append(1)
        smiles.append(random_molecule_smiles(rnd, max_atoms=9, carbon_only=True))
        labels.append(-1)
    return smiles, labels


def perceptron_separable(X, y, epochs: int = 500) -> bool:
    """Whether a plain perceptron finds a separating hyperplane."""
    X = np.asarray(X, dtype=float)
    Xb = np.hstack([X, np.ones((len(X), 1))])
    w = np.zeros(Xb.shape[1])
    for _ in range(epochs):
        mistakes = 0
        for i in range(len(Xb)):
            if y[i] * (w @ Xb[i]) <= 0:
                w += y[i] * Xb[i]
                mistakes += 1
        if mistakes == 0:
            return True
    return False


# --- Reference artifact readers and writers ---------------------------------
#
# The one-value-per-call file routines that the array-speed readers and
# writers in ``submol.features`` and ``submol.kernels`` replaced.  They define
# the file bytes and the matrices read back, so tests compare against them.


def reference_save_sparse(stream, data) -> None:
    """``<±1> <col>:<count> ...`` lines, one formatted item at a time."""
    X = data.X.tocsr() if sp.issparse(data.X) else sp.csr_matrix(data.X)
    for r in range(X.shape[0]):
        start, end = X.indptr[r], X.indptr[r + 1]
        cols = X.indices[start:end]
        vals = X.data[start:end]
        order = np.argsort(cols)
        parts = [f"{data.y[r]:+d}"]
        for i in order:
            value = float(vals[i])
            text = str(int(value)) if value.is_integer() else repr(value)
            parts.append(f"{cols[i] + 1}:{text}")
        stream.write(" ".join(parts) + "\n")


def reference_load_sparse(stream):
    """(CSR matrix, labels) of a sparse feature file, one item at a time."""
    labels: list[int] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    width = 0
    for line in stream:
        fields = line.split()
        if not fields:
            continue
        label = int(fields[0])
        if label not in (-1, 1):
            raise ValueError(f"label {fields[0]!r} is not +1 or -1")
        r = len(labels)
        labels.append(label)
        last = 0
        for item in fields[1:]:
            col_text, _, val_text = item.partition(":")
            col = int(col_text)
            if col <= last:
                raise ValueError("columns must be ascending and 1-based")
            last = col
            rows.append(r)
            cols.append(col - 1)
            vals.append(float(val_text))
            width = max(width, col)
    if not labels:
        raise ValueError("empty feature file")
    X = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(labels), width), dtype=float
    )
    return X, np.asarray(labels)


def reference_save_gram(stream, gram) -> None:
    """A header line with n, then n rows of n ``%.17g`` decimals."""
    n = len(gram.ids)
    stream.write(f"{n}\n")
    line = " ".join(["%.17g"] * n) + "\n"
    for row in gram.values:
        stream.write(line % tuple(row.tolist()))


def molblock(symbols, bonds, charges=None):
    """A V2000 record; ``bonds`` are 1-based ``(a, b, type)`` triples."""
    charges = charges or {}
    lines = ["ring", "  submoltest", ""]
    lines.append(f"{len(symbols):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000")
    for symbol in symbols:
        lines.append(f"    0.0000    0.0000    0.0000 {symbol:<3} 0  0  0  0")
    for a, b, kind in bonds:
        lines.append(f"{a:3d}{b:3d}{kind:3d}  0")
    for atom, charge in charges.items():
        lines.append(f"M  CHG  1 {atom:3d} {charge:3d}")
    lines += ["M  END", "$$$$", ""]
    return "\n".join(lines)


# --- Reference kernels and net loss -----------------------------------------
#
# Row-by-row definitions of what ``submol.kernels.kernel_feature_rows``
# computes in one sparse product, and the squared error whose gradients
# ``submol.neural.net_gradients`` returns.


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


def net_loss(p: NetParams, x: np.ndarray, target: float) -> float:
    """Squared error of one sample: (out - target)^2 / 2."""
    _, out = net_forward(p, x)
    return 0.5 * (out - target) ** 2
