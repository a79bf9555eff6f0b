"""Shared generators and brute-force oracles for the test suite.

Everything here is deliberately independent of the library's own algorithms:
molecule strings are emitted from a simple valence-tracking grammar, graph
isomorphism is decided by exhaustive permutation, and ranking metrics are
recomputed by explicit pair counting, so library results can be checked
against a second route.  :func:`signature_of` keys a subgraph cut in graph
order, not in featurization's breadth-first order; it is the key step of the
features oracle.  The row-by-row kernel definitions
(:func:`cosine_kernel`, :func:`nspdk_kernel`) and the one-sample net loss
(:func:`net_loss`) are the oracles of the sparse kernels and of the net
gradients.  The reference file and vocabulary routines are the
one-item-at-a-time versions of the array-speed ones in ``submol.features``.
The version-2 scorers are the exception: they reuse the SVM solver and the
block normalization, and redo only what the model file format changed.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
import warnings
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from submol import kernels, svm
from submol.features import parse_feature_key
from submol.graph import AtomNode, MolecularGraph
from submol.signatures import RootedSubgraph, canonical_key, node_token, subgraph_mass
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


def signature_of(sub: RootedSubgraph) -> tuple[str, float]:
    """Canonical key and mass of a rooted subgraph, cut in graph order."""
    key = canonical_key([node_token(a) for a in sub.nodes], sub.edges, sub.root)
    return key, subgraph_mass([a.mass() for a in sub.nodes])


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
    n = len(gram)
    stream.write(f"{n}\n")
    line = " ".join(["%.17g"] * n) + "\n"
    for row in gram:
        stream.write(line % tuple(row.tolist()))


# --- Reference vocabulary routines -------------------------------------------
#
# The one-key-at-a-time vocabulary routines that the array-speed ones in
# ``submol.features`` replaced: the line-by-line reader, the block map by a
# regex match per key, the restriction that checks its keys again and the
# matrix assembled entry by entry.  They return plain tuples and arrays, so
# tests compare the library with them field by field.

#: A key's text up to its second "|" (its first when it has one only, all of
#: it when it has none): :func:`parse_feature_key` reads the key's block from it.
_BLOCK_PREFIX = re.compile(r"[^|]*(?:\|(?:[^|]*\|)?)?")


def reference_check_vocab(keys, masses) -> None:
    """The (mass, key) order and duplicate checks, one pair at a time."""
    following = zip(masses[1:], keys[1:])
    if any(map(operator.gt, zip(masses, keys), following)):
        raise ValueError("vocabulary keys are not in (mass, key) order")
    if len(set(keys)) != len(keys):
        raise ValueError("vocabulary contains duplicate keys")


def reference_load_vocab(stream):
    """(keys, masses) of a vocabulary file, one line at a time."""
    keys: list[str] = []
    masses: list[float] = []
    for lineno, line in enumerate(stream):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"vocabulary line {lineno + 1} is malformed")
        col, key, mass = fields
        if int(col) != len(keys) + 1:
            raise ValueError(f"vocabulary line {lineno + 1} is out of order")
        keys.append(key)
        masses.append(float(mass))
    reference_check_vocab(keys, masses)
    return tuple(keys), tuple(masses)


def reference_block_table(keys):
    """(block labels, block id of every key), by a regex match per key."""
    prefixes = [_BLOCK_PREFIX.match(key).group() for key in keys]
    parsed = {p: parse_feature_key(p) for p in set(prefixes)}
    labels = sorted(set(parsed.values()))
    number = {b: i for i, b in enumerate(labels)}
    return tuple(labels), np.array([number[parsed[p]] for p in prefixes], dtype=np.intp)


def reference_restrict(keys, masses, columns):
    """(keys, masses, block labels, block ids) of ``columns`` of a vocabulary;
    the kept keys are checked again, the block map renumbered by ``np.unique``."""
    kept_keys = tuple(keys[i] for i in columns)
    kept_masses = tuple(masses[i] for i in columns)
    reference_check_vocab(kept_keys, kept_masses)
    labels, ids = reference_block_table(keys)
    blocks, ids = np.unique(ids[np.asarray(columns, dtype=np.intp)], return_inverse=True)
    return kept_keys, kept_masses, tuple(labels[b] for b in blocks), ids


def reference_build_matrix(vectors, keys=None):
    """(keys, masses, CSR counts) of feature vectors, one entry at a time.

    Without ``keys`` the vocabulary is frozen from the vectors, in (mass,
    key) order; with them the masses are None and unknown keys are dropped.
    """
    masses = None
    if keys is None:
        masses = {}
        for vec in vectors:
            masses.update(vec.masses)
        keys = sorted(masses, key=lambda k: (masses[k], k))
    index = {k: i for i, k in enumerate(keys)}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for r, vec in enumerate(vectors):
        for key, count in vec.entries.items():
            c = index.get(key)
            if c is not None:
                rows.append(r)
                cols.append(c)
                vals.append(float(count))
    X = sp.csr_matrix((vals, (rows, cols)), shape=(len(vectors), len(keys)), dtype=float)
    return tuple(keys), None if masses is None else tuple(masses[k] for k in keys), X


def random_vocabulary(rnd: random.Random, n: int):
    """(keys, masses) of ``n`` random feature keys in (mass, key) order.

    Keys are shaped like drug-target pair vocabularies: no, ``drug:`` or
    ``target:`` namespace, heights 0-3 (now and then written ``0<h>``), pair
    keys at distances 0-6 and height keys with a single "|".  Masses come
    from about n/4 values, so many tie.  Half the seeds put a non-ASCII
    letter in some signatures.
    """
    accent = rnd.choice(["", "\u00e9"])
    values = [round(rnd.uniform(10.0, 200.0), 3) for _ in range(max(1, n // 4))]

    def signature(h):
        atoms = "".join(rnd.choice("CNOS" + accent) for _ in range(rnd.randint(1, 4)))
        return f"@{h};{atoms};"

    masses: dict[str, float] = {}
    while len(masses) < n:
        namespace = rnd.choice(["", "drug:", "target:"])
        h = rnd.randint(0, 3)
        height = f"0{h}" if rnd.random() < 0.05 else str(h)
        if rnd.random() < 0.3:
            key = f"{namespace}{height}|{signature(h)}"
        else:
            d = rnd.randint(0, 6)
            key = f"{namespace}{height}|{d}|{signature(h)}|{signature(h)}"
        masses[key] = rnd.choice(values)
    keys = sorted(masses, key=lambda k: (masses[k], k))
    return tuple(keys), tuple(masses[k] for k in keys)


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


# --- Version-2 model scoring -------------------------------------------------
#
# How models scored when their files held an SVM's support rows dense and a
# kernelized model's basis with its vocabulary keys.  Version-3 files keep
# a linear SVM's w, an rbf SVM's support rows sparse and the basis columns'
# block ids instead, and must score to the same bits.


def version2_support_rows(X, y, cfg) -> np.ndarray:
    """The dense support rows, in training order, that a version-2 file of
    the SVM ``train_svm`` fits to ``X`` stored."""
    X = np.asarray(X.toarray() if sp.issparse(X) else X, dtype=float)
    y = np.asarray(y, dtype=float)
    alphas, _ = svm._solve_dual(svm._kernel_matrix(X, cfg), y, cfg)
    box = np.where(y > 0, cfg.pos_cost_factor * cfg.C, cfg.C)
    return X[np.nonzero(alphas > box * svm._BOUND_EPS)[0]]


def version2_svm_scores(model, sv_rows: np.ndarray, X) -> np.ndarray:
    """Scores of ``X`` by ``model`` as version 2 computed them from its
    dense support rows: a linear SVM took ``w = coef @ sv_rows`` per call."""
    X = np.asarray(X.toarray() if sp.issparse(X) else X, dtype=float)
    coef = model.alphas * model.sv_labels
    if model.config.kernel == "linear":
        raw = X @ (coef @ sv_rows) + model.bias
    else:
        sq_x = (X * X).sum(axis=1)
        sq_s = (sv_rows * sv_rows).sum(axis=1)
        d2 = sq_x[:, None] + sq_s[None, :] - 2.0 * (X @ sv_rows.T)
        raw = np.exp(-model.config.gamma * np.maximum(d2, 0.0)) @ coef + model.bias
    return raw / model.norm_w if model.norm_w > 0 else raw


def version2_kernel_rows(basis, X, kernel: str) -> np.ndarray:
    """Kernel rows of ``X`` against the ``basis`` DatasetMatrix as version 2
    computed them: nspdk blocks parsed from the basis's vocabulary keys and
    numbered in sorted order."""
    width = basis.X.shape[1]
    if kernel == "cosine":
        block_ids = np.zeros(width, dtype=np.intp)
    else:
        labels = [parse_feature_key(key) for key in basis.vocab.keys]
        number = {label: b for b, label in enumerate(sorted(set(labels)))}
        block_ids = np.array([number[label] for label in labels], dtype=np.intp)
    n_blocks = int(block_ids.max()) + 1
    B, _ = kernels._block_normalized(basis.X, block_ids, n_blocks)
    A, _ = kernels._block_normalized(sp.csr_matrix(X, dtype=float), block_ids, n_blocks)
    return (A @ B.T).toarray() / n_blocks
