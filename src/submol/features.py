"""Neighborhood-subgraph count features, vocabularies and data matrices.

A molecule's feature vector counts, for every requested height ``h``, how
many nodes root each canonical neighborhood signature.  The pair variant
counts co-occurrences of two signatures whose roots sit a given shortest-path
distance apart.  Vectors are sparse maps from a text feature key to a count;
a vocabulary fixes the column order (ascending subgraph mass, ties broken
lexicographically) so matrices and files are reproducible.

Feature keys are ``"<h>|<sig>"`` for plain height features and
``"<h>|<dist>|<sigA>|<sigB>"`` for pairs; an optional ``"<ns>:"`` namespace
prefix keeps features of different entities (for example drug and target)
apart in concatenated vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np
import scipy.sparse as sp

from .graph import MolecularGraph
from .signatures import Signature, canonical_signature, neighborhood_subgraph


@dataclass
class FeatureVector:
    """Sparse feature counts of one entity plus per-key subgraph masses."""

    entries: dict[str, int] = field(default_factory=dict)
    masses: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, mass: float, count: int = 1) -> None:
        self.entries[key] = self.entries.get(key, 0) + count
        self.masses[key] = mass

    def total(self) -> int:
        return sum(self.entries.values())


def parse_feature_key(key: str) -> tuple[str, int, int]:
    """Split a feature key into (namespace, height, distance)."""
    head, _, rest = key.partition("|")
    namespace = ""
    if ":" in head:
        namespace, _, head = head.partition(":")
    height = int(head)
    dist = int(rest.split("|", 1)[0]) if "|" in rest else 0
    return namespace, height, dist


def prefix_features(vector: FeatureVector, namespace: str) -> FeatureVector:
    """Copy of ``vector`` with every key under ``namespace:``."""
    out = FeatureVector()
    for key, count in vector.entries.items():
        out.add(f"{namespace}:{key}", vector.masses[key], count)
    return out


def _signature_table(
    graph: MolecularGraph, heights: Sequence[int]
) -> dict[int, list[Signature]]:
    return {
        h: [
            canonical_signature(neighborhood_subgraph(graph, a, h))
            for a in range(len(graph))
        ]
        for h in heights
    }


def height_features(graph: MolecularGraph, heights: Iterable[int]) -> FeatureVector:
    """Counts of canonical neighborhood signatures at each height.

    At every height the counts over all signatures sum to the node count:
    each node roots exactly one neighborhood.
    """
    hs = sorted(set(int(h) for h in heights))
    if not hs or hs[0] < 0:
        raise ValueError("heights must be a nonempty set of nonnegative integers")
    vector = FeatureVector()
    for h, sigs in _signature_table(graph, hs).items():
        for sig in sigs:
            vector.add(f"{h}|{sig.key}", sig.mass)
    return vector


def pair_features(
    graph: MolecularGraph,
    heights: Iterable[int],
    distances: Iterable[int],
) -> FeatureVector:
    """Counts of signature pairs whose roots are a set distance apart.

    For distance zero this degenerates to :func:`height_features` keys, so a
    distance set of ``{0}`` reproduces plain height features exactly.  For
    positive distances each unordered node pair at that shortest-path
    distance contributes one count; the two signature keys are ordered
    lexicographically inside the feature key, and the key's mass is the sum
    of the two subgraph masses.
    """
    hs = sorted(set(int(h) for h in heights))
    ds = sorted(set(int(d) for d in distances))
    if not hs or hs[0] < 0:
        raise ValueError("heights must be a nonempty set of nonnegative integers")
    if not ds or ds[0] < 0:
        raise ValueError("distances must be a nonempty set of nonnegative integers")
    vector = FeatureVector()
    table = _signature_table(graph, hs)
    dist = graph.distances()
    n = len(graph)
    for d in ds:
        if d == 0:
            for h, sigs in table.items():
                for sig in sigs:
                    vector.add(f"{h}|{sig.key}", sig.mass)
            continue
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if dist[a, b] == d]
        for h in hs:
            sigs = table[h]
            for a, b in pairs:
                ka, kb = sorted((sigs[a].key, sigs[b].key))
                mass = sigs[a].mass + sigs[b].mass
                vector.add(f"{h}|{d}|{ka}|{kb}", mass)
    return vector


@dataclass(frozen=True)
class FeatureVocabulary:
    """Frozen, ordered list of feature keys with their masses.

    Column order is ascending mass with lexicographic tie-breaking, so the
    thirds used by the partitioned network are contiguous mass bands.
    """

    keys: tuple[str, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        order = sorted(range(len(self.keys)), key=lambda i: (self.masses[i], self.keys[i]))
        if order != list(range(len(self.keys))):
            raise ValueError("vocabulary keys are not in (mass, key) order")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("vocabulary contains duplicate keys")
        object.__setattr__(self, "_index", {k: i for i, k in enumerate(self.keys)})

    def __len__(self) -> int:
        return len(self.keys)

    def index(self, key: str) -> int | None:
        return self._index.get(key)

    def blocks(self) -> dict[tuple[str, int, int], np.ndarray]:
        """Column indices grouped by (namespace, height, distance)."""
        groups: dict[tuple[str, int, int], list[int]] = {}
        for i, key in enumerate(self.keys):
            groups.setdefault(parse_feature_key(key), []).append(i)
        return {b: np.asarray(cols) for b, cols in sorted(groups.items())}

    @classmethod
    def from_vectors(cls, vectors: Iterable[FeatureVector]) -> "FeatureVocabulary":
        masses: dict[str, float] = {}
        for vec in vectors:
            masses.update(vec.masses)
        if not masses:
            raise ValueError("no features to build a vocabulary from")
        keys = sorted(masses, key=lambda k: (masses[k], k))
        return cls(tuple(keys), tuple(masses[k] for k in keys))


@dataclass
class DatasetMatrix:
    """Row-per-entity count matrix with labels and an optional vocabulary.

    ``X`` is sparse CSR (or a dense array for derived representations such
    as kernel similarity rows, in which case ``vocab`` is None).  Labels are
    strictly +1/-1.
    """

    X: sp.csr_matrix | np.ndarray
    y: np.ndarray
    ids: tuple[str, ...]
    vocab: FeatureVocabulary | None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=int)
        if self.X.shape[0] != len(self.y) or len(self.ids) != len(self.y):
            raise ValueError("rows, labels and ids must align")
        if not np.all(np.isin(self.y, (-1, 1))):
            raise ValueError("labels must be +1 or -1")
        if self.vocab is not None and self.X.shape[1] != len(self.vocab):
            raise ValueError("matrix width does not match the vocabulary")

    def __len__(self) -> int:
        return len(self.y)

    def dense(self) -> np.ndarray:
        if isinstance(self.X, np.ndarray):
            return self.X
        return self.X.toarray()

    def subset(self, rows: np.ndarray) -> "DatasetMatrix":
        rows = np.asarray(rows)
        return DatasetMatrix(
            self.X[rows], self.y[rows], tuple(self.ids[i] for i in rows), self.vocab
        )


def scoring_rows(X, n_features: int | None) -> np.ndarray:
    """Rows handed to a model's ``score_rows`` as a dense 2-D float array.

    Accepts a sparse matrix, a dense matrix or one row.  Raises
    ``ValueError`` when ``n_features`` is given and the width differs.
    """
    X = np.asarray(X.toarray() if sp.issparse(X) else X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(
            f"rows have {X.shape[1]} features, the model expects {n_features}"
        )
    return X


def build_matrix(
    vectors: Sequence[FeatureVector],
    labels: Sequence[int],
    vocab: FeatureVocabulary | None = None,
    ids: Sequence[str] | None = None,
) -> DatasetMatrix:
    """Assemble feature vectors into a sparse matrix.

    Without a vocabulary one is frozen from the given vectors (the training
    path).  With one, keys absent from it are silently dropped (the
    validation path), so unseen features never add columns.
    """
    if len(vectors) != len(labels):
        raise ValueError("need exactly one label per vector")
    if len(vectors) == 0:
        raise ValueError("no vectors given")
    if vocab is None:
        vocab = FeatureVocabulary.from_vectors(vectors)
    if ids is None:
        ids = tuple(str(i) for i in range(len(vectors)))
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for r, vec in enumerate(vectors):
        for key, count in vec.entries.items():
            c = vocab.index(key)
            if c is not None:
                rows.append(r)
                cols.append(c)
                vals.append(float(count))
    X = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(vectors), len(vocab)), dtype=float
    )
    return DatasetMatrix(X, np.asarray(labels, dtype=int), tuple(ids), vocab)


# --- Files -----------------------------------------------------------------


def save_sparse(stream: TextIO, data: DatasetMatrix) -> None:
    """Write ``<±1> <col>:<count> ...`` lines, 1-based ascending columns."""
    X = data.X.tocsr() if sp.issparse(data.X) else sp.csr_matrix(data.X)
    for r in range(X.shape[0]):
        start, end = X.indptr[r], X.indptr[r + 1]
        cols = X.indices[start:end]
        vals = X.data[start:end]
        order = np.argsort(cols)
        parts = [f"{data.y[r]:+d}"]
        parts.extend(
            f"{cols[i] + 1}:{_format_count(vals[i])}" for i in order
        )
        stream.write(" ".join(parts) + "\n")


def _format_count(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def save_vocab(stream: TextIO, vocab: FeatureVocabulary) -> None:
    """Write ``<col>\\t<key>\\t<mass>`` lines, 1-based columns."""
    for i, (key, mass) in enumerate(zip(vocab.keys, vocab.masses)):
        stream.write(f"{i + 1}\t{key}\t{mass!r}\n")


def load_vocab(stream: TextIO) -> FeatureVocabulary:
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
    return FeatureVocabulary(tuple(keys), tuple(masses))


def load_sparse(
    stream: TextIO, vocab: FeatureVocabulary | None = None
) -> DatasetMatrix:
    """Read a sparse feature file written by :func:`save_sparse`."""
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
    if vocab is not None:
        if width > len(vocab):
            raise ValueError("feature file references columns beyond the vocabulary")
        width = len(vocab)
    X = sp.csr_matrix((vals, (rows, cols)), shape=(len(labels), width), dtype=float)
    ids = tuple(str(i) for i in range(len(labels)))
    return DatasetMatrix(X, np.asarray(labels), ids, vocab)
