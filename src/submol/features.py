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

import operator
import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Sequence, TextIO

import numpy as np
import scipy.sparse as sp

from . import signatures
from .graph import MolecularGraph
from .signatures import node_token, subgraph_mass

# Not called here; the benchmark's tracer (bench/spans.py) patches this name.
from .signatures import neighborhood_subgraph  # noqa: F401


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


#: The text of a feature key up to and including its second "|" (its first
#: "|" when there is one only; the whole key when there is none).
#: :func:`parse_feature_key` reads the same block from it as from the key.
_BLOCK_PREFIX = re.compile(r"[^|]*(?:\|(?:[^|]*\|)?)?")


#: One neighborhood as featurization counts it: its ``"<h>|<key>"`` feature
#: key, its canonical key and its mass.
Neighborhood = tuple[str, str, float]


def _signature_table(
    graph: MolecularGraph, heights: Sequence[int], memo: dict[str, Neighborhood]
) -> dict[int, list[Neighborhood]]:
    """Every root's neighborhood at each of the ascending ``heights``.

    Each root's ball is grown once, level by level, in breadth-first order:
    the root is member 0, and each level's new members follow in the order
    their parents were reached, each parent's in graph order.  A member's
    edges to earlier members come from its adjacency, in ascending local
    order.  The subgraph of height ``h`` is then the first members and the
    first edges of the ball, so every height is cut from one ball.

    ``memo`` maps the subgraph as cut, the text ``"<h>;<tokens>;<edges>"``,
    to its :data:`Neighborhood`.  Each member's node token, in member
    order, is followed by ``,``, and so is each edge, written
    ``<i>-<k>:<order>`` in ascending ``(k, i)`` order.  A node token is an
    element symbol or residue letter with its hydrogen count and signed
    charge, so none holds ``,`` or ``;``: the text splits back into one
    height, one token list and one edge list.  Equal memo keys are thus
    equal rooted labeled graphs with equal canonical keys, and, since a
    token fixes its node's mass, equal masses.  Isomorphic subgraphs cut in
    different orders only miss the memo and are canonicalized again.
    """
    tokens = [node_token(atom) for atom in graph.nodes]
    masses = [atom.mass() for atom in graph.nodes]
    adjacency = [graph.neighbors(v) for v in range(len(graph))]
    table: dict[int, list[Neighborhood]] = {h: [] for h in heights}
    top = heights[-1]
    for root in range(len(graph)):
        members = [root]
        local = {root: 0}
        edges: list[tuple[int, int, int]] = []
        token_text = tokens[root] + ","
        edge_text = ""
        level = 0  # local index of the last level's first member
        for h in range(top + 1):
            if h:
                start = len(members)
                for u in members[level:start]:
                    for v, _order in adjacency[u]:
                        if v not in local:
                            local[v] = len(members)
                            members.append(v)
                level = start
                for k in range(start, len(members)):
                    v = members[k]
                    token_text += tokens[v] + ","
                    back = [
                        (i, order)
                        for w, order in adjacency[v]
                        if (i := local.get(w, k)) < k
                    ]
                    if len(back) > 1:
                        back.sort()
                    for i, order in back:
                        edges.append((i, k, order))
                        edge_text += f"{i}-{k}:{order},"
            cut = table.get(h)
            if cut is None:
                continue
            memo_key = f"{h};{token_text};{edge_text}"
            entry = memo.get(memo_key)
            if entry is None:
                key = signatures.canonical_key(
                    [tokens[v] for v in members], edges, 0
                )
                mass = subgraph_mass([masses[v] for v in members])
                entry = memo[memo_key] = (f"{h}|{key}", key, mass)
            cut.append(entry)
    return table


def height_features(
    graph: MolecularGraph,
    heights: Iterable[int],
    *,
    memo: dict[str, Neighborhood] | None = None,
) -> FeatureVector:
    """Counts of canonical neighborhood signatures at each height.

    At every height the counts over all signatures sum to the node count:
    each node roots exactly one neighborhood.  ``memo`` holds the
    neighborhoods canonicalized so far (see :func:`_signature_table`); pass
    one dict to every molecule of a run to canonicalize each distinct
    subgraph once.  Without it each call uses a fresh dict, so no key
    outlives the call.
    """
    hs = sorted(set(int(h) for h in heights))
    if not hs or hs[0] < 0:
        raise ValueError("heights must be a nonempty set of nonnegative integers")
    vector = FeatureVector()
    for entries in _signature_table(graph, hs, {} if memo is None else memo).values():
        for feature_key, _key, mass in entries:
            vector.add(feature_key, mass)
    return vector


def pair_features(
    graph: MolecularGraph,
    heights: Iterable[int],
    distances: Iterable[int],
    *,
    memo: dict[str, Neighborhood] | None = None,
) -> FeatureVector:
    """Counts of signature pairs whose roots are a set distance apart.

    For distance zero this degenerates to :func:`height_features` keys, so a
    distance set of ``{0}`` reproduces plain height features exactly.  For
    positive distances each unordered node pair at that shortest-path
    distance contributes one count; the two signature keys are ordered
    lexicographically inside the feature key, and the key's mass is the sum
    of the two subgraph masses.  ``memo`` is shared as in
    :func:`height_features`.
    """
    hs = sorted(set(int(h) for h in heights))
    ds = sorted(set(int(d) for d in distances))
    if not hs or hs[0] < 0:
        raise ValueError("heights must be a nonempty set of nonnegative integers")
    if not ds or ds[0] < 0:
        raise ValueError("distances must be a nonempty set of nonnegative integers")
    vector = FeatureVector()
    table = _signature_table(graph, hs, {} if memo is None else memo)
    # node pairs (a < b, in row-major order) grouped by their distance
    pairs_at: dict[int, list[tuple[int, int]]] = {d: [] for d in ds if d > 0}
    for a, row in enumerate(graph.distances().tolist()):
        for b in range(a + 1, len(row)):
            pairs = pairs_at.get(row[b])
            if pairs is not None:
                pairs.append((a, b))
    for d in ds:
        if d == 0:
            for entries in table.values():
                for feature_key, _key, mass in entries:
                    vector.add(feature_key, mass)
            continue
        pairs = pairs_at[d]
        for h in hs:
            entries = table[h]
            for a, b in pairs:
                _, key_a, mass_a = entries[a]
                _, key_b, mass_b = entries[b]
                ka, kb = sorted((key_a, key_b))
                vector.add(f"{h}|{d}|{ka}|{kb}", mass_a + mass_b)
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
        # each (mass, key) against its successor; the set check finds ties
        following = zip(self.masses[1:], self.keys[1:])
        if any(map(operator.gt, zip(self.masses, self.keys), following)):
            raise ValueError("vocabulary keys are not in (mass, key) order")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("vocabulary contains duplicate keys")
        object.__setattr__(self, "_index", {k: i for i, k in enumerate(self.keys)})

    def __len__(self) -> int:
        return len(self.keys)

    def index(self, key: str) -> int | None:
        return self._index.get(key)

    def block_ids(self) -> np.ndarray:
        """Block number of every column (read-only).

        Blocks are numbered from 0 in sorted (namespace, height, distance)
        order, so ``block_ids().max() + 1`` is the number of blocks.  The
        keys are parsed once per vocabulary.
        """
        return self._block_table()[1]

    def restrict(self, columns: np.ndarray) -> "FeatureVocabulary":
        """Vocabulary of the given ascending ``columns`` only.

        The block map is taken from this vocabulary's rather than parsed
        again, and renumbered over the blocks that still have a column.
        """
        columns = np.asarray(columns, dtype=np.intp)
        vocab = FeatureVocabulary(
            tuple(self.keys[i] for i in columns),
            tuple(self.masses[i] for i in columns),
        )
        labels, ids = self._block_table()
        kept, ids = np.unique(ids[columns], return_inverse=True)
        vocab._set_block_table(tuple(labels[b] for b in kept), ids)
        return vocab

    def _block_table(self) -> tuple[tuple[tuple[str, int, int], ...], np.ndarray]:
        table = self.__dict__.get("_blocks")
        if table is None:
            # a key's block is fixed by its text up to the second "|", which
            # many keys share: parse each distinct prefix once
            prefixes = [_BLOCK_PREFIX.match(key).group() for key in self.keys]
            parsed = {p: parse_feature_key(p) for p in set(prefixes)}
            labels = sorted(set(parsed.values()))
            number = {b: i for i, b in enumerate(labels)}
            ids = np.fromiter(
                (number[parsed[p]] for p in prefixes), np.intp, len(prefixes)
            )
            table = self._set_block_table(tuple(labels), ids)
        return table

    def _set_block_table(self, labels, ids: np.ndarray):
        ids.flags.writeable = False
        object.__setattr__(self, "_blocks", (labels, ids))
        return labels, ids

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
    as kernel similarity rows, in which case ``vocab`` is None).  The
    kernels and the forest read the sparse rows as they are; the SVM and
    the nets still densify them through :meth:`dense`.  Labels are strictly
    +1/-1.  A matrix read by :func:`load_sparse` is built directly from the
    file's CSR arrays: ascending columns, no duplicates, finite counts.
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


def scoring_rows(X, n_features: int) -> np.ndarray:
    """Rows handed to a model's ``score_rows`` as a dense 2-D float array.

    Accepts a sparse matrix, a dense matrix or one row.  Raises
    ``ValueError`` when the width is not ``n_features``.
    """
    X = np.asarray(X.toarray() if sp.issparse(X) else X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != n_features:
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


#: About how many items :func:`save_sparse` formats per call.  A block's
#: template and argument list take some 200 bytes an item, so a few MB.
SAVE_BLOCK_ITEMS = 1 << 14

#: ``%`` specifiers of a non-integral and an integral item: ``%r`` formats a
#: count as its repr, ``%d`` an integral float as ``str(int(value))``.
_ITEM_SPECS = np.array([" %d:%r", " %d:%d"], dtype=object)


def save_sparse(stream: TextIO, data: DatasetMatrix) -> None:
    """Write ``<±1> <col>:<count> ...`` lines, 1-based ascending columns.

    An integral count is written as an integer, any other as its shortest
    round-trip repr.  Each block of rows is formatted by one ``%`` call.
    """
    X = sp.csr_matrix(data.X).sorted_indices()
    step = max(1, SAVE_BLOCK_ITEMS * X.shape[0] // max(X.nnz, 1))
    for r0 in range(0, X.shape[0], step):
        starts = X.indptr[r0 : r0 + step + 1]
        lo, hi = starts[0], starts[-1]
        vals = X.data[lo:hi]
        integral = np.isfinite(vals) & (vals == np.floor(vals))
        specs, bounds = _ITEM_SPECS[integral.view(np.int8)].tolist(), (starts - lo).tolist()
        template = "".join(
            "%+d" + "".join(specs[a:b]) + "\n" for a, b in zip(bounds, bounds[1:])
        )
        # each row's label, then its (column, count) pairs
        pairs = np.column_stack([X.indices[lo:hi] + 1.0, vals]).ravel()
        args = np.insert(pairs, 2 * (starts[:-1] - lo), data.y[r0 : r0 + step])
        stream.write(template % tuple(args.tolist()))


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
    """Read a sparse feature file written by :func:`save_sparse`.

    Each line gives its label and its item count.  The ``col:count`` items
    of the whole file are then converted together, by the ``int`` and
    ``float`` text rules and with their error messages, and the CSR matrix
    is built from the arrays.  A malformed file, a count that is not finite
    included, raises ``ValueError``.
    """
    labels: list[int] = []
    lengths: list[int] = []
    chunks: list[str] = []
    for line in stream:
        fields = line.split()
        if not fields:
            continue
        label = int(fields[0])
        if label not in (-1, 1):
            raise ValueError(f"label {fields[0]!r} is not +1 or -1")
        items = fields[1:]
        if line.count(":") != len(items) or not all(map(operator.contains, items, repeat(":"))):
            # items split together only when each holds one ":"; the first
            # that does not is converted on its own, which raises its error
            col_text, _, count_text = next(i for i in items if i.count(":") != 1).partition(":")
            int(col_text)
            float(count_text)  # raises: the count is empty or holds a ":"
        labels.append(label)
        lengths.append(len(items))
        if items:
            chunks.append(" ".join(items))
    if not labels:
        raise ValueError("empty feature file")
    parts = " ".join(chunks).replace(":", " ").split(" ") if chunks else []
    try:
        cols = np.array(parts[0::2], dtype=np.int64)
    except OverflowError:
        raise ValueError("feature file references columns beyond the vocabulary") from None
    vals = np.array(parts[1::2], dtype=float)
    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    # a row's first column against 0, every other against its predecessor
    steps = np.diff(cols, prepend=0)
    firsts = indptr[:-1][indptr[:-1] < len(cols)]
    steps[firsts] = cols[firsts]
    if (steps <= 0).any():
        raise ValueError("columns must be ascending and 1-based")
    if not np.isfinite(vals).all():
        raise ValueError("feature counts must be finite")
    width = int(cols.max(initial=0))
    if vocab is not None:
        if width > len(vocab):
            raise ValueError("feature file references columns beyond the vocabulary")
        width = len(vocab)
    X = sp.csr_matrix((vals, cols - 1, indptr), shape=(len(labels), width))
    ids = tuple(str(i) for i in range(len(labels)))
    return DatasetMatrix(X, np.asarray(labels), ids, vocab)
