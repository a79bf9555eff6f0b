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

import hashlib
import math
import operator
from dataclasses import dataclass, field
from itertools import chain, repeat
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


def parse_feature_key(key: str) -> tuple[str, int, int]:
    """Split a feature key into (namespace, height, distance)."""
    head, _, rest = key.partition("|")
    namespace = ""
    if ":" in head:
        namespace, _, head = head.partition(":")
    height = int(head)
    dist = int(rest.split("|", 1)[0]) if "|" in rest else 0
    return namespace, height, dist


#: One neighborhood as featurization counts it: its ``"<h>|<key>"`` feature
#: key, its canonical key and its mass.
Neighborhood = tuple[str, str, float]


def signature_table(
    graph: MolecularGraph, heights: Sequence[int], memo: dict[str, Neighborhood],
    distances: Sequence[int],
) -> tuple[dict[int, list[Neighborhood]], dict[int, list[tuple[int, int]]]]:
    """Every root's neighborhood at each of the ascending ``heights``, and
    the node pairs at each of the ascending ``distances``.

    Each root's ball is grown once, level by level, in breadth-first order:
    the root is member 0, and each level's new members follow in the order
    their parents were reached, each parent's in graph order.  A member's
    edges to earlier members come from its adjacency, in ascending local
    order.  The subgraph of height ``h`` is then the first members and the
    first edges of the ball, so every height is cut from one ball.

    A level-``d`` member is ``d`` hops from the root, so the ball, grown to
    the largest distance, also gives the pairs: each positive ``d`` maps to
    the ``(root, b)`` with ``b > root`` on level ``d`` of root's ball.  Past
    the top height no text is made, and a ball stops at its first empty level.

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
    pairs_at: dict[int, list[tuple[int, int]]] = {d: [] for d in distances if d > 0}
    top = heights[-1]
    for root in range(len(graph)):
        members = [root]
        local = {root: 0}
        edges: list[tuple[int, int, int]] = []
        token_text = tokens[root] + ","
        edge_text = ""
        level = 0  # local index of the last level's first member
        for h in range(max(top, distances[-1]) + 1):
            if h:
                start = len(members)
                for u in members[level:start]:
                    for v, _order in adjacency[u]:
                        if v not in local:
                            local[v] = len(members)
                            members.append(v)
                level = start
                pairs = pairs_at.get(h)
                if pairs is not None:
                    pairs.extend([(root, b) for b in members[start:] if b > root])
                if h > top:
                    if start == len(members):
                        break
                    continue
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
    return table, pairs_at


def height_features(
    graph: MolecularGraph,
    heights: Iterable[int],
    *,
    memo: dict[str, Neighborhood] | None = None,
) -> FeatureVector:
    """Counts of canonical neighborhood signatures at each height.

    At every height the counts over all signatures sum to the node count:
    each node roots exactly one neighborhood.  ``memo`` holds the
    neighborhoods canonicalized so far (see :func:`signature_table`); pass
    one dict to every molecule of a run to canonicalize each distinct
    subgraph once.  Without it each call uses a fresh dict, so no key
    outlives the call.
    """
    return pair_features(graph, heights, (0,), memo=memo)


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
    of the two subgraph masses.  The pairs are read off the same
    breadth-first balls as the signatures (see :func:`signature_table`),
    so no all-pairs distance table is built.  ``memo`` is shared as in
    :func:`height_features`.
    """
    hs = sorted(set(int(h) for h in heights))
    ds = sorted(set(int(d) for d in distances))
    if not hs or hs[0] < 0:
        raise ValueError("heights must be a nonempty set of nonnegative integers")
    if not ds or ds[0] < 0:
        raise ValueError("distances must be a nonempty set of nonnegative integers")
    vector = FeatureVector()
    table, pairs_at = signature_table(graph, hs, {} if memo is None else memo, ds)
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
    Masses must be finite.  The key-to-column map is built on the first
    :meth:`columns` call.
    """

    keys: tuple[str, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        self._check(np.array(self.masses, dtype=float))

    def _check(self, masses: np.ndarray) -> None:
        """Raise ``ValueError`` unless ``masses`` (this vocabulary's, as an
        array) are finite, and the keys distinct and in (mass, key) order."""
        if masses.shape != (len(self.keys),):
            raise ValueError("vocabulary keys and masses must align")
        if not np.isfinite(masses).all():
            raise ValueError("vocabulary masses must be finite")
        # each (mass, key) against its successor: keys decide only where
        # the masses tie; the set check finds repeats at any distance
        tied = np.flatnonzero(masses[1:] == masses[:-1]).tolist()
        if (masses[1:] < masses[:-1]).any() or any(
            map(operator.gt, _take(self.keys, tied), _take(self.keys, [i + 1 for i in tied]))
        ):
            raise ValueError("vocabulary keys are not in (mass, key) order")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("vocabulary contains duplicate keys")

    @classmethod
    def _unchecked(cls, keys: tuple[str, ...], masses: tuple[float, ...]):
        """A vocabulary of keys and masses already known to be valid."""
        vocab = object.__new__(cls)
        object.__setattr__(vocab, "keys", keys)
        object.__setattr__(vocab, "masses", masses)
        return vocab

    def __len__(self) -> int:
        return len(self.keys)

    def columns(self, keys: Iterable[str], count: int = -1) -> np.ndarray:
        """Column of each of ``keys`` (``count`` of them, if known), -1 for a
        key this vocabulary lacks."""
        positions = self.__dict__.get("_positions")
        if positions is None:
            positions = dict(zip(self.keys, range(len(self.keys))))
            object.__setattr__(self, "_positions", positions)
        return np.fromiter(map(positions.get, keys, repeat(-1)), np.intp, count)

    def block_ids(self) -> np.ndarray:
        """Block number of every column (read-only).

        Blocks are numbered from 0 in sorted (namespace, height, distance)
        order, so ``block_ids().max() + 1`` is the number of blocks.  The
        keys are parsed once per vocabulary.
        """
        return self._block_table()[1]

    def sha256(self) -> str:
        """Hex sha256 of the keys joined by newlines in column order; taken
        once per vocabulary."""
        digest = self.__dict__.get("_sha256")
        if digest is None:
            digest = hashlib.sha256("\n".join(self.keys).encode("utf-8")).hexdigest()
            object.__setattr__(self, "_sha256", digest)
        return digest

    def restrict(self, columns: np.ndarray) -> "FeatureVocabulary":
        """Vocabulary of the given strictly ascending ``columns`` only.

        Any such subset of an ordered vocabulary of distinct keys is one
        too, so the keys are gathered without being checked again.  The
        block map is taken from this vocabulary's rather than parsed again,
        and renumbered over the blocks that still have a column.
        """
        columns = np.asarray(columns, dtype=np.intp)
        if (np.diff(columns, prepend=-1, append=len(self)) <= 0).any():
            raise ValueError("columns must be strictly ascending columns of the vocabulary")
        picked = columns.tolist()
        vocab = FeatureVocabulary._unchecked(
            _take(self.keys, picked), _take(self.masses, picked)
        )
        labels, ids = self._block_table()
        kept, ids = np.unique(ids[columns], return_inverse=True)
        vocab._set_block_table(tuple(labels[b] for b in kept), ids)
        return vocab

    def _block_table(self) -> tuple[tuple[tuple[str, int, int], ...], np.ndarray]:
        table = self.__dict__.get("_blocks")
        if table is None:
            # A key's block is fixed by its text up to the second "|" (the
            # first when it has one only, all of it when it has none), which
            # many keys share.  Every key's cut is found in the code points
            # of all keys at once, and each distinct prefix is parsed once.
            text = "".join(self.keys)
            codes = (
                np.frombuffer(text.encode("ascii"), np.uint8) if text.isascii()
                else np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
            )
            lengths = np.fromiter(map(len, self.keys), np.intp, len(self.keys))
            ends = np.cumsum(lengths)
            starts = ends - lengths
            bars = np.append(np.flatnonzero(codes == ord("|")), [len(codes)] * 2)
            first = np.searchsorted(bars, starts)
            one, two = bars[first], bars[first + 1]
            cuts = np.where(two < ends, two + 1, np.where(one < ends, one + 1, ends)) - starts
            prefixes = [key[:cut] for key, cut in zip(self.keys, cuts.tolist())]
            parsed = {p: parse_feature_key(p) for p in set(prefixes)}
            labels = sorted(set(parsed.values()))
            number = {b: i for i, b in enumerate(labels)}
            block_of = {p: number[b] for p, b in parsed.items()}
            ids = np.fromiter(map(block_of.__getitem__, prefixes), np.intp, len(prefixes))
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
        keys, values = list(masses), list(masses.values())
        mass = np.array(values, dtype=float)
        if not np.isfinite(mass).all():
            raise ValueError("vocabulary masses must be finite")
        order = np.argsort(mass, kind="stable")
        # keys break ties in mass: the keys of tied masses are sorted, then
        # stably by mass, back into the places their masses hold
        same = mass[order[1:]] == mass[order[:-1]]
        places = np.flatnonzero(np.append(same, False) | np.insert(same, 0, False))
        tied = order[places]
        tied = tied[sorted(range(len(tied)), key=_take(keys, tied.tolist()).__getitem__)]
        order[places] = tied[np.argsort(mass[tied], kind="stable")]
        # (mass, key) order, keys distinct: nothing is left to check
        picked = order.tolist()
        return cls._unchecked(_take(keys, picked), _take(values, picked))


def _take(items: Sequence, positions: list[int]) -> tuple:
    """``items[i]`` for every ``i`` of ``positions``, as a tuple."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)(items)
    return tuple(items[i] for i in positions)


@dataclass
class DatasetMatrix:
    """Row-per-entity count matrix with labels and an optional vocabulary.

    ``X`` is sparse CSR (or a dense array for derived representations such
    as kernel similarity rows, in which case ``vocab`` is None).  Rows are
    identified by their position.  The kernels and the forest read the
    sparse rows as they are; the SVM and the nets still densify them
    through :meth:`dense`.  Labels are strictly +1/-1.  A matrix read by
    :func:`load_sparse` is built directly from the file's CSR arrays:
    ascending columns, no duplicates, finite counts.
    """

    X: sp.csr_matrix | np.ndarray
    y: np.ndarray
    vocab: FeatureVocabulary | None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=int)
        if self.X.shape[0] != len(self.y):
            raise ValueError("rows and labels must align")
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
        return DatasetMatrix(self.X[rows], self.y[rows], self.vocab)


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
    # every vector's keys mapped to columns in one pass
    entries = [vec.entries for vec in vectors]
    sizes = list(map(len, entries))
    cols = vocab.columns(chain.from_iterable(entries), sum(sizes))
    counts = np.fromiter(chain.from_iterable(map(dict.values, entries)), float, len(cols))
    rows = np.repeat(np.arange(len(vectors)), sizes)
    kept = cols >= 0
    X = sp.csr_matrix(
        (counts[kept], (rows[kept], cols[kept])), shape=(len(vectors), len(vocab)), dtype=float
    )
    return DatasetMatrix(X, np.asarray(labels, dtype=int), vocab)


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
    """Read a vocabulary file written by :func:`save_vocab`.

    The whole text is split at once, and when every line holds three
    tab-separated fields, the column numbers and masses of all lines are
    converted together, by the ``int`` and ``float`` text rules, as in
    :func:`load_sparse`.  Any other text is read one line at a time, which
    skips blank lines and raises ``ValueError`` at the first faulty line: a
    malformed one, a column out of sequence or a mass that is not finite.
    """
    keys, masses = _vocab_fields(stream.read())
    vocab = FeatureVocabulary._unchecked(keys, tuple(masses.tolist()))
    vocab._check(masses)
    return vocab


#: Every byte but tab and newline: deleting them leaves a file's layout.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b"\t\n")


def _vocab_fields(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The keys and masses of a vocabulary file's text."""
    body = text if text.endswith("\n") or not text else text + "\n"
    layout = body.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
    lines = layout.count(b"\n")
    if layout == b"\t\t\n" * lines:
        fields = body.replace("\n", "\t").split("\t")  # three a line, then ""
        try:
            cols = np.array(fields[0:-1:3], dtype=np.int64)
            masses = np.array(fields[2::3], dtype=float)
        except (ValueError, OverflowError):
            pass  # the line loop names the line
        else:
            if (cols == np.arange(1, lines + 1)).all() and np.isfinite(masses).all():
                return tuple(fields[1::3]), masses
    return _vocab_lines(text)


def _vocab_lines(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """:func:`_vocab_fields` one line at a time, to report the first fault."""
    keys: list[str] = []
    masses: list[float] = []
    for lineno, line in enumerate(text.split("\n")):
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
        if not math.isfinite(masses[-1]):
            raise ValueError(f"vocabulary line {lineno + 1} has a mass that is not finite")
    return tuple(keys), np.array(masses, dtype=float)


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
    return DatasetMatrix(X, np.asarray(labels), vocab)
