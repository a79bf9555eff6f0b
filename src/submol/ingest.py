"""Dataset assembly: labeled molecule sets, interaction pairs, resolution.

Structure lookups are offline first: a directory cache maps an identifier to
a four-line record (kind, name, structure, source).  A fetch hook may be
plugged in to fill cache misses from a live service; a fetched record whose
reported name does not match the query (case-insensitively, after collapsing
whitespace) is rejected rather than trusted, and nothing is cached for it.
"""

from __future__ import annotations

import csv
import itertools
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, TextIO
from urllib.parse import quote, unquote

from .features import (
    FeatureVector,
    Neighborhood,
    height_features,
    pair_features,
    prefix_features,
)
from .graph import MolecularGraph, parse_sdf, parse_smiles, protein_to_chain_graph

KIND_SMALL_MOLECULE = "small-molecule"
KIND_PROTEIN = "protein"
KINDS = (KIND_SMALL_MOLECULE, KIND_PROTEIN)


class IngestError(ValueError):
    """A dataset could not be assembled at all."""


class ResolutionError(LookupError):
    """One identifier could not be resolved to a structure."""


@dataclass(frozen=True)
class StructureRecord:
    """A resolved structure: SMILES for molecules, sequence for proteins."""

    ident: str
    kind: str
    name: str
    structure: str
    source: str

    def to_graph(self) -> MolecularGraph:
        if self.kind == KIND_PROTEIN:
            return protein_to_chain_graph(self.structure, name=self.ident)
        graph = parse_smiles(self.structure)
        graph.name = self.ident
        return graph


@dataclass(frozen=True)
class FetchResult:
    """What a fetch hook reports back for a query."""

    name: str
    structure: str
    source: str


def _normalize_name(name: str) -> str:
    return re.sub(r"\s+", " ", name.strip()).casefold()


class Resolver:
    """Identifier-to-structure resolution backed by a directory cache.

    Without a fetch hook the resolver is fully offline and a cache miss is
    final.  With one, misses are fetched, name-checked against the query and
    then cached; cached records are never overwritten.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        fetch_hook: Callable[[str, str | None], FetchResult | None] | None = None,
    ):
        self.cache_dir = str(cache_dir)
        self.fetch_hook = fetch_hook
        os.makedirs(self.cache_dir, exist_ok=True)

    def _path(self, ident: str) -> str:
        return os.path.join(self.cache_dir, quote(ident, safe="") + ".rec")

    def cached_ids(self) -> list[str]:
        out = []
        for entry in sorted(os.listdir(self.cache_dir)):
            if entry.endswith(".rec"):
                out.append(unquote(entry[: -len(".rec")]))
        return out

    def _read(self, ident: str) -> StructureRecord | None:
        path = self._path(ident)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if len(lines) < 4:
            raise ResolutionError(f"{ident}: cache record is malformed")
        kind, name, structure, source = lines[0], lines[1], lines[2], lines[3]
        if kind not in KINDS:
            raise ResolutionError(f"{ident}: cache record has unknown kind {kind!r}")
        return StructureRecord(ident, kind, name, structure, source)

    def _write(self, record: StructureRecord) -> None:
        path = self._path(record.ident)
        if os.path.exists(path):
            return
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(
                f"{record.kind}\n{record.name}\n{record.structure}\n{record.source}\n"
            )
        os.replace(tmp, path)

    def resolve(self, ident: str, kind: str | None = None) -> StructureRecord:
        """Resolve one identifier, preferring the cache.

        ``kind`` (when given) must match the record's kind.  Raises
        :class:`ResolutionError` on a miss without a hook, on a fetch
        failure, on a name mismatch, or on a kind mismatch.
        """
        if kind is not None and kind not in KINDS:
            raise ValueError(f"unknown structure kind {kind!r}")
        record = self._read(ident)
        if record is not None:
            if kind is not None and record.kind != kind:
                raise ResolutionError(
                    f"{ident}: cached record is a {record.kind}, wanted {kind}"
                )
            return record
        if self.fetch_hook is None:
            raise ResolutionError(f"{ident}: not in cache and fetching is disabled")
        try:
            result = self.fetch_hook(ident, kind)
        except Exception as exc:
            raise ResolutionError(f"{ident}: fetch failed: {exc}") from exc
        if result is None:
            raise ResolutionError(f"{ident}: no structure found")
        if _normalize_name(result.name) != _normalize_name(ident):
            raise ResolutionError(
                f"{ident}: fetched record is named {result.name!r}, not trusting it"
            )
        record = StructureRecord(
            ident, kind or KIND_SMALL_MOLECULE, result.name, result.structure,
            result.source,
        )
        record.to_graph()  # validate the structure before caching it
        self._write(record)
        return record


# --- Labeled molecule sets -------------------------------------------------


@dataclass
class LabeledGraphs:
    """Parsed molecules with +1/-1 labels and per-record skip reasons."""

    graphs: list[MolecularGraph]
    labels: list[int]
    skipped: list[tuple[int, str]] = field(default_factory=list)

    @property
    def positives(self) -> int:
        return sum(1 for y in self.labels if y == 1)

    @property
    def negatives(self) -> int:
        return sum(1 for y in self.labels if y == -1)


def label_records(
    parsed: tuple[list, list], label_key: str | None, positive_value: str
) -> LabeledGraphs:
    """Label the records of a :func:`parse_sdf` result.

    Records whose ``label_key`` item equals ``positive_value`` (after
    stripping) are +1, all others -1; without a ``label_key`` every record
    is +1.  Records that failed to parse or lack the label are skipped with
    a reason, each under its index among all records of the file.
    """
    records, skipped_records = parsed
    out = LabeledGraphs([], [])
    out.skipped.extend((s.index, s.reason) for s in skipped_records)
    failed = {s.index for s in skipped_records}
    indices = (index for index in itertools.count() if index not in failed)
    for index, (graph, props) in zip(indices, records):
        if label_key is None:
            label = 1
        elif label_key in props:
            label = 1 if props[label_key].strip() == positive_value else -1
        else:
            out.skipped.append((index, f"missing label item {label_key!r}"))
            continue
        out.graphs.append(graph)
        out.labels.append(label)
    return out


def load_bursi(
    source: TextIO | str, label_key: str, positive_value: str
) -> LabeledGraphs:
    """Load an SDF where a data item carries the class label.

    Labels and skips follow :func:`label_records`; an entirely unusable file
    raises :class:`IngestError`.
    """
    out = label_records(parse_sdf(source), label_key, positive_value)
    if not out.graphs:
        raise IngestError("no usable records in the structure-data file")
    return out


# --- Interaction pairs -----------------------------------------------------


@dataclass(frozen=True)
class InteractionPair:
    id_a: str
    id_b: str
    graph_a: MolecularGraph
    graph_b: MolecularGraph
    kind_b: str
    label: int


@dataclass
class PairDataset:
    pairs: list[InteractionPair]
    dropped: list[tuple[int, str]] = field(default_factory=list)

    @property
    def positives(self) -> int:
        return sum(1 for p in self.pairs if p.label == 1)

    @property
    def negatives(self) -> int:
        return sum(1 for p in self.pairs if p.label == -1)


def _graph_for(
    ident: str,
    inline: str | None,
    kind: str,
    resolver: Resolver | None,
) -> MolecularGraph:
    if inline:
        return StructureRecord(ident, kind, ident, inline, "inline").to_graph()
    if resolver is None:
        raise ResolutionError(f"{ident}: no inline structure and no resolver")
    return resolver.resolve(ident, kind).to_graph()


def load_pairs(source: TextIO, resolver: Resolver | None = None) -> PairDataset:
    """Load an interaction-pair CSV.

    Columns: ``id_a, id_b, label`` plus optional inline structures
    ``smiles_a`` and either ``smiles_b`` or ``seq_b`` (the header name
    decides whether entity b is a molecule or a protein; without either
    column it defaults to a molecule).  Rows whose structures cannot be
    obtained are dropped with a reason, not fatal.  Molecule-molecule pairs
    are put in canonical (id-sorted) order so (a, b) and (b, a) land on
    identical rows.
    """
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise IngestError("empty pair file")
    fields = set(reader.fieldnames)
    missing = {"id_a", "id_b", "label"} - fields
    if missing:
        raise IngestError(f"pair file lacks required columns: {sorted(missing)}")
    if "smiles_b" in fields and "seq_b" in fields:
        raise IngestError("pair file has both smiles_b and seq_b columns")
    kind_b = KIND_PROTEIN if "seq_b" in fields else KIND_SMALL_MOLECULE

    dataset = PairDataset([])
    for row_no, row in enumerate(reader):
        try:
            id_a = (row.get("id_a") or "").strip()
            id_b = (row.get("id_b") or "").strip()
            label_text = (row.get("label") or "").strip()
            if not id_a or not id_b:
                raise IngestError("missing id")
            if label_text not in ("1", "+1", "-1"):
                raise IngestError(f"label must be +1 or -1, got {label_text!r}")
            label = 1 if label_text in ("1", "+1") else -1
            inline_a = (row.get("smiles_a") or "").strip() or None
            inline_b = (row.get("smiles_b") or row.get("seq_b") or "").strip() or None
            if kind_b == KIND_SMALL_MOLECULE and id_b < id_a:
                # canonical order for molecule-molecule pairs
                id_a, id_b = id_b, id_a
                inline_a, inline_b = inline_b, inline_a
            graph_a = _graph_for(id_a, inline_a, KIND_SMALL_MOLECULE, resolver)
            graph_b = _graph_for(id_b, inline_b, kind_b, resolver)
            dataset.pairs.append(
                InteractionPair(id_a, id_b, graph_a, graph_b, kind_b, label)
            )
        except (IngestError, ResolutionError, ValueError) as exc:
            dataset.dropped.append((row_no, str(exc)))
    return dataset


def featurize_pair(
    pair: InteractionPair,
    heights: Iterable[int],
    distances: Iterable[int] | None = None,
    *,
    memo: dict[str, Neighborhood] | None = None,
) -> FeatureVector:
    """Concatenated features of both entities under disjoint namespaces.

    Entity a's features are prefixed ``drug:``, entity b's ``target:``, so
    the two blocks can never collide in a shared vocabulary.  ``memo`` is
    passed on to :func:`height_features` or :func:`pair_features`.
    """

    def featurize(graph: MolecularGraph) -> FeatureVector:
        if distances is None:
            return height_features(graph, heights, memo=memo)
        return pair_features(graph, heights, distances, memo=memo)

    left = prefix_features(featurize(pair.graph_a), "drug")
    right = prefix_features(featurize(pair.graph_b), "target")
    overlap = set(left.entries) & set(right.entries)
    assert not overlap, f"namespaced feature keys collided: {sorted(overlap)[:3]}"
    merged = FeatureVector(dict(left.entries), dict(left.masses))
    for key, count in right.entries.items():
        merged.add(key, right.masses[key], count)
    return merged


def featurize_pairs(
    dataset: PairDataset,
    heights: Iterable[int],
    distances: Iterable[int] | None = None,
) -> tuple[list[FeatureVector], list[int], list[str]]:
    """Feature vectors, labels and ids for every pair in the dataset.

    One memo serves every entity of the dataset, so each distinct
    neighborhood is canonicalized once; it is dropped on return.
    """
    memo: dict[str, Neighborhood] = {}
    vectors = [featurize_pair(p, heights, distances, memo=memo) for p in dataset.pairs]
    labels = [p.label for p in dataset.pairs]
    ids = [f"{p.id_a}~{p.id_b}" for p in dataset.pairs]
    return vectors, labels, ids
