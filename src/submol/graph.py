"""Molecular graphs and the parsers that build them.

Molecules are labeled undirected graphs: nodes carry an element symbol (or a
one-letter residue code for protein chains), an implicit-hydrogen count and a
formal charge; edges carry a bond order.  Three front ends produce them:

* :func:`parse_smiles` — a line-notation subset covering the organic-subset
  elements, bracket atoms, branches, ring closures and aromatic lowercase.
* :func:`parse_sdf` — V2000 structure-data files with per-record data items.
* :func:`protein_to_chain_graph` — amino-acid sequences as path graphs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .elements import (
    AMINO_ACIDS,
    AROMATIC_ELEMENTS,
    ATOMIC_MASSES,
    HYDROGEN_MASS,
    ORGANIC_SUBSET,
    RESIDUE_MASSES,
    implicit_valence,
)

#: Bond order used for aromatic bonds (the V2000 convention).
AROMATIC_BOND = 4

BOND_ORDERS = (1, 2, 3, AROMATIC_BOND)


class ParseError(ValueError):
    """Raised when molecular input text cannot be parsed.

    ``position`` is the zero-based character (or line) offset of the problem
    within the input that was being read.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class AtomNode:
    """One heavy atom (or one residue) of a molecular graph."""

    label: str
    hydrogens: int = 0
    charge: int = 0
    aromatic: bool = False
    residue: bool = False

    def mass(self) -> float:
        """Mass of the node including its implicit hydrogens."""
        if self.residue:
            return RESIDUE_MASSES[self.label]
        return ATOMIC_MASSES[self.label] + HYDROGEN_MASS * self.hydrogens


class MolecularGraph:
    """An immutable labeled undirected graph with bond orders on edges.

    Edges are stored as ``(i, j, order)`` with ``i < j``.  Self loops and
    duplicate edges are rejected.  ``distances()`` returns (and caches) the
    all-pairs hop-count table.
    """

    __slots__ = ("nodes", "edges", "name", "_adjacency", "_distances")

    def __init__(
        self,
        nodes: Iterable[AtomNode],
        edges: Iterable[tuple[int, int, int]],
        name: str = "",
    ):
        self.nodes: tuple[AtomNode, ...] = tuple(nodes)
        if not self.nodes:
            raise ValueError("a molecular graph needs at least one node")
        n = len(self.nodes)
        seen: set[tuple[int, int]] = set()
        normalized = []
        for i, j, order in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) references a missing node")
            if i == j:
                raise ValueError(f"self loop on node {i}")
            if order not in BOND_ORDERS:
                raise ValueError(f"unsupported bond order {order!r}")
            a, b = (i, j) if i < j else (j, i)
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            normalized.append((a, b, order))
        self.edges: tuple[tuple[int, int, int], ...] = tuple(normalized)
        self.name = name
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for a, b, order in self.edges:
            adjacency[a].append((b, order))
            adjacency[b].append((a, order))
        self._adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        self._distances: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def neighbors(self, i: int) -> tuple[tuple[int, int], ...]:
        """Neighbors of node ``i`` as ``(node, bond order)`` pairs."""
        return self._adjacency[i]

    def distances(self) -> np.ndarray:
        """All-pairs shortest-path hop counts; unreachable pairs are inf."""
        if self._distances is None:
            self._distances = all_pairs_distances(self)
        return self._distances


def all_pairs_distances(graph: MolecularGraph) -> np.ndarray:
    """Breadth-first hop counts between every node pair.

    Returns an ``n x n`` float array; unreachable pairs hold ``inf`` and the
    diagonal is zero.
    """
    n = len(graph)
    dist = np.full((n, n), np.inf)
    for start in range(n):
        dist[start, start] = 0.0
        frontier = [start]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v, _ in graph.neighbors(u):
                    if dist[start, v] == np.inf:
                        dist[start, v] = d
                        nxt.append(v)
            frontier = nxt
    return dist


# --- SMILES ----------------------------------------------------------------

_AROMATIC_LOWER = {e.lower(): e for e in AROMATIC_ELEMENTS}


def _implicit_hydrogens(
    element: str, charge: int, aromatic: bool, bond_sum: int
) -> int:
    """Hydrogens implied by standard valence, adjusted for a formal charge.

    Aromatic atoms reserve one valence for the ring system, so their target
    valence is the smallest typical valence minus one.  Aromatic bonds count
    one towards ``bond_sum``.
    """
    valences = implicit_valence(element, charge)
    if aromatic and valences:
        return max(0, valences[0] - 1 - bond_sum)
    for v in valences:
        if v >= bond_sum:
            return v - bond_sum
    return 0


class _SmilesReader:
    """Single-pass recursive-descent reader for the SMILES subset."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.atoms: list[AtomNode] = []
        self.bracketed: list[bool] = []
        self.bond_sums: list[int] = []
        self.edges: list[tuple[int, int, int]] = []
        # ring number -> (atom index, explicit bond order or None, offset)
        self.open_rings: dict[int, tuple[int, int | None, int]] = {}

    def error(self, message: str, position: int | None = None) -> ParseError:
        return ParseError(message, self.pos if position is None else position)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def parse(self) -> MolecularGraph:
        if not self.text:
            raise ParseError("empty SMILES string", 0)
        self.read_chain(prev=None)
        if self.pos < len(self.text):
            raise self.error(f"unexpected character {self.peek()!r}")
        if self.open_rings:
            num, (_, _, offset) = min(self.open_rings.items())
            raise ParseError(f"unmatched ring closure {num}", offset)
        nodes = [self.finish_atom(i) for i in range(len(self.atoms))]
        return MolecularGraph(nodes, self.edges)

    def finish_atom(self, i: int) -> AtomNode:
        atom = self.atoms[i]
        if self.bracketed[i]:
            return atom
        hydro = _implicit_hydrogens(
            atom.label, atom.charge, atom.aromatic, self.bond_sums[i]
        )
        return AtomNode(atom.label, hydro, atom.charge, atom.aromatic)

    def add_bond(self, i: int, j: int, order: int, offset: int) -> None:
        if i == j:
            raise ParseError("ring closure bonds an atom to itself", offset)
        a, b = (i, j) if i < j else (j, i)
        if any(e[0] == a and e[1] == b for e in self.edges):
            raise ParseError("duplicate bond between the same atoms", offset)
        self.edges.append((a, b, order))
        weight = 1 if order == AROMATIC_BOND else order
        self.bond_sums[i] += weight
        self.bond_sums[j] += weight

    def bond_order_between(self, i: int, j: int, explicit: int | None) -> int:
        if explicit is not None:
            return explicit
        if self.atoms[i].aromatic and self.atoms[j].aromatic:
            return AROMATIC_BOND
        return 1

    def read_chain(self, prev: int | None) -> None:
        pending_bond: int | None = None
        pending_offset = 0
        while self.pos < len(self.text):
            ch = self.peek()
            if ch == "(":
                open_offset = self.pos
                if prev is None:
                    raise self.error("branch opened before any atom")
                if pending_bond is not None:
                    raise ParseError("bond symbol dangles before '('", pending_offset)
                self.take()
                self.read_chain(prev)
                if self.peek() != ")":
                    raise ParseError("unbalanced parenthesis", open_offset)
                self.take()
            elif ch == ")":
                if pending_bond is not None:
                    raise ParseError("bond symbol dangles before ')'", pending_offset)
                return
            elif ch in "-=#:":
                if pending_bond is not None:
                    raise self.error("two bond symbols in a row")
                pending_offset = self.pos
                pending_bond = {"-": 1, "=": 2, "#": 3, ":": AROMATIC_BOND}[self.take()]
            elif ch.isdigit() or ch == "%":
                self.read_ring_closure(prev, pending_bond)
                pending_bond = None
            else:
                atom_offset = self.pos
                idx = self.read_atom()
                if prev is not None:
                    order = self.bond_order_between(prev, idx, pending_bond)
                    self.add_bond(prev, idx, order, atom_offset)
                elif pending_bond is not None:
                    raise ParseError("bond symbol before any atom", pending_offset)
                pending_bond = None
                prev = idx
        if pending_bond is not None:
            raise ParseError("bond symbol dangles at end of input", pending_offset)

    def read_ring_closure(self, prev: int | None, pending_bond: int | None) -> None:
        offset = self.pos
        if prev is None:
            raise self.error("ring closure digit before any atom")
        if self.peek() == "%":
            self.take()
            digits = self.text[self.pos : self.pos + 2]
            if len(digits) != 2 or not digits.isdigit():
                raise ParseError("'%' needs two digits", offset)
            self.pos += 2
            num = int(digits)
        else:
            num = int(self.take())
        if num in self.open_rings:
            other, order_there, _ = self.open_rings.pop(num)
            if pending_bond is not None and order_there is not None:
                if pending_bond != order_there:
                    raise ParseError(
                        f"ring closure {num} bond orders disagree", offset
                    )
            explicit = pending_bond if pending_bond is not None else order_there
            order = self.bond_order_between(prev, other, explicit)
            self.add_bond(prev, other, order, offset)
        else:
            self.open_rings[num] = (prev, pending_bond, offset)

    def read_atom(self) -> int:
        if self.peek() == "[":
            return self.read_bracket_atom()
        start = self.pos
        for symbol in ORGANIC_SUBSET:
            if self.text.startswith(symbol, self.pos):
                self.pos += len(symbol)
                return self.push_atom(symbol, aromatic=False, bracketed=False)
        ch = self.peek()
        if ch in _AROMATIC_LOWER:
            self.take()
            return self.push_atom(_AROMATIC_LOWER[ch], aromatic=True, bracketed=False)
        raise ParseError(f"unknown element symbol {ch!r}", start)

    def read_bracket_atom(self) -> int:
        open_offset = self.pos
        self.take()  # '['
        while self.peek().isdigit():  # isotope, accepted and discarded
            self.take()
        symbol_offset = self.pos
        symbol, aromatic = self.read_bracket_symbol()
        while self.peek() == "@":  # stereo marks, accepted and discarded
            self.take()
        hydrogens = 0
        if self.peek() == "H":
            self.take()
            hydrogens = 1
            if self.peek().isdigit():
                hydrogens = int(self.take())
        charge = 0
        if self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            if self.peek().isdigit():
                charge = sign * int(self.take())
            else:
                charge = sign
                while self.peek() == ("+" if sign > 0 else "-"):
                    self.take()
                    charge += sign
        if self.peek() == ":":  # atom class, accepted and discarded
            self.take()
            if not self.peek().isdigit():
                raise self.error("atom class needs digits")
            while self.peek().isdigit():
                self.take()
        if self.peek() != "]":
            raise ParseError("unclosed bracket atom", open_offset)
        self.take()
        if symbol not in ATOMIC_MASSES:
            raise ParseError(f"unknown element symbol {symbol!r}", symbol_offset)
        return self.push_atom(
            symbol, aromatic, bracketed=True, hydrogens=hydrogens, charge=charge
        )

    def read_bracket_symbol(self) -> tuple[str, bool]:
        two = self.text[self.pos : self.pos + 2]
        if two and two[0].isupper() and len(two) == 2 and two[1].islower() and two in ATOMIC_MASSES:
            self.pos += 2
            return two, False
        if two.lower() in ("se", "as") and two.islower():
            self.pos += 2
            return two.capitalize(), True
        ch = self.peek()
        if ch.isupper():
            self.take()
            return ch, False
        if ch in _AROMATIC_LOWER:
            self.take()
            return _AROMATIC_LOWER[ch], True
        raise self.error(f"unknown element symbol {ch!r}")

    def push_atom(
        self,
        symbol: str,
        aromatic: bool,
        bracketed: bool,
        hydrogens: int = 0,
        charge: int = 0,
    ) -> int:
        self.atoms.append(AtomNode(symbol, hydrogens, charge, aromatic))
        self.bracketed.append(bracketed)
        self.bond_sums.append(0)
        return len(self.atoms) - 1


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string into a molecular graph.

    Supported: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
    aromatic lowercase atoms, bracket atoms with explicit hydrogen counts and
    charges (isotopes and stereo marks are accepted and discarded), bond
    symbols ``- = # :``, branches, and ring closures including ``%nn``.
    Implicit hydrogens on unbracketed atoms follow standard valences.

    Raises :class:`ParseError` with a character offset on malformed input.
    """
    return _SmilesReader(text.strip()).parse()


# --- SDF (V2000) -----------------------------------------------------------

# Old-style atom-block charge column: code -> formal charge.
_V2000_CHARGE = {0: 0, 1: 3, 2: 2, 3: 1, 4: 0, 5: -1, 6: -2, 7: -3}


@dataclass(frozen=True)
class SkippedRecord:
    """Why one SDF record was dropped instead of parsed."""

    index: int
    reason: str


def _parse_molblock(lines: list[str], name: str) -> MolecularGraph:
    if len(lines) < 4:
        raise ParseError("record too short for a molblock header", 0)
    counts = lines[3]
    if "V3000" in counts:
        raise ParseError("V3000 molblocks are not supported", 3)
    try:
        natoms = int(counts[0:3])
        nbonds = int(counts[3:6])
    except (ValueError, IndexError):
        raise ParseError("malformed counts line", 3) from None
    if natoms <= 0:
        raise ParseError("molblock declares no atoms", 3)
    atom_lines = lines[4 : 4 + natoms]
    bond_lines = lines[4 + natoms : 4 + natoms + nbonds]
    if len(atom_lines) < natoms or len(bond_lines) < nbonds:
        raise ParseError("atom/bond block shorter than the counts line", 3)

    labels: list[str] = []
    charges: list[int] = []
    for k, line in enumerate(atom_lines):
        symbol = line[31:34].strip()
        if not symbol:
            raise ParseError("missing element symbol in atom block", 4 + k)
        if symbol != "H" and symbol not in ATOMIC_MASSES:
            raise ParseError(f"unknown element symbol {symbol!r}", 4 + k)
        labels.append(symbol)
        code = line[36:39].strip()
        charges.append(_V2000_CHARGE.get(int(code), 0) if code.isdigit() else 0)

    bonds: list[tuple[int, int, int]] = []
    for k, line in enumerate(bond_lines):
        try:
            a = int(line[0:3]) - 1
            b = int(line[3:6]) - 1
            order = int(line[6:9])
        except (ValueError, IndexError):
            raise ParseError("malformed bond line", 4 + natoms + k) from None
        if order not in BOND_ORDERS:
            raise ParseError(f"unsupported bond type {order}", 4 + natoms + k)
        if not (0 <= a < natoms and 0 <= b < natoms):
            raise ParseError("bond references a missing atom", 4 + natoms + k)
        bonds.append((a, b, order))

    chg_pairs: list[tuple[int, int]] = []
    for k in range(4 + natoms + nbonds, len(lines)):
        line = lines[k]
        if line.startswith("M  CHG"):
            fields = line.split()
            try:
                count = int(fields[2])
                chg_pairs.extend(
                    (int(fields[3 + 2 * i]) - 1, int(fields[4 + 2 * i]))
                    for i in range(count)
                )
            except (ValueError, IndexError):
                raise ParseError("malformed charge property line", k) from None
        elif line.startswith("M  END"):
            break
    if chg_pairs:
        # Charge properties supersede the atom-block charge column entirely.
        charges = [0] * natoms
        for idx, chg in chg_pairs:
            if not 0 <= idx < natoms:
                raise ParseError("charge property references a missing atom", 3)
            charges[idx] = chg

    # Fold explicit hydrogens into their heavy neighbor, then top up with
    # implicit hydrogens from standard valence.
    explicit_h = [0] * natoms
    bond_sum = [0] * natoms
    aromatic = [False] * natoms
    for a, b, order in bonds:
        weight = 1 if order == AROMATIC_BOND else order
        bond_sum[a] += weight
        bond_sum[b] += weight
        if order == AROMATIC_BOND:
            aromatic[a] = aromatic[b] = True
    heavy = [i for i in range(natoms) if labels[i] != "H"]
    if not heavy:
        raise ParseError("molblock contains no heavy atoms", 3)
    remap = {old: new for new, old in enumerate(heavy)}
    edges: list[tuple[int, int, int]] = []
    for a, b, order in bonds:
        if labels[a] == "H" or labels[b] == "H":
            if labels[a] == "H" and labels[b] == "H":
                continue
            heavy_end = b if labels[a] == "H" else a
            explicit_h[heavy_end] += 1
        else:
            edges.append((remap[a], remap[b], order))
    nodes = []
    for i in heavy:
        # the same rule as lowercase SMILES atoms, so both formats agree
        arom = aromatic[i] and labels[i] in AROMATIC_ELEMENTS
        implicit = _implicit_hydrogens(labels[i], charges[i], arom, bond_sum[i])
        nodes.append(AtomNode(labels[i], explicit_h[i] + implicit, charges[i], arom))
    return MolecularGraph(nodes, edges, name=name)


def _parse_data_items(lines: list[str]) -> dict[str, str]:
    props: dict[str, str] = {}
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith(">"):
            start = line.find("<")
            end = line.find(">", start + 1)
            key = line[start + 1 : end] if 0 <= start < end else line[1:].strip()
            i += 1
            values = []
            while i < len(lines) and lines[i].strip() != "":
                values.append(lines[i])
                i += 1
            props[key] = "\n".join(values)
        i += 1
    return props


def parse_sdf(
    source: TextIO | str,
) -> tuple[list[tuple[MolecularGraph, dict[str, str]]], list[SkippedRecord]]:
    """Parse a V2000 structure-data file.

    ``source`` is a text stream or the file content itself.  Returns the
    successfully parsed ``(graph, data items)`` records plus a list of
    skipped records with reasons; malformed records and V3000 molblocks are
    skipped, not fatal.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    text = source.read()
    records: list[tuple[MolecularGraph, dict[str, str]]] = []
    skipped: list[SkippedRecord] = []
    chunks = text.split("$$$$")
    index = 0
    for chunk in chunks:
        lines = chunk.split("\n")
        while lines and lines[0].strip() == "":
            lines.pop(0)
        if not any(line.strip() for line in lines):
            continue
        index += 1
        name = lines[0].strip() if lines else ""
        try:
            mol_end = next(
                (k for k, line in enumerate(lines) if line.startswith("M  END")),
                len(lines) - 1,
            )
            graph = _parse_molblock(lines[: mol_end + 1], name)
        except (ParseError, ValueError) as exc:
            skipped.append(SkippedRecord(index - 1, str(exc)))
            continue
        props = _parse_data_items(lines[mol_end + 1 :])
        records.append((graph, props))
    return records, skipped


# --- Protein chains --------------------------------------------------------


def sequence_from_fasta(text: str) -> str:
    """Strip FASTA header lines and whitespace from a sequence body."""
    lines = [line.strip() for line in text.splitlines()]
    return "".join(line for line in lines if line and not line.startswith(">"))


def protein_to_chain_graph(sequence: str, name: str = "") -> MolecularGraph:
    """Residue-per-node path graph for an amino-acid sequence.

    Accepts a plain sequence or a FASTA body (headers are stripped).  Every
    character must be one of the twenty one-letter residue codes; the offset
    of the first offender is reported otherwise.
    """
    seq = sequence_from_fasta(sequence).upper()
    if not seq:
        raise ParseError("empty sequence", 0)
    for i, ch in enumerate(seq):
        if ch not in AMINO_ACIDS:
            raise ParseError(f"unknown residue code {ch!r}", i)
    nodes = [AtomNode(ch, residue=True) for ch in seq]
    edges = [(i, i + 1, 1) for i in range(len(seq) - 1)]
    return MolecularGraph(nodes, edges, name=name)
