"""Seeded input generators for the benchmark workloads.

Molecules are built here as explicit heavy-atom graphs by a valence-tracking
grammar and then written out as SMILES or V2000 SDF text.  Alongside each
input file the generator returns what the output checks need to know about
every row: its heavy-atom count and its number of atom pairs at each BFS
distance, computed from the generator's own bonds.  Nothing here imports the
program under test.

Class and label counts, and the multiset of molecule sizes, are fixed for
a given corpus size (only their order and the molecules themselves depend
on the seed), so every seed asks the program for the same mix of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Bonding capacity of each element the grammar emits.
BUDGETS = {"C": 4, "N": 3, "O": 2, "P": 3, "S": 2, "F": 1, "Cl": 1, "Br": 1}
HEAVY = ["C"] * 8 + ["N", "O", "S", "P"]
HALOGENS = ("F", "Cl", "Br")
AMINO = "ACDEFGHIKLMNPQRSTVWY"
MOTIF = "WKY"
_BOND_TEXT = {1: "", 2: "=", 3: "#"}


@dataclass
class Mol:
    """A heavy-atom graph grown as a rooted tree plus ring-closure bonds.

    Atom ``k > 0`` hangs from ``parent[k] < k`` with bond ``order[k]``;
    ``rings`` holds extra single bonds.  ``free`` is each atom's unused
    bonding capacity.
    """

    symbols: list[str] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)
    order: list[int] = field(default_factory=list)
    rings: list[tuple[int, int]] = field(default_factory=list)
    free: list[int] = field(default_factory=list)

    def add(self, symbol: str, parent: int = -1, order: int = 1,
            capacity: int | None = None) -> int:
        cap = BUDGETS[symbol] if capacity is None else capacity
        k = len(self.symbols)
        self.symbols.append(symbol)
        self.parent.append(parent)
        self.order.append(order if parent >= 0 else 0)
        self.free.append(cap - (order if parent >= 0 else 0))
        if parent >= 0:
            self.free[parent] -= order
        return k

    def __len__(self) -> int:
        return len(self.symbols)

    def bonds(self) -> list[tuple[int, int, int]]:
        tree = [(self.parent[k], k, self.order[k]) for k in range(1, len(self))]
        return tree + [(u, v, 1) for u, v in self.rings]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(len(self))]
        for u, v, _ in self.bonds():
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def distance_counts(self) -> dict[int, int]:
        """Unordered atom pairs per shortest-path distance >= 1, by BFS."""
        adj = self.adjacency()
        counts: dict[int, int] = {}
        for start in range(len(self)):
            seen = {start: 0}
            frontier = [start]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in seen:
                            seen[v] = seen[u] + 1
                            nxt.append(v)
                frontier = nxt
            for v, d in seen.items():
                if v > start:
                    counts[d] = counts.get(d, 0) + 1
        return counts


def grow(rnd: random.Random, n: int, pool: list[str], mol: Mol | None = None,
         rings: bool = True) -> Mol:
    """Add up to ``n`` atoms from ``pool`` to ``mol`` (a new one when None).

    Each new atom bonds to a random atom with spare capacity, by a double or
    triple bond now and then; afterwards up to two single ring-closure bonds
    join non-adjacent atoms with capacity left.
    """
    mol = Mol() if mol is None else mol
    first = len(mol)
    for _ in range(n):
        symbol = rnd.choice(pool)
        if len(mol) == 0:
            mol.add(symbol)
            continue
        parents = [p for p in range(len(mol)) if mol.free[p] >= 1]
        if not parents:
            break
        p = rnd.choice(parents)
        top = min(mol.free[p], BUDGETS[symbol], 3)
        order = 1
        if top >= 2 and rnd.random() < 0.15:
            order = 3 if top >= 3 and rnd.random() < 0.25 else 2
        mol.add(symbol, p, order)
    if rings and len(mol) - first >= 3 and rnd.random() < 0.5:
        adjacent = {frozenset((u, v)) for u, v, _ in mol.bonds()}
        for _ in range(rnd.randint(1, 2)):
            options = [
                (u, v)
                for u in range(first, len(mol))
                for v in range(u + 1, len(mol))
                if mol.free[u] >= 1 and mol.free[v] >= 1
                and frozenset((u, v)) not in adjacent
            ]
            if not options:
                break
            u, v = rnd.choice(options)
            mol.rings.append((u, v))
            adjacent.add(frozenset((u, v)))
            mol.free[u] -= 1
            mol.free[v] -= 1
    return mol


def attach_point(rnd: random.Random, mol: Mol) -> int | None:
    """A random atom that can take one more single bond (carbons first)."""
    spots = [k for k in range(len(mol)) if mol.free[k] >= 1 and mol.symbols[k] == "C"]
    spots = spots or [k for k in range(len(mol)) if mol.free[k] >= 1]
    return rnd.choice(spots) if spots else None


def to_smiles(mol: Mol) -> str:
    """SMILES text of ``mol``: depth-first along the tree, rings as digits."""
    children: list[list[int]] = [[] for _ in range(len(mol))]
    for k in range(1, len(mol)):
        children[mol.parent[k]].append(k)
    digits: list[list[int]] = [[] for _ in range(len(mol))]
    for number, (u, v) in enumerate(mol.rings, start=1):
        digits[u].append(number)
        digits[v].append(number)

    def emit(atom: int) -> str:
        out = mol.symbols[atom] + "".join(
            str(d) if d < 10 else f"%{d}" for d in digits[atom]
        )
        kids = children[atom]
        for i, child in enumerate(kids):
            sub = _BOND_TEXT[mol.order[child]] + emit(child)
            out += sub if i == len(kids) - 1 else f"({sub})"
        return out

    return emit(0)


def to_molblock(mol: Mol, name: str, items: dict[str, str]) -> str:
    """One V2000 SDF record (no hydrogens, no charges) ending in ``$$$$``."""
    bonds = mol.bonds()
    lines = [name, "  submol-bench", "",
             f"{len(mol):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000"]
    for symbol in mol.symbols:
        lines.append(f"{0.0:10.4f}{0.0:10.4f}{0.0:10.4f} {symbol:<3} 0"
                     + "  0" * 11)
    for u, v, order in bonds:
        lines.append(f"{u + 1:3d}{v + 1:3d}{order:3d}  0  0  0  0")
    lines.append("M  END")
    for key, value in items.items():
        lines += [f">  <{key}>", value, ""]
    lines.append("$$$$")
    return "\n".join(lines) + "\n"


# --- planted structure --------------------------------------------------


def add_nitro(mol: Mol, at: int) -> None:
    n = mol.add("N", at, 1, capacity=5)
    mol.add("O", n, 2)
    mol.add("O", n, 2)


def add_azo(mol: Mol, at: int) -> None:
    a = mol.add("N", at, 1)
    b = mol.add("N", a, 2)
    mol.add("C", b, 1)


def has_toxicophore(mol: Mol) -> bool:
    """The planted mutagenicity rule: a nitro group or an N=N bond."""
    double_o: dict[int, int] = {}
    for u, v, order in mol.bonds():
        pair = {mol.symbols[u], mol.symbols[v]}
        if order == 2 and pair == {"N"}:
            return True
        if order == 2 and pair == {"N", "O"}:
            n = u if mol.symbols[u] == "N" else v
            double_o[n] = double_o.get(n, 0) + 1
    return any(count >= 2 for count in double_o.values())


def has_halogen(mol: Mol) -> bool:
    return any(s in HALOGENS for s in mol.symbols)


def symmetric_molecule(rnd: random.Random, kind: str) -> Mol:
    """A quaternary carbon with three or four identical bulky arms.

    ``tbu`` arms are tert-butyl, ``neopentyl`` arms are CH2-tert-butyl; with
    three arms the fourth substituent is a small random group.
    """
    arms, style = kind.split("_")
    mol = Mol()
    center = mol.add("C")
    if arms == "tri":
        x = mol.add(rnd.choice(("C", "N", "O", "F", "Cl", "Br")), center)
        if mol.free[x] >= 1 and rnd.random() < 0.5:
            mol.add("C", x)
    for _ in range(4 if arms == "tetra" else 3):
        at = mol.add("C", center) if style == "neopentyl" else center
        q = mol.add("C", at)
        for _ in range(3):
            mol.add("C", q)
    return mol


def symmetric_kinds(count: int) -> list[str]:
    """A fixed class mix: one tetra-tert-butyl per ten, the rest in thirds."""
    heavy = max(1, count // 10)
    rest = ["tri_tbu", "tetra_neopentyl", "tri_neopentyl"]
    return ["tetra_tbu"] * heavy + [rest[i % 3] for i in range(count - heavy)]


# --- workloads ----------------------------------------------------------


@dataclass
class Row:
    """What the checks know about one input row, from the generator alone."""

    label: int
    atoms: dict[str, int]  # namespace -> heavy atoms (or residues)
    pairs: dict[str, dict[int, int]]  # namespace -> distance -> atom pairs


def _row(label: int, **entities: Mol | str) -> Row:
    atoms, pairs = {}, {}
    for ns, ent in entities.items():
        if isinstance(ent, str):  # protein chain: a path over the residues
            atoms[ns] = len(ent)
            pairs[ns] = {d: len(ent) - d for d in range(1, len(ent))}
        else:
            atoms[ns] = len(ent)
            pairs[ns] = ent.distance_counts()
    return Row(label, atoms, pairs)


def _fixed_flags(rnd: random.Random, n: int, share: float) -> list[bool]:
    k = round(share * n)
    flags = [True] * k + [False] * (n - k)
    rnd.shuffle(flags)
    return flags


def _sizes(rnd: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` sizes spread evenly over ``lo..hi``, shuffled: one multiset per ``n``."""
    sizes = [lo + i * (hi - lo + 1) // n for i in range(n)]
    rnd.shuffle(sizes)
    return sizes


def mutagenicity_sdf(rnd: random.Random, n: int) -> tuple[str, list[Row]]:
    """Bursi-like SDF: 45 % carry a planted nitro or azo group, 10 % label noise."""
    planted = _fixed_flags(rnd, n, 0.45)
    noisy = _fixed_flags(rnd, n, 0.10)
    sizes = _sizes(rnd, n, 7, 22)
    records, rows = [], []
    for i in range(n):
        mol = grow(rnd, sizes[i], HEAVY)
        at = attach_point(rnd, mol)
        if planted[i] and at is not None:
            (add_nitro if rnd.random() < 0.6 else add_azo)(mol, at)
        label = 1 if has_toxicophore(mol) != noisy[i] else -1
        value = "mutagen" if label == 1 else "nonmutagen"
        records.append(to_molblock(mol, f"mol{i:05d}", {"ID": str(i), "Ames": value}))
        rows.append(_row(label, **{"": mol}))
    return "".join(records), rows


def _carboxyl_drug(rnd: random.Random, backbone: int) -> Mol:
    mol = Mol()
    c = mol.add("C")
    mol.add("O", c, 2)
    hydroxyl = mol.add("O", c, 1)
    mol.free[hydroxyl] = 0  # keeps its hydrogen: the backbone hangs off C
    grow(rnd, backbone, ["C"], mol)
    return mol


def _target(rnd: random.Random, motif: bool, length: int) -> str:
    """A random sequence of ``length`` residues, plus the motif when asked."""
    while True:
        seq = "".join(rnd.choice(AMINO) for _ in range(length))
        if motif:
            cut = rnd.randint(0, length)
            return seq[:cut] + MOTIF + seq[cut:]
        if MOTIF not in seq:
            return seq


def interaction_pairs(rnd: random.Random, n: int) -> tuple[str, list[Row]]:
    """Drug-target CSV: positive exactly when carboxyl AND the WKY motif.

    Half the pairs are positive; the negatives split evenly over the three
    other quadrants, so neither side explains the label alone.
    """
    pos = n // 2
    neg = n - pos
    quads = [(True, False)] * (neg - 2 * (neg // 3)) \
        + [(False, True)] * (neg // 3) + [(False, False)] * (neg // 3)
    cases = [(True, True)] * pos + quads
    rnd.shuffle(cases)
    carboxyls = sum(c for c, _ in cases)
    motifs = sum(m for _, m in cases)
    drugs = {True: _sizes(rnd, carboxyls, 1, 7), False: _sizes(rnd, n - carboxyls, 1, 9)}
    targets = {True: _sizes(rnd, motifs, 8, 18), False: _sizes(rnd, n - motifs, 8, 21)}
    lines = ["id_a,smiles_a,id_b,seq_b,label"]
    rows = []
    for i, (carboxyl, motif) in enumerate(cases):
        size = drugs[carboxyl].pop()
        drug = _carboxyl_drug(rnd, size) if carboxyl else grow(rnd, size, ["C"])
        seq = _target(rnd, motif, targets[motif].pop())
        label = 1 if carboxyl and motif else -1
        lines.append(f"d{i:04d},{to_smiles(drug)},t{i:04d},{seq},{label:+d}")
        rows.append(_row(label, drug=drug, target=seq))
    return "\n".join(lines) + "\n", rows


def symmetric_smiles(rnd: random.Random, n: int) -> tuple[str, list[Row]]:
    """Random molecules, one in 25 a highly symmetric branched one.

    The label is halogen presence, without noise: 40 % of the random
    molecules get one or two halogen substituents, and symmetric ones carry
    one when their small fourth group is a halogen.
    """
    symmetric = _fixed_flags(rnd, n, 1 / 25)
    kinds = symmetric_kinds(sum(symmetric))
    rnd.shuffle(kinds)
    halogen = _fixed_flags(rnd, n, 0.40)
    sizes = _sizes(rnd, n - len(kinds), 5, 20)
    lines, rows = [], []
    for i in range(n):
        if symmetric[i]:
            mol = symmetric_molecule(rnd, kinds.pop())
        else:
            mol = grow(rnd, sizes.pop(), HEAVY)
            if halogen[i]:
                for _ in range(rnd.randint(1, 2)):
                    at = attach_point(rnd, mol)
                    if at is not None:
                        mol.add(rnd.choice(HALOGENS), at)
        label = 1 if has_halogen(mol) else -1
        lines.append(f"{to_smiles(mol)} {label:+d}")
        rows.append(_row(label, **{"": mol}))
    return "\n".join(lines) + "\n", rows


GENERATORS = {
    "mutagenicity_sdf": mutagenicity_sdf,
    "interaction_pairs": interaction_pairs,
    "symmetric_smiles": symmetric_smiles,
}


def generate(workload: str, seed: int, n: int) -> tuple[str, list[Row]]:
    """Input text and per-row facts; the same (workload, seed, n) gives the same."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), n)
