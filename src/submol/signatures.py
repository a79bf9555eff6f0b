"""Canonical signatures of rooted subgraphs.

A signature is a text key that two rooted subgraphs share exactly when they
are isomorphic under a mapping that preserves node labels, edge orders and
the root.  Keys are produced by iterative neighborhood color refinement with
exhaustive tie-breaking, so they are exact (not merely hash-based) for the
small neighborhoods this library extracts.

The tie-breaking search prunes by automorphisms (orbit pruning, as in
McKay & Piperno, *Practical Graph Isomorphism II*, 2014).  Whenever a leaf
serializes equal to the first or the best leaf, the two node orders define
an automorphism of the rooted labeled graph.  A branch whose vertex lies in
the orbit of an already searched one, under the automorphisms that fix
every vertex individualized on the way down, would only repeat that
branch's leaves under a relabeling, so it is skipped.  The smallest
serialization, and with it every key, is the same as without pruning, but
a symmetric molecule no longer costs one search leaf per automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import AtomNode, MolecularGraph

#: Hard cap on canonicalizable subgraph size.
MAX_SUBGRAPH_NODES = 64


class SubgraphTooLargeError(ValueError):
    """Raised for subgraphs beyond :data:`MAX_SUBGRAPH_NODES` nodes."""


def node_token(atom: AtomNode) -> str:
    """Stable text label of one node as it appears inside signature keys.

    Element symbol (lowercased when aromatic), hydrogen count when nonzero,
    explicit signed charge when nonzero.  Residue nodes are wrapped in angle
    brackets so they never collide with element symbols.
    """
    if atom.residue:
        return f"<{atom.label}>"
    token = atom.label.lower() if atom.aromatic else atom.label
    if atom.hydrogens:
        token += f"H{atom.hydrogens}"
    if atom.charge:
        token += f"{atom.charge:+d}"
    return token


@dataclass(frozen=True)
class RootedSubgraph:
    """An induced subgraph with a distinguished root node.

    ``nodes`` are the member atoms, ``edges`` are local-index triples
    ``(i, j, order)``, ``root`` is the local index of the root, and
    ``height`` is the neighborhood radius that produced the subgraph.
    """

    nodes: tuple[AtomNode, ...]
    edges: tuple[tuple[int, int, int], ...]
    root: int
    height: int


@dataclass(frozen=True)
class Signature:
    """Canonical identity of a rooted subgraph."""

    key: str
    height: int
    mass: float


def _refine(
    colors: list[int],
    classes: int,
    adjacency: list[list[tuple[int, int]]],
) -> tuple[list[int], int]:
    """Stable coloring reached from ``colors``; classes only ever split.

    ``colors`` is rank-compressed (its values are ``0 .. classes - 1``) and
    ``adjacency[v]`` lists ``(order * (n + 1), u)`` for every neighbor ``u``
    of ``v``.  A neighbor is coded as the integer ``order * (n + 1) +
    colors[u]``, which sorts exactly like the pair ``(order, colors[u])``
    because every color is below ``n + 1``.  Each round ranks the vertices
    by their color and the sorted codes of their neighbors; a vertex alone
    in its class is placed by its color, so its neighbors are not coded.
    Returns the rank-compressed coloring and its class count as soon as a
    round splits no class or the partition is discrete.
    """
    n = len(colors)
    while classes < n:
        sizes = [0] * classes
        for c in colors:
            sizes[c] += 1
        sigs = [
            (c, tuple(sorted([w + colors[u] for w, u in nbrs])))
            if sizes[c] > 1 else (c,)
            for c, nbrs in zip(colors, adjacency)
        ]
        ranks = {s: r for r, s in enumerate(sorted(set(sigs)))}
        if len(ranks) == classes:
            break
        colors = [ranks[s] for s in sigs]
        classes = len(ranks)
    return colors, classes


def _orbit(seeds: list[int], generators: list[dict[int, int]]) -> set[int]:
    """Images of ``seeds`` under the group the permutations generate."""
    reached = set(seeds)
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for g in generators:
            if g[u] not in reached:
                reached.add(g[u])
                stack.append(g[u])
    return reached


def canonical_key(
    labels: Sequence[str],
    edges: Sequence[tuple[int, int, int]],
    root: int,
) -> str:
    """Canonical text form of a rooted labeled graph.

    The key serializes the graph under a canonical node ordering, so equal
    keys reconstruct equal graphs: two rooted graphs get the same key if and
    only if some isomorphism maps one onto the other carrying root to root
    and preserving node labels and edge orders.

    The ordering is the smallest serialization over the leaves of an
    individualization-refinement search.  Branches that an automorphism
    found at earlier leaves maps onto an already searched branch are
    skipped: their leaves serialize exactly like that branch's, so the
    minimum and the key do not change.
    """
    n = len(labels)
    if n > MAX_SUBGRAPH_NODES:
        raise SubgraphTooLargeError(
            f"subgraph has {n} nodes, more than the {MAX_SUBGRAPH_NODES} allowed"
        )
    if not 0 <= root < n:
        raise ValueError(f"root {root} is not a node of the graph")
    width = n + 1  # above every color, so neighbor codes sort like pairs
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, order in edges:
        adjacency[i].append((order * width, j))
        adjacency[j].append((order * width, i))

    # initial colors: the labels of the other nodes in sorted order, then
    # the root in a class of its own
    kinds = set(labels)
    if labels.count(labels[root]) == 1:
        kinds.discard(labels[root])
    ranks = {label: r for r, label in enumerate(sorted(kinds))}
    initial = [ranks.get(label, 0) for label in labels]
    initial[root] = len(ranks)
    # (serialization, node order) of the first leaf and of the best leaf
    first: tuple[str, list[int]] | None = None
    best: tuple[str, list[int]] | None = None
    automorphisms: list[dict[int, int]] = []

    def serialize(pos: list[int]) -> tuple[str, list[int]]:
        """Key text and node order of a leaf; ``pos[v]`` is v's position."""
        order = [0] * n
        for v, p in enumerate(pos):
            order[p] = v
        ends = sorted(
            [(pos[i], pos[j], o) if pos[i] < pos[j] else (pos[j], pos[i], o)
             for i, j, o in edges]
        )
        node_part = ",".join([labels[v] for v in order])
        edge_part = ",".join([f"{a}-{b}:{o}" for a, b, o in ends])
        return f"@{pos[root]};{node_part};{edge_part}", order

    def search(colors: list[int], classes: int, path: tuple[int, ...]) -> None:
        nonlocal first, best
        if classes == n:
            # a discrete coloring is a permutation: each color is a position
            candidate, order = serialize(colors)
            if first is None:
                first = best = (candidate, order)
                return
            for seen, seen_order in (first, best):
                if seen == candidate:
                    # equal serializations: position-wise the orders map
                    # one onto the other by an automorphism; best only ever
                    # serializes below first, so at most one of them matches
                    automorphisms.append(dict(zip(order, seen_order)))
                    break
            if candidate < best[0]:
                best = (candidate, order)
            return
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = min(c for c, members in cells.items() if len(members) > 1)
        searched: list[int] = []
        for v in cells[target]:
            # automorphisms fixing the path map this search node onto itself,
            # so the subtree under v is an image of one already searched
            if automorphisms and v in _orbit(
                searched, [g for g in automorphisms if all(g[u] == u for u in path)]
            ):
                continue
            searched.append(v)
            # individualize: v takes color 0 and every other rank moves up
            branched = [c + 1 for c in colors]
            branched[v] = 0
            search(*_refine(branched, classes + 1, adjacency), path + (v,))

    search(*_refine(initial, len(ranks) + 1, adjacency), ())
    assert best is not None
    return best[0]


def neighborhood_subgraph(
    graph: MolecularGraph, root: int, height: int
) -> RootedSubgraph:
    """Induced subgraph of every node within ``height`` hops of ``root``.

    The ball is grown breadth first from ``root``, one hop per level, and
    stops early once a level reaches no new node, so no distance table is
    built.  Members keep their order in ``graph`` and edges the order of
    ``graph.edges``.
    """
    if not 0 <= root < len(graph):
        raise ValueError(f"root {root} is not a node of the graph")
    if height < 0:
        raise ValueError("height must be nonnegative")
    ball = {root}
    frontier = [root]
    for _ in range(height):
        reached = []
        for u in frontier:
            for v, _order in graph.neighbors(u):
                if v not in ball:
                    ball.add(v)
                    reached.append(v)
        if not reached:
            break
        frontier = reached
    members = sorted(ball)
    local = {v: k for k, v in enumerate(members)}
    edges = tuple(
        (local[i], local[j], o)
        for i, j, o in graph.edges
        if i in local and j in local
    )
    nodes = tuple(graph.nodes[v] for v in members)
    return RootedSubgraph(nodes, edges, local[root], height)


def canonical_signature(sub: RootedSubgraph) -> Signature:
    """Signature (canonical key, height, mass) of a rooted subgraph."""
    labels = [node_token(a) for a in sub.nodes]
    key = canonical_key(labels, sub.edges, sub.root)
    return Signature(key, sub.height, subgraph_mass([a.mass() for a in sub.nodes]))


def subgraph_mass(masses: list[float]) -> float:
    """Mass of a subgraph from the masses of its nodes.

    Summing in sorted order makes the float total a function of the node
    multiset alone, so equal keys always carry bit-equal masses.
    """
    return sum(sorted(masses))
