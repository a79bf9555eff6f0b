"""Canonical-signature tests.

The exact key strings asserted below were derived by hand: refine the node
coloring to a fixed point, break remaining ties every possible way, and keep
the lexicographically smallest serialization.  The sampled completeness test
compares key equality against an exhaustive-permutation isomorphism oracle.
"""

import hashlib
import itertools
import random

import pytest
from helpers import permuted_graph, random_labeled_graph, root_preserving_isomorphic

from submol import graph as graph_module
from submol import signatures
from submol.elements import ATOMIC_MASSES, RESIDUE_MASSES
from submol.features import height_features, pair_features
from submol.graph import (
    AtomNode,
    MolecularGraph,
    all_pairs_distances,
    parse_smiles,
    protein_to_chain_graph,
)
from submol.ingest import InteractionPair, featurize_pair
from submol.signatures import (
    MAX_SUBGRAPH_NODES,
    RootedSubgraph,
    Signature,
    SubgraphTooLargeError,
    canonical_key,
    canonical_signature,
    neighborhood_subgraph,
    node_token,
)


def graph_parts(graph):
    return [node_token(a) for a in graph.nodes], list(graph.edges)


# --- node tokens -----------------------------------------------------------


@pytest.mark.parametrize(
    "atom,expected",
    [
        (AtomNode("C"), "C"),
        (AtomNode("C", hydrogens=3), "CH3"),
        (AtomNode("C", hydrogens=1, aromatic=True), "cH1"),
        (AtomNode("N", hydrogens=4, charge=1), "NH4+1"),
        (AtomNode("O", charge=-1), "O-1"),
        (AtomNode("Fe", charge=2), "Fe+2"),
        (AtomNode("Cl", aromatic=False), "Cl"),
        (AtomNode("K", residue=True), "<K>"),
        (AtomNode("S", residue=True), "<S>"),
    ],
)
def test_node_token(atom, expected):
    assert node_token(atom) == expected


def test_residue_token_never_collides_with_element():
    # serine residue vs sulfur atom
    assert node_token(AtomNode("S", residue=True)) != node_token(AtomNode("S"))


def test_node_token_determines_mass():
    # neighborhoods are memoized on their node tokens and keep the stored
    # mass, so two nodes with one token must weigh exactly the same
    variants = [
        dict(aromatic=aromatic, hydrogens=hydrogens, charge=charge)
        for aromatic in (False, True)
        for hydrogens in range(5)
        for charge in range(-2, 3)
    ]
    nodes = [AtomNode(label, **v) for label in ATOMIC_MASSES for v in variants]
    nodes += [AtomNode(label, residue=True, **v) for label in RESIDUE_MASSES for v in variants]
    masses: dict[str, set[str]] = {}
    for node in nodes:
        masses.setdefault(node_token(node), set()).add(node.mass().hex())
    assert all(len(bits) == 1 for bits in masses.values())
    assert len(masses) == len(ATOMIC_MASSES) * len(variants) + len(RESIDUE_MASSES)


# --- exact keys derived by hand --------------------------------------------


def test_methane_key():
    sub = neighborhood_subgraph(parse_smiles("C"), 0, 0)
    assert canonical_signature(sub).key == "@0;CH4;"


def test_water_key():
    sub = neighborhood_subgraph(parse_smiles("O"), 0, 0)
    assert canonical_signature(sub).key == "@0;OH2;"


def test_formaldehyde_key_rooted_at_carbon():
    # Two nodes: O sorts before CH2, so the root lands at position 1.
    sub = neighborhood_subgraph(parse_smiles("C=O"), 0, 1)
    assert canonical_signature(sub).key == "@1;O,CH2;0-1:2"


def test_benzene_ball_key():
    # Three aromatic CH1 nodes in a path, rooted at the middle: the two
    # leaves are symmetric, so both tie-break branches serialize identically.
    sub = neighborhood_subgraph(parse_smiles("c1ccccc1"), 0, 1)
    assert canonical_signature(sub).key == "@2;cH1,cH1,cH1;0-2:4,1-2:4"


def test_single_node_edge_part_is_empty():
    key = canonical_key(["X"], [], 0)
    assert key == "@0;X;"
    assert key.count(";") == 2


# --- root, label and order sensitivity -------------------------------------


def test_root_position_distinguishes_signatures():
    # O-C-O path: rooted at an end vs rooted at the middle must differ,
    # while the two ends must agree.
    graph = parse_smiles("O=C=O")
    end_a = canonical_signature(neighborhood_subgraph(graph, 0, 2))
    middle = canonical_signature(neighborhood_subgraph(graph, 1, 2))
    end_b = canonical_signature(neighborhood_subgraph(graph, 2, 2))
    assert end_a.key == end_b.key
    assert end_a.key != middle.key


def test_bond_order_changes_key():
    labels = ["C", "C"]
    assert canonical_key(labels, [(0, 1, 1)], 0) != canonical_key(
        labels, [(0, 1, 2)], 0
    )


def test_node_label_changes_key():
    edges = [(0, 1, 1)]
    assert canonical_key(["C", "N"], edges, 0) != canonical_key(
        ["C", "O"], edges, 0
    )


def test_hydrogen_count_changes_key():
    a = canonical_signature(neighborhood_subgraph(parse_smiles("C"), 0, 0))
    b = canonical_signature(neighborhood_subgraph(parse_smiles("[CH3]"), 0, 0))
    assert a.key != b.key


# --- invariance and completeness -------------------------------------------


def test_permutation_invariance_random_graphs():
    rnd = random.Random(1234)
    for _ in range(200):
        graph = random_labeled_graph(rnd, max_nodes=8)
        n = len(graph)
        perm = list(range(n))
        rnd.shuffle(perm)
        shuffled = permuted_graph(graph, perm)
        root = rnd.randrange(n)
        la, ea = graph_parts(graph)
        lb, eb = graph_parts(shuffled)
        assert canonical_key(la, ea, root) == canonical_key(lb, eb, perm[root])


def test_key_equality_matches_isomorphism_oracle():
    # Draw rooted graphs from a deliberately small family so that both
    # isomorphic and non-isomorphic pairs occur, then check the keys agree
    # with brute-force permutation search in every single case.
    rnd = random.Random(99)
    pool = []
    for _ in range(60):
        graph = random_labeled_graph(rnd, max_nodes=6, labels=("C", "N"))
        root = rnd.randrange(len(graph))
        labels, edges = graph_parts(graph)
        pool.append((labels, edges, root))
    matches = 0
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            la, ea, ra = pool[i]
            lb, eb, rb = pool[j]
            same_key = canonical_key(la, ea, ra) == canonical_key(lb, eb, rb)
            oracle = root_preserving_isomorphic(la, ea, ra, lb, eb, rb)
            assert same_key == oracle
            matches += same_key
    assert matches > 0  # the family is small enough to produce collisions


def test_regular_graph_needs_tie_breaking():
    # A 4-cycle with equal labels defeats pure refinement; exhaustive
    # individualization must still produce one invariant key.
    labels = ["C"] * 4
    square = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
    relabeled = [(2, 3, 1), (3, 0, 1), (0, 1, 1), (1, 2, 1)]
    assert canonical_key(labels, square, 0) == canonical_key(labels, relabeled, 2)
    # but a 4-path rooted at a corner is different
    path = [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
    assert canonical_key(labels, square, 0) != canonical_key(labels, path, 0)


def pinned_keys():
    """Every rooted 2-label graph with <= 4 nodes, then 2,000 drawn on 5."""
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [(i, j, 1) for b, (i, j) in enumerate(pairs) if mask >> b & 1]
            for lm in range(1 << n):
                labels = ["N" if lm >> v & 1 else "C" for v in range(n)]
                for root in range(n):
                    yield canonical_key(labels, edges, root)
    rnd = random.Random(505)
    pairs = list(itertools.combinations(range(5), 2))
    for _ in range(2000):
        edges = [(i, j, rnd.choice((1, 2, 4))) for i, j in pairs if rnd.random() < 0.5]
        labels = [rnd.choice("CN") for _ in range(5)]
        yield canonical_key(labels, edges, rnd.randrange(5))


def test_key_text_is_pinned():
    # Key text is what vocabulary and feature files store, so it must not
    # drift even where a change keeps keys in bijection with isomorphism
    # classes.  The digest was recorded before the refinement used integer
    # neighbor codes.
    keys = list(pinned_keys())
    assert len(keys) == 6306
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert digest == "b3f3fa9c823c4c757785d0980310d82fb4179e6fe0801c4697671cdbc1456fa4"


# --- symmetric graphs and search size --------------------------------------

TETRA_TERT_BUTYLMETHANE = "C(C(C)(C)C)(C(C)(C)C)(C(C)(C)C)C(C)(C)C"
TETRA_NEOPENTYLMETHANE = "C(CC(C)(C)C)(CC(C)(C)C)(CC(C)(C)C)CC(C)(C)C"


def test_symmetric_molecule_search_is_pruned(monkeypatch):
    # 4!*(3!)^4 = 31,104 automorphisms fix the centre; a search without
    # orbit pruning visits one leaf per automorphism (55,985 refinements)
    calls = 0
    refine = signatures._refine

    def counting(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    monkeypatch.setattr(signatures, "_refine", counting)
    graph = parse_smiles(TETRA_TERT_BUTYLMETHANE)
    canonical_signature(neighborhood_subgraph(graph, 0, 2))
    assert calls <= 1000


@pytest.mark.parametrize(
    "smiles,height,expected",
    [
        (
            TETRA_TERT_BUTYLMETHANE,
            2,
            "@16;CH3,CH3,CH3,CH3,CH3,CH3,CH3,CH3,C,C,C,C,CH3,CH3,CH3,CH3,C;"
            "0-11:1,1-11:1,2-8:1,3-8:1,4-9:1,5-9:1,6-10:1,7-10:1,8-14:1,8-16:1,"
            "9-13:1,9-16:1,10-12:1,10-16:1,11-15:1,11-16:1",
        ),
        (
            TETRA_NEOPENTYLMETHANE,
            3,
            "@20;CH3,CH3,CH3,CH3,CH3,CH3,CH3,CH3,C,C,C,C,CH2,CH2,CH2,CH2,"
            "CH3,CH3,CH3,CH3,C;0-11:1,1-11:1,2-8:1,3-8:1,4-9:1,5-9:1,6-10:1,"
            "7-10:1,8-14:1,8-18:1,9-13:1,9-17:1,10-12:1,10-16:1,11-15:1,"
            "11-19:1,12-20:1,13-20:1,14-20:1,15-20:1",
        ),
    ],
)
def test_symmetric_molecule_keys(smiles, height, expected):
    # recorded from the exhaustive search without automorphism pruning
    sub = neighborhood_subgraph(parse_smiles(smiles), 0, height)
    assert canonical_signature(sub).key == expected


def hypercube(d):
    flips = [1 << b for b in range(d)]
    return [(i, i ^ f, 1) for i in range(2**d) for f in flips if i < i ^ f]


PETERSEN = (
    [(i, (i + 1) % 5, 1) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]
    + [(i, 5 + i, 1) for i in range(5)]
)
K33 = [(i, 3 + j, 1) for i in range(3) for j in range(3)]
# a hub joined to every vertex of a hexagon and of two triangles
HUB = (
    [(0, v, 1) for v in range(1, 13)]
    + [(1 + i, 1 + (i + 1) % 6, 1) for i in range(6)]
    + [(7, 8, 1), (8, 9, 1), (7, 9, 1), (10, 11, 1), (11, 12, 1), (10, 12, 1)]
)


@pytest.mark.parametrize(
    "edges",
    [hypercube(3), hypercube(4), PETERSEN, K33, HUB],
    ids=["3-cube", "4-cube", "petersen", "k3,3", "hub"],
)
def test_permutation_invariance_symmetric_graphs(edges):
    # Rooted at 0, every relabeling must give one key.  The first four are
    # distance-transitive with large automorphism groups, so every branch
    # of their search is equivalent.  In HUB refinement cannot tell the
    # hexagon from the triangles, so a prune that drops branches which are
    # not automorphic images makes the key depend on the input order.
    n = 1 + max(max(i, j) for i, j, _ in edges)
    rnd = random.Random(n)
    keys = set()
    for _ in range(30):
        perm = list(range(n))
        rnd.shuffle(perm)
        shuffled = [(perm[i], perm[j], o) for i, j, o in edges]
        rnd.shuffle(shuffled)
        keys.add(canonical_key(["C"] * n, shuffled, perm[0]))
    assert len(keys) == 1


# --- neighborhood extraction -----------------------------------------------


def test_neighborhood_growth_on_butane():
    graph = parse_smiles("CCCC")
    for height, expected in [(0, 1), (1, 2), (2, 3), (3, 4), (9, 4)]:
        sub = neighborhood_subgraph(graph, 0, height)
        assert len(sub.nodes) == expected
        assert sub.height == height
    sub = neighborhood_subgraph(graph, 1, 1)
    assert len(sub.nodes) == 3
    assert len(sub.edges) == 2


def test_neighborhood_is_induced():
    # root and its two ring neighbors in cyclopropane: the edge between the
    # two neighbors is inside the ball and must be included.
    sub = neighborhood_subgraph(parse_smiles("C1CC1"), 0, 1)
    assert len(sub.nodes) == 3
    assert len(sub.edges) == 3


def test_neighborhood_matches_distance_table():
    rnd = random.Random(31)
    for _ in range(25):
        graph = random_labeled_graph(rnd, max_nodes=9)
        dist = all_pairs_distances(graph)
        for height in range(4):
            for root in range(len(graph)):
                members = [v for v in range(len(graph)) if dist[root, v] <= height]
                local = {v: k for k, v in enumerate(members)}
                edges = tuple(
                    (local[i], local[j], o)
                    for i, j, o in graph.edges
                    if i in local and j in local
                )
                nodes = tuple(graph.nodes[v] for v in members)
                expected = RootedSubgraph(nodes, edges, local[root], height)
                assert neighborhood_subgraph(graph, root, height) == expected


ASPIRIN = "CC(=O)Oc1ccccc1C(=O)O"


def _featurize_drug_and_protein():
    pair = InteractionPair(
        "aspirin", "peptide", parse_smiles(ASPIRIN),
        protein_to_chain_graph("MKVWKYLL"), "protein", 1,
    )
    return featurize_pair(pair, [0, 1, 2], range(6))


@pytest.mark.parametrize(
    "featurize, total",
    [
        (lambda: height_features(parse_smiles(ASPIRIN), [0, 1, 2, 3]), 4 * 13),
        # 3 heights x (13 roots + the 13, 17, 16, 15, 11 pairs at 1-5 hops)
        (lambda: pair_features(parse_smiles(ASPIRIN), [0, 1, 2], range(6)),
         3 * (13 + 13 + 17 + 16 + 15 + 11)),
        # and the peptide's 8 roots and 7, 6, 5, 4, 3 pairs, 3 heights each
        (_featurize_drug_and_protein, 3 * (13 + 13 + 17 + 16 + 15 + 11) + 3 * (8 + 7 + 6 + 5 + 4 + 3)),
    ],
    ids=["height_features", "pair_features", "featurize_pair"],
)
def test_height_features_build_no_distance_table(monkeypatch, featurize, total):
    def refuse(graph):
        raise AssertionError("featurization asked for all-pairs distances")

    monkeypatch.setattr(graph_module, "all_pairs_distances", refuse)
    assert featurize().total() == total


def test_neighborhood_argument_validation():
    graph = parse_smiles("CC")
    with pytest.raises(ValueError, match="root"):
        neighborhood_subgraph(graph, 5, 1)
    with pytest.raises(ValueError, match="height"):
        neighborhood_subgraph(graph, 0, -1)


def test_benzene_all_roots_equivalent():
    graph = parse_smiles("c1ccccc1")
    keys = {
        canonical_signature(neighborhood_subgraph(graph, v, 1)).key
        for v in range(6)
    }
    assert len(keys) == 1


@pytest.mark.parametrize("root", [-1, 2])
def test_key_root_must_be_a_node(root):
    # Python indexes a negative root from the end, which would key the
    # graph with no node refined as its root
    with pytest.raises(ValueError, match="root"):
        canonical_key(["C", "N"], [(0, 1, 1)], root)


def test_subgraph_size_cap():
    n = MAX_SUBGRAPH_NODES + 1
    labels = ["C"] * n
    edges = [(i, i + 1, 1) for i in range(n - 1)]
    with pytest.raises(SubgraphTooLargeError, match=r"65 nodes"):
        canonical_key(labels, edges, 0)
    nodes = [AtomNode("C", hydrogens=2) for _ in range(n)]
    big = MolecularGraph(nodes, edges)
    with pytest.raises(SubgraphTooLargeError):
        canonical_signature(neighborhood_subgraph(big, 0, n))


# --- masses ----------------------------------------------------------------


def test_methane_mass():
    sig = canonical_signature(neighborhood_subgraph(parse_smiles("C"), 0, 0))
    assert sig.mass == pytest.approx(16.043, abs=1e-9)


def test_acetic_acid_full_ball_mass():
    graph = parse_smiles("CC(=O)O")
    sig = canonical_signature(neighborhood_subgraph(graph, 1, 1))
    assert sig.mass == pytest.approx(60.052, abs=1e-9)


def test_residue_mass_used_for_chain_nodes():
    from submol.graph import protein_to_chain_graph

    sig = canonical_signature(neighborhood_subgraph(protein_to_chain_graph("G"), 0, 0))
    assert sig.mass == pytest.approx(57.0519, abs=1e-9)


def test_signature_dataclass_fields():
    sig = Signature("@0;C;", 0, 12.011)
    assert (sig.key, sig.height, sig.mass) == ("@0;C;", 0, 12.011)
    sub = RootedSubgraph((AtomNode("C"),), (), 0, 0)
    assert canonical_signature(sub).height == 0


# --- determinism -----------------------------------------------------------


def test_keys_are_deterministic_across_calls():
    rnd = random.Random(5)
    graph = random_labeled_graph(rnd, max_nodes=8)
    labels, edges = graph_parts(graph)
    first = canonical_key(labels, edges, 0)
    for _ in range(5):
        assert canonical_key(labels, edges, 0) == first
