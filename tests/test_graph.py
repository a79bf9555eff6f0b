"""Parser-level tests: molecule text in, labeled graphs out.

Expected node/edge sets were derived by hand from the input strings and
standard valence rules before being frozen here.
"""

import math
import os
import random

import numpy as np
import pytest

from submol.features import height_features
from submol.graph import (
    AROMATIC_BOND,
    AtomNode,
    MolecularGraph,
    ParseError,
    all_pairs_distances,
    parse_sdf,
    parse_smiles,
    protein_to_chain_graph,
    sequence_from_fasta,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def read(name: str) -> str:
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        return handle.read()


def atoms(graph) -> list[tuple[str, int, int]]:
    return [(n.label, n.hydrogens, n.charge) for n in graph.nodes]


# --- SMILES: implicit hydrogens against standard valences ------------------


@pytest.mark.parametrize(
    "smiles,expected_h",
    [
        ("C", 4),  # methane
        ("N", 3),
        ("O", 2),
        ("P", 3),
        ("S", 2),
        ("B", 3),
        ("Cl", 1),
        ("Br", 1),
        ("I", 1),
    ],
)
def test_lone_atom_hydrogens(smiles, expected_h):
    graph = parse_smiles(smiles)
    assert len(graph) == 1
    assert graph.nodes[0].hydrogens == expected_h
    assert graph.edges == ()


def test_formaldehyde():
    graph = parse_smiles("C=O")
    assert atoms(graph) == [("C", 2, 0), ("O", 0, 0)]
    assert graph.edges == ((0, 1, 2),)


def test_hydrogen_cyanide():
    graph = parse_smiles("C#N")
    assert atoms(graph) == [("C", 1, 0), ("N", 0, 0)]
    assert graph.edges == ((0, 1, 3),)


def test_carbon_dioxide():
    graph = parse_smiles("O=C=O")
    assert atoms(graph) == [("O", 0, 0), ("C", 0, 0), ("O", 0, 0)]
    assert sorted(graph.edges) == [(0, 1, 2), (1, 2, 2)]


def test_acetic_acid_branch():
    graph = parse_smiles("CC(=O)O")
    assert atoms(graph) == [("C", 3, 0), ("C", 0, 0), ("O", 0, 0), ("O", 1, 0)]
    assert sorted(graph.edges) == [(0, 1, 1), (1, 2, 2), (1, 3, 1)]


def test_tetrafluoromethane_multi_branch():
    graph = parse_smiles("C(F)(F)(F)F")
    assert atoms(graph)[0] == ("C", 0, 0)
    assert [a[0] for a in atoms(graph)[1:]] == ["F"] * 4
    assert len(graph.edges) == 4


def test_pentavalent_nitrogen_uses_higher_valence():
    # N with bond sum 4 tops up to valence 5, leaving one hydrogen.
    graph = parse_smiles("O=N(=O)C")
    n_node = graph.nodes[1]
    assert n_node.label == "N"
    assert n_node.hydrogens == 0  # bond sum 5 filled the higher valence


def test_sulfur_valence_ladder():
    assert parse_smiles("S").nodes[0].hydrogens == 2
    # S(=O)(=O): bond sum 4 -> valence 4 exactly, no hydrogens on S
    graph = parse_smiles("O=S=O")
    assert graph.nodes[1].hydrogens == 0


# --- SMILES: rings ---------------------------------------------------------


def test_cyclopropane_ring():
    graph = parse_smiles("C1CC1")
    assert atoms(graph) == [("C", 2, 0)] * 3
    assert sorted(graph.edges) == [(0, 1, 1), (0, 2, 1), (1, 2, 1)]


def test_percent_ring_number_equivalent():
    a = parse_smiles("C1CC1")
    b = parse_smiles("C%10CC%10")
    assert atoms(a) == atoms(b)
    assert sorted(a.edges) == sorted(b.edges)


def test_ring_bond_order_given_at_either_end():
    for text in ("C=1CCC=1", "C1CCC=1", "C=1CCC1"):
        graph = parse_smiles(text)
        orders = sorted(o for _, _, o in graph.edges)
        assert orders == [1, 1, 1, 2], text


def test_ring_bond_order_conflict_rejected():
    with pytest.raises(ParseError, match="disagree"):
        parse_smiles("C=1CCC-1")


def test_ring_number_reuse_after_closure():
    # 1 is closed by the third atom and then reopened for a second ring.
    graph = parse_smiles("C1CC1C1CC1")
    assert len(graph) == 6
    assert len(graph.edges) == 7


# --- SMILES: aromatics -----------------------------------------------------


def test_benzene():
    graph = parse_smiles("c1ccccc1")
    assert len(graph) == 6
    for node in graph.nodes:
        assert node.label == "C"
        assert node.aromatic
        assert node.hydrogens == 1
    assert len(graph.edges) == 6
    assert all(o == AROMATIC_BOND for _, _, o in graph.edges)


def test_pyridine_nitrogen_has_no_hydrogen():
    graph = parse_smiles("c1ccncc1")
    n_nodes = [n for n in graph.nodes if n.label == "N"]
    assert len(n_nodes) == 1
    assert n_nodes[0].aromatic
    assert n_nodes[0].hydrogens == 0


def test_pyrrole_bracket_nh():
    graph = parse_smiles("c1cc[nH]c1")
    n_nodes = [n for n in graph.nodes if n.label == "N"]
    assert n_nodes[0].hydrogens == 1
    assert n_nodes[0].aromatic
    assert all(o == AROMATIC_BOND for _, _, o in graph.edges)


def test_toluene_mixed_aromatic_aliphatic():
    graph = parse_smiles("Cc1ccccc1")
    assert graph.nodes[0].hydrogens == 3
    assert not graph.nodes[0].aromatic
    # the bond from the methyl into the ring is a single bond
    orders = sorted(o for i, j, o in graph.edges if 0 in (i, j))
    assert orders == [1]


# --- SMILES: bracket atoms -------------------------------------------------


def test_ammonium_bracket():
    graph = parse_smiles("[NH4+]")
    assert atoms(graph) == [("N", 4, 1)]


def test_bracket_charges():
    assert parse_smiles("[O-]").nodes[0].charge == -1
    assert parse_smiles("[Fe+2]").nodes[0].charge == 2
    assert parse_smiles("[Fe++]").nodes[0].charge == 2
    assert parse_smiles("[O--]").nodes[0].charge == -2


def test_bracket_atom_has_no_implicit_hydrogens():
    # [CH] states exactly one hydrogen; nothing is topped up.
    assert parse_smiles("[CH]").nodes[0].hydrogens == 1
    assert parse_smiles("[C]").nodes[0].hydrogens == 0


def test_isotope_and_stereo_marks_discarded():
    graph = parse_smiles("[13CH4]")
    assert atoms(graph) == [("C", 4, 0)]
    graph = parse_smiles("[C@H](N)(C)O")
    assert graph.nodes[0].hydrogens == 1


def test_two_letter_bracket_elements():
    assert parse_smiles("[Se]").nodes[0].label == "Se"
    assert parse_smiles("[se]").nodes[0].aromatic
    assert parse_smiles("[Na+]").nodes[0].label == "Na"


def test_quaternary_ammonium_in_context():
    graph = parse_smiles("C[N+](C)(C)C")
    n_node = graph.nodes[1]
    assert (n_node.label, n_node.hydrogens, n_node.charge) == ("N", 0, 1)
    assert len(graph.edges) == 4


# --- SMILES: errors carry offsets ------------------------------------------


@pytest.mark.parametrize(
    "text,fragment,offset",
    [
        ("", "empty", 0),
        ("C(", "unbalanced parenthesis", 1),
        ("C(C", "unbalanced parenthesis", 1),
        ("C)", "unexpected character", 1),
        ("C=", "dangles at end", 1),
        ("C=(C)", "dangles before", 1),
        ("=C", "bond symbol before any atom", 0),
        ("C==C", "two bond symbols", 2),
        ("C11", "bonds an atom to itself", 2),
        ("C12CC12", "duplicate bond", 6),
        ("C1CC", "unmatched ring closure", 1),
        ("1CC", "ring closure digit before any atom", 0),
        ("Cx", "unknown element symbol", 1),
        ("[C", "unclosed bracket", 0),
        ("[Q]", "unknown element symbol", 1),
        ("C%1C", "'%' needs two digits", 1),
    ],
)
def test_smiles_errors(text, fragment, offset):
    with pytest.raises(ParseError) as err:
        parse_smiles(text)
    assert fragment in str(err.value)
    assert err.value.position == offset
    assert f"(at offset {offset})" in str(err.value)


# --- Graph invariants and distances ----------------------------------------


def test_graph_rejects_bad_edges():
    node = AtomNode("C")
    with pytest.raises(ValueError, match="at least one node"):
        MolecularGraph([], [])
    with pytest.raises(ValueError, match="self loop"):
        MolecularGraph([node, node], [(1, 1, 1)])
    with pytest.raises(ValueError, match="duplicate edge"):
        MolecularGraph([node, node], [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(ValueError, match="missing node"):
        MolecularGraph([node, node], [(0, 2, 1)])
    with pytest.raises(ValueError, match="bond order"):
        MolecularGraph([node, node], [(0, 1, 5)])


def test_butane_path_distances():
    dist = parse_smiles("CCCC").distances()
    assert dist[0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert dist[3].tolist() == [3.0, 2.0, 1.0, 0.0]


def test_cyclopropane_distances_all_one():
    dist = parse_smiles("C1CC1").distances()
    off_diagonal = dist[~np.eye(3, dtype=bool)]
    assert set(off_diagonal.tolist()) == {1.0}


def test_benzene_antipodal_distance():
    dist = parse_smiles("c1ccccc1").distances()
    assert dist[0, 3] == 3.0
    assert dist[0, 1] == 1.0
    assert dist[0, 5] == 1.0


def test_distances_match_dijkstra_free_bfs_oracle():
    # brute-force Floyd-Warshall comparison on random graphs
    from helpers import random_labeled_graph

    rnd = random.Random(7)
    for _ in range(25):
        graph = random_labeled_graph(rnd, max_nodes=7)
        n = len(graph)
        ref = np.full((n, n), np.inf)
        np.fill_diagonal(ref, 0.0)
        for i, j, _ in graph.edges:
            ref[i, j] = ref[j, i] = 1.0
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    ref[i, j] = min(ref[i, j], ref[i, k] + ref[k, j])
        assert np.array_equal(all_pairs_distances(graph), ref)


def test_disconnected_sdf_distances_are_infinite():
    # two heavy fragments in one molblock stay disconnected
    nodes = [AtomNode("C"), AtomNode("C"), AtomNode("O")]
    graph = MolecularGraph(nodes, [(0, 1, 1)])
    dist = graph.distances()
    assert math.isinf(dist[0, 2])
    assert dist[0, 1] == 1.0


# --- SDF -------------------------------------------------------------------


def test_tiny_sdf_records():
    records, skipped = parse_sdf(read("tiny.sdf"))
    assert skipped == []
    names = [g.name for g, _ in records]
    assert names == [
        "methane",
        "acetic acid",
        "methanol with explicit hydrogens",
        "ammonium",
        "chloride by charge column",
    ]
    methane, acetic, methanol, ammonium, chloride = [g for g, _ in records]
    assert atoms(methane) == [("C", 4, 0)]
    assert atoms(acetic) == [("C", 3, 0), ("C", 0, 0), ("O", 0, 0), ("O", 1, 0)]
    assert sorted(acetic.edges) == [(0, 1, 1), (1, 2, 2), (1, 3, 1)]
    # explicit hydrogens are folded into the heavy atoms
    assert atoms(methanol) == [("C", 3, 0), ("O", 1, 0)]
    assert methanol.edges == ((0, 1, 1),)
    # M  CHG overrides and adjusts the valence: NH4+
    assert atoms(ammonium) == [("N", 4, 1)]
    # old-style charge column code 5 means -1
    assert atoms(chloride) == [("Cl", 0, -1)]


def test_tiny_sdf_data_items():
    records, _ = parse_sdf(read("tiny.sdf"))
    props = dict((g.name, items) for g, items in records)
    assert props["methane"] == {"Outcome": "positive"}
    assert props["acetic acid"]["Source"] == "hand-written fixture"


def test_sdf_matches_smiles_for_same_molecule():
    records, _ = parse_sdf(read("tiny.sdf"))
    from_sdf = records[1][0]  # acetic acid
    from_smiles = parse_smiles("CC(=O)O")
    assert sorted(atoms(from_sdf)) == sorted(atoms(from_smiles))
    assert sorted(o for _, _, o in from_sdf.edges) == sorted(
        o for _, _, o in from_smiles.edges
    )


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


def ring_bonds(n, kind=AROMATIC_BOND):
    return [(i + 1, (i + 1) % n + 1, kind) for i in range(n)]


def test_sdf_aromatic_bonds_match_aromatic_smiles():
    records, skipped = parse_sdf(molblock(["C"] * 6, ring_bonds(6)))
    assert skipped == []
    benzene = records[0][0]
    assert all(n.aromatic and n.hydrogens == 1 for n in benzene.nodes)
    assert height_features(benzene, [1]) == height_features(
        parse_smiles("c1ccccc1"), [1]
    )


def test_sdf_aromatic_hydrogens_follow_the_smiles_rule():
    # pyridine: aromatic N takes no hydrogen; explicit H atoms still fold in
    symbols = ["C"] * 5 + ["N", "H"]
    records, _ = parse_sdf(molblock(symbols, ring_bonds(6) + [(1, 7, 1)]))
    assert atoms(records[0][0]) == atoms(parse_smiles("c1ccccn1"))
    assert records[0][0].nodes[5].aromatic
    # pyridinium: the charge raises the valence, as for [nH+] in SMILES
    records, _ = parse_sdf(molblock(["C"] * 5 + ["N"], ring_bonds(6), {6: 1}))
    assert atoms(records[0][0])[5] == ("N", 1, 1)
    # selenophene: no typical valence for Se, so no implicit hydrogens
    records, skipped = parse_sdf(molblock(["C"] * 4 + ["Se"], ring_bonds(5)))
    assert skipped == []
    assert atoms(records[0][0])[4] == ("Se", 0, 0)
    assert records[0][0].nodes[4].aromatic
    # a Kekule ring is not aromatic
    kekule = [(a, b, 2 - k % 2) for k, (a, b, _) in enumerate(ring_bonds(6))]
    records, _ = parse_sdf(molblock(["C"] * 6, kekule))
    assert not any(n.aromatic for n in records[0][0].nodes)
    assert atoms(records[0][0]) == [("C", 1, 0)] * 6


def test_bad_counts_record_skipped_not_fatal():
    records, skipped = parse_sdf(read("bad_counts.sdf"))
    assert len(records) == 1
    assert records[0][0].name == "methane"
    assert len(skipped) == 1
    assert skipped[0].index == 0
    assert "counts" in skipped[0].reason


def test_v3000_record_skipped_with_reason():
    records, skipped = parse_sdf(read("v3000.sdf"))
    assert len(records) == 1
    assert len(skipped) == 1
    assert "V3000" in skipped[0].reason


def test_sdf_from_stream_and_from_string_agree():
    import io

    text = read("tiny.sdf")
    a, _ = parse_sdf(text)
    b, _ = parse_sdf(io.StringIO(text))
    assert [g.name for g, _ in a] == [g.name for g, _ in b]


# --- Protein chains --------------------------------------------------------


def test_fasta_header_stripping():
    assert sequence_from_fasta(">sp|P1|TEST\nMKW\nVG\n") == "MKWVG"
    assert sequence_from_fasta("MKWVG") == "MKWVG"


def test_protein_chain_shape():
    graph = protein_to_chain_graph("MKV")
    assert [n.label for n in graph.nodes] == ["M", "K", "V"]
    assert all(n.residue for n in graph.nodes)
    assert graph.edges == ((0, 1, 1), (1, 2, 1))


def test_protein_chain_lowercase_accepted():
    graph = protein_to_chain_graph("mkv")
    assert [n.label for n in graph.nodes] == ["M", "K", "V"]


def test_protein_chain_bad_residue_offset():
    with pytest.raises(ParseError) as err:
        protein_to_chain_graph("MXZ")
    assert err.value.position == 1
    assert "X" in str(err.value)


def test_protein_single_residue():
    graph = protein_to_chain_graph("G")
    assert len(graph) == 1
    assert graph.edges == ()


def test_empty_sequence_rejected():
    with pytest.raises(ParseError, match="empty"):
        protein_to_chain_graph(">header only\n")
