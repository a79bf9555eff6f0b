"""Feature extraction, vocabularies, matrices and their file formats.

Expected counts were derived by hand from the molecular structures; the
conservation test checks the defining identity of neighborhood counting
(every node roots exactly one subgraph per height).
"""

import io
import itertools
import random

import numpy as np
import pytest
import scipy.sparse as sp
from helpers import (
    molblock,
    random_labeled_graph,
    random_molecule_smiles,
    reference_load_sparse,
    reference_save_sparse,
)

from submol import features
from submol.features import (
    DatasetMatrix,
    FeatureVector,
    FeatureVocabulary,
    build_matrix,
    height_features,
    load_sparse,
    load_vocab,
    pair_features,
    parse_feature_key,
    save_sparse,
    save_vocab,
)
from submol.graph import parse_sdf, parse_smiles
from submol.signatures import (
    MAX_SUBGRAPH_NODES,
    SubgraphTooLargeError,
    canonical_signature,
    neighborhood_subgraph,
)


# --- height features --------------------------------------------------------


def test_propane_height_zero_counts():
    vec = height_features(parse_smiles("CCC"), [0])
    assert vec.entries == {"0|@0;CH3;": 2, "0|@0;CH2;": 1}
    assert vec.total() == 3


def test_methane_heights_zero_and_one_coincide():
    # a single node has the same ball at every height
    vec = height_features(parse_smiles("C"), [0, 1])
    assert vec.entries == {"0|@0;CH4;": 1, "1|@0;CH4;": 1}


def test_count_conservation_random_molecules():
    rnd = random.Random(2024)
    for _ in range(40):
        graph = parse_smiles(random_molecule_smiles(rnd, max_atoms=9))
        vec = height_features(graph, [0, 1, 2, 3])
        for h in (0, 1, 2, 3):
            at_h = sum(
                c for k, c in vec.entries.items() if k.startswith(f"{h}|")
            )
            assert at_h == len(graph)


def test_height_features_validation():
    graph = parse_smiles("C")
    with pytest.raises(ValueError, match="heights"):
        height_features(graph, [])
    with pytest.raises(ValueError, match="heights"):
        height_features(graph, [-1, 0])


def test_feature_masses_recorded_per_key():
    vec = height_features(parse_smiles("CCC"), [0])
    assert vec.masses["0|@0;CH3;"] == pytest.approx(15.035, abs=1e-9)
    assert vec.masses["0|@0;CH2;"] == pytest.approx(14.027, abs=1e-9)


# --- pair features ----------------------------------------------------------


def test_pair_distance_zero_equals_height_features():
    rnd = random.Random(7)
    for _ in range(20):
        graph = parse_smiles(random_molecule_smiles(rnd, max_atoms=8))
        plain = height_features(graph, [0, 1, 2])
        via_pairs = pair_features(graph, [0, 1, 2], [0])
        assert via_pairs.entries == plain.entries
        assert via_pairs.masses == plain.masses


def test_methanol_single_pair():
    vec = pair_features(parse_smiles("CO"), [0], [1])
    assert vec.entries == {"0|1|@0;CH3;|@0;OH1;": 1}
    assert vec.masses["0|1|@0;CH3;|@0;OH1;"] == pytest.approx(32.042, abs=1e-9)


def test_butane_pair_counts_by_distance():
    vec = pair_features(parse_smiles("CCCC"), [0], [1, 3])
    assert vec.entries == {
        "0|1|@0;CH2;|@0;CH3;": 2,
        "0|1|@0;CH2;|@0;CH2;": 1,
        "0|3|@0;CH3;|@0;CH3;": 1,
    }
    # pair mass is the sum of the two subgraph masses
    assert vec.masses["0|1|@0;CH2;|@0;CH3;"] == pytest.approx(29.062, abs=1e-9)
    assert not any("|2|" in k for k in vec.entries)


def test_pair_keys_are_lexicographically_ordered():
    vec = pair_features(parse_smiles("OC"), [0], [1])
    (key,) = vec.entries
    _, _, ka, kb = key.split("|")
    assert ka <= kb
    assert key == "0|1|@0;CH3;|@0;OH1;"


def test_pair_count_totals_match_distance_histogram():
    graph = parse_smiles("C1CC1C")  # methylcyclopropane
    dist = graph.distances()
    n = len(graph)
    for d in (1, 2):
        expected = sum(
            1 for a in range(n) for b in range(a + 1, n) if dist[a, b] == d
        )
        vec = pair_features(graph, [1], [d])
        assert vec.total() == expected


def test_pair_features_validation():
    graph = parse_smiles("CC")
    with pytest.raises(ValueError, match="distances"):
        pair_features(graph, [0], [])
    with pytest.raises(ValueError, match="distances"):
        pair_features(graph, [0], [-2])
    with pytest.raises(ValueError, match="heights"):
        pair_features(graph, [], [0])


# --- the neighborhood memo --------------------------------------------------


def reference_features(graph, heights, distances):
    """Height (``distances`` None) or pair features, one signature per
    (root, height) from its own neighborhood subgraph, with no memo."""
    table = {
        h: [
            canonical_signature(neighborhood_subgraph(graph, a, h))
            for a in range(len(graph))
        ]
        for h in heights
    }
    vector = FeatureVector()
    dist = graph.distances()
    for d in distances or [0]:
        for h, sigs in table.items():
            if d == 0:
                for sig in sigs:
                    vector.add(f"{h}|{sig.key}", sig.mass)
                continue
            for a, b in itertools.combinations(range(len(graph)), 2):
                if dist[a, b] == d:
                    ka, kb = sorted((sigs[a].key, sigs[b].key))
                    vector.add(f"{h}|{d}|{ka}|{kb}", sigs[a].mass + sigs[b].mass)
    return vector


_RINGS = ("c1ccccc1", "c1ccncc1", "c1cc[nH]c1", "c1ccoc1", "c1ccsc1")
_LINKERS = ("C", "N", "O", "C(=O)", "[NH2+]", "c1ccc(cc1)", "C(C)(C)", "S(=O)(=O)")
_ENDS = ("[O-]", "Cl", "[N+](=O)[O-]", "C(=O)[O-]", "[NH3+]", "C#N", "c1ccncc1")


def random_charged_aromatic_smiles(rnd):
    """A ring, up to three linkers and an end group, most of them charged,
    aromatic or carrying hydrogens."""
    linkers = "".join(rnd.choice(_LINKERS) for _ in range(rnd.randint(0, 3)))
    return rnd.choice(_RINGS) + linkers + rnd.choice(_ENDS)


def memo_test_graphs():
    rnd = random.Random(31)  # the graphs of test_neighborhood_matches_distance_table
    graphs = [random_labeled_graph(rnd, max_nodes=9) for _ in range(25)]
    rnd = random.Random(77)
    smiles = [random_charged_aromatic_smiles(rnd) for _ in range(20)]
    smiles += [random_molecule_smiles(rnd, max_atoms=9) for _ in range(10)]
    parsed = [parse_smiles(s) for s in smiles]
    sdf = "".join(
        molblock(
            [a.label for a in g.nodes],
            [(i + 1, j + 1, o) for i, j, o in g.edges],
            {k + 1: a.charge for k, a in enumerate(g.nodes) if a.charge},
        )
        for g in parsed[:20]
    )
    records, skipped = parse_sdf(sdf)
    assert not skipped
    return graphs + parsed + [g for g, _ in records]


@pytest.mark.parametrize("shared", [True, False], ids=["one-memo", "memo-per-graph"])
def test_memo_matches_one_signature_per_root_and_height(shared):
    graphs = memo_test_graphs()
    assert any(a.aromatic for g in graphs for a in g.nodes)
    assert any(a.charge for g in graphs for a in g.nodes)
    assert any(a.hydrogens for g in graphs for a in g.nodes)
    heights, distances = [0, 1, 2, 3], [0, 1, 2, 3]
    memo = {}
    for graph in graphs:
        if not shared:
            memo = {}
        for got, expected in (
            (
                height_features(graph, heights, memo=memo),
                reference_features(graph, heights, None),
            ),
            (
                pair_features(graph, heights, distances, memo=memo),
                reference_features(graph, heights, distances),
            ),
        ):
            assert got.entries == expected.entries
            assert {k: m.hex() for k, m in got.masses.items()} == {
                k: m.hex() for k, m in expected.masses.items()
            }
    assert memo


def test_memo_keeps_the_subgraph_size_cap():
    chain = parse_smiles("C" * (MAX_SUBGRAPH_NODES + 6))
    height_features(chain, [MAX_SUBGRAPH_NODES // 2 - 1])
    with pytest.raises(SubgraphTooLargeError):
        height_features(chain, [0, MAX_SUBGRAPH_NODES], memo={})


# --- key helpers ------------------------------------------------------------


@pytest.mark.parametrize(
    "key,expected",
    [
        ("0|@0;C;", ("", 0, 0)),
        ("2|@0;CH3;", ("", 2, 0)),
        ("1|3|@0;C;|@0;O;", ("", 1, 3)),
        ("drug:0|@0;C;", ("drug", 0, 0)),
        ("target:2|5|@0;<K>;|@0;<W>;", ("target", 2, 5)),
    ],
)
def test_parse_feature_key(key, expected):
    assert parse_feature_key(key) == expected


# --- vocabulary -------------------------------------------------------------


def test_vocab_orders_by_mass_then_key():
    vec = height_features(parse_smiles("CC(=O)O"), [0])
    vocab = FeatureVocabulary.from_vectors([vec])
    # C 12.011 < CH3 15.035 < O 15.999 < OH1 17.007
    assert vocab.keys == (
        "0|@0;C;",
        "0|@0;CH3;",
        "0|@0;O;",
        "0|@0;OH1;",
    )
    assert list(vocab.masses) == sorted(vocab.masses)


def test_vocab_mass_tie_breaks_lexicographically():
    vocab = FeatureVocabulary.from_vectors(
        [
            FeatureVector({"0|b": 1, "0|a": 1}, {"0|b": 5.0, "0|a": 5.0}),
        ]
    )
    assert vocab.keys == ("0|a", "0|b")


def test_vocab_rejects_wrong_order_and_duplicates():
    with pytest.raises(ValueError, match="order"):
        FeatureVocabulary(("0|b", "0|a"), (5.0, 1.0))
    with pytest.raises(ValueError, match="duplicate"):
        FeatureVocabulary(("0|a", "0|a"), (1.0, 1.0))
    with pytest.raises(ValueError, match="no features"):
        FeatureVocabulary.from_vectors([])


def test_vocab_index_lookup():
    vocab = FeatureVocabulary(("0|a", "0|b"), (1.0, 2.0))
    assert vocab.index("0|a") == 0
    assert vocab.index("0|b") == 1
    assert vocab.index("0|zzz") is None
    assert len(vocab) == 2


def test_vocab_blocks_group_namespace_height_distance():
    # blocks are numbered in sorted (namespace, height, distance) order,
    # whatever the column order
    keys = ("target:0|x", "drug:1|2|x|y", "drug:0|x", "drug:0|y", "drug:1|2|y|y")
    vocab = FeatureVocabulary(keys, (1.0, 2.0, 3.0, 4.0, 5.0))
    assert vocab.block_ids().tolist() == [2, 1, 0, 0, 1]
    for a, b in itertools.combinations(range(len(keys)), 2):
        same = parse_feature_key(keys[a]) == parse_feature_key(keys[b])
        assert same == (vocab.block_ids()[a] == vocab.block_ids()[b])


# --- matrices ---------------------------------------------------------------


def toy_vectors():
    a = height_features(parse_smiles("CCC"), [0])
    b = height_features(parse_smiles("CCO"), [0])
    return [a, b]


def test_build_matrix_freezes_vocab_from_training():
    data = build_matrix(toy_vectors(), [1, -1])
    assert data.X.shape == (2, len(data.vocab))
    assert data.y.tolist() == [1, -1]
    assert data.ids == ("0", "1")
    # every vector count lands in its column
    for r, vec in enumerate(toy_vectors()):
        for key, count in vec.entries.items():
            c = data.vocab.index(key)
            assert data.X[r, c] == count


def test_build_matrix_with_frozen_vocab_drops_unseen():
    train = build_matrix(toy_vectors()[:1], [1])
    held_out = height_features(parse_smiles("CCO"), [0])  # has OH1, unseen
    data = build_matrix([held_out], [-1], vocab=train.vocab)
    assert data.X.shape[1] == len(train.vocab)
    kept = data.X.toarray()[0].sum()
    assert kept < held_out.total()  # unseen keys were dropped, not added


def test_build_matrix_validation():
    with pytest.raises(ValueError, match="label"):
        build_matrix(toy_vectors(), [1])
    with pytest.raises(ValueError, match="no vectors"):
        build_matrix([], [])


def test_dataset_matrix_validation():
    X = sp.csr_matrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        DatasetMatrix(X, np.array([1, 0]), ("a", "b"), None)
    with pytest.raises(ValueError, match="align"):
        DatasetMatrix(X, np.array([1, -1, 1]), ("a", "b", "c"), None)
    vocab = FeatureVocabulary(("0|a",), (1.0,))
    with pytest.raises(ValueError, match="width"):
        DatasetMatrix(X, np.array([1, -1]), ("a", "b"), vocab)


def test_dataset_matrix_subset_and_dense():
    data = build_matrix(toy_vectors(), [1, -1], ids=("mol.a", "mol.b"))
    sub = data.subset(np.array([1]))
    assert len(sub) == 1
    assert sub.ids == ("mol.b",)
    assert sub.y.tolist() == [-1]
    assert np.array_equal(sub.dense()[0], data.dense()[1])
    assert sub.vocab is data.vocab


# --- file formats -----------------------------------------------------------


def test_sparse_file_format_exact():
    vocab = FeatureVocabulary(("0|a", "0|b", "0|c"), (1.0, 2.0, 3.0))
    X = sp.csr_matrix(np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0]]))
    data = DatasetMatrix(X, np.array([1, -1]), ("0", "1"), vocab)
    out = io.StringIO()
    save_sparse(out, data)
    assert out.getvalue() == "+1 1:2 3:1\n-1 2:3\n"


def test_sparse_round_trip():
    data = build_matrix(toy_vectors(), [1, -1])
    out = io.StringIO()
    save_sparse(out, data)
    loaded = load_sparse(io.StringIO(out.getvalue()), vocab=data.vocab)
    assert np.array_equal(loaded.dense(), data.dense())
    assert loaded.y.tolist() == data.y.tolist()
    assert loaded.vocab is data.vocab


def _count_matrices():
    rng = np.random.default_rng(8)
    counts = sp.random(30, 50, density=0.2, random_state=9, format="csr")
    counts.data = np.floor(counts.data * 6) + 1
    odd = counts.copy()
    odd.data[::3] = rng.choice(
        [0.5, 1 / 3, 1e-300, 2.5e20, 1e22, -2.0, -0.0, 0.0], size=len(odd.data[::3])
    )
    empty_rows = counts.copy()
    for r in (0, 13, 29):
        empty_rows.data[empty_rows.indptr[r] : empty_rows.indptr[r + 1]] = 0.0
    empty_rows.eliminate_zeros()
    return {"counts": counts, "non-integer-and-stored-zeros": odd,
            "empty-rows": empty_rows, "dense": odd.toarray()}


@pytest.mark.parametrize("items", [features.SAVE_BLOCK_ITEMS, 40])
@pytest.mark.parametrize("name", sorted(_count_matrices()))
def test_sparse_files_match_the_item_by_item_routines(name, items, monkeypatch):
    X = _count_matrices()[name]
    labels = np.where(np.arange(X.shape[0]) % 3, 1, -1)
    data = DatasetMatrix(X, labels, tuple(str(i) for i in range(X.shape[0])), None)
    monkeypatch.setattr(features, "SAVE_BLOCK_ITEMS", items)
    out, reference = io.StringIO(), io.StringIO()
    save_sparse(out, data)
    reference_save_sparse(reference, data)
    assert out.getvalue() == reference.getvalue()
    loaded = load_sparse(io.StringIO(out.getvalue()))
    X_ref, y_ref = reference_load_sparse(io.StringIO(out.getvalue()))
    assert loaded.X.shape == X_ref.shape and loaded.y.tolist() == y_ref.tolist()
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(loaded.X, part), getattr(X_ref, part))


def test_load_sparse_rejects_non_finite_counts():
    for count in ("nan", "-inf", "1e400"):
        with pytest.raises(ValueError, match="feature counts must be finite"):
            load_sparse(io.StringIO(f"+1 1:2 3:{count}\n-1 2:1\n"))


def test_load_sparse_without_vocab_uses_max_column():
    loaded = load_sparse(io.StringIO("+1 1:1 5:2\n-1 2:1\n"))
    assert loaded.X.shape == (2, 5)
    assert loaded.vocab is None


# Each malformed file and the ValueError message it raises, as recorded
# from the one-item-at-a-time reader (tests/helpers.reference_load_sparse).
MALFORMED_FEATURE_FILES = [
    ("2 1:1\n", "label '2' is not +1 or -1"),
    ("x 1:1\n", "invalid literal for int() with base 10: 'x'"),
    ("+1 3:1 2:1\n", "columns must be ascending and 1-based"),
    ("+1 2:1 2:3\n", "columns must be ascending and 1-based"),
    ("+1 0:1\n", "columns must be ascending and 1-based"),
    ("-1 1:1\n+1 2:1 1:1\n", "columns must be ascending and 1-based"),
    ("+1 3\n", "could not convert string to float: ''"),
    ("+1 1:1:2\n", "could not convert string to float: '1:2'"),
    ("+1 x:1\n", "invalid literal for int() with base 10: 'x'"),
    ("+1 :1\n", "invalid literal for int() with base 10: ''"),
    ("+1 1:y\n", "could not convert string to float: 'y'"),
    ("", "empty feature file"),
    ("\n\n  \n", "empty feature file"),
]


def test_load_sparse_rejects_malformed():
    for text, message in MALFORMED_FEATURE_FILES:
        for load in (load_sparse, reference_load_sparse):
            with pytest.raises(ValueError) as caught:
                load(io.StringIO(text))
            assert (type(caught.value), str(caught.value)) == (ValueError, message), text
    vocab = FeatureVocabulary(("0|a",), (1.0,))
    for text in ("+1 2:1\n", "+1 99999999999999999999:1\n"):
        with pytest.raises(ValueError, match="beyond"):
            load_sparse(io.StringIO(text), vocab=vocab)


def test_vocab_file_format_exact():
    vocab = FeatureVocabulary(("0|a", "0|b"), (1.5, 2.0))
    out = io.StringIO()
    save_vocab(out, vocab)
    assert out.getvalue() == "1\t0|a\t1.5\n2\t0|b\t2.0\n"


def test_vocab_round_trip():
    vec = height_features(parse_smiles("CC(=O)O"), [0, 1])
    vocab = FeatureVocabulary.from_vectors([vec])
    out = io.StringIO()
    save_vocab(out, vocab)
    loaded = load_vocab(io.StringIO(out.getvalue()))
    assert loaded.keys == vocab.keys
    assert loaded.masses == vocab.masses


def test_load_vocab_rejects_malformed():
    with pytest.raises(ValueError, match="malformed"):
        load_vocab(io.StringIO("1\tkey-without-mass\n"))
    with pytest.raises(ValueError, match="out of order"):
        load_vocab(io.StringIO("2\t0|a\t1.0\n"))
