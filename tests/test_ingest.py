"""Ingestion tests: labeled SDF sets, pair CSVs, read-only cache resolution."""

import io
import os
from urllib.parse import quote

import pytest

from submol.features import height_features, pair_features
from submol.graph import parse_sdf, parse_smiles
from submol.ingest import (
    IngestError,
    InteractionPair,
    ResolutionError,
    Resolver,
    StructureRecord,
    featurize_pair,
    featurize_pairs,
    label_records,
    load_pairs,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


# --- resolver ---------------------------------------------------------------


def write_record(cache, ident, kind, structure, name=None, source="hand"):
    """Write the four-line cache record of ``ident`` by hand."""
    cache.mkdir(exist_ok=True)
    path = cache / (quote(ident, safe="") + ".rec")
    path.write_text(f"{kind}\n{name or ident}\n{structure}\n{source}\n", encoding="utf-8")
    return path


def test_cache_record_is_four_lines(tmp_path):
    write_record(tmp_path / "cache", "water", "small-molecule", "O", name="Water")
    record = Resolver(tmp_path / "cache").resolve("water", "small-molecule")
    assert record == StructureRecord("water", "small-molecule", "Water", "O", "hand")
    assert len(record.to_graph()) == 1


def test_offline_miss_is_final(tmp_path):
    (tmp_path / "cache").mkdir()
    resolver = Resolver(tmp_path / "cache")
    with pytest.raises(ResolutionError, match="unknown-compound: not in cache"):
        resolver.resolve("unknown-compound")


def test_cached_records_never_overwritten(tmp_path):
    # resolving hits and misses leaves the cache exactly as it was
    cache = tmp_path / "cache"
    path = write_record(cache, "w", "small-molecule", "O")
    resolver = Resolver(cache)
    assert resolver.resolve("w").structure == "O"
    with pytest.raises(ResolutionError):
        resolver.resolve("x", "small-molecule")
    assert os.listdir(cache) == ["w.rec"]
    assert path.read_text(encoding="utf-8") == "small-molecule\nw\nO\nhand\n"


def test_missing_cache_dir_is_not_created(tmp_path):
    with pytest.raises(FileNotFoundError, match="cache"):
        Resolver(tmp_path / "cache")
    assert not (tmp_path / "cache").exists()
    (tmp_path / "file").write_text("", encoding="utf-8")
    with pytest.raises(FileNotFoundError, match="not a directory"):
        Resolver(tmp_path / "file")


def test_kind_mismatch_on_cached_record(tmp_path):
    write_record(tmp_path / "cache", "thing", "small-molecule", "CC")
    resolver = Resolver(tmp_path / "cache")
    assert resolver.resolve("thing", "small-molecule").structure == "CC"
    with pytest.raises(ResolutionError, match="is a small-molecule"):
        resolver.resolve("thing", "protein")


def test_protein_record_resolves_to_chain_graph(tmp_path):
    write_record(tmp_path / "cache", "p1", "protein", "MKWVT")
    record = Resolver(tmp_path / "cache").resolve("p1", "protein")
    graph = record.to_graph()
    assert len(graph) == 5
    assert graph.nodes[0].label == "M"
    assert graph.nodes[0].residue


def test_malformed_cache_record(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "bad.rec").write_text("only\ntwo\n", encoding="utf-8")
    with pytest.raises(ResolutionError, match="malformed"):
        Resolver(cache).resolve("bad")
    write_record(cache, "odd", "mineral", "C")
    with pytest.raises(ResolutionError, match="unknown kind 'mineral'"):
        Resolver(cache).resolve("odd")


def test_unknown_kind_argument(tmp_path):
    write_record(tmp_path / "cache", "x", "small-molecule", "C")
    with pytest.raises(ValueError, match="unknown structure kind"):
        Resolver(tmp_path / "cache").resolve("x", "mineral")


def test_identifier_quoting_in_cache_paths(tmp_path):
    path = write_record(tmp_path / "cache", "a/b c", "small-molecule", "CC")
    assert path.name == "a%2Fb%20c.rec"
    assert Resolver(tmp_path / "cache").resolve("a/b c").structure == "CC"


# --- labeled SDF sets -------------------------------------------------------


def test_load_bursi_mini_fixture():
    with open(os.path.join(DATA, "bursi_mini.sdf"), encoding="utf-8") as handle:
        out = label_records(parse_sdf(handle), "Ames", "mutagen")
    assert out.labels == [1, -1, 1, -1]
    assert [g.name for g in out.graphs] == ["m1", "m2", "m3", "m6"]
    # one record fails to parse, one lacks the label item
    assert len(out.skipped) == 2
    indices = {index for index, _ in out.skipped}
    assert indices == {3, 4}
    reasons = dict(out.skipped)
    assert reasons[3] == "missing label item 'Ames'"
    assert "too short" in reasons[4]


def test_load_bursi_accepts_string_source():
    text = open(os.path.join(DATA, "bursi_mini.sdf"), encoding="utf-8").read()
    out = label_records(parse_sdf(text), "Ames", "mutagen")
    assert out.labels == [1, -1, 1, -1]


def test_load_bursi_all_unusable():
    out = label_records(parse_sdf("junk\n$$$$\n"), "Ames", "mutagen")
    assert (out.graphs, out.labels) == ([], [])
    assert [index for index, _ in out.skipped] == [0]


def test_load_bursi_nonpositive_values_are_negative():
    with open(os.path.join(DATA, "bursi_mini.sdf"), encoding="utf-8") as handle:
        out = label_records(parse_sdf(handle), "Ames", "nonmutagen")
    assert out.labels == [-1, 1, -1, 1]


METHANE_MOLBLOCK = (
    "methane\n  submoltest\n\n"
    "  1  0  0  0  0  0  0  0  0  0999 V2000\n"
    "    0.0000    0.0000    0.0000 C   0  0  0  0  0  0  0  0  0  0  0  0\n"
    "M  END\n"
)


def test_missing_label_skip_carries_its_record_index():
    # record 0 fails to parse, record 1 is labeled, record 2 lacks the item:
    # the skip must name record 2, not its position among parsed records
    text = (
        "junk\n$$$$\n"
        + METHANE_MOLBLOCK + "> <Ames>\nmutagen\n\n$$$$\n"
        + METHANE_MOLBLOCK + "$$$$\n"
    )
    out = label_records(parse_sdf(text), "Ames", "mutagen")
    assert out.labels == [1]
    assert [index for index, _ in out.skipped] == [0, 2]
    assert out.skipped[1] == (2, "missing label item 'Ames'")


def test_label_records_without_a_key_labels_everything_positive():
    with open(os.path.join(DATA, "bursi_mini.sdf"), encoding="utf-8") as handle:
        out = label_records(parse_sdf(handle), None, "")
    assert [g.name for g in out.graphs] == ["m1", "m2", "m3", "m4-unlabeled", "m6"]
    assert out.labels == [1] * 5
    assert [index for index, _ in out.skipped] == [4]


# --- interaction pairs ------------------------------------------------------


def pair_csv(text):
    return io.StringIO(text)


def test_load_pairs_inline_protein():
    dataset = load_pairs(pair_csv(
        "id_a,smiles_a,id_b,seq_b,label\n"
        "d1,CCO,t1,MKWVT,+1\n"
        "d2,CC,t2,GLY,-1\n"
    ))
    assert len(dataset.pairs) == 2
    assert dataset.dropped == []
    first = dataset.pairs[0]
    assert (first.id_a, first.id_b, first.label) == ("d1", "t1", 1)
    assert first.kind_b == "protein"
    assert [n.label for n in first.graph_b.nodes] == ["M", "K", "W", "V", "T"]
    assert [p.label for p in dataset.pairs] == [1, -1]


def test_load_pairs_inline_molecules_sorted():
    dataset = load_pairs(pair_csv(
        "id_a,smiles_a,id_b,smiles_b,label\n"
        "m2,CCO,m1,CC,1\n"
        "m1,CC,m2,CCO,1\n"
    ))
    a, b = dataset.pairs
    # both spellings land on the identical canonical row
    assert (a.id_a, a.id_b) == ("m1", "m2")
    assert (b.id_a, b.id_b) == ("m1", "m2")
    assert len(a.graph_a) == len(b.graph_a) == 2
    assert len(a.graph_b) == len(b.graph_b) == 3


def test_load_pairs_bad_rows_dropped_with_reasons():
    dataset = load_pairs(pair_csv(
        "id_a,smiles_a,id_b,seq_b,label\n"
        "d1,CCO,t1,MK,+1\n"
        "d2,C((,t2,MK,+1\n"
        "d3,CC,t3,MK,2\n"
        ",CC,t4,MK,+1\n"
        "d5,CC,t5,MBZ,-1\n"
    ))
    assert len(dataset.pairs) == 1
    assert [row for row, _ in dataset.dropped] == [1, 2, 3, 4]
    reasons = dict(dataset.dropped)
    assert "label must be +1 or -1" in reasons[2]
    assert "missing id" in reasons[3]
    assert "unknown residue code 'B'" in reasons[4]


def test_load_pairs_header_validation():
    with pytest.raises(IngestError, match="required columns"):
        load_pairs(pair_csv("id_a,id_b\nx,y\n"))
    with pytest.raises(IngestError, match="both smiles_b and seq_b"):
        load_pairs(pair_csv("id_a,id_b,label,smiles_b,seq_b\nx,y,1,C,M\n"))
    with pytest.raises(IngestError, match="empty pair file"):
        load_pairs(pair_csv(""))


def test_load_pairs_resolver_fallback(tmp_path):
    write_record(tmp_path / "cache", "d1", "small-molecule", "CCO")
    write_record(tmp_path / "cache", "t1", "protein", "MKWVT")
    resolver = Resolver(tmp_path / "cache")
    dataset = load_pairs(pair_csv(
        "id_a,id_b,label,seq_b\n"
        "d1,t1,+1,\n"          # blank inline fields force resolution
        "d9,t1,-1,\n"          # unresolvable id_a: dropped, not fatal
    ), resolver=resolver)
    assert len(dataset.pairs) == 1
    assert len(dataset.pairs[0].graph_a) == 3
    assert len(dataset.pairs[0].graph_b) == 5
    assert len(dataset.dropped) == 1
    assert dataset.dropped[0][0] == 1
    assert dataset.dropped[0][1] == "d9: not in cache"


def test_load_pairs_without_resolver_or_inline():
    dataset = load_pairs(pair_csv("id_a,id_b,label\nd1,t1,+1\n"))
    assert dataset.pairs == []
    assert "no inline structure and no resolver" in dataset.dropped[0][1]


# --- pair featurization -----------------------------------------------------


def test_featurize_pair_namespaces():
    pair = InteractionPair(
        "d", "t",
        parse_smiles("CO"),
        parse_smiles("CC"),
        "small-molecule",
        1,
    )
    vector = featurize_pair(pair, heights=[0])
    assert set(vector.entries) == {
        "drug:0|@0;CH3;", "drug:0|@0;OH1;", "target:0|@0;CH3;",
    }
    assert vector.entries["target:0|@0;CH3;"] == 2
    # namespacing preserves counts and masses from each side
    left = height_features(parse_smiles("CO"), [0])
    assert vector.masses["drug:0|@0;CH3;"] == left.masses["0|@0;CH3;"]


def test_featurize_pair_with_distances():
    pair = InteractionPair(
        "d", "t", parse_smiles("CCO"), parse_smiles("CC"), "small-molecule", 1
    )
    vector = featurize_pair(pair, heights=[0], distances=[1])
    expected_left = pair_features(parse_smiles("CCO"), [0], [1])
    drug_keys = {k for k in vector.entries if k.startswith("drug:")}
    assert drug_keys == {"drug:" + k for k in expected_left.entries}


def test_featurize_pairs_vectors_and_labels():
    dataset = load_pairs(pair_csv(
        "id_a,smiles_a,id_b,seq_b,label\n"
        "d1,CCO,t1,MKWVT,+1\n"
        "d2,CC,t2,GLY,-1\n"
    ))
    vectors, labels = featurize_pairs(dataset, heights=[0, 1])
    assert labels == [1, -1]
    assert len(vectors) == 2
    assert all(any(k.startswith("drug:") for k in v.entries) for v in vectors)
    assert all(any(k.startswith("target:") for k in v.entries) for v in vectors)


# --- the committed fixture is reproducible ----------------------------------


def test_interaction_fixture_matches_generator(tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "make_interaction_fixture", os.path.join(DATA, "make_interaction_fixture.py")
    )
    make_interaction_fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_interaction_fixture)

    regenerated = tmp_path / "regen.csv"
    make_interaction_fixture.main(str(regenerated))
    committed = open(
        os.path.join(DATA, "interaction_200.csv"), "rb"
    ).read()
    assert regenerated.read_bytes() == committed


def test_interaction_fixture_loads_cleanly():
    with open(os.path.join(DATA, "interaction_200.csv"), encoding="utf-8") as handle:
        dataset = load_pairs(handle)
    assert len(dataset.pairs) == 200
    assert dataset.dropped == []
    labels = [p.label for p in dataset.pairs]
    assert (labels.count(1), labels.count(-1)) == (100, 100)
    kinds = {p.kind_b for p in dataset.pairs}
    assert kinds == {"protein"}
