"""Ingestion tests: labeled SDF sets, pair CSVs, offline-first resolution."""

import io
import os

import pytest

from submol.features import height_features, pair_features
from submol.graph import parse_smiles
from submol.ingest import (
    FetchResult,
    IngestError,
    InteractionPair,
    ResolutionError,
    Resolver,
    StructureRecord,
    featurize_pair,
    featurize_pairs,
    load_bursi,
    load_pairs,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


# --- resolver ---------------------------------------------------------------


class CountingHook:
    """A fetch stub that records every query it answers."""

    def __init__(self, answers):
        self.answers = answers
        self.calls = []

    def __call__(self, ident, kind):
        self.calls.append((ident, kind))
        return self.answers.get(ident)


def test_resolve_fetches_once_then_hits_cache(tmp_path):
    hook = CountingHook({"aspirin": FetchResult("Aspirin", "CC(=O)Oc1ccccc1C(=O)O", "stub")})
    resolver = Resolver(tmp_path / "cache", fetch_hook=hook)
    first = resolver.resolve("aspirin", "small-molecule")
    again = resolver.resolve("aspirin", "small-molecule")
    assert hook.calls == [("aspirin", "small-molecule")]  # one fetch only
    assert first == again
    assert first.structure == "CC(=O)Oc1ccccc1C(=O)O"
    assert first.kind == "small-molecule"
    assert first.source == "stub"
    assert resolver.cached_ids() == ["aspirin"]


def test_cache_record_is_four_lines(tmp_path):
    hook = CountingHook({"water": FetchResult("water", "O", "stub")})
    resolver = Resolver(tmp_path / "cache", fetch_hook=hook)
    resolver.resolve("water", "small-molecule")
    path = tmp_path / "cache" / "water.rec"
    assert path.read_text(encoding="utf-8") == "small-molecule\nwater\nO\nstub\n"


def test_name_mismatch_is_rejected_and_not_cached(tmp_path):
    hook = CountingHook({"benzene": FetchResult("toluene", "Cc1ccccc1", "stub")})
    resolver = Resolver(tmp_path / "cache", fetch_hook=hook)
    with pytest.raises(ResolutionError, match="not trusting"):
        resolver.resolve("benzene", "small-molecule")
    assert resolver.cached_ids() == []


@pytest.mark.parametrize("reported", ["Benzene", "  benzene ", "BEN ZENE"])
def test_name_match_is_forgiving(tmp_path, reported):
    # case and whitespace runs are normalized before comparing
    query = "ben zene" if " " in reported.strip() else "benzene"
    hook = CountingHook({query: FetchResult(reported, "c1ccccc1", "stub")})
    resolver = Resolver(tmp_path / "cache", fetch_hook=hook)
    record = resolver.resolve(query, "small-molecule")
    assert record.name == reported


def test_offline_miss_is_final(tmp_path):
    resolver = Resolver(tmp_path / "cache")
    with pytest.raises(ResolutionError, match="fetching is disabled"):
        resolver.resolve("unknown-compound")


def test_kind_mismatch_on_cached_record(tmp_path):
    hook = CountingHook({"thing": FetchResult("thing", "CC", "stub")})
    resolver = Resolver(tmp_path / "cache", fetch_hook=hook)
    resolver.resolve("thing", "small-molecule")
    with pytest.raises(ResolutionError, match="is a small-molecule"):
        resolver.resolve("thing", "protein")


def test_invalid_structure_is_not_cached(tmp_path):
    hook = CountingHook({"junk": FetchResult("junk", "C(((", "stub")})
    resolver = Resolver(tmp_path / "cache", fetch_hook=hook)
    with pytest.raises((ResolutionError, ValueError)):
        resolver.resolve("junk", "small-molecule")
    assert resolver.cached_ids() == []
    # and the miss stays a miss offline
    offline = Resolver(tmp_path / "cache")
    with pytest.raises(ResolutionError):
        offline.resolve("junk", "small-molecule")


def test_fetch_failure_is_wrapped(tmp_path):
    def exploding_hook(ident, kind):
        raise OSError("socket closed")

    resolver = Resolver(tmp_path / "cache", fetch_hook=exploding_hook)
    with pytest.raises(ResolutionError, match="fetch failed"):
        resolver.resolve("x", "small-molecule")


def test_fetch_none_means_not_found(tmp_path):
    resolver = Resolver(tmp_path / "cache", fetch_hook=CountingHook({}))
    with pytest.raises(ResolutionError, match="no structure found"):
        resolver.resolve("nothing", "small-molecule")


def test_protein_record_resolves_to_chain_graph(tmp_path):
    hook = CountingHook({"p1": FetchResult("p1", "MKWVT", "stub")})
    resolver = Resolver(tmp_path / "cache", fetch_hook=hook)
    record = resolver.resolve("p1", "protein")
    graph = record.to_graph()
    assert len(graph) == 5
    assert graph.nodes[0].label == "M"
    assert graph.nodes[0].residue


def test_cached_records_never_overwritten(tmp_path):
    cache = tmp_path / "cache"
    resolver = Resolver(cache, fetch_hook=CountingHook(
        {"w": FetchResult("w", "O", "stub")}
    ))
    resolver.resolve("w")
    second = Resolver(cache, fetch_hook=CountingHook(
        {"w": FetchResult("w", "N", "other")}
    ))
    assert second.resolve("w").structure == "O"  # cache wins, no refetch


def test_malformed_cache_record(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "bad.rec").write_text("only\ntwo\n", encoding="utf-8")
    with pytest.raises(ResolutionError, match="malformed"):
        Resolver(cache).resolve("bad")


def test_unknown_kind_argument(tmp_path):
    with pytest.raises(ValueError, match="unknown structure kind"):
        Resolver(tmp_path / "cache").resolve("x", "mineral")


def test_identifier_quoting_in_cache_paths(tmp_path):
    hook = CountingHook({"a/b c": FetchResult("a/b c", "CC", "stub")})
    resolver = Resolver(tmp_path / "cache", fetch_hook=hook)
    resolver.resolve("a/b c")
    assert resolver.cached_ids() == ["a/b c"]
    assert "/" not in os.listdir(tmp_path / "cache")[0].replace(".rec", "")


# --- labeled SDF sets -------------------------------------------------------


def test_load_bursi_mini_fixture():
    with open(os.path.join(DATA, "bursi_mini.sdf"), encoding="utf-8") as handle:
        out = load_bursi(handle, "Ames", "mutagen")
    assert out.labels == [1, -1, 1, -1]
    assert [g.name for g in out.graphs] == ["m1", "m2", "m3", "m6"]
    assert (out.positives, out.negatives) == (2, 2)
    # one record fails to parse, one lacks the label item
    assert len(out.skipped) == 2
    indices = {index for index, _ in out.skipped}
    assert indices == {3, 4}
    reasons = dict(out.skipped)
    assert reasons[3] == "missing label item 'Ames'"
    assert "too short" in reasons[4]


def test_load_bursi_accepts_string_source():
    text = open(os.path.join(DATA, "bursi_mini.sdf"), encoding="utf-8").read()
    out = load_bursi(text, "Ames", "mutagen")
    assert out.labels == [1, -1, 1, -1]


def test_load_bursi_all_unusable():
    with pytest.raises(IngestError, match="no usable records"):
        load_bursi("junk\n$$$$\n", "Ames", "mutagen")


def test_load_bursi_nonpositive_values_are_negative():
    with open(os.path.join(DATA, "bursi_mini.sdf"), encoding="utf-8") as handle:
        out = load_bursi(handle, "Ames", "nonmutagen")
    assert out.labels == [-1, 1, -1, 1]


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
    assert dataset.pairs[1].label == -1
    assert (dataset.positives, dataset.negatives) == (1, 1)


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
    hook = CountingHook({
        "d1": FetchResult("d1", "CCO", "stub"),
        "t1": FetchResult("t1", "MKWVT", "stub"),
    })
    resolver = Resolver(tmp_path / "cache", fetch_hook=hook)
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
    assert "d9" in dataset.dropped[0][1]


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


def test_featurize_pairs_ids_and_labels():
    dataset = load_pairs(pair_csv(
        "id_a,smiles_a,id_b,seq_b,label\n"
        "d1,CCO,t1,MKWVT,+1\n"
        "d2,CC,t2,GLY,-1\n"
    ))
    vectors, labels, ids = featurize_pairs(dataset, heights=[0, 1])
    assert labels == [1, -1]
    assert ids == ["d1~t1", "d2~t2"]
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
    assert dataset.positives == 100
    assert dataset.negatives == 100
    kinds = {p.kind_b for p in dataset.pairs}
    assert kinds == {"protein"}
