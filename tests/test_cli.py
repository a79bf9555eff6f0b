"""Command-line tests: subcommands, config layering, exit codes, determinism."""

import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys

import pytest

from submol import cli, kernels, protocol, signatures
from submol.cli import main, parse_range_set
from submol.errors import ConfigError
from submol.features import build_matrix, height_features, load_vocab, save_sparse, save_vocab
from submol.graph import parse_smiles
from helpers import nitro_smiles_dataset

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# --- range parsing ----------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1", [1]),
        ("0-3", [0, 1, 2, 3]),
        ("0-2,4", [0, 1, 2, 4]),
        ("4,0-2", [0, 1, 2, 4]),
        ("2,2,2", [2]),
        (3, [3]),
    ],
)
def test_parse_range_set(text, expected):
    assert parse_range_set(text) == expected


@pytest.mark.parametrize("text", ["3-1", "x", "1-x", "", ","])
def test_parse_range_set_rejects(text):
    with pytest.raises(ConfigError):
        parse_range_set(text)


# --- fixtures ---------------------------------------------------------------


@pytest.fixture
def smiles_file(tmp_path):
    path = tmp_path / "mols.smi"
    path.write_text("C +1\nCCO -1\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def nitro_file(tmp_path):
    smiles, labels = nitro_smiles_dataset(random.Random(11), n_each=15)
    lines = [f"{s} {y:+d}" for s, y in zip(smiles, labels)]
    path = tmp_path / "nitro.smi"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def featurize(path, out_dir, *extra):
    os.makedirs(out_dir, exist_ok=True)
    features = os.path.join(out_dir, "features.txt")
    vocab = os.path.join(out_dir, "vocab.txt")
    code = main([
        "featurize", "--input", path, "--format", "smiles",
        "--out-features", features, "--out-vocab", vocab, *extra,
    ])
    return code, features, vocab


# --- featurize --------------------------------------------------------------


def test_featurize_smiles_matches_library_output(smiles_file, tmp_path, capsys):
    code, features, vocab = featurize(smiles_file, str(tmp_path), "--heights", "0")
    assert code == 0
    out = capsys.readouterr().out
    assert "molecules: 2" in out
    assert "features: 4" in out
    assert "skipped: 0" in out
    # the files are exactly what the library writes for the same input
    data = build_matrix(
        [height_features(parse_smiles(s), [0]) for s in ("C", "CCO")], [1, -1]
    )
    expected_features = tmp_path / "expected_features.txt"
    expected_vocab = tmp_path / "expected_vocab.txt"
    with open(expected_features, "w", encoding="utf-8") as handle:
        save_sparse(handle, data)
    with open(expected_vocab, "w", encoding="utf-8") as handle:
        save_vocab(handle, data.vocab)
    assert open(features, "rb").read() == expected_features.read_bytes()
    assert open(vocab, "rb").read() == expected_vocab.read_bytes()


def test_featurize_skips_bad_lines(tmp_path, capsys):
    path = tmp_path / "mols.smi"
    path.write_text(
        "# a comment\n"
        "C\n"            # unlabeled lines default to +1
        "C(( +1\n"       # parse failure: skipped with a note
        "CC zebra\n"     # bad label: skipped with a note
        "CCO -1\n",
        encoding="utf-8",
    )
    code, *_ = featurize(str(path), str(tmp_path), "--heights", "0")
    captured = capsys.readouterr()
    assert code == 0
    assert "molecules: 2" in captured.out
    assert "skipped: 2" in captured.out
    assert "unbalanced parenthesis" in captured.err
    assert "bad label 'zebra'" in captured.err


def test_featurize_sdf_with_labels(tmp_path, capsys):
    features = str(tmp_path / "f.txt")
    vocab = str(tmp_path / "v.txt")
    code = main([
        "featurize", "--input", os.path.join(DATA, "bursi_mini.sdf"),
        "--format", "sdf", "--label-key", "Ames", "--positive-value", "mutagen",
        "--heights", "0-1", "--out-features", features, "--out-vocab", vocab,
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "molecules: 4" in captured.out
    assert "skipped: 2" in captured.out
    lines = open(features, encoding="utf-8").read().splitlines()
    assert [line.split()[0] for line in lines] == ["+1", "-1", "+1", "-1"]


def test_featurize_canonicalizes_each_distinct_neighborhood_once(tmp_path, monkeypatch):
    calls = []
    canonical_key = signatures.canonical_key
    monkeypatch.setattr(
        signatures, "canonical_key", lambda *args: calls.append(args) or canonical_key(*args)
    )
    memos, roots = [], []
    featurize = cli.height_features

    def keep_memo(graph, heights, *, memo=None):
        memos.append(memo)
        roots.append(len(graph) * len(heights))
        return featurize(graph, heights, memo=memo)

    monkeypatch.setattr(cli, "height_features", keep_memo)
    argv = [
        "featurize", "--input", os.path.join(DATA, "bursi_mini.sdf"),
        "--format", "sdf", "--label-key", "Ames", "--positive-value", "mutagen",
        "--heights", "0-2", "--out-features", str(tmp_path / "f.txt"),
        "--out-vocab", str(tmp_path / "v.txt"),
    ]
    runs = []
    for _ in range(2):
        calls.clear()
        memos.clear()
        roots.clear()
        assert main(argv) == 0
        memo = memos[0]
        # one dict for every molecule of the command, one call per key in it
        assert memo is not None and all(m is memo for m in memos)
        assert len(calls) == len(memo)
        runs.append(memo)
    assert runs[0] is not runs[1]
    assert runs[0].keys() == runs[1].keys()
    # neighborhoods recur: fewer calls than (root, height) pairs
    assert len(calls) < sum(roots)


def test_featurize_pairs(tmp_path, capsys):
    features = str(tmp_path / "f.txt")
    vocab = str(tmp_path / "v.txt")
    code = main([
        "featurize", "--input", os.path.join(DATA, "interaction_200.csv"),
        "--format", "pairs", "--heights", "1",
        "--out-features", features, "--out-vocab", vocab,
    ])
    assert code == 0
    assert "molecules: 200" in capsys.readouterr().out
    vocab_lines = open(vocab, encoding="utf-8").read().splitlines()
    assert any("\tdrug:" in line for line in vocab_lines)
    assert any("\ttarget:" in line for line in vocab_lines)


def featurize_pair_csv(tmp_path, text, *flags):
    """Run ``featurize --format pairs`` on a CSV; the exit code and the
    feature and vocabulary bytes (None where not written)."""
    path = tmp_path / "pairs.csv"
    path.write_text(text, encoding="utf-8")
    features, vocab = tmp_path / "f.txt", tmp_path / "v.txt"
    for out in (features, vocab):
        out.unlink(missing_ok=True)
    code = main([
        "featurize", "--input", str(path), "--format", "pairs", "--heights", "0-1",
        "--out-features", str(features), "--out-vocab", str(vocab), *flags,
    ])
    return code, *(out.read_bytes() if out.exists() else None for out in (features, vocab))


def test_featurize_pairs_resolves_blank_structures_from_the_cache_dir(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "d1.rec").write_text("small-molecule\nd1\nCCO\nhand\n", encoding="utf-8")
    (cache / "t%2F1.rec").write_text("protein\nt/1\nMKWVT\nhand\n", encoding="utf-8")
    resolved = featurize_pair_csv(
        tmp_path,
        "id_a,smiles_a,id_b,seq_b,label\n"
        "d1,,t/1,,+1\n"
        "d2,CC,t/1,,-1\n"
        "d9,,t/1,,-1\n",
        "--cache-dir", str(cache),
    )
    captured = capsys.readouterr()
    assert resolved[0] == 0, captured.err
    assert "molecules: 2" in captured.out
    assert "dropping pair row 2: d9: not in cache" in captured.err
    assert sorted(os.listdir(cache)) == ["d1.rec", "t%2F1.rec"]
    # the same rows with their structures inline give the same files
    inline = featurize_pair_csv(
        tmp_path,
        "id_a,smiles_a,id_b,seq_b,label\n"
        "d1,CCO,t/1,MKWVT,+1\n"
        "d2,CC,t/1,MKWVT,-1\n",
    )
    assert inline == resolved


def test_missing_cache_dir_is_exit_3_and_not_created(tmp_path, capsys):
    typo = tmp_path / "typo"
    code, features, _ = featurize_pair_csv(
        tmp_path,
        "id_a,smiles_a,id_b,seq_b,label\n"
        "d1,CCO,t1,MKWVT,+1\n"
        "d2,CC,t2,GLY,-1\n",
        "--cache-dir", str(typo),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "input error" in err and str(typo) in err
    assert not typo.exists()
    assert features is None


def test_svm_trains_on_raw_pair_counts_at_defaults(tmp_path, capsys):
    features = str(tmp_path / "f.txt")
    vocab = str(tmp_path / "v.txt")
    assert main([
        "featurize", "--input", os.path.join(DATA, "interaction_200.csv"),
        "--format", "pairs", "--heights", "1",
        "--out-features", features, "--out-vocab", vocab,
    ]) == 0
    code = main([
        "train", "--features", features, "--vocab", vocab, "--algo", "svm",
        "--model-out", str(tmp_path / "model.json"),
    ])
    assert code == 0, capsys.readouterr().err


def test_featurize_pair_mode_distances(smiles_file, tmp_path):
    code, features, _ = featurize(
        smiles_file, str(tmp_path), "--mode", "pair",
        "--heights", "0", "--distances", "0-2",
    )
    assert code == 0
    assert os.path.getsize(features) > 0


# --- train / evaluate / report chain ----------------------------------------


def run_chain(nitro_file, out_dir, threads="1", seed="0"):
    _, features, vocab = featurize(nitro_file, out_dir, "--heights", "0-1")
    model = os.path.join(out_dir, "model.json")
    metrics = os.path.join(out_dir, "metrics.csv")
    summary = os.path.join(out_dir, "summary.json")
    roc = os.path.join(out_dir, "roc.csv")
    assert main([
        "train", "--features", features, "--vocab", vocab, "--algo", "rf",
        "--trees", "10", "--seed", seed, "--model-out", model,
    ]) == 0
    assert main([
        "evaluate", "--features", features, "--vocab", vocab, "--algo", "rf",
        "--trees", "10", "--seed", seed, "--protocol", "kfold:3",
        "--threads", threads, "--out-metrics", metrics, "--out-summary", summary,
    ]) == 0
    assert main([
        "report", "--model", model, "--features", features, "--vocab", vocab,
        "--out", roc,
    ]) == 0
    return {name: open(path, "rb").read() for name, path in [
        ("features", features), ("vocab", vocab), ("model", model),
        ("metrics", metrics), ("summary", summary), ("roc", roc),
    ]}


def test_full_chain_writes_valid_outputs(nitro_file, tmp_path, capsys):
    files = run_chain(nitro_file, str(tmp_path))
    captured = capsys.readouterr()
    assert "trained rf on 30 rows" in captured.out
    assert "auroc: mean=" in captured.out
    summary = json.loads(files["summary"])
    assert summary["protocol"] == {"kind": "kfold", "folds": 3}
    assert summary["algorithm"] == "rf"
    assert 0.5 <= summary["metrics"]["auroc"]["mean"] <= 1.0
    metrics_lines = files["metrics"].decode().splitlines()
    assert metrics_lines[0] == "trial,auroc,train_acc,val_acc"
    assert len(metrics_lines) == 4  # header + one row per fold
    roc_lines = files["roc"].decode().splitlines()
    assert roc_lines[0] == "fpr,tpr,threshold"
    assert roc_lines[1].startswith("0.0,")
    assert roc_lines[1].endswith(",inf")
    assert roc_lines[-1].startswith("1.0,1.0,")


def test_reruns_are_byte_identical(nitro_file, tmp_path):
    first = run_chain(nitro_file, str(tmp_path / "a"))
    second = run_chain(nitro_file, str(tmp_path / "b"))
    assert first == second


def test_threads_do_not_change_outputs(nitro_file, tmp_path):
    one = run_chain(nitro_file, str(tmp_path / "a"), threads="1")
    eight = run_chain(nitro_file, str(tmp_path / "b"), threads="8")
    assert one == eight


def test_seed_changes_model(nitro_file, tmp_path):
    a = run_chain(nitro_file, str(tmp_path / "a"), seed="0")
    b = run_chain(nitro_file, str(tmp_path / "b"), seed="1")
    assert a["model"] != b["model"]
    assert a["features"] == b["features"]  # featurization has no randomness


# sha256 of every file featurize, gram, train and report write for one corpus
# in each mode: the artifact formats are pinned byte for byte.
PINNED_ARTIFACTS = {
    "height-rf": (
        ["--input", os.path.join(DATA, "bursi_mini.sdf"), "--format", "sdf",
         "--label-key", "Ames", "--positive-value", "mutagen", "--heights", "0-2"],
        ["--algo", "rf", "--trees", "4", "--seed", "3"],
        {
            "features": "e56628b4b2afa8b2609c5a8fe02007aaea8334dd9fedb705c0095dd891d8c140",
            "vocab": "69d758b33e013a574a3bdeeb9a9b3089e21f1638cf6948cb5ef92438f0877fd0",
            "gram": "c645556982976295f504f499d5a21ec4b6cea38cecfa4853c688da6c1d8a75f0",
            "model": "e961df078c3fee7e8fa79e96d20044d235af3f7f10e174fab9c3437a420f0bb1",
            "roc": "1d1e32970ebdfb3198eb6876ae2669f80f17c7188824fb1d8f98db87a3a82d45",
        },
    ),
    "pair-svm-nspdk": (
        ["--input", os.path.join(DATA, "interaction_200.csv"), "--format", "pairs",
         "--mode", "pair", "--heights", "0-1", "--distances", "0-2"],
        ["--algo", "svm", "--kernel", "nspdk"],
        {
            "features": "116c94ea775189cadb59c1c6a029578e3dbbb18e37afdb747d03ff3ef5672324",
            "vocab": "086030234d9efd3b4cfe8647aa99741781b712b07364a5f327360735da750a7e",
            "gram": "09b509040d6c8952db2a64c3c73fa54d4f319ea5165bdb95129f43377db274c7",
            "model": "e05c3c2bbd68151c51032c0cd036fc9fde742e736693b1a7348b38b15f4135a4",
            "roc": "ca1abcab5c50b6d363ef7c456fb1be556470ff1aff69ca3749e44d75d913becb",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_artifact_files_are_pinned(name, tmp_path):
    featurize_flags, fit_flags, pinned = PINNED_ARTIFACTS[name]
    paths = {key: str(tmp_path / key) for key in pinned}
    data = ["--features", paths["features"], "--vocab", paths["vocab"]]
    assert main(["featurize", *featurize_flags, "--out-features", paths["features"],
                 "--out-vocab", paths["vocab"]]) == 0
    assert main(["gram", *data, "--kernel", "nspdk", "--out", paths["gram"]]) == 0
    assert main(["train", *data, *fit_flags, "--model-out", paths["model"]]) == 0
    assert main(["report", "--model", paths["model"], *data, "--out", paths["roc"]]) == 0
    digests = {
        key: hashlib.sha256(open(path, "rb").read()).hexdigest()
        for key, path in paths.items()
    }
    assert digests == pinned


def test_train_with_kernel_wraps_model(smiles_file, tmp_path, capsys):
    path = tmp_path / "mols.smi"
    path.write_text("C +1\nCC +1\nCCO -1\nCCCO -1\n", encoding="utf-8")
    _, features, vocab = featurize(str(path), str(tmp_path), "--heights", "0-1")
    model = str(tmp_path / "model.json")
    code = main([
        "train", "--features", features, "--vocab", vocab, "--algo", "rf",
        "--trees", "5", "--kernel", "cosine", "--model-out", model,
    ])
    assert code == 0
    doc = json.loads(open(model, encoding="utf-8").read())
    assert doc["kind"] == "kernelized"
    assert doc["payload"]["kernel"] == "cosine"
    # a kernelized model still scores plain feature files
    roc = str(tmp_path / "roc.csv")
    assert main(["report", "--model", model, "--features", features,
                 "--vocab", vocab, "--out", roc]) == 0


@pytest.mark.filterwarnings("ignore::submol.kernels.ZeroRowWarning")
def test_kernel_rows_are_computed_once_per_use(nitro_file, tmp_path, monkeypatch):
    # a trial needs train x train and train x val; `train` needs train x train
    calls = []
    original = kernels.kernel_feature_rows

    def counting(train, rows, block_ids=None):
        calls.append((train.shape[0], rows.shape[0]))
        return original(train, rows, block_ids)

    for module in (kernels, protocol):
        monkeypatch.setattr(module, "kernel_feature_rows", counting)
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0-1")
    flags = ["--features", features, "--vocab", vocab, "--algo", "rf",
             "--trees", "3", "--kernel", "cosine"]
    assert main(["evaluate", *flags, "--protocol", "kfold:3",
                 "--out-metrics", str(tmp_path / "m.csv"),
                 "--out-summary", str(tmp_path / "s.json")]) == 0
    assert calls == [(20, 20), (20, 10)] * 3
    calls.clear()
    assert main(["train", *flags, "--model-out", str(tmp_path / "m.json")]) == 0
    assert calls == [(30, 30)]


# --- gram -------------------------------------------------------------------


def test_gram_subcommand(smiles_file, tmp_path, capsys):
    _, features, vocab = featurize(smiles_file, str(tmp_path), "--heights", "0")
    out = str(tmp_path / "gram.txt")
    code = main(["gram", "--features", features, "--vocab", vocab,
                 "--kernel", "cosine", "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert "(2 x 2)" in captured.out
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0] == "2"
    first_row = [float(v) for v in lines[1].split()]
    assert first_row[0] == 1.0


def test_gram_nspdk_needs_vocab_blocks(smiles_file, tmp_path):
    _, features, vocab = featurize(smiles_file, str(tmp_path), "--heights", "0-1")
    out = str(tmp_path / "gram.txt")
    assert main(["gram", "--features", features, "--vocab", vocab,
                 "--kernel", "nspdk", "--out", out]) == 0
    assert open(out, encoding="utf-8").readline().strip() == "2"


# --- ttest ------------------------------------------------------------------


def write_metrics(path, aurocs):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("trial,auroc,train_acc,val_acc\n")
        for t, value in enumerate(aurocs):
            handle.write(f"{t},{value!r},1.0,1.0\n")


def test_ttest_identical_files_not_significant(tmp_path, capsys):
    path = str(tmp_path / "m.csv")
    write_metrics(path, [0.9, 0.91, 0.89])
    code = main(["ttest", "--a", path, "--b", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "significant=no" in out
    assert "t=0 " in out
    assert "p=1 " in out


def test_ttest_clear_difference_is_significant(tmp_path, capsys):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_metrics(a, [0.90, 0.91, 0.89, 0.90, 0.90])
    write_metrics(b, [0.60, 0.61, 0.59, 0.60, 0.60])
    code = main(["ttest", "--a", a, "--b", b, "--metric", "auroc"])
    out = capsys.readouterr().out
    assert code == 0
    assert "significant=yes" in out
    assert "alpha=0.05" in out


def test_ttest_unknown_metric(tmp_path, capsys):
    path = str(tmp_path / "m.csv")
    write_metrics(path, [0.9, 0.8])
    assert main(["ttest", "--a", path, "--b", path, "--metric", "f1"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("row, fault", [
    ("2,0.85", "has 2 fields, the header 4"),
    ("2,0.85,1.0,1.0,0.5", "has 5 fields, the header 4"),
    ("2,nan,1.0,1.0", "has a value that is not finite"),
    ("2,0.85,inf,1.0", "has a value that is not finite"),
], ids=["short", "long", "nan", "inf"])
def test_ttest_rejects_a_malformed_metrics_row(tmp_path, capsys, row, fault):
    good, bad = str(tmp_path / "good.csv"), tmp_path / "bad.csv"
    write_metrics(good, [0.9, 0.91])
    write_metrics(str(bad), [0.8, 0.81])
    bad.write_text(bad.read_text(encoding="utf-8") + row + "\n", encoding="utf-8")
    assert main(["ttest", "--a", good, "--b", str(bad)]) == 3
    assert f"input error: metrics line 4 {fault}" in capsys.readouterr().err


# --- config files -----------------------------------------------------------


def test_config_file_supplies_defaults(smiles_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"heights": "0"}), encoding="utf-8")
    _, with_config, vocab_a = featurize(
        smiles_file, str(tmp_path / "a"), "--config", str(config)
    )
    _, with_flag, vocab_b = featurize(
        smiles_file, str(tmp_path / "b"), "--heights", "0"
    )
    assert open(with_config, "rb").read() == open(with_flag, "rb").read()
    assert open(vocab_a, "rb").read() == open(vocab_b, "rb").read()


def test_explicit_flag_beats_config(smiles_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"heights": "0-2"}), encoding="utf-8")
    _, overridden, _ = featurize(
        smiles_file, str(tmp_path / "a"), "--config", str(config), "--heights", "0"
    )
    _, plain, _ = featurize(smiles_file, str(tmp_path / "b"), "--heights", "0")
    assert open(overridden, "rb").read() == open(plain, "rb").read()


def test_config_coerces_typed_values(nitro_file, tmp_path):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0-1")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trees": "5", "seed": 3}), encoding="utf-8")
    model = str(tmp_path / "model.json")
    assert main(["train", "--config", str(config), "--features", features,
                 "--vocab", vocab, "--algo", "rf", "--model-out", model]) == 0
    doc = json.loads(open(model, encoding="utf-8").read())
    assert doc["payload"]["config"]["trees"] == 5
    assert doc["payload"]["seed"] == 3


@pytest.mark.parametrize("key, value, algo", [
    ("trees", 2.5, "rf"), ("seed", 1.5, "rf"), ("voted", "no", "mlp"),
], ids=["float-trees", "float-seed", "text-switch"])
def test_config_value_of_another_type_is_exit_2(nitro_file, tmp_path, capsys,
                                               key, value, algo):
    # a config value must be one its flag accepts; a switch takes only true or false
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    model = tmp_path / "m.json"
    assert main(["train", "--config", str(config), "--features", features,
                 "--vocab", vocab, "--algo", algo, "--epochs", "1",
                 "--model-out", str(model)]) == 2
    assert f"bad value {value!r} for config key {key!r}" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("algo", ["rf", "svm", "mlp", "pnet"])
@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
def test_negative_seed_is_exit_2(nitro_file, tmp_path, capsys, command, algo, by_config):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1}), encoding="utf-8")
    out = tmp_path / "out"
    outputs = (["--model-out", str(out)] if command == "train"
               else ["--protocol", "kfold:2", "--out-metrics", str(out),
                     "--out-summary", str(tmp_path / "summary.json")])
    seed = ["--config", str(config)] if by_config else ["--seed", "-1"]
    capsys.readouterr()
    assert main([command, *seed, "--features", features, "--vocab", vocab,
                 "--algo", algo, "--trees", "2", "--epochs", "1", *outputs]) == 2
    err = capsys.readouterr().err
    assert ("bad value -1 for config key 'seed'" if by_config else "--seed") in err
    assert not out.exists()


@pytest.mark.parametrize("value", [True, 2.5, "abc", 0, -1, "0"],
                         ids=["true", "float", "text", "zero", "negative", "zero-text"])
def test_config_max_features_must_be_a_flag_value(nitro_file, tmp_path, capsys, value):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_features": value}), encoding="utf-8")
    model = tmp_path / "m.json"
    assert main(["train", "--config", str(config), "--features", features,
                 "--vocab", vocab, "--trees", "2", "--model-out", str(model)]) == 2
    assert f"bad value {value!r} for config key 'max_features'" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("value,stored", [
    ("sqrt", "sqrt"), ("all", "all"), (3, 3), ("3", 3),
], ids=["sqrt", "all", "number", "number-text"])
def test_config_max_features_takes_flag_values(nitro_file, tmp_path, value, stored):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_features": value}), encoding="utf-8")
    model = str(tmp_path / "model.json")
    assert main(["train", "--config", str(config), "--features", features,
                 "--vocab", vocab, "--trees", "2", "--model-out", model]) == 0
    doc = json.loads(open(model, encoding="utf-8").read())
    assert doc["payload"]["config"]["max_features"] == stored


def test_max_features_flag_is_checked(nitro_file, tmp_path, capsys):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    for value in ("0", "2.5", "log2"):
        capsys.readouterr()
        assert main(["train", "--features", features, "--vocab", vocab,
                     "--max-features", value, "--model-out", str(tmp_path / "m.json")]) == 2
        assert "--max-features" in capsys.readouterr().err


def test_config_switch_takes_json_true(nitro_file, tmp_path):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"voted": True, "epochs": 1}), encoding="utf-8")
    model = str(tmp_path / "model.json")
    assert main(["train", "--config", str(config), "--features", features,
                 "--vocab", vocab, "--algo", "mlp", "--model-out", model]) == 0
    assert json.loads(open(model, encoding="utf-8").read())["payload"]["config"]["voted"] is True


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flags", [
    ["--algo", "svm", "--cost"],
    ["--algo", "svm", "--pos-cost-factor"],
    ["--algo", "svm", "--svm-kernel", "rbf", "--gamma"],
    ["--algo", "mlp", "--learning-rate"],
], ids=["cost", "pos-cost-factor", "gamma", "learning-rate"])
def test_non_finite_option_is_exit_2(nitro_file, tmp_path, capsys, flags, value):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    capsys.readouterr()
    model = tmp_path / "m.json"
    assert main(["train", "--features", features, "--vocab", vocab, *flags, value,
                 "--model-out", str(model)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "positive and finite" in err
    assert not model.exists()


def test_unknown_config_key_is_exit_2(smiles_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    code, *_ = featurize(smiles_file, str(tmp_path), "--config", str(config))
    assert code == 2
    assert "unknown config key 'bogus'" in capsys.readouterr().err


def test_bad_config_value_is_exit_2(nitro_file, tmp_path, capsys):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trees": "many"}), encoding="utf-8")
    assert main(["train", "--config", str(config), "--features", features,
                 "--vocab", vocab, "--model-out", str(tmp_path / "m.json")]) == 2
    assert "bad value 'many'" in capsys.readouterr().err


@pytest.mark.parametrize("command,key", [("train", "algo"), ("featurize", "mode")])
def test_config_value_outside_choices_is_exit_2(nitro_file, tmp_path, capsys,
                                               command, key):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: "bogus"}), encoding="utf-8")
    if command == "train":
        argv = ["train", "--features", features, "--vocab", vocab,
                "--model-out", str(tmp_path / "m.json")]
    else:
        argv = ["featurize", "--input", nitro_file, "--format", "smiles",
                "--out-features", features, "--out-vocab", vocab]
    assert main(["--config", str(config), *argv]) == 2
    assert f"bad value 'bogus' for config key '{key}'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "m.json")


def test_config_must_be_json_object(smiles_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]", encoding="utf-8")
    code, *_ = featurize(smiles_file, str(tmp_path), "--config", str(config))
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


# --- exit codes -------------------------------------------------------------


def test_missing_input_is_exit_3(tmp_path, capsys):
    code, *_ = featurize(str(tmp_path / "absent.smi"), str(tmp_path))
    assert code == 3
    assert "input error" in capsys.readouterr().err


def test_unparseable_corpus_is_exit_3(tmp_path, capsys):
    path = tmp_path / "mols.smi"
    path.write_text("C((\nC))\n", encoding="utf-8")
    code, *_ = featurize(str(path), str(tmp_path))
    assert code == 3
    assert "no usable molecules" in capsys.readouterr().err


def test_single_class_training_is_exit_4(tmp_path, capsys):
    path = tmp_path / "mols.smi"
    path.write_text("C +1\nCC +1\nCCC +1\n", encoding="utf-8")
    _, features, vocab = featurize(str(path), str(tmp_path), "--heights", "0")
    code = main(["train", "--features", features, "--vocab", vocab,
                 "--algo", "rf", "--trees", "2",
                 "--model-out", str(tmp_path / "m.json")])
    assert code == 4
    assert "training error" in capsys.readouterr().err


def train_small_forest(smiles_file, out_dir):
    _, features, vocab = featurize(smiles_file, out_dir, "--heights", "0-1")
    model = os.path.join(out_dir, "model.json")
    assert main(["train", "--features", features, "--vocab", vocab,
                 "--algo", "rf", "--trees", "2", "--model-out", model]) == 0
    return model, features, vocab


def _with_config_field(doc):
    doc["payload"]["config"]["bogus"] = 1
    return doc


def _without_fingerprint(doc):
    del doc["vocab_sha256"]
    return doc


def _with_tree_key(doc):
    doc["payload"]["trees"][0]["bootstrap"] = [0, 1]  # version 1 stored the draw
    return doc


@pytest.mark.parametrize("malform, named", [
    (lambda doc: [1, 2], "not a model file"),
    (lambda doc: {**doc, "payload": {}}, "malformed forest model"),
    (lambda doc: {**doc, "kind": "svm", "payload": {"config": {}}}, "malformed svm model"),
    (_with_config_field, "malformed forest model"),
    (lambda doc: {**doc, "version": 1}, "unsupported model file version 1"),
    (lambda doc: {**doc, "version": 2}, "unsupported model file version 2"),
    (lambda doc: {**doc, "version": 3}, "unsupported model file version 3"),
    (_without_fingerprint, "vocab_sha256 must be 64 lowercase hex digits"),
    (lambda doc: {**doc, "vocab_sha256": doc["vocab_sha256"][:-1] + "g"},
     "vocab_sha256 must be 64 lowercase hex digits"),
    (_with_tree_key, "tree 0 must be an object whose one key is nodes"),
], ids=["not-an-object", "empty-payload", "svm-config-only", "unknown-config-field",
        "version-1", "version-2", "version-3", "no-fingerprint", "fingerprint-not-hex",
        "tree-extra-key"])
def test_malformed_model_is_exit_3(smiles_file, tmp_path, capsys, malform, named):
    model, features, vocab = train_small_forest(smiles_file, str(tmp_path))
    with open(model, encoding="utf-8") as handle:
        doc = malform(json.load(handle))
    with open(model, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    capsys.readouterr()
    code = main(["report", "--model", model, "--features", features,
                 "--vocab", vocab, "--out", str(tmp_path / "roc.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "input error" in err and named in err


def _root_loops_back(doc):
    root = doc["payload"]["trees"][0]["nodes"][0]
    root["left"], root["threshold"] = 0, 1e300  # every row goes left, to the root
    return doc


def _root_without_split(doc):
    root = doc["payload"]["trees"][0]["nodes"][0]
    del root["threshold"], root["left"], root["right"]
    return doc


@pytest.mark.parametrize("malform", [_root_loops_back, _root_without_split],
                         ids=["cycle", "missing-keys"])
def test_malformed_forest_tree_is_exit_3(nitro_file, tmp_path, malform):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0-1")
    model = str(tmp_path / "model.json")
    assert main(["train", "--features", features, "--vocab", vocab, "--algo", "rf",
                 "--trees", "2", "--model-out", model]) == 0
    with open(model, encoding="utf-8") as handle:
        doc = json.load(handle)
    assert "feature" in doc["payload"]["trees"][0]["nodes"][0]
    with open(model, "w", encoding="utf-8") as handle:
        json.dump(malform(doc), handle)
    # a process of its own, so that a model that makes scoring loop fails the
    # test by its timeout instead of hanging the suite
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "submol", "report", "--model", model,
         "--features", features, "--vocab", vocab, "--out", str(tmp_path / "roc.csv")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 3, result.stderr[-2000:]
    assert "malformed forest model: tree 0 node 0" in result.stderr


@pytest.mark.parametrize("count", ["nan", "inf", "1e400"])
def test_non_finite_count_is_exit_3(nitro_file, tmp_path, capsys, count):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0-1")
    with open(features, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    label, item, *rest = lines[0].split()
    lines[0] = " ".join([label, item.partition(":")[0] + ":" + count, *rest])
    with open(features, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    data = ["--features", features, "--vocab", vocab]
    for argv in (
        ["gram", *data, "--kernel", "nspdk", "--out", str(tmp_path / "gram.txt")],
        ["evaluate", *data, "--algo", "rf", "--trees", "2", "--protocol", "kfold:3",
         "--out-metrics", str(tmp_path / "m.csv"), "--out-summary", str(tmp_path / "s.json")],
        ["train", *data, "--algo", "svm", "--model-out", str(tmp_path / "model.json")],
    ):
        capsys.readouterr()
        assert main(argv) == 3, argv[0]
        assert "input error: feature counts must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("mass", ["nan", "inf"])
def test_non_finite_vocabulary_mass_is_exit_3(nitro_file, tmp_path, capsys, mass):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0-1")
    with open(vocab, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    col, key, _ = lines[-1].split("\t")
    lines[-1] = "\t".join([col, key, mass])  # the last line: the order still holds
    with open(vocab, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["gram", "--features", features, "--vocab", vocab, "--kernel", "nspdk",
                 "--out", str(tmp_path / "gram.txt")]) == 3
    err = capsys.readouterr().err
    assert f"input error: vocabulary line {len(lines)} has a mass that is not finite" in err


def test_each_command_reads_and_builds_its_matrix_once(nitro_file, tmp_path, monkeypatch):
    # bench/spans.py times these three names on submol.cli, so each command
    # must do its loading and matrix building through them
    calls = {}
    for name in ("load_vocab", "load_sparse", "build_matrix"):
        def counting(*args, _name=name, _call=getattr(cli, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(cli, name, counting)

    def counted(argv):
        calls.clear()
        assert main(argv) == 0, argv[0]
        return dict(calls)

    features, vocab = str(tmp_path / "f.txt"), str(tmp_path / "v.txt")
    assert counted(["featurize", "--input", nitro_file, "--format", "smiles",
                    "--heights", "0-1", "--out-features", features,
                    "--out-vocab", vocab]) == {"build_matrix": 1}
    data = ["--features", features, "--vocab", vocab]
    model = str(tmp_path / "model.json")
    once = {"load_vocab": 1, "load_sparse": 1}
    assert counted(["gram", *data, "--kernel", "nspdk", "--out", str(tmp_path / "g.txt")]) == once
    assert counted(["evaluate", *data, "--algo", "rf", "--trees", "2", "--protocol", "kfold:3",
                    "--out-metrics", str(tmp_path / "m.csv"),
                    "--out-summary", str(tmp_path / "s.json")]) == once
    assert counted(["train", *data, "--algo", "rf", "--trees", "2", "--model-out", model]) == once
    assert counted(["report", "--model", model, *data, "--out", str(tmp_path / "roc.csv")]) == once


def test_load_vocab_keeps_nothing_between_calls(tmp_path):
    # two files of the same width and masses, with other keys and blocks
    files = {
        "a": ("1\t0|a\t1.0\n2\t1|2|a|b\t2.0\n", ("0|a", "1|2|a|b"), [0, 1]),
        "b": ("1\t2|b\t1.0\n2\t0|b\t2.0\n", ("2|b", "0|b"), [1, 0]),
    }
    for name, (text, _, _) in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for name in ("a", "b", "a"):
        _, keys, blocks = files[name]
        with open(tmp_path / name, encoding="utf-8") as handle:
            vocab = load_vocab(handle)
        assert vocab.keys == keys
        assert vocab.columns(keys).tolist() == [0, 1]
        assert vocab.block_ids().tolist() == blocks


def train_kernelized_svm(out_dir):
    """An nspdk SVM on the interaction pairs: (model, features, vocab) paths."""
    features = os.path.join(out_dir, "features.txt")
    vocab = os.path.join(out_dir, "vocab.txt")
    assert main(["featurize", "--input", os.path.join(DATA, "interaction_200.csv"),
                 "--format", "pairs", "--heights", "0-1",
                 "--out-features", features, "--out-vocab", vocab]) == 0
    model = os.path.join(out_dir, "model.json")
    assert main(["train", "--features", features, "--vocab", vocab, "--algo", "svm",
                 "--kernel", "nspdk", "--cost", "0.1", "--model-out", model]) == 0
    return model, features, vocab


#: Training flags for one model of each kind, on the raw counts or a kernel.
MODEL_KINDS = {
    "rf": ["--algo", "rf", "--trees", "4"],
    "svm": ["--algo", "svm"],
    "mlp": ["--algo", "mlp", "--epochs", "20"],
    "pnet": ["--algo", "pnet", "--epochs", "20"],
    "svm-nspdk": ["--algo", "svm", "--kernel", "nspdk"],
}


def train_on_bursi(out_dir, fit_flags):
    """A model of ``fit_flags`` on the mini Bursi corpus: (model, features, vocab)."""
    features = os.path.join(out_dir, "features.txt")
    vocab = os.path.join(out_dir, "vocab.txt")
    assert main(["featurize", "--input", os.path.join(DATA, "bursi_mini.sdf"),
                 "--format", "sdf", "--label-key", "Ames", "--positive-value", "mutagen",
                 "--heights", "0-2", "--out-features", features, "--out-vocab", vocab]) == 0
    model = os.path.join(out_dir, "model.json")
    assert main(["train", "--features", features, "--vocab", vocab, *fit_flags,
                 "--model-out", model]) == 0
    return model, features, vocab


def _renamed_last_key(lines):
    col, key, mass = lines[-1].split("\t")
    return lines[:-1] + ["\t".join([col, key + "x", mass])]  # still in (mass, key) order


def _one_more_key(lines):
    col, key, mass = lines[-1].split("\t")
    return lines + ["\t".join([str(int(col) + 1), key + "x", mass])]


@pytest.mark.parametrize("edit", [_renamed_last_key, _one_more_key],
                         ids=["same-width", "wider"])
@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_report_with_another_vocabulary_is_exit_2(tmp_path, capsys, kind, edit):
    model, features, vocab = train_on_bursi(str(tmp_path), MODEL_KINDS[kind])
    lines = open(vocab, encoding="utf-8").read().splitlines()
    other = str(tmp_path / "other.txt")
    with open(other, "w", encoding="utf-8") as handle:
        handle.write("\n".join(edit(lines)) + "\n")
    data = ["--model", model, "--features", features, "--out", str(tmp_path / "roc.csv")]
    assert main(["report", *data, "--vocab", vocab]) == 0
    capsys.readouterr()
    assert main(["report", *data, "--vocab", other]) == 2
    err = capsys.readouterr().err
    stored = json.load(open(model, encoding="utf-8"))["vocab_sha256"]
    with open(other, encoding="utf-8") as handle:
        given = load_vocab(handle).sha256()
    assert "configuration error" in err and stored in err and given in err


def _basis(edit):
    def malform(doc):
        edit(doc["payload"]["basis"])
        return doc
    return malform


def _block_ids(value):
    def malform(doc):
        doc["payload"]["block_ids"] = value(doc["payload"]["block_ids"])
        return doc
    return malform


@pytest.mark.parametrize("malform", [
    _basis(lambda b: b.update(indptr=b["indptr"][:-1])),
    _basis(lambda b: b.update(indices=[b["shape"][1]] + b["indices"][1:])),
    _basis(lambda b: b.update(data=b["data"][:-1])),
    _block_ids(lambda ids: ids[:-1]),
    _block_ids(lambda ids: [-1] + ids[1:]),
    _block_ids(lambda ids: [len(ids)] + ids[1:]),
    _block_ids(lambda ids: None),
], ids=["short-indptr", "index-past-width", "short-data", "short-block-ids",
        "negative-block-id", "block-id-past-blocks", "no-block-ids"])
def test_malformed_kernelized_model_is_exit_3(tmp_path, capsys, malform):
    model, features, vocab = train_kernelized_svm(str(tmp_path))
    with open(model, encoding="utf-8") as handle:
        doc = malform(json.load(handle))
    with open(model, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    capsys.readouterr()
    assert main(["report", "--model", model, "--features", features, "--vocab", vocab,
                 "--out", str(tmp_path / "roc.csv")]) == 3
    assert "input error: malformed kernelized model" in capsys.readouterr().err


def test_report_without_vocab_is_exit_2(smiles_file, tmp_path, capsys):
    model, features, _ = train_small_forest(smiles_file, str(tmp_path))
    capsys.readouterr()
    code = main(["report", "--model", model, "--features", features,
                 "--out", str(tmp_path / "roc.csv")])
    assert code == 2
    assert "--vocab" in capsys.readouterr().err


def test_failing_trial_exits_the_same_with_worker_processes(tmp_path, capsys):
    path = tmp_path / "mols.smi"
    path.write_text("C +1\nCC -1\nCCC -1\nCCCC -1\nCCCCC -1\nCCO -1\n", encoding="utf-8")
    _, features, vocab = featurize(str(path), str(tmp_path), "--heights", "0")
    outcomes = []
    for threads in ("1", "2"):
        code = main(["evaluate", "--features", features, "--vocab", vocab,
                     "--algo", "rf", "--trees", "2", "--protocol", "kfold:3",
                     "--threads", threads,
                     "--out-metrics", str(tmp_path / "m.csv"),
                     "--out-summary", str(tmp_path / "s.json")])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] in (3, 4)
    assert "trial " in outcomes[0][1]
    assert multiprocessing.active_children() == []


def test_rf_on_kernel_rows_equal_up_to_an_ulp(tmp_path, capsys):
    # Odd multiples of three count vectors: the nspdk rows of one vector's
    # multiples differ only in their last bits, and labels alternate among
    # them, so the forest must split between adjacent floats.
    features = tmp_path / "features.txt"
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("1\t0|a\t1.0\n2\t0|b\t2.0\n3\t1|c\t3.0\n", encoding="utf-8")
    lines = []
    for b, base in enumerate([(1, 2, 1), (2, 1, 1), (1, 1, 3)]):
        for i, k in enumerate((1, 3, 5, 7, 9, 11)):
            counts = " ".join(f"{c + 1}:{k * v}" for c, v in enumerate(base))
            lines.append(f"{'+1' if (i + b) % 2 else '-1'} {counts}\n")
    features.write_text("".join(lines), encoding="utf-8")
    code = main(["evaluate", "--features", str(features), "--vocab", str(vocab),
                 "--algo", "rf", "--kernel", "nspdk", "--trees", "10",
                 "--protocol", "kfold:3", "--seed", "0", "--threads", "2",
                 "--out-metrics", str(tmp_path / "m.csv"),
                 "--out-summary", str(tmp_path / "s.json")])
    assert code == 0, capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_height_mode_with_distances_is_exit_2(smiles_file, tmp_path, capsys):
    code, *_ = featurize(smiles_file, str(tmp_path), "--distances", "1-3")
    assert code == 2
    assert "pass --mode pair" in capsys.readouterr().err


def test_bad_protocol_is_exit_2(nitro_file, tmp_path, capsys):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    code = main(["evaluate", "--features", features, "--vocab", vocab,
                 "--protocol", "boot:3",
                 "--out-metrics", str(tmp_path / "m.csv"),
                 "--out-summary", str(tmp_path / "s.json")])
    assert code == 2
    assert "cannot parse protocol" in capsys.readouterr().err


def test_zero_denominator_protocol_is_exit_2(nitro_file, tmp_path, capsys):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    code = main(["evaluate", "--features", features, "--vocab", vocab,
                 "--protocol", "shuffle:3:1/0",
                 "--out-metrics", str(tmp_path / "m.csv"),
                 "--out-summary", str(tmp_path / "s.json")])
    assert code == 2
    assert "bad protocol 'shuffle:3:1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_train_without_threads_is_exit_2(nitro_file, tmp_path, capsys, threads):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    code = main(["train", "--features", features, "--vocab", vocab,
                 "--trees", "2", "--threads", threads,
                 "--model-out", str(tmp_path / "m.json")])
    assert code == 2
    assert "threads must be at least 1" in capsys.readouterr().err


def test_pnet_with_kernel_is_exit_2(nitro_file, tmp_path, capsys):
    _, features, vocab = featurize(nitro_file, str(tmp_path), "--heights", "0")
    code = main(["train", "--features", features, "--vocab", vocab,
                 "--algo", "pnet", "--kernel", "cosine",
                 "--model-out", str(tmp_path / "m.json")])
    assert code == 2
    assert "raw mass-ordered features" in capsys.readouterr().err


def test_argparse_errors_return_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()  # argparse wrote usage to stderr
