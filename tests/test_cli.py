"""Command-line tests: subcommands, config layering, exit codes, determinism."""

import json
import os
import random

import pytest

from submol import kernels, protocol
from submol.cli import main, parse_range_set
from submol.errors import ConfigError
from submol.features import build_matrix, height_features, save_sparse, save_vocab
from submol.graph import parse_smiles
from helpers import nitro_smiles_dataset

DATA = os.path.join(os.path.dirname(__file__), "data")


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

    def counting(train, rows, kernel="cosine"):
        calls.append((len(train), len(rows)))
        return original(train, rows, kernel)

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
