"""Model-file tests: byte-stable JSON round trips for every model kind."""

import hashlib
import importlib.util
import io
import json
import os

import numpy as np
import pytest
from helpers import (
    version2_kernel_rows,
    version2_support_rows,
    version2_svm_scores,
)

from submol import persist
from submol.features import DatasetMatrix, build_matrix, height_features
from submol.forest import ForestConfig, train_forest
from submol.graph import parse_smiles
from submol.ingest import featurize_pairs, load_pairs
from submol.kernels import KernelizedModel, kernel_block_ids, kernel_feature_rows
from submol.neural import NetConfig, train_mlp, train_partitioned_net
from submol.protocol import PipelineSpec, fit
from submol.persist import (
    VERSION,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from submol.svm import SvmConfig, train_svm


def feature_data(smiles, labels):
    vectors = [height_features(parse_smiles(s), [0, 1]) for s in smiles]
    return build_matrix(vectors, labels)


DATA = os.path.join(os.path.dirname(__file__), "data")


def interaction_data():
    with open(os.path.join(DATA, "interaction_200.csv"), encoding="utf-8", newline="") as f:
        vectors, labels = featurize_pairs(load_pairs(f), [0, 1])
    return build_matrix(vectors, labels)


def toy_data():
    return feature_data(
        ["CCO", "CCCO", "CCN", "CCC", "CCCC", "CC"],
        [1, 1, 1, -1, -1, -1],
    )


#: A vocabulary fingerprint for models whose vocabulary the test ignores.
SHA = "0123456789abcdef" * 4


def round_trip(model, vocab_sha256=SHA):
    out = io.StringIO()
    save_model(out, (model, vocab_sha256))
    first = out.getvalue()
    restored, stored = load_model(io.StringIO(first))
    assert stored == vocab_sha256
    again = io.StringIO()
    save_model(again, (restored, stored))
    assert again.getvalue() == first  # save -> load -> save is byte-stable
    return restored, first


def test_forest_round_trip():
    data = toy_data()
    model = train_forest(data, ForestConfig(trees=5), seed=3)
    restored, text = round_trip(model)
    assert json.loads(text)["kind"] == "forest"
    assert json.loads(text)["format"] == "submol-model"
    assert json.loads(text)["version"] == 4
    assert restored.config == model.config
    assert restored.trees == model.trees
    assert np.array_equal(restored.score_rows(data.X), model.score_rows(data.X))


def test_mlp_round_trip():
    data = toy_data()
    model = train_mlp(data, NetConfig(max_epochs=5), seed=0)
    restored, _ = round_trip(model)
    assert restored.kind == "mlp"
    assert restored.epochs_run == model.epochs_run
    assert len(restored.snapshots) == len(model.snapshots)
    assert np.array_equal(restored.params.W1, model.params.W1)
    assert restored.params.mask is None
    X = data.dense()
    assert np.array_equal(restored.score_rows(X), model.score_rows(X))


def test_voted_mlp_round_trip_scores_from_snapshots():
    data = toy_data()
    model = train_mlp(data, NetConfig(max_epochs=5, voted=True), seed=2)
    restored, _ = round_trip(model)
    assert restored.config.voted
    X = data.dense()
    assert np.array_equal(restored.score_rows(X), model.score_rows(X))


def test_pnet_round_trip_keeps_mask():
    data = toy_data()
    model = train_partitioned_net(data, NetConfig(max_epochs=5), seed=1)
    restored, _ = round_trip(model)
    assert restored.params.mask is not None
    assert np.array_equal(restored.params.mask, model.params.mask)
    X = data.dense()
    assert np.array_equal(restored.score_rows(X), model.score_rows(X))


def test_svm_round_trip():
    data = toy_data()
    model = train_svm(data, SvmConfig())
    restored, _ = round_trip(model)
    assert np.array_equal(restored.alphas, model.alphas)
    assert restored.bias == model.bias
    assert restored.norm_w == model.norm_w
    assert np.array_equal(restored.score_rows(data.X), model.score_rows(data.X))


def test_kernelized_round_trip():
    data = toy_data()
    gram_rows = kernel_feature_rows(data.X, data.X)
    gram = DatasetMatrix(gram_rows, data.y, None)
    inner = train_forest(gram, ForestConfig(trees=4), seed=2)
    model = KernelizedModel("cosine", data.X, None, inner)
    restored, text = round_trip(model, data.vocab.sha256())
    assert json.loads(text)["kind"] == "kernelized"
    assert json.loads(text)["payload"]["inner"]["kind"] == "forest"
    assert restored.kernel == "cosine"
    assert np.array_equal(restored.score_rows(data.X), model.score_rows(data.X))
    # scoring maps rows through similarities against the saved basis
    assert np.array_equal(model.score_rows(data.X), inner.score_rows(gram.X))
    # like every model, it scores a single row given as a 1-D array
    assert model.score_rows(data.dense()[0]) == model.score_rows(data.X[:1])


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_svm_scores_equal_version2_scoring(kernel):
    data = interaction_data()
    train, held = data.subset(np.arange(150)), data.subset(np.arange(150, 200))
    cfg = SvmConfig(kernel=kernel, C=0.5, gamma=0.01, pos_cost_factor=2.0)
    model = train_svm(train, cfg)
    restored, _ = round_trip(model)
    sv_rows = version2_support_rows(train.X, train.y, cfg)
    assert sv_rows.shape == (len(model.alphas), data.X.shape[1])
    for rows in (train, held):
        expected = version2_svm_scores(model, sv_rows, rows.X)
        assert np.array_equal(model.score_rows(rows.X), expected)
        assert np.array_equal(restored.score_rows(rows.X), expected)


def test_kernelized_nspdk_scores_equal_version2_scoring():
    data = interaction_data()
    train, held = data.subset(np.arange(150)), data.subset(np.arange(150, 200))
    cfg = SvmConfig(C=0.1)
    model, seen = fit(train, PipelineSpec("svm", cfg, kernel="nspdk"), seed=0, threads=1)
    assert model.block_ids.max() > 0  # more than one block
    restored, text = round_trip(model, data.vocab.sha256())
    train_rows = version2_kernel_rows(train, train.X, "nspdk")
    assert np.array_equal(seen.X, train_rows)
    sv_rows = version2_support_rows(train_rows, train.y, cfg)
    for rows in (train, held):
        expected = version2_svm_scores(
            model.inner, sv_rows, version2_kernel_rows(train, rows.X, "nspdk")
        )
        assert np.array_equal(model.score_rows(rows.X), expected)
        assert np.array_equal(restored.score_rows(rows.X), expected)
    # the file keeps the vocabulary's fingerprint, not its keys
    assert json.loads(text)["vocab_sha256"] == data.vocab.sha256()
    assert all("|" in key for key in data.vocab.keys)
    assert "|" not in text


def _kernelized_doc():
    data = toy_data()
    model = kernelized(data, "nspdk", train_svm(gram_data(data, "nspdk"), SvmConfig(C=10.0)))
    return model_to_dict((model, data.vocab.sha256()))


def _set(path, value):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value(doc[last]) if callable(value) else value
    return edit


@pytest.mark.parametrize("edit,message", [
    (_set(("basis", "indptr"), lambda p: p[:-1]), "index pointer"),
    (_set(("basis", "indptr"), lambda p: [p[0] + 1] + p[1:]), "index pointer"),
    (_set(("basis", "indices"), lambda i: [i[0] + 10**6] + i[1:]), "indices must be <"),
    (_set(("basis", "indices"), lambda i: [-1] + i[1:]), "indices must be >="),
    (_set(("basis", "indices"), lambda i: [0.5] + i[1:]), "integers"),
    (_set(("basis", "data"), lambda d: d[:-1]), "data"),
    (_set(("basis", "shape"), [3]), "shape"),
    (_set(("basis", "shape"), [6, True]), "shape"),
    (_set(("basis",), lambda b: {**b, "rows": []}), "keys"),
    (_set(("block_ids",), lambda b: b[:-1]), "block_ids"),
    (_set(("block_ids",), lambda b: [-1] + b[1:]), "block_ids"),
    (_set(("block_ids",), lambda b: [len(b)] + b[1:]), "block_ids"),
    (_set(("block_ids",), lambda b: [10**12] + b[1:]), "block_ids"),
    (_set(("block_ids",), lambda b: [b[0] + 0.5] + b[1:]), "integers"),
    (_set(("block_ids",), None), "block_ids"),
    (_set(("kernel",), "tanimoto"), "unknown kernel"),
    (_set(("inner", "payload", "w"), lambda w: w[:-1]), "linear SVM needs w"),
    (_set(("inner", "payload", "sv_rows"), lambda _: {
        "shape": [1, 1], "indptr": [0, 0], "indices": [], "data": []}), "no sv_rows"),
])
def test_malformed_kernelized_payloads_raise(edit, message):
    doc = _kernelized_doc()
    model_from_dict(doc)
    edit(doc["payload"])
    with pytest.raises(ValueError, match=message):
        model_from_dict(doc)


def test_cosine_kernelized_models_store_no_block_ids():
    doc = _kernelized_doc()
    doc["payload"]["kernel"] = "cosine"
    with pytest.raises(ValueError, match="block_ids"):
        model_from_dict(doc)
    doc["payload"]["block_ids"] = None
    assert model_from_dict(doc)[0].block_ids is None


def gram_data(data, kernel):
    rows = kernel_feature_rows(data.X, data.X, kernel_block_ids(data, kernel))
    return DatasetMatrix(rows, data.y, None)


def kernelized(data, kernel, inner):
    return KernelizedModel(kernel, data.X, kernel_block_ids(data, kernel), inner)


# sha256 of each saved model, with the toy vocabulary's fingerprint: the file
# format is pinned byte for byte.  Every kind holds its dataclass fields; a
# linear SVM holds w, an rbf SVM sparse rows, and a kernelized model its basis
# (integral counts written as integers), block ids and inner {kind, payload}.
PINNED_MODELS = {
    "forest": (
        lambda d: train_forest(
            d, ForestConfig(trees=3, criterion="entropy", max_features=2), seed=4
        ),
        "7e88e98ede605d2d87465b5c9303440d8de230a41adb30d48fdf8eb2752d3805",
    ),
    "mlp": (
        lambda d: train_mlp(d, NetConfig(max_epochs=4), seed=0),
        "1853221b62a7413e167318223914f1e87130e88c4fa1aeca58639b2c9049c5ee",
    ),
    "voted-mlp": (
        lambda d: train_mlp(d, NetConfig(max_epochs=4, voted=True), seed=2),
        "2f1edd6c2fb342a81da9fb3e7bc2eb368d351794d372264cc809caa213017d51",
    ),
    "pnet": (
        lambda d: train_partitioned_net(d, NetConfig(max_epochs=4), seed=1),
        "215bd7696e003837e55bf0abb9bb573c72e7338ae55bb854a9f66a5219671c0e",
    ),
    "svm-linear": (
        lambda d: train_svm(d, SvmConfig(pos_cost_factor=2.0)),
        "cf0e52bf603ca39cf55aee6e27e682a8365f5e3904ce47c3eb5030bd7ed9df3e",
    ),
    "svm-rbf": (
        lambda d: train_svm(d, SvmConfig(kernel="rbf", gamma=0.5, pos_cost_factor=0.5)),
        "9c81795c72e3a4aadbde310f31aa9b2344a8867f1ac94f1f6d9bee871b97504a",
    ),
    "kernelized-cosine": (
        lambda d: kernelized(
            d, "cosine", train_forest(gram_data(d, "cosine"), ForestConfig(trees=2), seed=5)
        ),
        "bb84f410b387ddcd61dfe84ba50787cd2dfc25f8d769153d95f7d8433046cd5e",
    ),
    "kernelized-nspdk": (
        lambda d: kernelized(
            d, "nspdk",
            train_svm(gram_data(d, "nspdk"), SvmConfig(C=10.0, pos_cost_factor=2.0)),
        ),
        "1e14ccdbaedf4f6a5208f7ea1c3edd99ed47a25746510f4ad477323a1609d8df",
    ),
}


def pinned_text(name):
    """The saved file of the pinned model ``name``, trained on the toy data."""
    data = toy_data()
    _, text = round_trip(PINNED_MODELS[name][0](data), data.vocab.sha256())
    return text


@pytest.mark.parametrize("name", sorted(PINNED_MODELS))
def test_model_files_are_pinned(name):
    assert hashlib.sha256(pinned_text(name).encode()).hexdigest() == PINNED_MODELS[name][1]


@pytest.mark.parametrize("name", sorted(PINNED_MODELS))
def test_benchmark_checker_accepts_every_model_kind(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "checks.py")
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    checks.check_model_roundtrip(pinned_text(name), load_model, save_model)


@pytest.mark.parametrize("fingerprint", [
    None, "abc", 5, "0123456789ABCDEF" * 4, SHA + "\n", SHA[:-1] + "g",
], ids=["missing", "short", "number", "uppercase", "newline", "not-hex"])
@pytest.mark.parametrize("name", sorted(PINNED_MODELS))
def test_container_fingerprint_is_checked_for_every_kind(name, fingerprint):
    doc = json.loads(pinned_text(name))
    model_from_dict(doc)
    if fingerprint is None:
        del doc["vocab_sha256"]
    else:
        doc["vocab_sha256"] = fingerprint
    with pytest.raises(ValueError, match="vocab_sha256 must be 64 lowercase hex digits"):
        model_from_dict(doc)


def test_rejects_non_model_documents():
    head = {"format": "submol-model", "version": VERSION, "vocab_sha256": SHA}
    with pytest.raises(ValueError, match="not a model file"):
        model_from_dict({"format": "something-else"})
    with pytest.raises(ValueError, match="version"):
        model_from_dict({"format": "submol-model", "version": 99})
    for old in range(1, VERSION):
        doc = model_to_dict((train_forest(toy_data(), ForestConfig(trees=1), seed=0), SHA))
        doc["version"] = old
        with pytest.raises(ValueError, match=f"unsupported model file version {old}"):
            model_from_dict(doc)
    with pytest.raises(ValueError, match="unknown model kind"):
        model_from_dict({**head, "kind": "tree"})
    with pytest.raises(ValueError, match="unknown model kind"):
        model_from_dict({**head, "kind": ["forest"]})
    with pytest.raises(ValueError, match="malformed forest model: missing key 'payload'"):
        model_from_dict({**head, "kind": "forest"})
    with pytest.raises(ValueError, match="malformed net model: NetModel must be an object"):
        model_from_dict({**head, "kind": "net", "payload": []})
    doc = model_to_dict((train_forest(toy_data(), ForestConfig(trees=1), seed=0), SHA))
    doc["payload"]["trees"] = "abc"
    with pytest.raises(ValueError, match="malformed forest model: expected a list, got str"):
        model_from_dict(doc)
    with pytest.raises(TypeError, match="cannot serialize"):
        model_to_dict((object(), SHA))


def test_kernelized_inner_model_is_kind_and_payload():
    doc = _kernelized_doc()
    assert doc["payload"]["inner"].keys() == {"kind", "payload"}
    doc["payload"]["inner"]["kind"] = "tree"
    with pytest.raises(ValueError, match="malformed kernelized model: unknown model kind"):
        model_from_dict(doc)
    doc["payload"]["inner"] = []
    with pytest.raises(ValueError, match="malformed kernelized model: a model must be"):
        model_from_dict(doc)


def test_integral_csr_counts_are_stored_as_integers():
    data = interaction_data()
    train, held = data.subset(np.arange(150)), data.subset(np.arange(150, 200))
    model, _ = fit(train, PipelineSpec("svm", SvmConfig(C=0.1), kernel="nspdk"), 0, 1)
    restored, text = round_trip(model, data.vocab.sha256())
    basis = json.loads(text)["payload"]["basis"]["data"]
    assert basis and all(type(v) is int for v in basis)
    assert restored.basis.dtype == float
    assert np.array_equal(restored.basis.toarray(), model.basis.toarray())
    for rows in (train, held):
        assert np.array_equal(restored.score_rows(rows.X), model.score_rows(rows.X))


def test_fractional_csr_values_keep_float_text():
    data = toy_data()
    cfg = SvmConfig(kernel="rbf", gamma=0.5)
    model = train_svm(gram_data(data, "cosine"), cfg)
    restored, text = round_trip(model)
    values = json.loads(text)["payload"]["sv_rows"]["data"]
    assert any(type(v) is float and not v.is_integer() for v in values)
    assert all(type(v) is float for v in values)
    gram = gram_data(data, "cosine").X
    assert np.array_equal(restored.score_rows(gram), model.score_rows(gram))
    # a -0.0 or a count past 2**53 would not read back as the same float
    assert persist._numbers(np.array([-0.0, 1.0])) == [-0.0, 1.0]
    assert type(persist._numbers(np.array([2.0**53]))[0]) is float
    assert persist._numbers(np.array([3.0, -(2.0**53 - 1)])) == [3, -(2**53 - 1)]


def test_model_files_are_single_line_json():
    data = toy_data()
    model = train_forest(data, ForestConfig(trees=2), seed=0)
    out = io.StringIO()
    save_model(out, (model, data.vocab.sha256()))
    text = out.getvalue()
    assert text.endswith("\n")
    assert text.count("\n") == 1
    json.loads(text)  # well-formed
