"""Model-file tests: byte-stable JSON round trips for every model kind."""

import hashlib
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

from submol.features import DatasetMatrix, build_matrix, height_features
from submol.forest import ForestConfig, train_forest
from submol.graph import parse_smiles
from submol.ingest import featurize_pairs, load_pairs
from submol.kernels import KernelizedModel, kernel_block_ids, kernel_feature_rows
from submol.neural import NetConfig, train_mlp, train_partitioned_net
from submol.protocol import PipelineSpec, fit
from submol.persist import (
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
        vectors, labels, ids = featurize_pairs(load_pairs(f), [0, 1])
    return build_matrix(vectors, labels, ids=ids)


def toy_data():
    return feature_data(
        ["CCO", "CCCO", "CCN", "CCC", "CCCC", "CC"],
        [1, 1, 1, -1, -1, -1],
    )


def round_trip(model):
    out = io.StringIO()
    save_model(out, model)
    first = out.getvalue()
    restored = load_model(io.StringIO(first))
    again = io.StringIO()
    save_model(again, restored)
    assert again.getvalue() == first  # save -> load -> save is byte-stable
    return restored, first


def test_forest_round_trip():
    data = toy_data()
    model = train_forest(data, ForestConfig(trees=5), seed=3)
    restored, text = round_trip(model)
    assert json.loads(text)["kind"] == "forest"
    assert json.loads(text)["format"] == "submol-model"
    assert json.loads(text)["version"] == 3
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
    gram = DatasetMatrix(gram_rows, data.y, data.ids, None)
    inner = train_forest(gram, ForestConfig(trees=4), seed=2)
    model = KernelizedModel("cosine", data.X, None, data.vocab, inner)
    restored, text = round_trip(model)
    assert json.loads(text)["kind"] == "kernelized"
    assert restored.kernel == "cosine"
    assert restored.vocab_sha256 == data.vocab.sha256()
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
    restored, text = round_trip(model)
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
    assert json.loads(text)["payload"]["vocab_sha256"] == data.vocab.sha256()
    assert all("|" in key for key in data.vocab.keys)
    assert "|" not in text


def _kernelized_doc():
    data = toy_data()
    model = kernelized(data, "nspdk", train_svm(gram_data(data, "nspdk"), SvmConfig(C=10.0)))
    return model_to_dict(model)


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
    (_set(("vocab_sha256",), "abc"), "vocab_sha256"),
    (_set(("vocab_sha256",), 5), "vocab_sha256"),
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
    assert model_from_dict(doc).block_ids is None


def gram_data(data, kernel):
    rows = kernel_feature_rows(data.X, data.X, kernel_block_ids(data, kernel))
    return DatasetMatrix(rows, data.y, data.ids, None)


def kernelized(data, kernel, inner):
    return KernelizedModel(kernel, data.X, kernel_block_ids(data, kernel), data.vocab, inner)


# sha256 of each saved model: the file format is pinned byte for byte.  The
# forest and net files are their version-2 bytes with only the version digit
# changed; the SVM and kernelized ones hold w, sparse rows and block ids.
PINNED_MODELS = {
    "forest": (
        lambda d: train_forest(
            d, ForestConfig(trees=3, criterion="entropy", max_features=2), seed=4
        ),
        "6e1b0e0bb2f000236fd9f4b1e90f0edd249d27580a1a809bdd44911967c25cf4",
    ),
    "mlp": (
        lambda d: train_mlp(d, NetConfig(max_epochs=4), seed=0),
        "21be4b55e66b8f01a755d7ecdaa563e3c6bbbdb59a980716675bb603fdd43fb1",
    ),
    "voted-mlp": (
        lambda d: train_mlp(d, NetConfig(max_epochs=4, voted=True), seed=2),
        "8b4cb0afed6f45777f59e234f90a58bc593fa0d1f08d05e716781abe6b40bdef",
    ),
    "pnet": (
        lambda d: train_partitioned_net(d, NetConfig(max_epochs=4), seed=1),
        "debed3875217e0ec815475824879518704591ed2176cfcb8c73fec236840fe95",
    ),
    "svm-linear": (
        lambda d: train_svm(d, SvmConfig(pos_cost_factor=2.0)),
        "360d26c5bcf8849fdf8284dac8f4de38ee705729232f4eab53c966be0d7ae346",
    ),
    "svm-rbf": (
        lambda d: train_svm(d, SvmConfig(kernel="rbf", gamma=0.5, pos_cost_factor=0.5)),
        "92037529cec54ff844e6087a301beab83878bee1ea8a050242ab4123c67d7756",
    ),
    "kernelized-cosine": (
        lambda d: kernelized(
            d, "cosine", train_forest(gram_data(d, "cosine"), ForestConfig(trees=2), seed=5)
        ),
        "b27f831ac572eaa60c7018f4fced89f265c894d0b5920ceebe48a3dcc45e4e91",
    ),
    "kernelized-nspdk": (
        lambda d: kernelized(
            d, "nspdk",
            train_svm(gram_data(d, "nspdk"), SvmConfig(C=10.0, pos_cost_factor=2.0)),
        ),
        "eddb2904b843efbff949604a3645f74ee6540c54f8e1917b2012993cb269bf5c",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_MODELS))
def test_model_files_are_pinned(name):
    train, sha = PINNED_MODELS[name]
    _, text = round_trip(train(toy_data()))
    assert hashlib.sha256(text.encode()).hexdigest() == sha


def test_rejects_non_model_documents():
    with pytest.raises(ValueError, match="not a model file"):
        model_from_dict({"format": "something-else"})
    with pytest.raises(ValueError, match="version"):
        model_from_dict({"format": "submol-model", "version": 99})
    for old in (1, 2):
        doc = model_to_dict(train_forest(toy_data(), ForestConfig(trees=1), seed=0))
        doc["version"] = old
        with pytest.raises(ValueError, match=f"unsupported model file version {old}"):
            model_from_dict(doc)
    with pytest.raises(ValueError, match="unknown model kind"):
        model_from_dict({"format": "submol-model", "version": 3, "kind": "tree"})
    with pytest.raises(ValueError, match="unknown model kind"):
        model_from_dict({"format": "submol-model", "version": 3, "kind": ["forest"]})
    with pytest.raises(ValueError, match="malformed forest model: missing key 'payload'"):
        model_from_dict({"format": "submol-model", "version": 3, "kind": "forest"})
    with pytest.raises(ValueError, match="malformed net model: NetModel must be an object"):
        model_from_dict({"format": "submol-model", "version": 3, "kind": "net", "payload": []})
    doc = model_to_dict(train_forest(toy_data(), ForestConfig(trees=1), seed=0))
    doc["payload"]["trees"] = "abc"
    with pytest.raises(ValueError, match="malformed forest model: expected a list, got str"):
        model_from_dict(doc)
    with pytest.raises(TypeError, match="cannot serialize"):
        model_to_dict(object())


def test_model_files_are_single_line_json():
    data = toy_data()
    model = train_forest(data, ForestConfig(trees=2), seed=0)
    out = io.StringIO()
    save_model(out, model)
    text = out.getvalue()
    assert text.endswith("\n")
    assert text.count("\n") == 1
    json.loads(text)  # well-formed
