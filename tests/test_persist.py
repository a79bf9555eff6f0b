"""Model-file tests: byte-stable JSON round trips for every model kind."""

import hashlib
import io
import json

import numpy as np
import pytest

from submol.features import DatasetMatrix, build_matrix, height_features
from submol.forest import ForestConfig, train_forest
from submol.graph import parse_smiles
from submol.kernels import KernelizedModel, kernel_feature_rows
from submol.neural import NetConfig, train_mlp, train_partitioned_net
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
    assert json.loads(text)["version"] == 1
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


def test_precomputed_svm_round_trip():
    data = toy_data()
    gram_rows = kernel_feature_rows(data, data, "cosine")
    gram = DatasetMatrix(gram_rows, data.y, data.ids, None)
    model = train_svm(gram, SvmConfig(kernel="precomputed"))
    restored, _ = round_trip(model)
    assert restored.sv_rows.size == 0
    assert restored.sv_indices.dtype.kind == "i"
    assert np.array_equal(restored.score_rows(gram.X), model.score_rows(gram.X))


def test_kernelized_round_trip():
    data = toy_data()
    gram_rows = kernel_feature_rows(data, data, "cosine")
    gram = DatasetMatrix(gram_rows, data.y, data.ids, None)
    inner = train_forest(gram, ForestConfig(trees=4), seed=2)
    model = KernelizedModel("cosine", data, inner)
    restored, text = round_trip(model)
    assert json.loads(text)["kind"] == "kernelized"
    assert restored.kernel == "cosine"
    assert restored.basis.vocab.keys == data.vocab.keys
    assert np.array_equal(restored.score_rows(data.X), model.score_rows(data.X))
    # scoring maps rows through similarities against the saved basis
    assert np.array_equal(model.score_rows(data.X), inner.score_rows(gram.X))
    # like every model, it scores a single row given as a 1-D array
    assert model.score_rows(data.dense()[0]) == model.score_rows(data.X[:1])


def gram_data(data, kernel):
    return DatasetMatrix(kernel_feature_rows(data, data, kernel), data.y, data.ids, None)


# sha256 of each saved model: the file format is pinned byte for byte.
PINNED_MODELS = {
    "forest": (
        lambda d: train_forest(
            d, ForestConfig(trees=3, criterion="entropy", max_features=2), seed=4
        ),
        "b14d367af7c09cc533ae3babac4b68682ce1c7d5159d223beb52fc4afc10f764",
    ),
    "mlp": (
        lambda d: train_mlp(d, NetConfig(max_epochs=4), seed=0),
        "10d3fda7b18451b79495ab39c150551bae415689749455046f2decaaf3817503",
    ),
    "voted-mlp": (
        lambda d: train_mlp(d, NetConfig(max_epochs=4, voted=True), seed=2),
        "c23f1e524f07c6a91a2e764c0b2cdd398f3ba0f1ed57de71a314446e827ab158",
    ),
    "pnet": (
        lambda d: train_partitioned_net(d, NetConfig(max_epochs=4), seed=1),
        "a46fb2d55945e16a8247c5d8c38896f43ed9380c54840a7742695ee34447de7c",
    ),
    "svm-linear": (
        lambda d: train_svm(d, SvmConfig(pos_cost_factor=2.0)),
        "0da7ab1a708b98d2b0cd2843ef615cf94daa391592497c1e3f977104e6824658",
    ),
    "svm-rbf": (
        lambda d: train_svm(d, SvmConfig(kernel="rbf", gamma=0.5, pos_cost_factor=0.5)),
        "1aac59bea73c71898fe883ac5a5eee772ad2b8a5f06c4cb6ca69fcc06b1f9a45",
    ),
    "svm-precomputed": (
        lambda d: train_svm(
            gram_data(d, "cosine"), SvmConfig(kernel="precomputed", pos_cost_factor=1.5)
        ),
        "2c92ac460b817734da02e9801afe6d4fe32fa302dafb5faf969c8966eb866183",
    ),
    "kernelized-cosine": (
        lambda d: KernelizedModel(
            "cosine", d, train_forest(gram_data(d, "cosine"), ForestConfig(trees=2), seed=5)
        ),
        "b10262a2bc3ca4de975d34fa68321f1d69179e262cfa9dbcf1fd33a19ce21190",
    ),
    "kernelized-nspdk": (
        lambda d: KernelizedModel(
            "nspdk", d,
            train_svm(gram_data(d, "nspdk"), SvmConfig(C=10.0, pos_cost_factor=2.0)),
        ),
        "99e1b76a04a22989e7bbb661ce5a1c394842c424670903eb651a562a4c664864",
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
    with pytest.raises(ValueError, match="unknown model kind"):
        model_from_dict({"format": "submol-model", "version": 1, "kind": "tree"})
    with pytest.raises(ValueError, match="unknown model kind"):
        model_from_dict({"format": "submol-model", "version": 1, "kind": ["forest"]})
    with pytest.raises(ValueError, match="malformed forest model: missing key 'payload'"):
        model_from_dict({"format": "submol-model", "version": 1, "kind": "forest"})
    with pytest.raises(ValueError, match="malformed net model: NetModel must be an object"):
        model_from_dict({"format": "submol-model", "version": 1, "kind": "net", "payload": []})
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
