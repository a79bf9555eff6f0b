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
    assert json.loads(text)["version"] == 2
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
        "f5c887954e9e24371d809fa4745ef171a5e9f91b27ffec25d6441f3991c02ff4",
    ),
    "mlp": (
        lambda d: train_mlp(d, NetConfig(max_epochs=4), seed=0),
        "b4d39eb2917b6586e117ada054cfefba4dcf5246422819f2dcb5d9c4121a533b",
    ),
    "voted-mlp": (
        lambda d: train_mlp(d, NetConfig(max_epochs=4, voted=True), seed=2),
        "eae68dd7caa740247fd092a9f1f4e689ddfa249fbd4734c58f7f482cc988e521",
    ),
    "pnet": (
        lambda d: train_partitioned_net(d, NetConfig(max_epochs=4), seed=1),
        "7b404ce5da477e0e4f036245ced18bf27a11f68a8cfd476f9ac7595c64ff0a0a",
    ),
    "svm-linear": (
        lambda d: train_svm(d, SvmConfig(pos_cost_factor=2.0)),
        "b55e92d17a827a64960282f771dd806c5cba174d3e9dda0ca042a4ddf722864a",
    ),
    "svm-rbf": (
        lambda d: train_svm(d, SvmConfig(kernel="rbf", gamma=0.5, pos_cost_factor=0.5)),
        "2ddacf3e8710b1b2cf7c543a1ad0e7e9237d4b2f1ff2c0490dfd95e879cffbf9",
    ),
    "kernelized-cosine": (
        lambda d: KernelizedModel(
            "cosine", d, train_forest(gram_data(d, "cosine"), ForestConfig(trees=2), seed=5)
        ),
        "edc0310888d07efaabc4ddfab76235d5e5bba86f42d4273843bf440c6d9ac1d1",
    ),
    "kernelized-nspdk": (
        lambda d: KernelizedModel(
            "nspdk", d,
            train_svm(gram_data(d, "nspdk"), SvmConfig(C=10.0, pos_cost_factor=2.0)),
        ),
        "28d9770eeb6891b59b93909eec2fa6e14139eeffbbe9626aa6a43991965fad07",
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
    version_1 = model_to_dict(train_forest(toy_data(), ForestConfig(trees=1), seed=0))
    version_1["version"] = 1
    with pytest.raises(ValueError, match="unsupported model file version 1"):
        model_from_dict(version_1)
    with pytest.raises(ValueError, match="unknown model kind"):
        model_from_dict({"format": "submol-model", "version": 2, "kind": "tree"})
    with pytest.raises(ValueError, match="unknown model kind"):
        model_from_dict({"format": "submol-model", "version": 2, "kind": ["forest"]})
    with pytest.raises(ValueError, match="malformed forest model: missing key 'payload'"):
        model_from_dict({"format": "submol-model", "version": 2, "kind": "forest"})
    with pytest.raises(ValueError, match="malformed net model: NetModel must be an object"):
        model_from_dict({"format": "submol-model", "version": 2, "kind": "net", "payload": []})
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
