"""Protocol-runner tests: parsing, vocabulary re-freezing, determinism."""

import io
import json

import numpy as np
import pytest
import scipy.sparse as sp

from submol.errors import ConfigError
from submol.features import (
    DatasetMatrix,
    FeatureVocabulary,
    build_matrix,
    height_features,
)
from submol.forest import ForestConfig
from submol.graph import parse_smiles
from submol.neural import NetConfig
from submol.svm import SvmConfig
from submol.protocol import (
    PipelineSpec,
    Protocol,
    ProtocolResult,
    _restrict_to_training_vocab,
    _trial_seed,
    parse_fraction,
    read_metrics_csv,
    run_protocol,
    summary_dict,
    write_metrics_csv,
    write_roc_csv,
    write_summary_json,
)


def numeric_matrix(rows, labels):
    X = sp.csr_matrix(np.asarray(rows, dtype=float))
    ids = tuple(str(i) for i in range(len(rows)))
    return DatasetMatrix(X, np.asarray(labels), ids, None)


def blob_matrix(rng, n_each=15):
    pos = rng.normal(2.0, 0.4, size=(n_each, 3))
    neg = rng.normal(-2.0, 0.4, size=(n_each, 3))
    return numeric_matrix(np.vstack([pos, neg]), [1] * n_each + [-1] * n_each)


# --- protocol parsing -------------------------------------------------------


def test_parse_kfold():
    protocol = Protocol.parse("kfold:10")
    assert protocol.kind == "kfold"
    assert protocol.folds == 10
    assert protocol.describe() == {"kind": "kfold", "folds": 10}


def test_parse_shuffle():
    protocol = Protocol.parse("shuffle:100")
    assert (protocol.kind, protocol.trials) == ("shuffle", 100)
    assert protocol.train_fraction == pytest.approx(2 / 3)
    custom = Protocol.parse("shuffle:50:0.8")
    assert custom.train_fraction == 0.8
    fraction = Protocol.parse("shuffle:5:2/3")
    assert fraction.train_fraction == pytest.approx(2 / 3)
    assert fraction.describe()["trials"] == 5


@pytest.mark.parametrize("text", [
    "bootstrap:3", "kfold", "kfold:3:9", "shuffle", "kfold:x", "kfold:1",
    "shuffle:0", "shuffle:-1", "shuffle:3:1/0", "shuffle:3:1", "shuffle:3:0",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ConfigError, match="protocol"):
        Protocol.parse(text)


def test_parse_fraction():
    assert parse_fraction("0.75") == 0.75
    assert parse_fraction("2/3") == pytest.approx(2 / 3)


def test_kfold_splits_are_complementary():
    protocol = Protocol.parse("kfold:4")
    for train, val in protocol.splits(21, seed=0):
        assert np.intersect1d(train, val).size == 0
        assert len(train) + len(val) == 21


def test_protocol_kind_validation():
    with pytest.raises(ConfigError, match="unknown protocol"):
        Protocol("bootstrap")


# --- pipeline validation ----------------------------------------------------


def test_pipeline_spec_validation():
    cfg = ForestConfig(trees=2)
    with pytest.raises(ConfigError, match="algorithm"):
        PipelineSpec("boosting", cfg)
    with pytest.raises(ConfigError, match="kernel"):
        PipelineSpec("rf", cfg, kernel="tanimoto")
    with pytest.raises(ConfigError, match="threads"):
        PipelineSpec("rf", cfg, threads=0)
    with pytest.raises(ConfigError, match="partitioned"):
        PipelineSpec("pnet", NetConfig(), kernel="cosine")
    with pytest.raises(ConfigError, match="takes a SvmConfig, not a ForestConfig"):
        PipelineSpec("svm", ForestConfig())
    PipelineSpec("pnet", NetConfig())  # raw features are fine


# --- vocabulary re-freezing -------------------------------------------------


def test_restrict_drops_training_inactive_columns():
    vocab = FeatureVocabulary(("0|a", "0|b", "0|c"), (1.0, 2.0, 3.0))
    X = sp.csr_matrix(np.array([
        [1.0, 0.0, 2.0],   # train
        [0.0, 5.0, 1.0],   # val: column b unseen in training
    ]))
    data = DatasetMatrix(X, np.array([1, -1]), ("t", "v"), vocab)
    train, val = _restrict_to_training_vocab(
        data.subset(np.array([0])), data.subset(np.array([1]))
    )
    assert train.vocab.keys == ("0|a", "0|c")
    assert val.vocab is train.vocab
    assert train.dense().tolist() == [[1.0, 2.0]]
    assert val.dense().tolist() == [[0.0, 1.0]]  # the b count is gone


def test_restrict_matches_fresh_vocabulary_freeze():
    # restricting the full matrix to training-active columns must equal
    # building the training matrix from scratch with its own vocabulary
    smiles = ["CCC", "CCO", "CCN", "CC(=O)O", "c1ccccc1", "CCCl"]
    vectors = [height_features(parse_smiles(s), [0, 1]) for s in smiles]
    labels = [1, -1, 1, -1, 1, -1]
    full = build_matrix(vectors, labels)
    train_rows, val_rows = np.array([0, 1, 2]), np.array([3, 4, 5])
    train, val = _restrict_to_training_vocab(
        full.subset(train_rows), full.subset(val_rows)
    )
    fresh = build_matrix(vectors[:3], labels[:3])
    assert train.vocab.keys == fresh.vocab.keys
    assert train.vocab.masses == fresh.vocab.masses
    assert np.array_equal(train.dense(), fresh.dense())
    # validation rows projected onto the same columns
    projected = build_matrix(vectors[3:], labels[3:], vocab=fresh.vocab)
    assert np.array_equal(val.dense(), projected.dense())


def test_restrict_without_vocab_is_identity():
    data = numeric_matrix([[1.0, 0.0], [0.0, 1.0]], [1, -1])
    train, val = _restrict_to_training_vocab(
        data.subset(np.array([0])), data.subset(np.array([1]))
    )
    assert train.X.shape[1] == 2
    assert val.X.shape[1] == 2


# --- running protocols ------------------------------------------------------


def test_separable_data_scores_perfectly():
    data = blob_matrix(np.random.default_rng(0))
    result = run_protocol(
        data,
        PipelineSpec("rf", ForestConfig(trees=10)),
        Protocol.parse("kfold:5"),
        seed=2,
    )
    assert result.samples["auroc"].mean == 1.0
    assert result.samples["auroc"].stdev == 0.0
    assert result.samples["auroc"].trials == 5
    assert len(result.rows) == 5
    assert [r[0] for r in result.rows] == [0, 1, 2, 3, 4]


def test_threads_do_not_change_results():
    data = blob_matrix(np.random.default_rng(3), n_each=12)
    protocol = Protocol.parse("shuffle:6")
    one = run_protocol(data, PipelineSpec("rf", ForestConfig(trees=8)), protocol, seed=4)
    many = run_protocol(
        data,
        PipelineSpec("rf", ForestConfig(trees=8), threads=4),
        protocol,
        seed=4,
    )
    assert one.rows == many.rows


def test_trial_seeds_differ_but_reproduce():
    assert _trial_seed(7, 0) == _trial_seed(7, 0)
    assert _trial_seed(7, 0) != _trial_seed(7, 1)
    assert _trial_seed(7, 1) != _trial_seed(8, 1)


def test_trial_errors_carry_trial_number():
    # only one negative row: whichever fold lacks it cannot compute AUROC
    data = numeric_matrix([[0.0], [1.0], [2.0], [3.0]], [1, 1, 1, -1])
    with pytest.raises(ValueError, match=r"^trial \d+: need at least one"):
        run_protocol(
            data,
            PipelineSpec("rf", ForestConfig(trees=2)),
            Protocol.parse("kfold:2"),
            seed=0,
        )


def test_kernel_pipeline_runs_on_feature_data():
    smiles = ["CCC", "CCCC", "CCO", "CCCO", "CCN", "CCCN", "CCCl", "CCBr"]
    vectors = [height_features(parse_smiles(s), [0, 1]) for s in smiles]
    labels = [1, 1, -1, -1, 1, 1, -1, -1]
    data = build_matrix(vectors, labels)
    result = run_protocol(
        data,
        PipelineSpec("svm", SvmConfig(), kernel="cosine"),
        Protocol.parse("kfold:2"),
        seed=0,
    )
    assert set(result.samples) == {"auroc", "train_acc", "val_acc"}
    assert all(0.0 <= v <= 1.0 for v in result.samples["auroc"].values)


def test_nspdk_kernel_requires_vocabulary():
    data = blob_matrix(np.random.default_rng(5))
    with pytest.raises(ConfigError, match="vocabulary"):
        run_protocol(
            data,
            PipelineSpec("rf", ForestConfig(trees=2), kernel="nspdk"),
            Protocol.parse("kfold:2"),
        )


# --- report files -----------------------------------------------------------


def sample_result():
    rows = [(0, 0.875, 1.0, 0.8125), (1, 0.9, 0.96875, 0.84375)]
    from submol.evaluate import MetricSample

    samples = {
        "auroc": MetricSample("auroc", (0.875, 0.9)),
        "train_acc": MetricSample("train_acc", (1.0, 0.96875)),
        "val_acc": MetricSample("val_acc", (0.8125, 0.84375)),
    }
    return ProtocolResult(samples, rows)


def test_metrics_csv_format_and_round_trip():
    result = sample_result()
    out = io.StringIO()
    write_metrics_csv(out, result)
    lines = out.getvalue().splitlines()
    assert lines[0] == "trial,auroc,train_acc,val_acc"
    assert lines[1] == "0,0.875,1.0,0.8125"
    loaded = read_metrics_csv(io.StringIO(out.getvalue()))
    assert loaded["auroc"].values == result.samples["auroc"].values
    assert loaded["train_acc"].values == result.samples["train_acc"].values
    assert loaded["val_acc"].values == result.samples["val_acc"].values


def test_metrics_csv_floats_survive_exactly():
    from submol.evaluate import MetricSample

    value = 0.8973943661971831  # full double precision
    result = ProtocolResult(
        {"auroc": MetricSample("auroc", (value,))}, [(0, value, value, value)]
    )
    out = io.StringIO()
    write_metrics_csv(out, result)
    loaded = read_metrics_csv(io.StringIO(out.getvalue()))
    assert loaded["auroc"].values[0] == value


def test_read_metrics_rejects_wrong_header():
    with pytest.raises(ValueError, match="header"):
        read_metrics_csv(io.StringIO("auroc,val_acc\n0.5,0.5\n"))


def test_summary_json_shape():
    out = io.StringIO()
    write_summary_json(out, sample_result(), algorithm="rf", seed=3)
    payload = json.loads(out.getvalue())
    assert payload["algorithm"] == "rf"
    assert payload["seed"] == 3
    metrics = payload["metrics"]
    assert set(metrics) == {"auroc", "train_acc", "val_acc"}
    assert metrics["auroc"]["mean"] == pytest.approx(0.8875)
    assert metrics["auroc"]["min"] == 0.875
    assert metrics["auroc"]["max"] == 0.9
    assert metrics["auroc"]["trials"] == 2
    # keys are sorted for byte-stable files
    assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_summary_dict_extra_fields():
    payload = summary_dict(sample_result(), protocol={"kind": "kfold", "folds": 2})
    assert payload["protocol"] == {"kind": "kfold", "folds": 2}


def test_roc_csv_format():
    out = io.StringIO()
    write_roc_csv(out, [(0.0, 0.0, float("inf")), (0.5, 1.0, 0.25)])
    assert out.getvalue() == "fpr,tpr,threshold\n0.0,0.0,inf\n0.5,1.0,0.25\n"
