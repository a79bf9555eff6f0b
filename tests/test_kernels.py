"""Kernel tests with hand-computed similarity values."""

import io
import math
import random
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from helpers import cosine_kernel, nspdk_kernel, reference_save_gram

from submol import kernels
from submol.features import (
    DatasetMatrix,
    FeatureVocabulary,
    build_matrix,
    height_features,
    parse_feature_key,
)
from submol.forest import ForestConfig, train_forest
from submol.graph import parse_smiles
from submol.kernels import (
    GramMatrix,
    KernelError,
    KernelizedModel,
    ZeroRowWarning,
    gram_matrix,
    kernel_block_ids,
    kernel_feature_rows,
    load_gram,
    save_gram,
)


def matrix_from(rows, labels, vocab=None):
    X = sp.csr_matrix(np.asarray(rows, dtype=float))
    ids = tuple(str(i) for i in range(len(rows)))
    return DatasetMatrix(X, np.asarray(labels), ids, vocab)


def feature_rows(train, rows, kernel):
    """Kernel rows of two ``DatasetMatrix`` row sets, with ``train``'s blocks."""
    return kernel_feature_rows(train.X, rows.X, kernel_block_ids(train, kernel))


def block_columns(vocab):
    """Column indices of each block, in block-number order."""
    ids = vocab.block_ids()
    return [np.flatnonzero(ids == b) for b in range(ids.max() + 1)]


# --- cosine ----------------------------------------------------------------


def test_cosine_hand_value():
    # (1,2)·(2,1) / (sqrt5 * sqrt5) = 4/5
    assert cosine_kernel([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8, abs=1e-15)


def test_cosine_self_similarity_is_one():
    assert cosine_kernel([3.0, 4.0], [3.0, 4.0]) == pytest.approx(1.0, abs=1e-15)


def test_cosine_orthogonal_rows():
    assert cosine_kernel([1.0, 0.0], [0.0, 2.0]) == 0.0


def test_cosine_scale_invariance():
    rnd = random.Random(3)
    for _ in range(20):
        x = [rnd.uniform(0, 5) for _ in range(6)]
        y = [rnd.uniform(0, 5) for _ in range(6)]
        base = cosine_kernel(x, y)
        scaled = cosine_kernel([7 * v for v in x], [0.25 * v for v in y])
        assert scaled == pytest.approx(base, abs=1e-12)


def test_cosine_zero_row_warns_and_returns_zero():
    with pytest.warns(ZeroRowWarning):
        assert cosine_kernel([0.0, 0.0], [1.0, 1.0]) == 0.0


def test_cosine_accepts_sparse_rows():
    x = sp.csr_matrix([[1.0, 2.0]])
    y = sp.csr_matrix([[2.0, 1.0]])
    assert cosine_kernel(x, y) == pytest.approx(0.8, abs=1e-15)


# --- blockwise kernel ------------------------------------------------------


def test_nspdk_half_identical_blocks():
    # block 0 identical (cosine 1), block 1 orthogonal (cosine 0) -> mean 0.5
    blocks = [np.array([0, 1]), np.array([2, 3])]
    x = [1.0, 2.0, 1.0, 0.0]
    y = [1.0, 2.0, 0.0, 3.0]
    assert nspdk_kernel(x, y, blocks) == pytest.approx(0.5, abs=1e-15)


def test_nspdk_empty_block_contributes_zero():
    blocks = [np.array([0]), np.array([1])]
    x = [1.0, 0.0]
    y = [1.0, 5.0]
    # second block: x side is all zero -> contributes 0, mean is 1/2
    assert nspdk_kernel(x, y, blocks) == pytest.approx(0.5, abs=1e-15)


def test_nspdk_requires_blocks():
    with pytest.raises(KernelError, match="block"):
        nspdk_kernel([1.0], [1.0], [])


def test_nspdk_single_block_equals_cosine():
    rnd = random.Random(11)
    blocks = [np.arange(5)]
    for _ in range(10):
        x = [rnd.uniform(0, 3) for _ in range(5)]
        y = [rnd.uniform(0, 3) for _ in range(5)]
        assert nspdk_kernel(x, y, blocks) == pytest.approx(
            cosine_kernel(x, y), abs=1e-12
        )


# --- rectangular rows and gram ---------------------------------------------


def test_kernel_feature_rows_hand_matrix():
    train = matrix_from([[1.0, 0.0], [1.0, 1.0]], [1, -1])
    rows = matrix_from([[0.0, 2.0]], [1])
    K = feature_rows(train, rows, "cosine")
    assert K.shape == (1, 2)
    assert K[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert K[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_gram_equals_rectangular_path_exactly():
    rnd = random.Random(4)
    rows = [[rnd.uniform(0, 4) for _ in range(6)] for _ in range(7)]
    data = matrix_from(rows, [1, -1] * 3 + [1])
    gram = gram_matrix(data, "cosine")
    rect = feature_rows(data, data, "cosine")
    assert np.array_equal(gram.values, rect)
    assert gram.ids == data.ids


def test_gram_symmetry_and_unit_diagonal():
    vectors = [
        height_features(parse_smiles(s), [0, 1])
        for s in ("CCC", "CCO", "CC(=O)O", "c1ccccc1")
    ]
    data = build_matrix(vectors, [1, 1, -1, -1])
    gram = gram_matrix(data, "cosine")
    assert np.allclose(gram.values, gram.values.T, atol=1e-15)
    assert np.allclose(np.diag(gram.values), 1.0, atol=1e-12)
    eigvals = np.linalg.eigvalsh(gram.values)
    assert eigvals.min() >= -1e-10


def test_nspdk_gram_on_real_features():
    vectors = [
        height_features(parse_smiles(s), [0, 1]) for s in ("CCC", "CCO", "CCN")
    ]
    data = build_matrix(vectors, [1, -1, 1])
    gram = gram_matrix(data, "nspdk")
    assert np.allclose(gram.values, gram.values.T, atol=1e-15)
    assert np.allclose(np.diag(gram.values), 1.0, atol=1e-12)
    # off-diagonal entries are strict means of per-block cosines
    blocks = block_columns(data.vocab)
    dense = data.dense()
    expected = nspdk_kernel(dense[0], dense[1], blocks)
    assert gram.values[0, 1] == pytest.approx(expected, abs=1e-12)


def test_nspdk_rows_require_vocab():
    data = matrix_from([[1.0, 0.0], [0.0, 1.0]], [1, -1])
    with pytest.raises(KernelError, match="vocabulary"):
        feature_rows(data, data, "nspdk")


def test_nspdk_rejects_an_empty_vocabulary():
    empty = DatasetMatrix(
        sp.csr_matrix((2, 0)), np.array([1, -1]), ("0", "1"), FeatureVocabulary((), ())
    )
    with pytest.raises(KernelError, match="empty"):
        feature_rows(empty, empty, "nspdk")


def test_unknown_kernel_rejected():
    data = matrix_from([[1.0]], [1])
    with pytest.raises(KernelError, match="unknown kernel"):
        feature_rows(data, data, "tanimoto")


def test_mismatched_widths_rejected():
    a = matrix_from([[1.0, 2.0]], [1])
    b = matrix_from([[1.0]], [1])
    with pytest.raises(KernelError, match="widths"):
        feature_rows(a, b, "cosine")


def test_zero_row_in_matrix_warns_and_gives_zero_similarity():
    data = matrix_from([[0.0, 0.0], [1.0, 1.0]], [1, -1])
    with pytest.warns(ZeroRowWarning):
        gram = gram_matrix(data, "cosine")
    assert gram.values[0, 0] == 0.0
    assert gram.values[0, 1] == 0.0
    assert gram.values[1, 1] == pytest.approx(1.0, abs=1e-15)


def test_stored_zero_warns_like_an_empty_row():
    # row 0 stores one explicit 0.0: it has no nonzero value, so it warns
    X = sp.csr_matrix(([0.0, 1.0, 1.0], ([0, 1, 1], [0, 0, 1])), shape=(2, 2))
    data = DatasetMatrix(X, np.array([1, -1]), ("0", "1"), None)
    assert data.X.nnz == 3
    with pytest.warns(ZeroRowWarning):
        gram = gram_matrix(data, "cosine")
    assert not np.isnan(gram.values).any()
    assert gram.values[0].tolist() == [0.0, 0.0]


def test_stored_zeros_in_an_empty_block_give_no_nan():
    vocab = FeatureVocabulary(("0|a", "0|b", "1|c", "1|d"), (1.0, 2.0, 3.0, 4.0))
    # row 0 stores a 0.0 in block (height 1), where it has nothing else
    X = sp.csr_matrix(
        ([1.0, 0.0, 2.0, 1.0, 3.0], ([0, 0, 1, 1, 1], [0, 2, 1, 2, 3])),
        shape=(2, 4),
    )
    stored = DatasetMatrix(X, np.array([1, -1]), ("0", "1"), vocab)
    clean = X.copy()
    clean.eliminate_zeros()
    assert clean.nnz == X.nnz - 1
    cleaned = DatasetMatrix(clean, stored.y, stored.ids, vocab)
    for kernel in ("cosine", "nspdk"):
        got = feature_rows(stored, stored, kernel)
        assert not np.isnan(got).any()
        assert np.array_equal(got, feature_rows(cleaned, cleaned, kernel))
    assert gram_matrix(stored, "nspdk").values[0, 0] == 0.5


def _refuse(*args, **kwargs):
    raise AssertionError("kernel rows must not be densified")


def test_kernels_do_not_densify(monkeypatch):
    vectors = [
        height_features(parse_smiles(s), [0, 1])
        for s in ("CCO", "CCCO", "CCN", "CCC", "CCCC", "CC")
    ]
    data = build_matrix(vectors, [1, 1, 1, -1, -1, -1])
    dense = data.X.toarray()
    blocks = block_columns(data.vocab)
    rows = feature_rows(data, data, "cosine")
    inner = train_forest(
        DatasetMatrix(rows, data.y, data.ids, None), ForestConfig(trees=4), seed=2
    )
    model = KernelizedModel("cosine", data.X, None, inner)
    expected_scores = inner.score_rows(rows)
    monkeypatch.setattr(DatasetMatrix, "dense", _refuse)
    monkeypatch.setattr(kernels, "scoring_rows", _refuse, raising=False)
    probe = data.subset(np.array([4, 0]))
    for kernel in ("cosine", "nspdk"):
        got = feature_rows(data, probe, kernel)
        for i, r in enumerate((4, 0)):
            for j in range(len(data)):
                expected = (
                    cosine_kernel(dense[r], dense[j])
                    if kernel == "cosine"
                    else nspdk_kernel(dense[r], dense[j], blocks)
                )
                assert got[i, j] == pytest.approx(expected, abs=1e-12)
    assert np.array_equal(model.score_rows(data.X), expected_scores)


def _random_blocked_data(rnd, n_rows, n_cols, n_blocks):
    """Count rows over randomly interleaved blocks, with empty rows and an
    empty block, plus the vocabulary's blocks parsed from scratch."""
    labels = [("d" if b % 2 else "t", b // 2 % 3, b // 6) for b in range(n_blocks)]
    keys = []
    for c in range(n_cols):
        ns, h, d = labels[rnd.randrange(n_blocks)]
        keys.append(f"{ns}:{h}|{d}|s{c:04d}|s{c:04d}")
    vocab = FeatureVocabulary(tuple(keys), tuple(float(c) for c in range(n_cols)))
    # the last block gets no value in any row
    empty = {c for c, k in enumerate(keys) if parse_feature_key(k) == labels[-1]}
    dense = np.zeros((n_rows, n_cols))
    for r in range(n_rows):
        if r == 1 or rnd.random() < 0.2:
            continue
        for c in rnd.sample(range(n_cols), rnd.randrange(1, n_cols // 2)):
            if c not in empty:
                dense[r, c] = rnd.randrange(1, 6)
    return dense, vocab


def _parsed_blocks(vocab):
    groups = {}
    for c, key in enumerate(vocab.keys):
        groups.setdefault(parse_feature_key(key), []).append(c)
    return [np.asarray(cols) for _, cols in sorted(groups.items())]


def _check_against_oracles(train, rows, dense_train, dense_rows, blocks):
    for kernel in ("cosine", "nspdk"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroRowWarning)
            got = feature_rows(train, rows, kernel)
            for i, x in enumerate(dense_rows):
                for j, y in enumerate(dense_train):
                    expected = (
                        cosine_kernel(x, y)
                        if kernel == "cosine"
                        else nspdk_kernel(x, y, blocks)
                    )
                    assert abs(got[i, j] - expected) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_sparse_rows_match_oracles_and_gram_is_symmetric(seed):
    rnd = random.Random(seed)
    dense, vocab = _random_blocked_data(rnd, 14, 40, 7)
    data = DatasetMatrix(
        sp.csr_matrix(dense), np.ones(len(dense), dtype=int),
        tuple(str(i) for i in range(len(dense))), vocab,
    )
    blocks = _parsed_blocks(vocab)
    assert len(blocks) == 7
    train, rows = data.subset(np.arange(9)), data.subset(np.arange(9, 14))
    _check_against_oracles(train, rows, dense[:9], dense[9:], blocks)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroRowWarning)
        for kernel in ("cosine", "nspdk"):
            G = gram_matrix(data, kernel).values
            assert np.array_equal(G, G.T)
    # the nspdk diagonal is each row's share of non-empty blocks
    share = [sum(dense[r, cols].any() for cols in blocks) / 7 for r in range(14)]
    assert np.abs(np.diag(G) - share).max() <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_restricted_vocabulary_counts_only_the_blocks_it_holds(seed):
    from submol.protocol import _restrict_to_training_vocab

    rnd = random.Random(100 + seed)
    dense, vocab = _random_blocked_data(rnd, 12, 40, 6)
    # the training rows never touch block 0, which the trial then drops
    dropped = _parsed_blocks(vocab)[0]
    dense[:8, dropped] = 0.0
    dense[8, dropped] = 1.0
    data = DatasetMatrix(
        sp.csr_matrix(dense), np.ones(len(dense), dtype=int),
        tuple(str(i) for i in range(len(dense))), vocab,
    )
    train, val = _restrict_to_training_vocab(
        data.subset(np.arange(8)), data.subset(np.arange(8, 12))
    )
    restricted = train.vocab
    blocks = _parsed_blocks(restricted)
    assert len(blocks) < len(_parsed_blocks(vocab))
    fresh = FeatureVocabulary(restricted.keys, restricted.masses)
    assert np.array_equal(restricted.block_ids(), fresh.block_ids())
    assert int(restricted.block_ids().max()) + 1 == len(blocks)
    _check_against_oracles(
        train, val, train.X.toarray(), val.X.toarray(), blocks
    )


def test_nonzero_matrix_does_not_warn():
    data = matrix_from([[1.0, 0.0], [1.0, 1.0]], [1, -1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", ZeroRowWarning)
        gram_matrix(data, "cosine")


# --- gram files -------------------------------------------------------------


def test_gram_file_round_trip():
    rnd = random.Random(9)
    rows = [[rnd.uniform(0, 2) for _ in range(4)] for _ in range(5)]
    gram = gram_matrix(matrix_from(rows, [1, -1, 1, -1, 1]), "cosine")
    out = io.StringIO()
    save_gram(out, gram)
    text = out.getvalue()
    assert text.splitlines()[0] == "5"
    loaded = load_gram(io.StringIO(text), ids=gram.ids)
    # %.17g keeps every float bit for doubles
    assert np.array_equal(loaded.values, gram.values)
    assert loaded.ids == gram.ids


def _gram_cases():
    rng = np.random.default_rng(3)
    spread = rng.random((40, 40))
    special = rng.choice([0.0, -0.0, np.nan, -np.nan, 1.0, 0.5, 1e-300], size=(30, 30))
    # a few values in the first rows, all distinct ones below them, so that
    # blocks fall on both sides of the distinct-value choice
    mixed = rng.random((24, 24))
    mixed[:12] = rng.choice([0.25, 1 / 3, 0.0], size=(12, 24))
    return {
        "symmetric": (spread + spread.T) / 2,
        "asymmetric": spread,
        "zeros-and-nans": special,
        "mixed": mixed,
        "one": np.array([[1 / 3]]),
        "empty": np.zeros((0, 0)),
    }


@pytest.mark.parametrize("cells", [kernels.SAVE_BLOCK_CELLS, 48])
@pytest.mark.parametrize("name", sorted(_gram_cases()))
def test_gram_file_matches_the_row_template(name, cells, monkeypatch):
    values = _gram_cases()[name]
    gram = GramMatrix(values, tuple(str(i) for i in range(len(values))))
    monkeypatch.setattr(kernels, "SAVE_BLOCK_CELLS", cells)
    out, reference = io.StringIO(), io.StringIO()
    save_gram(out, gram)
    reference_save_gram(reference, gram)
    assert out.getvalue() == reference.getvalue()
    if name == "mixed" and cells == 48:  # 2 rows per block
        shares = [len(np.unique(values[r : r + 2])) / values[r : r + 2].size
                  for r in range(0, len(values), 2)]
        assert min(shares) <= 0.5 < max(shares)


def test_load_gram_rejects_malformed():
    with pytest.raises(ValueError, match="row count"):
        load_gram(io.StringIO("not-a-number\n"))
    with pytest.raises(ValueError, match="entries"):
        load_gram(io.StringIO("2\n1.0 0.0\n1.0\n"))


def test_gram_matrix_shape_validation():
    with pytest.raises(ValueError, match="square"):
        GramMatrix(np.ones((2, 3)), ("a", "b"))
    with pytest.raises(ValueError, match="square"):
        GramMatrix(np.ones((2, 2)), ("a", "b", "c"))
