"""Metric and statistics tests.

Every in-house routine is checked two ways: against small hand-worked
examples, and against an independent implementation (explicit pair counting
for AUROC, scipy for ranks and the t distribution).
"""

import math
import random

import numpy as np
import pytest
import scipy.stats
from helpers import auroc_by_pair_counting

from submol.evaluate import (
    ALPHA,
    MetricSample,
    TTestResult,
    _tied_ranks,
    accuracy,
    auroc,
    kfold_indices,
    roc_points,
    shuffle_split_indices,
    student_t_two_sided_p,
    welch_t,
)


# --- AUROC ------------------------------------------------------------------


def test_auroc_hand_example():
    scores = [0.9, 0.8, 0.7, 0.6]
    labels = [1, 1, -1, 1]
    # pairs: (0.9, 0.7) right, (0.8, 0.7) right, (0.6, 0.7) wrong
    assert auroc(scores, labels) == pytest.approx(2 / 3, abs=1e-15)


def test_auroc_perfect_and_inverted():
    assert auroc([3.0, 2.0, 1.0, 0.0], [1, 1, -1, -1]) == 1.0
    assert auroc([0.0, 1.0, 2.0, 3.0], [1, 1, -1, -1]) == 0.0


def test_auroc_ties_count_half():
    assert auroc([0.5, 0.5], [1, -1]) == 0.5
    assert auroc([1.0, 1.0, 1.0, 1.0], [1, 1, -1, -1]) == 0.5
    # one tie among otherwise ordered scores: 1 + 1 + 0.5 + 1 of 4 pairs
    assert auroc([0.9, 0.5, 0.5, 0.1], [1, 1, -1, -1]) == pytest.approx(
        0.875, abs=1e-15
    )


def test_auroc_matches_pair_counting_oracle():
    rnd = random.Random(31)
    for _ in range(200):
        n = rnd.randint(2, 30)
        # draw from a small value set so ties are frequent
        scores = [rnd.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
        labels = [rnd.choice([1, -1]) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0] = -labels[0]
        assert auroc(scores, labels) == pytest.approx(
            auroc_by_pair_counting(scores, labels), abs=1e-12
        )


def test_tied_ranks_match_scipy():
    rnd = np.random.default_rng(5)
    for _ in range(30):
        values = rnd.integers(0, 6, size=rnd.integers(1, 25)).astype(float)
        assert np.array_equal(
            _tied_ranks(values), scipy.stats.rankdata(values, method="average")
        )


def test_auroc_input_validation():
    with pytest.raises(ValueError, match="one positive"):
        auroc([1.0, 2.0], [1, 1])
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        auroc([1.0, 2.0], [1, 0])
    with pytest.raises(ValueError, match="aligned"):
        auroc([1.0, 2.0], [1])


# --- accuracy ---------------------------------------------------------------


def test_accuracy_threshold_is_strict():
    # a score exactly at the threshold predicts -1
    assert accuracy([0.6, 0.5, 0.4], [1, -1, -1], threshold=0.5) == 1.0
    assert accuracy([0.6, 0.5, 0.4], [1, 1, -1], threshold=0.5) == pytest.approx(2 / 3)
    assert accuracy([0.0], [-1], threshold=0.0) == 1.0
    assert accuracy([0.0], [1], threshold=0.0) == 0.0


def test_accuracy_default_threshold_zero():
    assert accuracy([1.0, -1.0], [1, -1]) == 1.0
    assert accuracy([-1.0, 1.0], [1, -1]) == 0.0


# --- ROC curve --------------------------------------------------------------


def test_roc_points_hand_trace():
    points = roc_points([0.9, 0.8, 0.8, 0.1], [1, -1, 1, -1])
    assert points == [
        (0.0, 0.0, math.inf),
        (0.0, 0.5, 0.9),
        (0.5, 1.0, 0.8),
        (1.0, 1.0, 0.1),
    ]


def test_roc_ends_at_one_one_and_area_matches_auroc():
    rnd = np.random.default_rng(13)
    scores = rnd.uniform(size=50)
    labels = np.where(rnd.uniform(size=50) < 0.5, 1, -1)
    labels[0], labels[1] = 1, -1
    points = roc_points(scores, labels)
    assert points[0] == (0.0, 0.0, math.inf)
    assert points[-1][:2] == (1.0, 1.0)
    # trapezoidal area under the curve equals the Mann-Whitney value
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    area = np.trapezoid(ys, xs)
    assert area == pytest.approx(auroc(scores, labels), abs=1e-12)


# --- folds and splits -------------------------------------------------------


def test_kfold_sizes_and_partition():
    folds = kfold_indices(25, k=10, seed=0)
    sizes = sorted(len(f) for f in folds)
    assert sizes == [2, 2, 2, 2, 2, 3, 3, 3, 3, 3]
    assert sorted(len(f) for f in folds[:5]) == [3, 3, 3, 3, 3]  # extras first
    combined = np.concatenate(folds)
    assert len(combined) == 25
    assert sorted(combined.tolist()) == list(range(25))
    for fold in folds:
        assert np.array_equal(fold, np.sort(fold))


def test_kfold_deterministic_and_seed_sensitive():
    a = kfold_indices(30, k=5, seed=1)
    b = kfold_indices(30, k=5, seed=1)
    c = kfold_indices(30, k=5, seed=2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_kfold_validation():
    with pytest.raises(ValueError, match="folds"):
        kfold_indices(5, k=10)
    with pytest.raises(ValueError, match="folds"):
        kfold_indices(10, k=1)


def test_shuffle_split_sizes_and_partition():
    splits = shuffle_split_indices(30, trials=5, seed=0)
    assert len(splits) == 5
    for train, val in splits:
        assert len(train) == 20  # ceil(2/3 * 30)
        assert len(val) == 10
        assert np.intersect1d(train, val).size == 0
        assert sorted(np.concatenate([train, val]).tolist()) == list(range(30))


def test_shuffle_split_ceil_of_fraction():
    splits = shuffle_split_indices(10, train_fraction=0.61, trials=1, seed=0)
    assert len(splits[0][0]) == 7  # ceil(6.1)


def test_shuffle_split_trials_are_independent_streams():
    # trial t depends only on (seed, t): a longer run reproduces a shorter
    # run's splits prefix-for-prefix, and any single trial can be recomputed
    short = shuffle_split_indices(40, trials=8, seed=3)
    long = shuffle_split_indices(40, trials=100, seed=3)
    for (ta, va), (tb, vb) in zip(short, long):
        assert np.array_equal(ta, tb)
        assert np.array_equal(va, vb)
    assert not np.array_equal(long[0][0], long[1][0])


def test_shuffle_split_validation():
    with pytest.raises(ValueError, match="fraction"):
        shuffle_split_indices(10, train_fraction=1.0)
    with pytest.raises(ValueError, match="validation"):
        shuffle_split_indices(2, train_fraction=0.9)


# --- metric samples ---------------------------------------------------------


def test_metric_sample_mean_and_stdev():
    sample = MetricSample("auroc", (1.0, 2.0, 3.0, 4.0))
    assert sample.mean == 2.5
    assert sample.stdev == pytest.approx(math.sqrt(5 / 3), abs=1e-12)
    assert sample.trials == 4


def test_metric_sample_single_value():
    sample = MetricSample("auroc", (0.7,))
    assert sample.stdev == 0.0
    assert sample.mean == 0.7


def test_metric_sample_needs_values():
    with pytest.raises(ValueError, match="at least one"):
        MetricSample("auroc", ())


# --- Welch t-test -----------------------------------------------------------


def test_welch_matches_scipy():
    rnd = np.random.default_rng(19)
    for _ in range(50):
        na, nb = int(rnd.integers(2, 40)), int(rnd.integers(2, 40))
        a = rnd.normal(0.0, 1.0, size=na)
        b = rnd.normal(rnd.uniform(-1, 1), rnd.uniform(0.5, 2.0), size=nb)
        ours = welch_t(
            MetricSample("a", tuple(a.tolist())), MetricSample("b", tuple(b.tolist()))
        )
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert ours.t == pytest.approx(ref.statistic, abs=1e-10, rel=1e-10)
        assert ours.p == pytest.approx(ref.pvalue, abs=1e-10)
        assert ours.significant == (ours.p < ALPHA)


def test_welch_degrees_of_freedom_formula():
    a = MetricSample("a", (0.80, 0.82, 0.84, 0.86))
    b = MetricSample("b", (0.70, 0.75, 0.72))
    result = welch_t(a, b)
    va, vb = np.var(a.values, ddof=1), np.var(b.values, ddof=1)
    se2 = va / 4 + vb / 3
    expected_t = (a.mean - b.mean) / math.sqrt(se2)
    expected_df = se2**2 / ((va / 4) ** 2 / 3 + (vb / 3) ** 2 / 2)
    assert result.t == pytest.approx(expected_t, abs=1e-12)
    assert result.df == pytest.approx(expected_df, abs=1e-12)


def test_welch_is_antisymmetric():
    a = MetricSample("a", (1.0, 2.0, 3.0))
    b = MetricSample("b", (2.0, 2.5, 4.0))
    ab, ba = welch_t(a, b), welch_t(b, a)
    assert ab.t == pytest.approx(-ba.t, abs=1e-12)
    assert ab.p == pytest.approx(ba.p, abs=1e-12)
    assert ab.df == pytest.approx(ba.df, abs=1e-12)


def test_welch_zero_variance_equal_means():
    result = welch_t(MetricSample("a", (0.5, 0.5)), MetricSample("b", (0.5, 0.5)))
    assert result.t == 0.0
    assert math.isnan(result.df)
    assert result.p == 1.0
    assert not result.significant


def test_welch_zero_variance_different_means():
    result = welch_t(MetricSample("a", (0.9, 0.9)), MetricSample("b", (0.5, 0.5)))
    assert result.t == math.inf
    assert result.p == 0.0
    assert result.significant
    down = welch_t(MetricSample("a", (0.1, 0.1)), MetricSample("b", (0.5, 0.5)))
    assert down.t == -math.inf
    assert down.significant


def test_welch_needs_two_trials_each():
    with pytest.raises(ValueError, match="two trials"):
        welch_t(MetricSample("a", (1.0,)), MetricSample("b", (1.0, 2.0)))


def test_welch_significance_uses_alpha():
    # clearly separated tight samples: significant at 0.05
    a = MetricSample("a", (0.90, 0.91, 0.92, 0.91))
    b = MetricSample("b", (0.70, 0.71, 0.72, 0.71))
    assert welch_t(a, b).significant
    # nearly identical wide samples: not significant
    c = MetricSample("c", (0.5, 0.9, 0.6, 0.8))
    d = MetricSample("d", (0.6, 0.8, 0.5, 0.9))
    assert not welch_t(c, d).significant


def test_ttest_result_is_frozen():
    result = TTestResult(1.0, 2.0, 0.5, False)
    with pytest.raises(AttributeError):
        result.t = 2.0


# --- t distribution ---------------------------------------------------------


def test_student_t_p_matches_scipy_grid():
    for df in (1.0, 2.0, 5.0, 10.0, 30.5, 100.0):
        for t in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            ours = student_t_two_sided_p(t, df)
            ref = 2.0 * scipy.stats.t.sf(abs(t), df)
            assert ours == pytest.approx(ref, abs=1e-12), (t, df)
            assert student_t_two_sided_p(-t, df) == ours


def test_student_t_p_edges():
    assert student_t_two_sided_p(0.0, 5.0) == 1.0
    assert student_t_two_sided_p(math.inf, 5.0) == 0.0
    with pytest.raises(ValueError, match="positive"):
        student_t_two_sided_p(1.0, 0.0)
