"""Ranking metrics, split generators and the unpooled two-sample t-test.

AUROC is computed as the Mann-Whitney statistic: the fraction of
positive/negative score pairs ranked correctly, with half credit for ties.
The t-test is Welch's (unpooled variances, Welch-Satterthwaite degrees of
freedom); its p-value is the regularized incomplete beta function
I_{df/(df+t^2)}(df/2, 1/2), taken from SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ALPHA = 0.05


def _scores_by_class(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be aligned 1-D sequences")
    if not np.all(np.isin(y, (-1, 1))):
        raise ValueError("labels must be +1 or -1")
    pos, neg = s[y == 1], s[y == -1]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need at least one positive and one negative label")
    return pos, neg


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their average rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def auroc(scores, labels) -> float:
    """Probability a positive outscores a negative, ties counted half."""
    pos, neg = _scores_by_class(scores, labels)
    ranks = _tied_ranks(np.concatenate([pos, neg]))
    p = len(pos)
    u = ranks[:p].sum() - p * (p + 1) / 2
    return float(u / (p * len(neg)))


def accuracy(scores, labels, threshold: float = 0.0) -> float:
    """Fraction of rows whose thresholded score matches the label.

    Scores strictly above the threshold predict +1, everything else -1.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    preds = np.where(s > threshold, 1, -1)
    return float(np.mean(preds == y))


def roc_points(scores, labels) -> list[tuple[float, float, float]]:
    """ROC curve as (false positive rate, true positive rate, threshold).

    Starts at (0, 0) with an infinite threshold and ends at (1, 1); one
    point per distinct score, scanned from the highest score down.
    """
    pos, neg = _scores_by_class(scores, labels)
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    order = np.argsort(-s, kind="stable")
    points = [(0.0, 0.0, math.inf)]
    tp = fp = 0
    i = 0
    while i < len(order):
        threshold = s[order[i]]
        while i < len(order) and s[order[i]] == threshold:
            if y[order[i]] == 1:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / len(neg), tp / len(pos), float(threshold)))
    return points


def kfold_indices(n: int, k: int = 10, seed: int = 0) -> list[np.ndarray]:
    """Shuffled k-fold validation index sets; sizes differ by at most one."""
    if k < 2 or n < k:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        folds.append(np.sort(perm[start : start + size]))
        start += size
    return folds


def shuffle_split_indices(
    n: int,
    train_fraction: float = 2 / 3,
    trials: int = 100,
    seed: int = 0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Repeated random (train, validation) splits, one rng stream per trial.

    Training takes ``ceil(train_fraction * n)`` rows; each trial's shuffle
    depends only on (seed, trial), so any trial can be reproduced alone.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train fraction must be strictly between 0 and 1")
    train_size = math.ceil(train_fraction * n)
    if train_size >= n:
        raise ValueError(f"{n} rows leave no validation rows at {train_fraction}")
    splits = []
    for t in range(trials):
        perm = np.random.default_rng([seed, t]).permutation(n)
        splits.append((np.sort(perm[:train_size]), np.sort(perm[train_size:])))
    return splits


@dataclass(frozen=True)
class MetricSample:
    """A named sample of per-trial metric values."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("a metric sample needs at least one trial")

    @property
    def trials(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def stdev(self) -> float:
        """Sample standard deviation (n-1 denominator); 0.0 for one trial."""
        if len(self.values) < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: float
    p: float
    significant: bool


def welch_t(a: MetricSample, b: MetricSample, alpha: float = ALPHA) -> TTestResult:
    """Two-sided Welch t-test on two metric samples.

    Unpooled variances; degrees of freedom by Welch-Satterthwaite.  When both
    samples have zero variance the test degenerates: equal means give
    (t=0, p=1), different means are reported significant with a p of exactly
    0 as a sentinel.
    """
    if a.trials < 2 or b.trials < 2:
        raise ValueError("each sample needs at least two trials")
    ma, mb = a.mean, b.mean
    va, vb = a.stdev**2, b.stdev**2
    na, nb = a.trials, b.trials
    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return TTestResult(0.0, math.nan, 1.0, False)
        return TTestResult(math.copysign(math.inf, ma - mb), math.nan, 0.0, True)
    se2 = va / na + vb / nb
    t = (ma - mb) / math.sqrt(se2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = student_t_two_sided_p(t, df)
    return TTestResult(t, df, p, p < alpha)


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    # imported here: scipy.special adds about 0.09 s to every command's start
    from scipy.special import betainc

    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))
