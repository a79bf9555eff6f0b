"""Train/validate protocols: repeated splits, per-trial metrics, reports.

The runner re-freezes the feature vocabulary inside every trial from the
training rows alone (validation-only features are dropped), optionally maps
both sides through a kernel into similarity columns against the training rows,
trains the requested classifier and collects AUROC plus train/validation
accuracy per trial.  Trials derive independent seeds from (seed, trial), so
results do not depend on thread count or execution order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TextIO

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .evaluate import (
    MetricSample,
    accuracy,
    auroc,
    kfold_indices,
    shuffle_split_indices,
)
from .features import DatasetMatrix
from .forest import ForestConfig, train_forest
from .kernels import KernelizedModel, kernel_block_ids, kernel_feature_rows
from .neural import NetConfig, train_mlp, train_partitioned_net
from .parallel import map_tasks
from .svm import SvmConfig, train_svm

KERNELS = ("none", "cosine", "nspdk")

#: algorithm name -> (config class, trainer accepting (data, cfg, seed, threads))
ALGORITHMS: dict[str, tuple[type, Callable]] = {
    "rf": (ForestConfig, lambda d, c, s, t: train_forest(d, c, s, threads=t)),
    "mlp": (NetConfig, lambda d, c, s, t: train_mlp(d, c, s)),
    "pnet": (NetConfig, lambda d, c, s, t: train_partitioned_net(d, c, s)),
    "svm": (SvmConfig, lambda d, c, s, t: train_svm(d, c, s)),
}


def parse_fraction(text: str) -> float:
    if "/" in text:
        num, _, den = text.partition("/")
        return float(num) / float(den)
    return float(text)


@dataclass(frozen=True)
class Protocol:
    """Which splits to run: k-fold or repeated shuffle splits."""

    kind: str
    folds: int = 10
    trials: int = 100
    train_fraction: float = 2 / 3

    def __post_init__(self):
        if self.kind not in ("kfold", "shuffle"):
            raise ConfigError(f"unknown protocol {self.kind!r}")
        if self.folds < 2:
            raise ConfigError("k-fold needs at least 2 folds")
        if self.trials < 1:
            raise ConfigError("shuffle splits need at least 1 trial")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("the train fraction must lie strictly between 0 and 1")

    @classmethod
    def parse(cls, text: str) -> "Protocol":
        parts = text.split(":")
        try:
            if parts[0] == "kfold" and len(parts) == 2:
                return cls("kfold", folds=int(parts[1]))
            if parts[0] == "shuffle" and len(parts) in (2, 3):
                fraction = parse_fraction(parts[2]) if len(parts) == 3 else 2 / 3
                return cls("shuffle", trials=int(parts[1]), train_fraction=fraction)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad protocol {text!r}: {exc}") from None
        raise ConfigError(
            f"cannot parse protocol {text!r}; want kfold:K or shuffle:N[:frac]"
        )

    def splits(self, n: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
        if self.kind == "kfold":
            folds = kfold_indices(n, self.folds, seed)
            everything = np.arange(n)
            return [(np.setdiff1d(everything, fold), fold) for fold in folds]
        return shuffle_split_indices(n, self.train_fraction, self.trials, seed)

    def describe(self) -> dict[str, Any]:
        if self.kind == "kfold":
            return {"kind": "kfold", "folds": self.folds}
        return {
            "kind": "shuffle",
            "trials": self.trials,
            "train_fraction": self.train_fraction,
        }


@dataclass(frozen=True)
class PipelineSpec:
    """Classifier + optional kernel representation for a protocol run."""

    algorithm: str
    algo_config: Any
    kernel: str = "none"
    threads: int = 1

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        config_class, _ = ALGORITHMS[self.algorithm]
        if not isinstance(self.algo_config, config_class):
            raise ConfigError(
                f"algorithm {self.algorithm!r} takes a {config_class.__name__}, "
                f"not a {type(self.algo_config).__name__}"
            )
        if self.kernel not in KERNELS:
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if self.algorithm == "pnet" and self.kernel != "none":
            raise ConfigError(
                "the partitioned network needs raw mass-ordered features, not "
                "kernel columns"
            )


@dataclass
class ProtocolResult:
    samples: dict[str, MetricSample]
    rows: list[tuple[int, float, float, float]]


def _active_columns(X) -> np.ndarray:
    if sp.issparse(X):
        return np.nonzero(X.getnnz(axis=0) > 0)[0]
    return np.nonzero((np.asarray(X) != 0).any(axis=0))[0]


def _restrict_to_training_vocab(
    train: DatasetMatrix, val: DatasetMatrix
) -> tuple[DatasetMatrix, DatasetMatrix]:
    """Drop columns that no training row exhibits.

    Equivalent to freezing a fresh vocabulary from the training rows only:
    the surviving keys keep their relative (mass, key) order, and validation
    rows lose any feature the training set never saw.
    """
    if train.vocab is None:
        return train, val
    active = _active_columns(train.X)
    vocab = train.vocab.restrict(active)
    return (
        DatasetMatrix(train.X[:, active], train.y, vocab),
        DatasetMatrix(val.X[:, active], val.y, vocab),
    )


def fit(train: DatasetMatrix, pipeline: PipelineSpec, seed: int, threads: int):
    """Train ``pipeline``'s classifier on ``train``.

    With a kernel, the classifier learns from the similarity rows of
    ``train`` against itself and is returned wrapped in a
    :class:`KernelizedModel`, which maps new rows the same way.  Returns the
    model and the rows the classifier was trained on, so the training set
    can be scored without computing its kernel again.
    """
    seen = train
    if pipeline.kernel != "none":
        block_ids = kernel_block_ids(train, pipeline.kernel)
        rows = kernel_feature_rows(train.X, train.X, block_ids)
        seen = DatasetMatrix(rows, train.y, None)
    _, trainer = ALGORITHMS[pipeline.algorithm]
    model = trainer(seen, pipeline.algo_config, seed, threads)
    if pipeline.kernel != "none":
        model = KernelizedModel(pipeline.kernel, train.X, block_ids, model)
    return model, seen


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


def _run_trial(
    data: DatasetMatrix, pipeline: PipelineSpec, seed: int, t: int,
    train_idx: np.ndarray, val_idx: np.ndarray,
) -> tuple[int, float, float, float]:
    """Trial ``t``: (t, validation AUROC, train accuracy, validation accuracy)."""
    try:
        train, val = _restrict_to_training_vocab(
            data.subset(train_idx), data.subset(val_idx)
        )
        model, seen = fit(train, pipeline, _trial_seed(seed, t), 1)
        classifier = model.inner if pipeline.kernel != "none" else model
        train_scores = classifier.score_rows(seen.X)
        val_scores = model.score_rows(val.X)
        return (
            t,
            auroc(val_scores, val.y),
            accuracy(train_scores, train.y, model.threshold),
            accuracy(val_scores, val.y, model.threshold),
        )
    except Exception as exc:
        exc.args = (f"trial {t}: {exc}",) + exc.args[1:]
        raise


def run_protocol(
    data: DatasetMatrix,
    pipeline: PipelineSpec,
    protocol: Protocol,
    seed: int = 0,
) -> ProtocolResult:
    """Run every split of ``protocol`` and collect per-trial metrics.

    With ``pipeline.threads > 1`` the trials run in forked worker processes.
    """
    if pipeline.kernel == "nspdk" and data.vocab is None:
        raise ConfigError("the nspdk kernel needs a feature vocabulary")
    tasks = [
        (data, pipeline, seed, t, train_idx, val_idx)
        for t, (train_idx, val_idx) in enumerate(protocol.splits(len(data), seed))
    ]
    rows = map_tasks(_run_trial, tasks, pipeline.threads)
    samples = {
        "auroc": MetricSample("auroc", tuple(r[1] for r in rows)),
        "train_acc": MetricSample("train_acc", tuple(r[2] for r in rows)),
        "val_acc": MetricSample("val_acc", tuple(r[3] for r in rows)),
    }
    return ProtocolResult(samples, rows)


# --- Report files ----------------------------------------------------------


def write_metrics_csv(stream: TextIO, result: ProtocolResult) -> None:
    """One row per trial: trial, auroc, train_acc, val_acc."""
    stream.write("trial,auroc,train_acc,val_acc\n")
    for t, roc, tr, va in result.rows:
        stream.write(f"{t},{roc!r},{tr!r},{va!r}\n")


def read_metrics_csv(stream: TextIO) -> dict[str, MetricSample]:
    """Per-metric samples of a file written by :func:`write_metrics_csv`.

    Raises ``ValueError`` for a header that names a column twice, and,
    naming the line, for a row with another field count than the header
    or with a value that is not finite.
    """
    header = stream.readline().strip().split(",")
    if header[:1] != ["trial"]:
        raise ValueError("metrics file must start with a 'trial,...' header")
    if len(set(header)) != len(header):
        raise ValueError("metrics header names a column twice")
    columns: dict[str, list[float]] = {name: [] for name in header[1:]}
    for lineno, line in enumerate(stream, start=2):
        if not line.strip():
            continue
        fields = line.strip().split(",")
        if len(fields) != len(header):
            raise ValueError(
                f"metrics line {lineno} has {len(fields)} fields, the header {len(header)}"
            )
        values = [float(value) for value in fields[1:]]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"metrics line {lineno} has a value that is not finite")
        for name, value in zip(header[1:], values):
            columns[name].append(value)
    return {
        name: MetricSample(name, tuple(values)) for name, values in columns.items()
    }


def summary_dict(result: ProtocolResult, **extra: Any) -> dict[str, Any]:
    metrics = {
        name: {
            "mean": sample.mean,
            "stdev": sample.stdev,
            "min": min(sample.values),
            "max": max(sample.values),
            "trials": sample.trials,
        }
        for name, sample in result.samples.items()
    }
    return {"metrics": metrics, **extra}


def write_summary_json(stream: TextIO, result: ProtocolResult, **extra: Any) -> None:
    json.dump(summary_dict(result, **extra), stream, sort_keys=True, indent=2)
    stream.write("\n")


def write_roc_csv(stream: TextIO, points: Sequence[tuple[float, float, float]]) -> None:
    stream.write("fpr,tpr,threshold\n")
    for fpr, tpr, threshold in points:
        text = "inf" if math.isinf(threshold) else repr(threshold)
        stream.write(f"{fpr!r},{tpr!r},{text}\n")
