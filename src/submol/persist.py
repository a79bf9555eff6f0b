"""Self-describing model files.

Models serialize to a versioned JSON container.  All floats go through
Python's shortest round-trip repr, so save -> load -> save reproduces the
file byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, TextIO

import numpy as np
import scipy.sparse as sp

from .features import DatasetMatrix, FeatureVocabulary
from .forest import ForestConfig, ForestModel
from .kernels import KernelizedModel
from .neural import NetConfig, NetModel, NetParams
from .svm import SvmConfig, SvmModel

FORMAT = "submol-model"
VERSION = 1


def _config_dict(cfg) -> dict[str, Any]:
    return dataclasses.asdict(cfg)


def _forest_payload(model: ForestModel) -> dict[str, Any]:
    return {
        "config": _config_dict(model.config),
        "seed": model.seed,
        "n_features": model.n_features,
        "threshold": model.threshold,
        "trees": model.trees,
    }


def _forest_restore(payload: dict[str, Any]) -> ForestModel:
    return ForestModel(
        config=ForestConfig(**payload["config"]),
        seed=payload["seed"],
        n_features=payload["n_features"],
        trees=payload["trees"],
        threshold=payload["threshold"],
    )


def _params_payload(p: NetParams) -> dict[str, Any]:
    return {
        "W1": p.W1.tolist(),
        "b1": p.b1.tolist(),
        "W2": p.W2.tolist(),
        "b2": p.b2,
        "mask": None if p.mask is None else p.mask.tolist(),
    }


def _params_restore(d: dict[str, Any]) -> NetParams:
    return NetParams(
        np.asarray(d["W1"], dtype=float),
        np.asarray(d["b1"], dtype=float),
        np.asarray(d["W2"], dtype=float),
        float(d["b2"]),
        None if d["mask"] is None else np.asarray(d["mask"], dtype=float),
    )


def _net_payload(model: NetModel) -> dict[str, Any]:
    return {
        "net_kind": model.kind,
        "config": _config_dict(model.config),
        "seed": model.seed,
        "n_features": model.n_features,
        "threshold": model.threshold,
        "epochs_run": model.epochs_run,
        "params": _params_payload(model.params),
        "snapshots": [_params_payload(p) for p in model.snapshots],
    }


def _net_restore(payload: dict[str, Any]) -> NetModel:
    return NetModel(
        kind=payload["net_kind"],
        config=NetConfig(**payload["config"]),
        seed=payload["seed"],
        n_features=payload["n_features"],
        params=_params_restore(payload["params"]),
        snapshots=[_params_restore(p) for p in payload["snapshots"]],
        epochs_run=payload["epochs_run"],
        threshold=payload["threshold"],
    )


def _svm_payload(model: SvmModel) -> dict[str, Any]:
    return {
        "config": _config_dict(model.config),
        "seed": model.seed,
        "n_features": model.n_features,
        "threshold": model.threshold,
        "alphas": model.alphas.tolist(),
        "bias": model.bias,
        "sv_rows": model.sv_rows.tolist(),
        "sv_labels": model.sv_labels.tolist(),
        "sv_indices": model.sv_indices.tolist(),
        "norm_w": model.norm_w,
    }


def _svm_restore(payload: dict[str, Any]) -> SvmModel:
    rows = payload["sv_rows"]
    sv_rows = np.asarray(rows, dtype=float) if rows else np.empty((0, 0))
    return SvmModel(
        config=SvmConfig(**payload["config"]),
        seed=payload["seed"],
        n_features=payload["n_features"],
        alphas=np.asarray(payload["alphas"], dtype=float),
        bias=float(payload["bias"]),
        sv_rows=sv_rows,
        sv_labels=np.asarray(payload["sv_labels"], dtype=float),
        sv_indices=np.asarray(payload["sv_indices"], dtype=int),
        norm_w=float(payload["norm_w"]),
        threshold=payload["threshold"],
    )


def _matrix_payload(data: DatasetMatrix) -> dict[str, Any]:
    X = data.X.tocoo() if sp.issparse(data.X) else sp.coo_matrix(data.X)
    payload = {
        "shape": list(X.shape),
        "rows": X.row.tolist(),
        "cols": X.col.tolist(),
        "vals": X.data.tolist(),
        "labels": data.y.tolist(),
        "ids": list(data.ids),
        "vocab": None,
    }
    if data.vocab is not None:
        payload["vocab"] = {
            "keys": list(data.vocab.keys),
            "masses": list(data.vocab.masses),
        }
    return payload


def _matrix_restore(payload: dict[str, Any]) -> DatasetMatrix:
    X = sp.csr_matrix(
        (payload["vals"], (payload["rows"], payload["cols"])),
        shape=tuple(payload["shape"]),
        dtype=float,
    )
    vocab = None
    if payload["vocab"] is not None:
        vocab = FeatureVocabulary(
            tuple(payload["vocab"]["keys"]),
            tuple(payload["vocab"]["masses"]),
        )
    return DatasetMatrix(X, np.asarray(payload["labels"]), tuple(payload["ids"]), vocab)


_KINDS = {
    ForestModel: ("forest", _forest_payload),
    NetModel: ("net", _net_payload),
    SvmModel: ("svm", _svm_payload),
}

_RESTORERS = {
    "forest": _forest_restore,
    "net": _net_restore,
    "svm": _svm_restore,
}


def model_to_dict(model) -> dict[str, Any]:
    if isinstance(model, KernelizedModel):
        return {
            "format": FORMAT,
            "version": VERSION,
            "kind": "kernelized",
            "payload": {
                "kernel": model.kernel,
                "basis": _matrix_payload(model.basis),
                "inner": model_to_dict(model.inner),
            },
        }
    for cls, (kind, payload_fn) in _KINDS.items():
        if isinstance(model, cls):
            return {
                "format": FORMAT,
                "version": VERSION,
                "kind": kind,
                "payload": payload_fn(model),
            }
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(doc: dict[str, Any]):
    if doc.get("format") != FORMAT:
        raise ValueError("not a model file")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported model file version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind == "kernelized":
        payload = doc["payload"]
        return KernelizedModel(
            payload["kernel"],
            _matrix_restore(payload["basis"]),
            model_from_dict(payload["inner"]),
        )
    if kind not in _RESTORERS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _RESTORERS[kind](doc["payload"])


def save_model(stream: TextIO, model) -> None:
    json.dump(model_to_dict(model), stream, sort_keys=True, separators=(",", ":"))
    stream.write("\n")


def load_model(stream: TextIO):
    return model_from_dict(json.load(stream))
