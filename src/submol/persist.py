"""Self-describing model files.

Models serialize to a versioned JSON container whose payload is the model's
dataclass fields: nested dataclasses become objects, arrays become nested
lists, and a CSR matrix becomes ``{shape, indptr, indices, data}``.
Loading rebuilds every field from its annotation, so a field added to or
dropped from a model changes its files with no edit here.  The one
exception is the kernelized model, whose payload holds its basis matrix,
its basis columns' blocks and vocabulary fingerprint, and its inner model's
whole document.  All floats go through Python's shortest round-trip repr, so
save -> load -> save reproduces the file byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from typing import Any, TextIO

import numpy as np
import scipy.sparse as sp

from .forest import ForestModel
from .kernels import KernelizedModel
from .neural import NetModel
from .svm import SvmModel

FORMAT = "submol-model"
VERSION = 3

_MODELS = {"forest": ForestModel, "net": NetModel, "svm": SvmModel}

#: Fields stored under another key: (class, field name) -> file key.
_FILE_KEYS = {(NetModel, "kind"): "net_kind"}


@functools.cache
def _fields(cls) -> dict[str, tuple[str, Any]]:
    """File key -> (field name, resolved annotation) for a dataclass."""
    hints = typing.get_type_hints(cls)
    return {
        _FILE_KEYS.get((cls, f.name), f.name): (f.name, hints[f.name])
        for f in dataclasses.fields(cls)
    }


def _encode(value):
    if dataclasses.is_dataclass(value):
        fields = _fields(type(value))
        return {key: _encode(getattr(value, name)) for key, (name, _) in fields.items()}
    if sp.issparse(value):
        return {
            "shape": list(value.shape),
            "indptr": value.indptr.tolist(),
            "indices": value.indices.tolist(),
            "data": value.data.tolist(),
        }
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_encode(item) for item in value]
    return value


def _array(value, dtype) -> np.ndarray:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    array = np.asarray(value)
    if np.dtype(dtype).kind in "iu" and array.size and array.dtype.kind not in "iu":
        raise ValueError(f"expected integers, got {array.dtype} values")
    return array.astype(dtype, copy=False)


def _csr(value) -> sp.csr_matrix:
    """A CSR matrix from its JSON form, every index checked."""
    if not isinstance(value, dict):
        raise TypeError("a sparse matrix must be an object")
    if value.keys() != {"shape", "indptr", "indices", "data"}:
        raise ValueError(f"sparse matrix has keys {sorted(value)}")
    shape = value["shape"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"bad sparse matrix shape {shape!r}")
    matrix = sp.csr_matrix(
        (_array(value["data"], float), _array(value["indices"], np.int64),
         _array(value["indptr"], np.int64)),
        shape=tuple(shape),
    )
    matrix.check_format(full_check=True)
    return matrix


def _decode(tp, value):
    """Rebuild a value of annotated type ``tp`` from its JSON form."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        fields = _fields(tp)
        if not isinstance(value, dict):
            raise TypeError(f"{tp.__name__} must be an object")
        if value.keys() != fields.keys():
            missing = sorted(fields.keys() - value.keys())
            unknown = sorted(value.keys() - fields.keys())
            raise ValueError(f"{tp.__name__} missing keys {missing}, unknown keys {unknown}")
        return tp(**{name: _decode(hint, value[key]) for key, (name, hint) in fields.items()})
    if tp is sp.csr_matrix:
        return _csr(value)
    if origin is np.ndarray:  # NDArray[dtype]
        return _array(value, typing.get_args(args[1])[0])
    if origin is list:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return [_decode(args[0], item) for item in value]
    if origin is types.UnionType and value is not None:
        return _decode(args[0], value)  # X | None decodes as X; scalars pass through
    return value


_KERNELIZED_KEYS = {"kernel", "basis", "block_ids", "vocab_sha256", "inner"}


def model_to_dict(model) -> dict[str, Any]:
    if isinstance(model, KernelizedModel):
        kind = "kernelized"
        payload = {
            "kernel": model.kernel,
            "basis": _encode(model.basis),
            "block_ids": _encode(model.block_ids),
            "vocab_sha256": model.vocab_sha256,
            "inner": model_to_dict(model.inner),
        }
    else:
        kind = next((k for k, cls in _MODELS.items() if isinstance(model, cls)), None)
        if kind is None:
            raise TypeError(f"cannot serialize model of type {type(model).__name__}")
        payload = _encode(model)
    return {"format": FORMAT, "version": VERSION, "kind": kind, "payload": payload}


def model_from_dict(doc):
    """Rebuild a model; a malformed document raises ValueError."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError("not a model file")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported model file version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind not in (*_MODELS, "kernelized"):
        raise ValueError(f"unknown model kind {kind!r}")
    try:
        payload = doc["payload"]
        if kind != "kernelized":
            return _decode(_MODELS[kind], payload)
        if not isinstance(payload, dict) or payload.keys() != _KERNELIZED_KEYS:
            raise ValueError(f"payload must be an object with keys {sorted(_KERNELIZED_KEYS)}")
        block_ids = payload["block_ids"]
        return KernelizedModel(
            payload["kernel"],
            _csr(payload["basis"]),
            None if block_ids is None else _array(block_ids, np.intp),
            payload["vocab_sha256"],
            model_from_dict(payload["inner"]),
        )
    except KeyError as exc:
        raise ValueError(f"malformed {kind} model: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} model: {exc}") from exc


def save_model(stream: TextIO, model) -> None:
    """Write the model as one line of JSON.

    ``json.dumps`` encodes the whole document in C; ``json.dump`` never
    does, and writes it piece by piece from Python.
    """
    stream.write(json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":")))
    stream.write("\n")


def load_model(stream: TextIO):
    return model_from_dict(json.load(stream))
