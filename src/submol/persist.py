"""Self-describing model files.

A model file is a versioned JSON container that names the model's kind,
holds its payload and records the sha256 of the vocabulary whose columns
the model was trained on, so ``report`` can refuse rows of another
vocabulary whatever the kind.  The payload is the model's dataclass fields:
nested dataclasses become objects, arrays become nested lists, a CSR matrix
becomes ``{shape, indptr, indices, data}``, and a model held in a field
(annotated ``Any``) becomes ``{kind, payload}`` like the file itself.
Loading rebuilds every field from its annotation, so a field added to or
dropped from a model changes its files with no edit here.  All floats go
through Python's shortest round-trip repr, so save -> load -> save
reproduces the file byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
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
VERSION = 4

_MODELS = {"forest": ForestModel, "kernelized": KernelizedModel, "net": NetModel, "svm": SvmModel}


@functools.cache
def _fields(cls) -> dict[str, Any]:
    """Field name -> resolved annotation for a dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _numbers(values: np.ndarray) -> list:
    """Stored CSR values as JSON numbers: integers when every value is a
    whole number below 2**53 in magnitude, which read back as the same
    floats (``-0.0`` keeps its float text), else floats."""
    if np.all(np.abs(values) < 2.0**53):
        whole = values.astype(np.int64)
        if np.array_equal(whole.astype(float).view(np.uint64), values.view(np.uint64)):
            return whole.tolist()
    return values.tolist()


def _encode(tp, value):
    """The JSON form of a value of annotated type ``tp``."""
    if tp is Any:  # a model held in a field
        return _model_doc(value)
    if dataclasses.is_dataclass(value):
        return {name: _encode(hint, getattr(value, name))
                for name, hint in _fields(type(value)).items()}
    if sp.issparse(value):
        return {
            "shape": list(value.shape),
            "indptr": value.indptr.tolist(),
            "indices": value.indices.tolist(),
            "data": _numbers(value.data),
        }
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        item = typing.get_args(tp)[0]
        return [_encode(item, v) for v in value]
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
    if tp is Any:  # a model held in a field
        return _model(value)
    if dataclasses.is_dataclass(tp):
        fields = _fields(tp)
        if not isinstance(value, dict):
            raise TypeError(f"{tp.__name__} must be an object")
        if value.keys() != fields.keys():
            missing = sorted(fields.keys() - value.keys())
            unknown = sorted(value.keys() - fields.keys())
            raise ValueError(f"{tp.__name__} missing keys {missing}, unknown keys {unknown}")
        return tp(**{name: _decode(hint, value[name]) for name, hint in fields.items()})
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


def _model_doc(model) -> dict[str, Any]:
    """``{kind, payload}`` of a model."""
    kind = next((k for k, cls in _MODELS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return {"kind": kind, "payload": _encode(type(model), model)}


def _model(doc):
    """A model from its ``{kind, payload}``; a malformed one raises ValueError."""
    if not isinstance(doc, dict):
        raise TypeError("a model must be an object")
    kind = doc.get("kind")
    if not (isinstance(kind, str) and kind in _MODELS):
        raise ValueError(f"unknown model kind {kind!r}")
    try:
        return _decode(_MODELS[kind], doc["payload"])
    except KeyError as exc:
        raise ValueError(f"malformed {kind} model: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} model: {exc}") from exc


def model_to_dict(saved) -> dict[str, Any]:
    """The file document of ``(model, vocab_sha256)``."""
    model, vocab_sha256 = saved
    return {"format": FORMAT, "version": VERSION, "vocab_sha256": vocab_sha256,
            **_model_doc(model)}


def model_from_dict(doc):
    """``(model, vocab_sha256)`` of a file document; a malformed one raises
    ValueError."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError("not a model file")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported model file version {doc.get('version')!r}")
    vocab_sha256 = doc.get("vocab_sha256")
    if not (isinstance(vocab_sha256, str) and re.fullmatch("[0-9a-f]{64}", vocab_sha256)):
        raise ValueError("vocab_sha256 must be 64 lowercase hex digits")
    return _model(doc), vocab_sha256


def save_model(stream: TextIO, saved) -> None:
    """Write ``(model, vocab_sha256)`` as one line of JSON.

    ``json.dumps`` encodes the whole document in C; ``json.dump`` never
    does, and writes it piece by piece from Python.
    """
    stream.write(json.dumps(model_to_dict(saved), sort_keys=True, separators=(",", ":")))
    stream.write("\n")


def load_model(stream: TextIO):
    """``(model, vocab_sha256)`` from a model file."""
    return model_from_dict(json.load(stream))
