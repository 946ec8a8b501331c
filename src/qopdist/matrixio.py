"""Matrices as JSON text documents.

A matrix document carries explicit dimensions and a row-major list of
[re, im] pairs, plus an optional kind tag ("state", "hermitian") that is
enforced on load.  A Kraus-set document wraps a list of operator matrices
together with the input and output dimensions.  Files are written as one
line of compact JSON with sorted keys; any JSON whitespace loads.  Floats
are written with Python's shortest round-trip repr, so load(save(x))
reproduces x exactly.  A path is a ``str``, ``bytes`` or ``os.PathLike``
(``config.checked_path``); an integer is never taken as a file descriptor.
"""

from __future__ import annotations

import json
import os
import stat
from itertools import chain
from typing import NoReturn

import numpy as np

from .channels import QuantumOperation
from .config import checked_index, checked_path
from .errors import MatrixFileError, ValidationError
from .linalg import as_complex_matrix, as_hermitian
from .states import DensityMatrix, as_state, validate_state

__all__ = [
    "KIND_HERMITIAN",
    "KIND_KRAUS_SET",
    "KIND_STATE",
    "doc_to_matrix",
    "load_hermitian",
    "load_kraus_set",
    "load_matrix",
    "load_state",
    "matrix_to_doc",
    "save_kraus_set",
    "save_matrix",
    "save_state",
]

KIND_STATE = "state"
KIND_HERMITIAN = "hermitian"
KIND_KRAUS_SET = "kraus_set"

# JSON numbers load as int or float; true and false load as bool.
_NUMBER_TYPES = frozenset((int, float))


def matrix_to_doc(mat, kind: str | None = None) -> dict:
    m = as_complex_matrix(mat)
    doc = {
        "dim_rows": int(m.shape[0]),
        "dim_cols": int(m.shape[1]),
        # Each complex128 is its two float64 parts side by side.
        "entries": m.reshape(-1, 1).view(np.float64).tolist(),
    }
    if kind is not None:
        doc["kind"] = kind
    return doc


def doc_to_matrix(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise MatrixFileError(f"matrix document must be an object, got {type(doc).__name__}")
    try:
        rows = checked_index("dim_rows", doc["dim_rows"], 1)
        cols = checked_index("dim_cols", doc["dim_cols"], 1)
        entries = doc["entries"]
    except (KeyError, ValidationError) as exc:
        raise MatrixFileError(f"malformed matrix document: {exc!r}") from exc
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise MatrixFileError(
            f"entry count {len(entries) if isinstance(entries, list) else '?'} "
            f"does not match {rows} x {cols}"
        )
    # One scan of the entries, one type check of all parts, one conversion;
    # the first bad entry is looked for only when one of them fails.
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in entries):
        _raise_bad_entry(entries)
    parts = list(chain.from_iterable(entries))
    if not _NUMBER_TYPES.issuperset(map(type, parts)):
        _raise_bad_entry(entries)
    try:
        flat = np.array(parts, dtype=np.float64)
    except OverflowError:
        _raise_bad_entry(entries)
    if not np.isfinite(flat).all():
        raise MatrixFileError("entries contain non-finite values")
    return flat.view(np.complex128).reshape(rows, cols)


def _raise_bad_entry(entries) -> NoReturn:
    """Raise the error of the first entry that is not a [re, im] pair of
    JSON numbers within the float range."""
    for i, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise MatrixFileError(f"entry {i} is not a [re, im] pair")
        if not _NUMBER_TYPES.issuperset(map(type, pair)):
            raise MatrixFileError(f"entry {i} has non-numeric parts")
        try:
            complex(*pair)
        except OverflowError as exc:
            raise MatrixFileError(f"entry {i} is outside the float range: {exc}") from exc
    raise MatrixFileError("entries are not [re, im] pairs of JSON numbers")


def _read_doc(path) -> dict:
    try:
        with open(checked_path(path), encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MatrixFileError(f"{path}: top-level value must be an object")
    return doc


def _open_in_place(path, flags: int) -> int:
    """``open`` opener that creates a missing file but does not truncate an
    existing one."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_doc(path, doc: dict) -> None:
    """Overwrite ``path`` with the document's text in place.

    The C encoder (no indent) builds the whole text before the file is
    opened, so an encoding error leaves an existing file untouched.  The
    file is not truncated at open: truncating a non-empty file costs a
    flush of its old blocks on some filesystems (ext4's auto_da_alloc).
    A regular file that was longer than the new text is cut to its length
    after the write; devices and pipes cannot be truncated and need not be.
    """
    data = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    try:
        with open(checked_path(path), "wb", opener=_open_in_place) as fh:
            old = os.fstat(fh.fileno())
            fh.write(data)
            if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
                fh.truncate()
    except OSError as exc:
        raise MatrixFileError(f"cannot write {path}: {exc}") from exc


def save_matrix(path, mat, kind: str | None = None) -> None:
    _write_doc(path, matrix_to_doc(mat, kind=kind))


def save_state(path, state) -> None:
    """Save a state; a raw operand goes through ``as_state``, so a non-state writes nothing."""
    save_matrix(path, as_state(state).mat, kind=KIND_STATE)


def load_matrix(path):
    """Load any plain matrix document; returns (matrix, kind-or-None)."""
    doc = _read_doc(path)
    kind = doc.get("kind")
    if kind == KIND_KRAUS_SET:
        raise MatrixFileError(f"{path}: kraus_set document where a single matrix was expected")
    if kind not in (None, KIND_STATE, KIND_HERMITIAN):
        raise MatrixFileError(f"{path}: unknown kind {kind!r}")
    return doc_to_matrix(doc), kind


def load_state(path) -> DensityMatrix:
    """Load a density matrix, enforcing the state validations."""
    mat, kind = load_matrix(path)
    if kind == KIND_HERMITIAN:
        raise MatrixFileError(f"{path}: kind 'hermitian' where a state was expected")
    try:
        return validate_state(mat)
    except ValidationError as exc:
        raise MatrixFileError(f"{path}: not a valid state: {exc}") from exc


def load_hermitian(path) -> np.ndarray:
    """Load a Hermitian matrix (kind 'hermitian', 'state', or untagged)."""
    mat, _ = load_matrix(path)
    try:
        return as_hermitian(mat)
    except ValidationError as exc:
        raise MatrixFileError(f"{path}: not Hermitian: {exc}") from exc


def save_kraus_set(path, op: QuantumOperation) -> None:
    doc = {
        "kind": KIND_KRAUS_SET,
        "dim_in": op.dim_in,
        "dim_out": op.dim_out,
        "operators": [matrix_to_doc(e) for e in op.kraus],
    }
    _write_doc(path, doc)


def load_kraus_set(path) -> QuantumOperation:
    doc = _read_doc(path)
    if doc.get("kind") != KIND_KRAUS_SET:
        raise MatrixFileError(f"{path}: expected kind 'kraus_set', got {doc.get('kind')!r}")
    try:
        dim_in = checked_index("dim_in", doc["dim_in"], 1)
        dim_out = checked_index("dim_out", doc["dim_out"], 1)
        operators = doc["operators"]
    except (KeyError, ValidationError) as exc:
        raise MatrixFileError(f"{path}: malformed kraus_set: {exc!r}") from exc
    if not isinstance(operators, list) or not operators:
        raise MatrixFileError(f"{path}: kraus_set needs a nonempty operator list")
    mats = []
    for i, sub in enumerate(operators):
        m = doc_to_matrix(sub)
        if m.shape != (dim_out, dim_in):
            raise MatrixFileError(
                f"{path}: operator {i} has shape {m.shape}, expected ({dim_out}, {dim_in})"
            )
        mats.append(m)
    try:
        return QuantumOperation(mats)
    except ValidationError as exc:
        raise MatrixFileError(f"{path}: not a valid operation: {exc}") from exc
