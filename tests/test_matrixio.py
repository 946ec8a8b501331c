"""Tests for the JSON matrix-file format, and the README examples run as
written."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qopdist.channels import QuantumOperation
from qopdist.errors import MatrixFileError
from qopdist.matrixio import (
    doc_to_matrix,
    load_kraus_set,
    load_matrix,
    load_state,
    matrix_to_doc,
    save_kraus_set,
    save_matrix,
    save_state,
)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    path = tmp_path / "m.json"
    save_matrix(path, m)
    loaded, kind = load_matrix(path)
    assert kind is None
    assert np.max(np.abs(loaded - m)) == 0.0


def test_state_round_trip(tmp_path):
    rho = np.diag([0.25, 0.75]).astype(complex)
    path = tmp_path / "rho.json"
    save_state(path, rho)
    loaded = load_state(path)
    assert np.max(np.abs(loaded.mat - rho)) < 1e-15
    # the kind tag is present in the document
    doc = json.loads(path.read_text())
    assert doc["kind"] == "state"


def test_save_is_deterministic(tmp_path):
    m = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(p1, m)
    save_matrix(p2, m)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_state_rejects_invalid_state(tmp_path):
    path = tmp_path / "bad.json"
    save_matrix(path, np.diag([0.9, 0.9]).astype(complex), kind="state")
    with pytest.raises(MatrixFileError):
        load_state(path)


def test_load_state_rejects_hermitian_kind(tmp_path):
    path = tmp_path / "h.json"
    save_matrix(path, np.diag([1.0, 0.0]).astype(complex), kind="hermitian")
    with pytest.raises(MatrixFileError):
        load_state(path)


def test_load_matrix_rejects_kraus_kind(tmp_path):
    path = tmp_path / "k.json"
    save_kraus_set(path, QuantumOperation([np.eye(2, dtype=complex)]))
    with pytest.raises(MatrixFileError):
        load_matrix(path)


def test_kraus_round_trip(tmp_path):
    eye3 = np.eye(3, dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    op = QuantumOperation([np.outer(eye2[:, i], eye3[:, i]) for i in range(2)])
    path = tmp_path / "op.json"
    save_kraus_set(path, op)
    loaded = load_kraus_set(path)
    assert loaded.dim_in == 3 and loaded.dim_out == 2
    assert np.max(np.abs(loaded.t_op - op.t_op)) < 1e-15


def test_kraus_shape_mismatch(tmp_path):
    path = tmp_path / "op.json"
    save_kraus_set(path, QuantumOperation([np.eye(2, dtype=complex)]))
    doc = json.loads(path.read_text())
    doc["dim_out"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(MatrixFileError):
        load_kraus_set(path)


def test_missing_file():
    with pytest.raises(MatrixFileError):
        load_matrix("/nonexistent/nowhere.json")


def test_malformed_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(MatrixFileError):
        load_matrix(path)


def test_doc_validation():
    good = matrix_to_doc(np.eye(2))
    assert doc_to_matrix(good).shape == (2, 2)
    with pytest.raises(MatrixFileError):
        doc_to_matrix("not a dict")
    with pytest.raises(MatrixFileError):
        doc_to_matrix({"dim_rows": 2, "dim_cols": 2})  # no entries
    bad = dict(good)
    bad["entries"] = good["entries"][:-1]
    with pytest.raises(MatrixFileError):
        doc_to_matrix(bad)  # entry count mismatch
    bad = dict(good)
    bad["entries"] = [[1.0] for _ in range(4)]
    with pytest.raises(MatrixFileError):
        doc_to_matrix(bad)  # entries must be [re, im] pairs
    bad = dict(good)
    bad["entries"] = [[float("nan"), 0.0]] + good["entries"][1:]
    with pytest.raises(MatrixFileError):
        doc_to_matrix(bad)  # non-finite entry
    with pytest.raises(MatrixFileError):
        doc_to_matrix({"dim_rows": 0, "dim_cols": 2, "entries": []})


def _matrix_text(rows="2", cols="2", entries="[[1, 0], [0, 0], [0, 0], [1, 0]]"):
    return f'{{"dim_rows": {rows}, "dim_cols": {cols}, "entries": {entries}}}'


# JSON text of a document dimension that is not an integer >= 1.
BAD_DIMS = ("2.9", '"2"', "true", "1e400", "0")
# test id: (a matrix document as JSON text, what the error says)
BAD_MATRIX_TEXTS = {
    **{f"dim_rows={v}": (_matrix_text(rows=v), "dim_rows must be") for v in BAD_DIMS},
    **{f"dim_cols={v}": (_matrix_text(cols=v), "dim_cols must be") for v in BAD_DIMS},
    "true-real-part": (_matrix_text(1, 1, "[[true, 0]]"), "non-numeric"),
    "401-digit-real-part": (_matrix_text(1, 1, f"[[1{'0' * 400}, 0]]"), "float range"),
}


@pytest.mark.parametrize("name", BAD_MATRIX_TEXTS)
def test_bad_matrix_documents_rejected(tmp_path, name):
    """A dimension that is not an integer >= 1, and an entry part that is a
    flag or beyond the float range, raise MatrixFileError: none is
    truncated, parsed from text or taken from a flag."""
    text, message = BAD_MATRIX_TEXTS[name]
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(MatrixFileError, match=message):
        load_matrix(path)


@pytest.mark.parametrize("field", ["dim_in", "dim_out"])
@pytest.mark.parametrize("value", [2.9, "2", True, float("inf"), 0])
def test_bad_kraus_set_dimensions_rejected(tmp_path, field, value):
    path = tmp_path / "op.json"
    save_kraus_set(path, QuantumOperation([np.eye(2, dtype=complex)]))
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(MatrixFileError, match=f"{field} must be"):
        load_kraus_set(path)


def test_entries_are_row_major():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    doc = matrix_to_doc(m)
    assert doc["entries"][1] == [2.0, 0.0]
    assert doc["entries"][2] == [3.0, 0.0]


def test_readme_python_example_runs():
    """The Python API example in README.md runs as written."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_readme_example_loads(tmp_path):
    """The matrix document shown in README.md is accepted as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    path = tmp_path / "example.json"
    path.write_text(blocks[0], encoding="utf-8")
    rho = load_state(path)
    assert np.max(np.abs(rho.mat - np.diag([0.9, 0.1]))) < 1e-15
