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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qopdist.channels import QuantumOperation
from qopdist.errors import MatrixFileError, ValidationError
from qopdist.maximizers import MaximizerMode, build_maximizing_operation
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
from qopdist.states import validate_state


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
    assert np.array_equal(loaded.mat, rho)
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


def _kraus_operation():
    """A 3 -> 2 operation with two Kraus operators |i><i|."""
    eye3 = np.eye(3, dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    return QuantumOperation([np.outer(eye2[:, i], eye3[:, i]) for i in range(2)])


def test_kraus_round_trip(tmp_path):
    op = _kraus_operation()
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
    **{
        f"entry-2-{name}": (_matrix_text(entries=f"[[1, 0], [0, 0], {entry}, [1, 0]]"), message)
        for name, entry, message in (
            ("string-part", '["0.5", 0]', "entry 2 has non-numeric parts"),
            ("null-part", "[0, null]", "entry 2 has non-numeric parts"),
            ("three-parts", "[0, 0, 0]", r"entry 2 is not a \[re, im\] pair"),
            ("nested-part", "[[0, 0], 0]", "entry 2 has non-numeric parts"),
        )
    },
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


# -- bit-exact round trips and the file layout ----------------------------------

SEEDS = st.integers(0, 2**32 - 1)
MODES = [MaximizerMode.ON_Q, MaximizerMode.ON_R]
# Parts whose bits a text format can lose: signed zeros, the smallest
# subnormal, the largest finite magnitudes and a tiny normal.
EDGE_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1e-300, -1e-300])
RAW_MATRICES = arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 4).map(lambda cols: 2 * cols)),
    elements=st.one_of(EDGE_PARTS, st.floats(allow_nan=False, allow_infinity=False)),
).map(lambda parts: parts.view(np.complex128))


def _ginibre_state(rng, dim):
    """A state as a caller outside the library holds it: a random-rank
    Ginibre matrix divided by its trace."""
    rank = int(rng.integers(1, dim + 1))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=SEEDS, dim=st.integers(1, 6), dim_out=st.integers(1, 4), mode=st.sampled_from(MODES))
def test_states_and_kraus_sets_round_trip_bit_exactly(tmp_path, seed, dim, dim_out, mode):
    rng = np.random.default_rng(seed)
    rho, sigma = (validate_state(_ginibre_state(rng, dim)) for _ in range(2))
    path = tmp_path / "x.json"
    save_state(path, rho)
    assert _same_bits(load_state(path).mat, rho.mat)
    if dim > 1:  # a 1-dimensional state space holds one state, so no pair
        op = build_maximizing_operation(rho, sigma, dim_out, mode)
        save_kraus_set(path, op)
        back = load_kraus_set(path)
        assert len(back.kraus) == len(op.kraus)
        assert all(_same_bits(a, b) for a, b in zip(back.kraus, op.kraus))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=RAW_MATRICES)
def test_raw_matrices_keep_every_bit(tmp_path, m):
    """Every part keeps its bits through a file, the sign of zero included,
    and the document holds the floats an entry-by-entry encoder gives."""
    doc = matrix_to_doc(m)
    reference = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    assert json.dumps(doc["entries"]) == json.dumps(reference)
    path = tmp_path / "m.json"
    save_matrix(path, m)
    loaded, kind = load_matrix(path)
    assert kind is None and _same_bits(loaded, m)


def _kraus_set_doc(op):
    return {
        "kind": "kraus_set",
        "dim_in": op.dim_in,
        "dim_out": op.dim_out,
        "operators": [matrix_to_doc(e) for e in op.kraus],
    }


def _compact_bytes(doc):
    """The bytes a save must write for ``doc``: one line of compact JSON
    with sorted keys, in UTF-8."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


# save function, its input, the document it must write, the matrices a load gives
SAVES = {
    "save_matrix": (
        save_matrix,
        np.array([[0.5, -0.0], [1e-300, 1.7e308j]]),
        matrix_to_doc,
        lambda path: [load_matrix(path)[0]],
    ),
    "save_state": (
        save_state,
        np.diag([0.25, 0.75]).astype(complex),
        lambda m: matrix_to_doc(m, kind="state"),
        lambda path: [load_state(path).mat],
    ),
    "save_kraus_set": (save_kraus_set, _kraus_operation(), _kraus_set_doc, lambda path: load_kraus_set(path).kraus),
}


@pytest.mark.parametrize("name", SAVES)
def test_saves_write_one_line_of_the_document(tmp_path, name):
    save, value, expected_doc, _ = SAVES[name]
    path = tmp_path / "x.json"
    save(path, value)
    assert path.read_bytes() == _compact_bytes(expected_doc(value))


@pytest.mark.parametrize("name", SAVES)
def test_indented_files_load_as_written_ones(tmp_path, name):
    """A file with the indented layout of earlier releases loads to the
    same matrices as a file written now."""
    save, value, expected_doc, load = SAVES[name]
    new, indented = tmp_path / "new.json", tmp_path / "indented.json"
    save(new, value)
    with open(indented, "w", encoding="utf-8") as fh:
        json.dump(expected_doc(value), fh, sort_keys=True, indent=1)
        fh.write("\n")
    pairs = list(zip(load(indented), load(new), strict=True))
    assert pairs and all(_same_bits(a, b) for a, b in pairs)


@pytest.mark.parametrize("name", SAVES)
def test_shorter_save_over_a_longer_file_leaves_no_tail(tmp_path, name):
    save, value, expected_doc, load = SAVES[name]
    path = tmp_path / "x.json"
    path.write_text(json.dumps(expected_doc(value), indent=4) + "\n" + " " * 4096, encoding="utf-8")
    save(path, value)
    assert path.read_bytes() == _compact_bytes(expected_doc(value))
    fresh = tmp_path / "fresh.json"
    save(fresh, value)
    pairs = list(zip(load(path), load(fresh), strict=True))
    assert pairs and all(_same_bits(a, b) for a, b in pairs)


@pytest.mark.parametrize("name", SAVES)
def test_save_through_a_symlink_updates_its_target(tmp_path, name):
    save, value, expected_doc, _ = SAVES[name]
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 8192, encoding="utf-8")
    link.symlink_to(target)
    save(link, value)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == _compact_bytes(expected_doc(value))


@pytest.mark.parametrize("name", SAVES)
def test_save_to_devnull(name):
    save, value, _, _ = SAVES[name]
    save(os.devnull, value)


@pytest.mark.parametrize("name", ["save_matrix", "save_state"])
def test_rejected_save_leaves_an_existing_file_untouched(tmp_path, name):
    save, value, _, _ = SAVES[name]
    path = tmp_path / "x.json"
    save(path, value)
    before = path.read_bytes()
    bad = value.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError, match="NaN"):
        save(path, bad)
    assert path.read_bytes() == before


def test_unwritable_path_raises_matrix_file_error(tmp_path):
    path = tmp_path / "no" / "x.json"
    with pytest.raises(MatrixFileError, match=re.escape(f"cannot write {path}")):
        save_matrix(path, np.eye(2))
