"""Tests for the Hermitian linear-algebra helpers."""

import numpy as np
import pytest

from qopdist.errors import ValidationError
from qopdist.linalg import (
    as_hermitian,
    eig_hermitian,
    hermitian_part,
    projector_onto,
    psd_sqrt,
    random_hermitian,
    spectral_split,
)


def test_hermitian_part():
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    expected = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.max(np.abs(hermitian_part(a) - expected)) < 1e-15


def test_as_hermitian_rejects_skew():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError):
        as_hermitian(a)


def test_as_hermitian_accepts_drift():
    a = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 2e-14j, 2.0]])
    h = as_hermitian(a)
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_eig_hermitian_descending():
    h = np.diag([0.1, 0.9, 0.5])
    w, v = eig_hermitian(h)
    assert np.allclose(w, [0.9, 0.5, 0.1])
    # columns are the matching eigenvectors
    for k in range(3):
        assert np.max(np.abs(h @ v[:, k] - w[k] * v[:, k])) < 1e-14


def test_psd_sqrt_diagonal():
    assert np.max(np.abs(psd_sqrt(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0]))) < 1e-14


def test_psd_sqrt_squares_back():
    """One matrix at a time and as one stack of rank 1 to 4."""
    rng = np.random.default_rng(3)
    mats = []
    for k in range(20):
        g = rng.standard_normal((4, 1 + k % 4)) + 1j * rng.standard_normal((4, 1 + k % 4))
        m = g @ g.conj().T
        r = psd_sqrt(m)
        assert np.max(np.abs(r @ r - m)) < 1e-10 * np.max(np.abs(m))
        mats.append(m)
    for r, m in zip(psd_sqrt(np.stack(mats)), mats):
        assert np.max(np.abs(r @ r - m)) < 1e-10 * np.max(np.abs(m))


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ValidationError):
        psd_sqrt(np.diag([1.0, -0.5]))
    with pytest.raises(ValidationError, match="not PSD"):
        psd_sqrt(np.stack([np.eye(2), np.diag([1.0, -0.5])]))


def test_spectral_split_diagonal():
    """Positive and negative parts of a traceful diagonal difference."""
    delta = np.diag([0.5, -0.3, 0.0])
    split = spectral_split(delta)
    assert np.max(np.abs(split.q_mat - np.diag([0.5, 0.0, 0.0]))) < 1e-14
    assert np.max(np.abs(split.r_mat - np.diag([0.0, 0.3, 0.0]))) < 1e-14
    assert split.kernel_dim == 1
    assert split.dim == 3
    assert abs(float(np.trace(split.q_mat - split.r_mat).real) - 0.2) < 1e-14


def test_spectral_split_orthogonal_supports():
    rng = np.random.default_rng(11)
    for _ in range(25):
        delta = random_hermitian(5, rng)
        split = spectral_split(delta)
        assert np.max(np.abs(split.q_mat @ split.r_mat)) < 1e-10
        recon = split.q_mat - split.r_mat
        assert np.max(np.abs(recon - delta)) < 1e-10
        # q/r eigenvalues are strictly positive
        if split.q_vals.size:
            assert split.q_vals.min() > 0
        if split.r_vals.size:
            assert split.r_vals.min() > 0


def test_spectral_split_traceless_balance():
    """For a difference of two states the positive and negative parts carry
    equal weight."""
    rng = np.random.default_rng(12)
    g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g1 @ g1.conj().T
    rho /= np.trace(rho).real
    sig = g2 @ g2.conj().T
    sig /= np.trace(sig).real
    split = spectral_split(rho - sig)
    assert abs(split.q_vals.sum() - split.r_vals.sum()) < 1e-12


def test_projector_onto():
    vecs = np.eye(4)[:, :2]
    p = projector_onto(vecs, 4)
    assert np.max(np.abs(p @ p - p)) < 1e-14
    assert abs(np.trace(p).real - 2.0) < 1e-14


def test_projector_onto_rejects_nonorthonormal():
    vecs = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        projector_onto(vecs, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_projector_onto_rejects_non_finite_vectors(bad):
    with pytest.raises(ValidationError, match="NaN or Inf"):
        projector_onto(np.full((2, 1), bad), 2)


def test_trace_norm_half():
    """Half the trace norm is half the summed magnitudes of the split's two parts."""
    for delta, expected in ((np.diag([1.0, -1.0]), 1.0), (np.diag([0.5, -0.25]), 0.375)):
        split = spectral_split(delta)
        assert abs(0.5 * float(np.sum(split.q_vals) + np.sum(split.r_vals)) - expected) < 1e-15


def test_random_hermitian_is_hermitian():
    rng = np.random.default_rng(0)
    h = random_hermitian(6, rng)
    assert np.max(np.abs(h - h.conj().T)) == 0.0
