"""Tests for the Hermitian linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qopdist.errors import NumericalError, ValidationError
from qopdist.linalg import (
    as_hermitian,
    bounded_max,
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


def _bounded_oracle(values, slack, scale):
    """bounded_max over exact ``values`` with estimates ``values + slack``,
    the bounds the contract derives from them, and the index blocks it
    evaluated, in order."""
    values = np.asarray(values)
    estimate = values + np.asarray(slack)
    blocks = []

    def exact(block):
        blocks.append(block)
        return values[block]

    bound = estimate + 1e-9 * np.abs(estimate) + 1e-12 * scale
    return bounded_max(estimate, exact, scale), bound, blocks


@st.composite
def oracles(draw):
    """Exact values (spread out, or on three levels, so that bounds and
    values tie), slacks >= 0 (zero for some members, so estimates are
    exact) and a scale (zero for some oracles, so only the relative margin
    is left)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    values = rng.integers(0, 3, size=n).astype(float) if draw(st.booleans()) else 100.0 * rng.normal(size=n)
    slack = rng.exponential(draw(st.sampled_from([0.0, 0.1, 10.0, 1e3])), size=n) * (rng.random(n) < 0.7)
    return values, slack, draw(st.sampled_from([0.0, 1.0, 1e3]))


@settings(max_examples=200, deadline=None)
@given(oracle=oracles())
def test_bounded_max_is_the_largest_exact_value(oracle):
    best, _, _ = _bounded_oracle(*oracle)
    assert best == max(oracle[0])


@settings(max_examples=200, deadline=None)
@given(oracle=oracles())
def test_bounded_max_visits_only_members_that_can_still_set_the_maximum(oracle):
    """Each member is evaluated at most once; every member whose bound is
    above the maximum is evaluated; and each evaluated member's bound is
    above the largest value of the blocks evaluated before its own, so
    after the first block only members that can still set the maximum are
    evaluated."""
    values = oracle[0]
    best, bound, blocks = _bounded_oracle(*oracle)
    seen = np.concatenate(blocks)
    assert len(seen) == len(set(seen.tolist()))
    assert set(np.flatnonzero(bound > best).tolist()) <= set(seen.tolist())
    found = -np.inf
    for block in blocks:
        assert block.size and (bound[block] > found).all()
        found = max(found, max(values[i] for i in block))
    assert blocks[0].tolist() == np.argsort(-bound, kind="stable")[:16].tolist()


@pytest.mark.parametrize("estimate", [[], np.zeros((2, 2)), [0.0, np.nan]])
def test_bounded_max_rejects_an_empty_or_malformed_oracle(estimate):
    with pytest.raises(ValidationError):
        bounded_max(estimate, lambda block: np.zeros(len(block)), 1.0)


@pytest.mark.parametrize(
    "estimate, values, bad",
    [
        # NaN in the first block of 16, the maximum 0.3 in the second.
        ([1.0] * 16 + [0.5] * 4, [np.nan] + [0.0] * 15 + [0.3] * 4, "nan"),
        # An estimate below its exact value by more than the margin.
        ([0.5, 0.2], [0.5 + 1e-6, 0.1], "0.500001"),
    ],
    ids=["nan", "above"],
)
def test_bounded_max_raises_on_an_exact_value_above_its_bound(estimate, values, bad):
    """A NaN or an exact value above its bound is a failed evaluation or a
    wrong estimate, which raises naming the value instead of being dropped
    or trusted."""
    with pytest.raises(NumericalError, match=f"exact value {bad}"):
        bounded_max(estimate, lambda block: np.asarray(values)[block], 1.0)
