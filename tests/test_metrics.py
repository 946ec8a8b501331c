"""Tests for the distance family: trace, fidelity, sine, angle, qubit gap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qopdist.errors import DimensionMismatchError, ValidationError
from qopdist.linalg import hermitian_part, random_hermitian
from qopdist.metrics import (
    QubitGapPoint,
    angle,
    check_fvdg_bounds,
    fidelity,
    max_qubit_gap,
    qubit_gap,
    sine_distance,
    trace_distance,
)
from qopdist.states import PAULI, from_bloch, random_density

E0 = np.diag([1.0, 0.0]).astype(complex)
E1 = np.diag([0.0, 1.0]).astype(complex)
MIX = np.diag([0.75, 0.25]).astype(complex)


def test_trace_distance_frozen_values():
    assert abs(trace_distance(E0, E1) - 1.0) < 1e-14
    assert trace_distance(E0, E0) == 0.0
    assert abs(trace_distance(E0, MIX) - 0.25) < 1e-14


def test_trace_distance_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        trace_distance(E0, np.eye(3) / 3)


def test_trace_distance_hermitian_inputs():
    """The metric extends to plain Hermitian operands."""
    a = np.diag([1.0, -2.0]).astype(complex)
    b = np.zeros((2, 2), dtype=complex)
    assert abs(trace_distance(a, b) - 1.5) < 1e-14
    assert abs(trace_distance(np.diag([1.0, -1.0]), b) - 1.0) < 1e-15
    assert abs(trace_distance(np.diag([0.5, -0.25]), b) - 0.375) < 1e-15


def test_fidelity_commuting():
    half = np.diag([0.5, 0.5]).astype(complex)
    assert abs(fidelity(half, MIX) - 0.9659258262890682) < 1e-12


def test_fidelity_pure_overlap():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a = random_density(4, 1, rng)
        b = random_density(4, 1, rng)
        va = np.linalg.eigh(a.mat)[1][:, -1]
        vb = np.linalg.eigh(b.mat)[1][:, -1]
        assert abs(fidelity(a, b) - abs(np.vdot(va, vb))) < 1e-12


def test_fidelity_extremes():
    assert abs(fidelity(E0, E0) - 1.0) < 1e-14
    assert fidelity(E0, E1) < 1e-12


def test_sine_angle_consistency():
    rng = np.random.default_rng(22)
    for _ in range(20):
        rho = random_density(3, 2, rng)
        sig = random_density(3, 3, rng)
        f = fidelity(rho, sig)
        assert abs(angle(rho, sig) - np.arccos(f)) < 1e-12
        assert abs(sine_distance(rho, sig) - np.sin(angle(rho, sig))) < 1e-12


def test_sine_equals_trace_on_pure_pairs():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = random_density(3, 1, rng)
        b = random_density(3, 1, rng)
        assert abs(sine_distance(a, b) - trace_distance(a, b)) < 1e-10


def test_fidelity_exact_on_pure_against_full_rank():
    """F(psi, sigma) = sqrt(<psi|sigma|psi>) to 1e-12, in both argument
    orders: the round-off eigenvalues on the pure state's kernel must not
    reach the nuclear norm through their square roots."""
    rng = np.random.default_rng(26)
    for dim in range(2, 7):
        for _ in range(100):
            rho = random_density(dim, 1, rng)
            sig = random_density(dim, dim, rng)
            psi = np.linalg.eigh(rho.mat)[1][:, -1]
            exact = np.sqrt(np.vdot(psi, sig.mat @ psi).real)
            assert abs(fidelity(rho, sig) - exact) <= 1e-12
            assert abs(fidelity(sig, rho) - exact) <= 1e-12


# -- stacks against closed forms --------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(2, 6)
N_PAIRS = 12


def _unitaries(rng, dim, n):
    """n random dim x dim unitaries, as a stack: the Q of complex Ginibre draws."""
    return np.linalg.qr(rng.standard_normal((n, dim, 2 * dim)).view(np.complex128))[0]


def _diagonal_in(u, p):
    """The stack u diag(p) u†."""
    return hermitian_part((u * p[:, None, :]) @ u.conj().transpose(0, 2, 1))


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, dim=DIMS)
def test_stacked_commuting_states(seed, dim):
    """Pairs diagonal in one random basis, of rank 1 up to full rank on
    random supports, and one pair of a state with itself:
    D = sum|p - q| / 2 and F = sum sqrt(pq).

    Nonzero weights are at least 0.05 before normalization: the square
    root turns the ~1e-16 rounding of an eigenvalue w into ~1e-16/sqrt(w),
    so the 1e-12 comparison needs w well above 1e-8."""
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, dim + 1, size=(2, N_PAIRS))
    ranks[:, 0] = 1, dim
    support = rng.permuted(np.arange(dim) < ranks[..., None], axis=2)
    w = rng.uniform(0.05, 1.0, size=support.shape) * support
    p, q = w / w.sum(axis=2, keepdims=True)
    q[1] = p[1]
    u = _unitaries(rng, dim, N_PAIRS)
    rhos, sigs = _diagonal_in(u, p), _diagonal_in(u, q)
    d = trace_distance(rhos, sigs)
    f = fidelity(rhos, sigs)
    assert d.shape == f.shape == (N_PAIRS,)
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert np.max(np.abs(d - 0.5 * np.abs(p - q).sum(axis=1))) <= 1e-12
    assert np.max(np.abs(f - np.sqrt(p * q).sum(axis=1))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, dim=DIMS)
def test_stacked_pure_pairs(seed, dim):
    """D = sqrt(1 - |<psi|phi>|^2) and F = |<psi|phi>| for pure pairs."""
    rng = np.random.default_rng(seed)
    psi, phi = _unitaries(rng, dim, N_PAIRS)[..., 0], _unitaries(rng, dim, N_PAIRS)[..., 0]
    rhos = hermitian_part(np.einsum("ni,nj->nij", psi, psi.conj()))
    sigs = hermitian_part(np.einsum("ni,nj->nij", phi, phi.conj()))
    overlap = np.abs(np.einsum("ni,ni->n", psi.conj(), phi))
    assert np.max(np.abs(trace_distance(rhos, sigs) - np.sqrt(1.0 - overlap**2))) <= 1e-12
    assert np.max(np.abs(fidelity(rhos, sigs) - overlap)) <= 1e-12


def _bloch_states(rng, n):
    """n qubit states (I + u.sigma)/2, a quarter of them pure, with their
    Bloch vectors and lengths."""
    u = rng.standard_normal((n, 3))
    length = np.where(rng.random(n) < 0.25, 1.0, rng.uniform(0.0, 1.0, n))
    u *= (length / np.linalg.norm(u, axis=1))[:, None]
    states = 0.5 * (np.eye(2) + np.einsum("nk,kij->nij", u, np.stack(PAULI)))
    return states, u, length


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_stacked_qubits(seed):
    """D = |u - v| / 2 from the Bloch vectors, and
    F^2 = tr(rho sigma) + 2 sqrt(det rho det sigma), with tr(rho sigma) =
    (1 + u.v)/2 and det rho = (1 - |u|^2)/4 taken from the drawn length
    (the determinant of the rounded matrix of a pure state is ~1e-17, and
    its square root alone would be off by 1e-8)."""
    rng = np.random.default_rng(seed)
    rhos, u, lu = _bloch_states(rng, N_PAIRS)
    sigs, v, lv = _bloch_states(rng, N_PAIRS)
    f_sq = 0.5 * (1.0 + np.einsum("nk,nk->n", u, v)) + 0.5 * np.sqrt((1.0 - lu**2) * (1.0 - lv**2))
    assert np.max(np.abs(trace_distance(rhos, sigs) - 0.5 * np.linalg.norm(u - v, axis=1))) <= 1e-12
    assert np.max(np.abs(fidelity(rhos, sigs) ** 2 - f_sq)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, dim=DIMS)
def test_stacked_metric_axioms_on_hermitian_operators(seed, dim):
    """On random Hermitian stacks: D(a, b) > 0, D(a, b) = D(b, a),
    D(a, a) = 0 and D(a, b) <= D(a, c) + D(c, b)."""
    rng = np.random.default_rng(seed)
    a, b, c = (np.stack([random_hermitian(dim, rng) for _ in range(N_PAIRS)]) for _ in range(3))
    d_ab = trace_distance(a, b)
    assert np.all(d_ab > 0.0)
    assert np.max(np.abs(d_ab - trace_distance(b, a))) <= 1e-12
    assert np.all(trace_distance(a, a) == 0.0)
    assert np.all(d_ab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12)


def test_fvdg_bounds_hold():
    rng = np.random.default_rng(24)
    for _ in range(50):
        rho = random_density(4, int(rng.integers(1, 5)), rng)
        sig = random_density(4, int(rng.integers(1, 5)), rng)
        rep = check_fvdg_bounds(rho, sig)
        assert rep.lower_ok and rep.upper_ok
        assert 1.0 - rep.fid <= rep.trace_dist + 1e-9
        assert rep.trace_dist <= rep.sine_dist + 1e-9


def test_qubit_gap_witness_value():
    assert abs(qubit_gap(1.0, 0.5, 1.0) - 0.25) < 1e-12


def test_qubit_gap_degenerate_points():
    assert abs(qubit_gap(0.0, 0.0, 1.0)) < 1e-12
    assert abs(qubit_gap(1.0, 1.0, 1.0)) < 1e-12


def test_qubit_gap_box_validation():
    with pytest.raises(ValidationError):
        qubit_gap(1.5, 0.0, 0.0)
    with pytest.raises(ValidationError):
        qubit_gap(0.5, 0.5, -1.5)


def test_qubit_gap_matches_states():
    """The closed form agrees with distances of actual Bloch states."""
    rng = np.random.default_rng(25)
    for _ in range(40):
        u, v = rng.uniform(0.0, 1.0, size=2)
        eta = rng.uniform(-1.0, 1.0)
        rho = from_bloch([0.0, 0.0, u])
        st = np.sqrt(1.0 - eta * eta)
        sig = from_bloch([v * st, 0.0, v * eta])
        gap = sine_distance(rho, sig) - trace_distance(rho, sig)
        assert abs(qubit_gap(u, v, eta) - gap) < 1e-10


def test_qubit_gap_point_cross_check():
    p = QubitGapPoint(1.0, 0.5, 1.0, 0.25)
    assert p.value == 0.25
    with pytest.raises(ValidationError):
        QubitGapPoint(1.0, 0.5, 1.0, 0.3)


def test_max_qubit_gap():
    point = max_qubit_gap()
    assert abs(point.value - 0.25) < 1e-4
    # maximizer sits on the pure-state edge
    assert point.u > 0.9 or point.v > 0.9
