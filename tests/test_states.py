"""Tests for density-matrix construction and sampling."""

import copy
import pickle

import numpy as np
import pytest

from qopdist.channels import random_operation
from qopdist.errors import ValidationError
from qopdist.linalg import random_hermitian
from qopdist.maximizers import build_maximizing_operation
from qopdist.states import (
    DensityMatrix,
    bloch_of,
    from_bloch,
    from_spectrum,
    random_density,
    random_pairs_max_gap,
    validate_state,
)


def test_density_matrix_accepts_valid():
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert rho.dim == 2
    assert abs(rho.purity - (0.25**2 + 0.75**2)) < 1e-14


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.5, 0.9]).astype(complex))


def test_density_matrix_rejects_negative():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.1, -0.1]).astype(complex))


def test_density_matrix_rejects_nonhermitian():
    m = np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex)
    with pytest.raises(ValidationError):
        DensityMatrix(m)


def test_density_matrix_is_frozen():
    rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises((AttributeError, ValueError)):
        rho.mat[0, 0] = 0.0


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copied_state_has_a_read_only_matrix_and_holds_nothing(clone):
    """A copy wraps a read-only matrix with the original's bits and holds
    none of what the original derived, also for a stack."""
    rng = np.random.default_rng(8)
    rho, sig = random_density(3, 2, rng), random_density(3, 3, rng)
    build_maximizing_operation(rho, sig, 2)
    assert rho._held
    for state in (rho, random_density(3, np.array([1, 3]), rng)):
        twin = clone(state)
        assert type(twin) is DensityMatrix and twin is not state
        assert twin.mat.shape == state.mat.shape and twin.mat.dtype == state.mat.dtype
        assert twin.mat.tobytes() == state.mat.tobytes()
        assert not twin.mat.flags.writeable
        assert twin._held == {}


def test_states_compare_and_hash_by_identity():
    """Distinct states compare unequal without raising, a state keys a dict
    or a set, and a copy is another state."""
    rng = np.random.default_rng(9)
    a, b = random_density(3, 2, rng), random_density(3, 3, rng)
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1 and len({a, b, a}) == 2
    assert copy.copy(a) != a


def test_from_bloch_poles():
    up = from_bloch([0.0, 0.0, 1.0])
    assert np.max(np.abs(up.mat - np.diag([1.0, 0.0]))) < 1e-15
    plus = from_bloch([1.0, 0.0, 0.0])
    assert np.max(np.abs(plus.mat - 0.5 * np.ones((2, 2)))) < 1e-15


def test_from_bloch_rejects_outside_ball():
    with pytest.raises(ValidationError):
        from_bloch([0.8, 0.8, 0.8])


def test_bloch_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(30):
        u = rng.uniform(-1.0, 1.0, size=3)
        if np.linalg.norm(u) > 1.0:
            u /= np.linalg.norm(u) * 1.01
        v = bloch_of(from_bloch(u))
        assert np.max(np.abs(v - u)) < 1e-12


def test_random_pure_is_pure():
    rng = np.random.default_rng(9)
    for dim in (2, 3, 5):
        psi = random_density(dim, 1, rng)
        assert abs(psi.purity - 1.0) < 1e-12


def test_random_density_rank():
    rng = np.random.default_rng(10)
    rho = random_density(5, 2, rng)
    w = np.sort(np.linalg.eigvalsh(rho.mat))
    assert np.max(np.abs(w[:3])) < 1e-12
    assert w[3] > 1e-8


def test_random_density_bad_rank():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        random_density(3, 0, rng)
    with pytest.raises(ValidationError):
        random_density(3, 4, rng)


def test_validate_state_normalizes_drift():
    m = np.diag([0.5 + 4e-10, 0.5]).astype(complex)
    rho = validate_state(m)
    assert abs(float(np.trace(rho.mat).real) - 1.0) < 1e-14


def test_validate_state_rejects_beyond_tol():
    with pytest.raises(ValidationError):
        validate_state(np.diag([0.7, 0.5]).astype(complex))
    with pytest.raises(ValidationError):
        validate_state(np.diag([1.2, -0.2]).astype(complex))


def test_a_stack_of_states_has_dim_and_purity_per_state():
    rng = np.random.default_rng(11)
    mats = np.stack([random_density(3, r, rng).mat for r in (1, 2, 3)])
    stack = DensityMatrix(mats)
    assert stack.dim == 3
    purities = stack.purity
    assert purities.shape == (3,)
    for p, m in zip(purities, mats):
        assert abs(p - DensityMatrix(m).purity) < 1e-15
    assert abs(purities[0] - 1.0) < 1e-12


def test_random_density_batch_rejects_bad_ranks():
    rng = np.random.default_rng(0)
    for dim, ranks in ((3, [1, 0]), (3, [4]), (3, [[1]]), (0, np.array([], dtype=int))):
        with pytest.raises(ValidationError):
            random_density(dim, ranks, rng)


def test_random_density_takes_one_rank_or_an_array_of_them():
    """An integer rank gives one state (d, d); an array of ranks gives a
    stack (n, d, d).  Both forms share one body, so one state is drawn as
    the first row of a stack."""
    one = random_density(5, np.int64(3), np.random.default_rng(14))
    stack = random_density(5, np.array([3, 1]), np.random.default_rng(14))
    assert one.mat.shape == (5, 5) and stack.mat.shape == (2, 5, 5)
    assert not one.mat.flags.writeable and not stack.mat.flags.writeable
    assert np.array_equal(one.mat, stack.mat[0])


@pytest.mark.parametrize("dim", range(2, 7))
def test_random_density_purity_matches_the_induced_measure(dim):
    """Under the rank-k Hilbert-Schmidt-induced measure, E[tr rho^2] =
    (d + k) / (dk + 1) (Zyczkowski and Sommers 2001); rank 1 is pure."""
    rng = np.random.default_rng(dim)
    for k in range(1, dim + 1):
        purity = random_density(dim, np.full(4000, k), rng).purity
        expected = (dim + k) / (dim * k + 1)
        if k == 1:
            assert np.max(np.abs(purity - 1.0)) < 1e-12
        else:
            sem = purity.std(ddof=1) / np.sqrt(purity.size)
            assert abs(purity.mean() - expected) <= 4.0 * sem


def test_from_spectrum_builds_the_state_of_its_weights():
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    w = np.array([0.5, 0.3, 0.2])
    rho = from_spectrum(q[:, :3], w)
    assert not rho.mat.flags.writeable
    assert np.array_equal(DensityMatrix(rho.mat).mat, rho.mat)
    assert np.allclose(np.linalg.eigvalsh(rho.mat), [0.0, 0.2, 0.3, 0.5], atol=1e-15)


@pytest.mark.parametrize(
    "vectors, weights, match",
    [
        (np.eye(3)[:, :2], [0.5, 0.6], "weights must"),
        (np.eye(3)[:, :2], [1.1, -0.1], "weights must"),
        (np.eye(3)[:, :2], [1.0], "columns"),
        (np.eye(3)[:, :0], [], "weights must"),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), [0.5, 0.5], "orthonormal"),
        (np.full((2, 1), np.nan), [1.0], "orthonormal"),
        (np.eye(2)[:, :1], [np.nan], "weights must"),
    ],
)
def test_from_spectrum_rejects(vectors, weights, match):
    with pytest.raises(ValidationError, match=match):
        from_spectrum(vectors, weights)


def _operators(rng, dim):
    """A random Hermitian matrix, zero, a multiple of the identity and the
    T of a random operation."""
    return {
        "hermitian": random_hermitian(dim, rng),
        "zero": np.zeros((dim, dim), dtype=np.complex128),
        "identity": float(rng.normal()) * np.eye(dim, dtype=np.complex128),
        "operation": random_operation(dim, dim, 2, rng).t_op,
    }


@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("dim", range(1, 7))
def test_pairs_max_gap_is_the_largest_gap_of_the_pairs(dim, n):
    """random_pairs_max_gap gives max |tr(T (rho - sigma))| over the pairs
    of two random_density calls bit for bit, and leaves the generator
    where those calls leave it."""
    for seed in range(50):
        rng = np.random.default_rng([seed, dim, n])
        ranks = rng.integers(1, dim + 1, size=n)
        full = np.random.default_rng(seed)
        diff = random_density(dim, ranks, full).mat - random_density(dim, ranks, full).mat
        after = full.random()
        for kind, t in _operators(rng, dim).items():
            pruned = np.random.default_rng(seed)
            expected = np.abs(np.einsum("nij,ji->n", diff, t).real).max()
            assert random_pairs_max_gap(t, ranks, pruned) == expected, (seed, kind)
            assert pruned.random() == after


# test id: (an operator or ranks random_pairs_max_gap must reject, its error message)
BAD_PAIR_ORACLES = {
    "non-square": (np.ones((2, 3)), [1, 2], "2-D matrix|square"),
    "non-hermitian": (np.array([[0.0, 1.0], [0.0, 0.0]]), [1, 2], "not Hermitian"),
    "nan": (np.diag([np.nan, 0.0]), [1, 2], "NaN"),
    "stack": (np.zeros((2, 2, 2)), [1, 2], "2-D"),
    "rank-above-dim": (np.eye(2), [1, 3], "rank must be <= dim"),
    "no-ranks": (np.eye(2), np.array([], dtype=np.int64), "at least one pair"),
}


@pytest.mark.parametrize("name", BAD_PAIR_ORACLES)
def test_pairs_max_gap_rejects_bad_operators_and_ranks(name):
    t, ranks, message = BAD_PAIR_ORACLES[name]
    with pytest.raises(ValidationError, match=message):
        random_pairs_max_gap(t, ranks, np.random.default_rng(0))
