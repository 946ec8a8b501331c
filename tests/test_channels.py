"""Tests for Kraus-set operations, probabilities and the exact cloner."""

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qopdist.channels import (
    QuantumOperation,
    apply,
    cloner_distance_factor,
    cloner_outputs,
    contractivity_check,
    e_distance,
    held,
    is_trace_preserving,
    max_e_distance_over_states,
    normalize_output,
    occurrence_probability,
    random_operation,
    random_operations,
    random_operations_max_gap,
    t_eigh,
    t_operator,
)
from qopdist.config import TOL_UNIT_ZERO
from qopdist.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    PurityError,
    ValidationError,
    ZeroProbabilityError,
)
from qopdist.linalg import random_hermitian
from qopdist.maximizers import matched_eigenspaces
from qopdist.metrics import trace_distance
from qopdist.states import from_spectrum, random_density
from qopdist.suites import _maximizer_shaped_op

# measure-|0> branch: a single Kraus row |0><0| into a 1-dim output space
KEEP0 = QuantumOperation([np.array([[1.0, 0.0]], dtype=complex)])


def test_t_operator_projector():
    assert np.max(np.abs(t_operator(KEEP0) - np.diag([1.0, 0.0]))) < 1e-15


def test_operation_rejects_empty():
    with pytest.raises(ValidationError):
        QuantumOperation([])


def test_operation_rejects_mixed_shapes():
    with pytest.raises(DimensionMismatchError):
        QuantumOperation([np.eye(2), np.eye(3)])


def test_operation_rejects_supernormalized():
    with pytest.raises(ValidationError):
        QuantumOperation([np.sqrt(2.0) * np.eye(2)])


def test_operation_is_immutable():
    with pytest.raises(AttributeError):
        KEEP0.dim_in = 5


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda op: pickle.loads(pickle.dumps(op))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_operation_copies_and_pickles(round_trip, lapack_calls):
    """A copy is built again from the Kraus operators: bit-equal read-only
    Kraus operators and T, and nothing held from the original, so its
    first spectral use diagonalizes T again.  An operation accepted only
    at a looser tol than the default copies too."""
    loose = QuantumOperation([np.diag([1 + 1e-8, 0]).astype(complex)], tol=1e-6)
    for op in (random_operation(4, 3, 2, np.random.default_rng(38)), loose):
        t_eigh(op)
        twin = round_trip(op)
        assert type(twin) is QuantumOperation and twin is not op
        assert (twin.dim_in, twin.dim_out, len(twin.kraus)) == (op.dim_in, op.dim_out, len(op.kraus))
        for a, b in zip((*twin.kraus, twin.t_op), (*op.kraus, op.t_op)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
        del lapack_calls[:]
        w, v = t_eigh(twin)
        assert lapack_calls == ["eigh"]
        assert np.array_equal(w, t_eigh(op)[0]) and np.array_equal(v, t_eigh(op)[1])


def test_held_keeps_one_result_per_operation_and_build():
    """held runs a build once per operation and hands out the same object
    after; a build that raises stores nothing, so the next call runs it."""
    calls = []

    def build(E):
        calls.append(E)
        if len(calls) == 1:
            raise ValidationError("first try fails")
        return object()

    op, other = QuantumOperation([np.eye(2)]), QuantumOperation([np.eye(2)])
    with pytest.raises(ValidationError):
        held(op, build)
    first = held(op, build)
    assert held(op, build) is first and calls == [op, op]
    assert held(other, build) is not first and calls == [op, op, other]


def test_held_keeps_one_pair_entry_per_owner_and_build():
    """With other objects, held hands out the same result while each is the
    very object it was built with: a bit-equal copy of one builds again and
    replaces the entry, a build that raises leaves the store as it was, and
    the entry keeps none of the others alive."""
    calls = []

    def build(owner, rho, sigma):
        calls.append((rho, sigma))
        if sigma is None or len(calls) == 3:
            raise ValidationError("build fails")
        return object()

    rng = np.random.default_rng(39)
    op, rho, sig = QuantumOperation([np.eye(3)]), random_density(3, 2, rng), random_density(3, 3, rng)
    first = held(op, build, rho, sig)
    assert held(op, build, rho, sig) is first and len(calls) == 1
    twin = copy.copy(sig)
    second = held(op, build, rho, twin)
    assert second is not first and len(calls) == 2
    store = dict(op._held)
    with pytest.raises(ValidationError):
        held(op, build, twin, rho)
    assert op._held == store and held(op, build, rho, twin) is second and len(calls) == 3
    refs = [weakref.ref(rho), weakref.ref(twin)]
    del rho, sig, twin, calls[:]
    gc.collect()
    assert [r() for r in refs] == [None, None] and op._held


def test_apply_and_probability():
    rho = np.diag([0.3, 0.7]).astype(complex)
    out = apply(KEEP0, rho)
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 0.3) < 1e-15
    assert abs(occurrence_probability(KEEP0, rho) - 0.3) < 1e-15


def test_e_distance_frozen():
    rho = np.diag([0.3, 0.7]).astype(complex)
    sig = np.diag([0.8, 0.2]).astype(complex)
    assert abs(e_distance(KEEP0, rho, sig) - 0.5) < 1e-15


def test_normalize_output():
    rho = np.diag([0.5, 0.5]).astype(complex)
    state, p = normalize_output(KEEP0, rho)
    assert abs(p - 0.5) < 1e-15
    assert abs(state.mat[0, 0] - 1.0) < 1e-14


def test_normalize_output_zero_probability():
    with pytest.raises(ZeroProbabilityError):
        normalize_output(KEEP0, np.diag([0.0, 1.0]).astype(complex))


def test_trace_preserving_detection():
    q, _ = np.linalg.qr(
        np.random.default_rng(1).standard_normal((3, 3))
        + 1j * np.random.default_rng(2).standard_normal((3, 3))
    )
    assert is_trace_preserving(QuantumOperation([q]))
    assert not is_trace_preserving(KEEP0)


def test_max_e_distance_diagonal_t():
    """T = diag(0.9, 0.3): the spread is 0.6, attained on eigenprojectors."""
    op = QuantumOperation(
        [np.diag([np.sqrt(0.9), 0.0]).astype(complex), np.diag([0.0, np.sqrt(0.3)]).astype(complex)]
    )
    ext = max_e_distance_over_states(op)
    assert abs(ext.value - 0.6) < 1e-12
    assert abs(ext.theta_max - 0.9) < 1e-12
    assert abs(ext.theta_min - 0.3) < 1e-12
    assert abs(e_distance(op, ext.rho_star, ext.sigma_star) - 0.6) < 1e-12


def test_max_e_distance_trace_preserving_is_zero():
    eye = np.eye(3, dtype=complex)
    proj = QuantumOperation([np.outer(eye[:, k], eye[:, k]) for k in range(3)])
    assert max_e_distance_over_states(proj).value < 1e-12


def test_random_pairs_never_beat_extremal():
    rng = np.random.default_rng(31)
    op = random_operation(4, 3, 2, rng)
    ext = max_e_distance_over_states(op)
    for _ in range(200):
        rho = random_density(4, int(rng.integers(1, 5)), rng)
        sig = random_density(4, int(rng.integers(1, 5)), rng)
        assert e_distance(op, rho, sig) <= ext.value + 1e-9


def test_contractivity_requires_trace_preserving():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValidationError):
        contractivity_check(KEEP0, rho, sig)


def test_contractivity_holds_for_unitary():
    rng = np.random.default_rng(33)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    op = QuantumOperation([q])
    rho = random_density(3, 2, rng)
    sig = random_density(3, 3, rng)
    rep = contractivity_check(op, rho, sig)
    assert rep.d_out <= rep.d_in + 1e-9
    assert abs(rep.d_out - rep.d_in) < 1e-10  # unitaries preserve distance


def test_random_operation_t_below_identity():
    rng = np.random.default_rng(34)
    for _ in range(20):
        op = random_operation(int(rng.integers(2, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 4)), rng)
        w = np.linalg.eigvalsh(op.t_op)
        assert w[0] > -1e-12 and w[-1] <= 1.0 + 1e-9


def test_random_operation_is_the_first_of_a_block():
    """random_operation(d, o, k) draws the n = 1 block of random_operations,
    and a block draws the same normals for an operation whatever the other
    operations' shapes: padding changes no kept entry."""
    op = random_operation(3, 2, 3, np.random.default_rng(35))
    kraus, t = random_operations(3, [2], [3], np.random.default_rng(35))
    assert kraus.shape == (1, 3, 2, 3) and t.shape == (1, 3, 3)
    assert all(np.array_equal(a, b) for a, b in zip(op.kraus, kraus[0]))
    wide, _ = random_operations(3, [2, 4], [3, 1], np.random.default_rng(35))
    assert wide.shape == (2, 3, 4, 3)
    assert not wide[0, :, 2:].any() and not wide[1, 1:].any()
    assert np.allclose(wide[0, :, :2], kraus[0], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "dim_out, n_kraus",
    [([2, 2], [1]), ([2, 0], [1, 1]), ([2, 2], [1, -1]), ([[2]], [[1]]), ([2.0], [1]), ([2], [True])],
)
def test_random_operations_rejects_bad_shapes(dim_out, n_kraus):
    with pytest.raises(ValidationError):
        random_operations(3, dim_out, n_kraus, np.random.default_rng(0))


def _deltas(rng, dim):
    """A random Hermitian matrix, zero and a multiple of the identity."""
    return {
        "hermitian": random_hermitian(dim, rng),
        "zero": np.zeros((dim, dim), dtype=np.complex128),
        "identity": float(rng.normal()) * np.eye(dim, dtype=np.complex128),
    }


@pytest.mark.parametrize("n", [1, 7, 500])
@pytest.mark.parametrize("dim", range(1, 7))
def test_max_gap_is_the_largest_gap_of_the_block(dim, n):
    """random_operations_max_gap gives max |tr(T delta)| over the T stack of
    random_operations bit for bit, and leaves the generator where
    random_operations leaves it."""
    for seed in range(50):
        rng = np.random.default_rng([seed, dim, n])
        dim_out, n_kraus = rng.integers(1, dim + 1, size=n), rng.integers(1, 5, size=n)
        for kind, delta in _deltas(rng, dim).items():
            full, pruned = np.random.default_rng(seed), np.random.default_rng(seed)
            _, t = random_operations(dim, dim_out, n_kraus, full)
            expected = np.abs(np.einsum("nij,ji->n", t, delta).real).max()
            assert random_operations_max_gap(delta, dim_out, n_kraus, pruned) == expected, (seed, kind)
            assert pruned.random() == full.random()


def test_cloner_orthogonal_pair():
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    out = cloner_outputs(e0, e1)
    assert abs(out.omega) < 1e-12
    assert np.max(np.abs(out.g1 - np.kron(e0, e0))) < 1e-12
    assert np.max(np.abs(out.g2 - np.kron(e1, e1))) < 1e-12
    ratio = trace_distance(out.g1, out.g2) / trace_distance(e0, e1)
    assert abs(ratio - 1.0) < 1e-12


def test_cloner_overlapping_pair():
    """cos-0.6 overlap: output/input ratio hits sqrt(1.36)/1.6."""
    v1 = np.array([1.0, 0.0], dtype=complex)
    v2 = np.array([0.6, 0.8], dtype=complex)
    out = cloner_outputs(np.outer(v1, v1.conj()), np.outer(v2, v2.conj()))
    assert abs(out.omega - 0.6) < 1e-12
    d_in = trace_distance(np.outer(v1, v1.conj()), np.outer(v2, v2.conj()))
    d_out = trace_distance(out.g1, out.g2)
    assert abs(d_out / d_in - 0.7288689868556625) < 1e-10
    # subnormalized outputs: trace is 1/(1+Omega)
    assert abs(float(np.trace(out.g1).real) - 1.0 / 1.6) < 1e-12


def test_cloner_rejects_mixed():
    mixed = np.diag([0.75, 0.25]).astype(complex)
    pure = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(PurityError):
        cloner_outputs(mixed, pure)
    with pytest.raises(PurityError):
        cloner_outputs(pure, mixed)


def test_cloner_rejects_identical():
    pure = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(DegenerateInputError):
        cloner_outputs(pure, pure)


def test_cloner_distance_factor():
    assert cloner_distance_factor(0.0) == 1.0
    assert abs(cloner_distance_factor(0.6) - 0.7288689868556625) < 1e-15
    assert cloner_distance_factor(0.99) > 1.0 / np.sqrt(2.0)
    with pytest.raises(ValidationError):
        cloner_distance_factor(1.0)
    with pytest.raises(ValidationError):
        cloner_distance_factor(-0.1)


# -- stacked apply ----------------------------------------------------------------

EPS = np.finfo(np.float64).eps


def _projectors(vectors):
    """The stack of |v><v| for the columns v of ``vectors``."""
    cols = vectors.T
    return cols[:, :, None] * cols.conj()[:, None, :]


@settings(max_examples=60, deadline=None)
@given(
    dim_in=st.integers(1, 6),
    dim_out=st.integers(1, 6),
    n_kraus=st.integers(1, 4),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_apply_matches_one_matrix_at_a_time(dim_in, dim_out, n_kraus, n, seed):
    """Each matrix of apply(E, stack) is within 4 eps max|entry| of
    apply(E, stack[i]), on random operations and states and on the
    projectors of a random basis."""
    rng = np.random.default_rng(seed)
    op = random_operation(dim_in, dim_out, n_kraus, rng)
    basis, _ = np.linalg.qr(rng.standard_normal((dim_in, dim_in)) + 1j * rng.standard_normal((dim_in, dim_in)))
    ranks = rng.integers(1, dim_in + 1, size=n)
    for stack in (random_density(dim_in, ranks, rng).mat, _projectors(basis)):
        out = apply(op, stack)
        assert out.shape == (len(stack), dim_out, dim_out)
        for got, m in zip(out, stack):
            want = apply(op, m)
            assert np.max(np.abs(got - want)) <= 4 * EPS * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(2, 1, 1), (5, 2, 2), (16, 8, 8)])
def test_stacked_apply_is_bit_identical_on_maximizer_shapes(shape):
    """On the maximizer-shaped operations the suites and the benchmark
    sample, the stacked outputs of the matched-eigenspace projectors are
    bit-identical to one apply per projector."""
    op = _maximizer_shaped_op(*shape)
    stack = _projectors(np.hstack(matched_eigenspaces(op)))
    assert np.array_equal(apply(op, stack), np.stack([apply(op, m) for m in stack]))


def test_apply_to_an_empty_stack():
    op = random_operation(3, 2, 2, np.random.default_rng(36))
    out = apply(op, np.zeros((0, 3, 3), dtype=complex))
    assert out.shape == (0, 2, 2) and out.dtype == np.complex128


@pytest.mark.parametrize(
    "operand",
    [
        np.full((4, 2, 2), np.nan),
        np.where(np.arange(16).reshape(4, 2, 2) == 13, np.nan, 0.25),
        np.where(np.arange(16).reshape(4, 2, 2) == 0, np.inf, 0.25),
        np.ones(2),
        np.ones((1, 1, 2, 2)),
    ],
    ids=["nan-stack", "one-nan", "one-inf", "ndim1", "ndim4"],
)
def test_apply_rejects_bad_stacks(operand):
    with pytest.raises(ValidationError) as info:
        apply(KEEP0, operand)
    assert not isinstance(info.value, DimensionMismatchError)


@pytest.mark.parametrize(
    "call",
    [
        lambda op, m: apply(op, m),
        lambda op, m: apply(op, np.stack([np.eye(2), m])),
        lambda op, m: occurrence_probability(op, m),
        lambda op, m: e_distance(op, np.eye(2) / 2, m),
        lambda op, m: contractivity_check(op, m, np.eye(2) / 2),
    ],
    ids=["apply", "apply-stack", "occurrence_probability", "e_distance", "contractivity_check"],
)
def test_raw_operands_must_be_hermitian(call):
    """A raw operand goes through the state gate, so a matrix that is not
    Hermitian is rejected instead of acting through its Hermitian part."""
    with pytest.raises(ValidationError, match="not Hermitian"):
        call(QuantumOperation([np.eye(2)]), [[0, 1], [0, 0]])


@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 2, 3), (3, 1, 1), (0, 3, 3)])
def test_apply_rejects_wrong_trailing_shape(shape):
    with pytest.raises(DimensionMismatchError, match="stack shape"):
        apply(KEEP0, np.zeros(shape, dtype=complex))


@pytest.mark.parametrize(
    "call",
    [
        lambda m: occurrence_probability(KEEP0, m),
        lambda m: e_distance(KEEP0, m, m),
    ],
    ids=["occurrence_probability", "e_distance"],
)
def test_one_matrix_functions_reject_a_stack(call):
    """Only apply takes a stack; the probability functions still take one
    matrix."""
    stack = np.stack([np.diag([0.3, 0.7]), np.diag([1.0, 0.0])]).astype(complex)
    with pytest.raises(ValidationError):
        call(stack)


def _random_maximizer(seed, dim_in, n_unit, n_zero, dim_out):
    """T = P + M in a random unitary basis: P projects onto n_unit basis
    vectors, M has eigenvalues in [0.05, 0.95] on all but n_zero of the
    rest, and each Kraus operator sends one basis vector to a random
    normalized output vector."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((dim_in, dim_in)) + 1j * rng.standard_normal((dim_in, dim_in)))
    n_kraus = dim_in - n_zero
    weights = np.concatenate([np.ones(n_unit), rng.uniform(0.05, 0.95, n_kraus - n_unit)])
    outs = rng.standard_normal((n_kraus, dim_out)) + 1j * rng.standard_normal((n_kraus, dim_out))
    outs /= np.linalg.norm(outs, axis=1, keepdims=True)
    return QuantumOperation([np.sqrt(weights[i]) * np.outer(outs[i], u[:, i].conj()) for i in range(n_kraus)])


@st.composite
def _maximizer_draws(draw):
    dim_in = draw(st.integers(2, 7))
    n_unit = draw(st.integers(1, dim_in - 1))
    n_zero = draw(st.integers(1, dim_in - n_unit))
    return draw(st.integers(0, 2**32 - 1)), dim_in, n_unit, n_zero, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=_maximizer_draws(), extremal_first=st.booleans(), repeats=st.integers(1, 3))
def test_spectral_data_comes_from_one_held_eigh(lapack_calls, draw, extremal_first, repeats):
    """matched_eigenspaces and max_e_distance_over_states return arrays
    bit-equal to those from a fresh eigh of T, read-only, whichever is
    called first and however often; the constructor's check of T makes
    the one eigh, held on the operation."""
    del lapack_calls[:]
    op = _random_maximizer(*draw)
    assert lapack_calls == ["qr", "eigh"]
    w, v = np.linalg.eigh(op.t_op)
    unit, zero = v[:, w >= 1.0 - TOL_UNIT_ZERO][:, ::-1], v[:, w <= TOL_UNIT_ZERO]
    assert unit.shape[1] == draw[2] and zero.shape[1] == draw[3]
    top, bot = w >= w[-1] - 1e-10, w <= w[0] + 1e-10
    rho_star = from_spectrum(v[:, top], np.full(top.sum(), 1.0 / top.sum())).mat
    sigma_star = from_spectrum(v[:, bot], np.full(bot.sum(), 1.0 / bot.sum())).mat
    del lapack_calls[:]

    def check_eigenspaces():
        return matched_eigenspaces(op), (unit, zero)

    def check_extremal():
        ext = max_e_distance_over_states(op)
        assert (ext.theta_max, ext.theta_min) == (w[-1], w[0])
        return (ext.rho_star.mat, ext.sigma_star.mat), (rho_star, sigma_star)

    calls = [check_extremal, check_eigenspaces] if extremal_first else [check_eigenspaces, check_extremal]
    for call in calls * repeats:
        got, want = call()
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
        assert lapack_calls == []
