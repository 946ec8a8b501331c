"""Tests for maximizer construction, certification, matched pairs and the
contraction reports."""

import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qopdist import maximizers
from qopdist.channels import QuantumOperation, apply, e_distance, held, random_operation, t_operator
from qopdist.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NotMaximizingShapeError,
    ValidationError,
    ZeroProbabilityError,
)
from qopdist.maximizers import (
    MaximizerMode,
    build_maximizing_operation,
    build_state_pair,
    certify_maximizer,
    extremal_trace_product,
    maximizing_projector,
    theorem3_report,
    theorem4_report,
)
from qopdist.linalg import spectral_split
from qopdist.metrics import trace_distance
from qopdist.states import DensityMatrix, random_density

E0 = np.diag([1.0, 0.0]).astype(complex)
E1 = np.diag([0.0, 1.0]).astype(complex)
MIX = np.diag([0.75, 0.25]).astype(complex)

# T = diag(1, 0) with a single unit and a single zero eigenvalue
MEASURE0 = QuantumOperation([np.array([[1.0, 0.0]], dtype=complex)])


def test_build_on_q_orthogonal_pair():
    op = build_maximizing_operation(E0, E1, 1)
    assert np.max(np.abs(t_operator(op) - np.diag([1.0, 0.0]))) < 1e-12
    assert abs(e_distance(op, E0, E1) - 1.0) < 1e-13


def test_build_on_r_orthogonal_pair():
    op = build_maximizing_operation(E0, E1, 1, MaximizerMode.ON_R)
    assert np.max(np.abs(t_operator(op) - np.diag([0.0, 1.0]))) < 1e-12
    assert abs(e_distance(op, E0, E1) - 1.0) < 1e-13


def test_build_attains_on_mixed_pair():
    d = trace_distance(E0, MIX)
    op = build_maximizing_operation(E0, MIX, 2)
    assert abs(e_distance(op, E0, MIX) - d) < 1e-13
    assert abs(d - 0.25) < 1e-14


def test_build_random_pairs_attain():
    rng = np.random.default_rng(41)
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        rho = random_density(dim, int(rng.integers(1, dim + 1)), rng)
        sig = random_density(dim, int(rng.integers(1, dim + 1)), rng)
        if trace_distance(rho, sig) < 1e-6:
            continue
        mode = MaximizerMode.ON_Q if rng.random() < 0.5 else MaximizerMode.ON_R
        op = build_maximizing_operation(rho, sig, int(rng.integers(1, 4)), mode)
        assert abs(e_distance(op, rho, sig) - trace_distance(rho, sig)) < 1e-10


def test_build_rejects_identical_states():
    with pytest.raises(DegenerateInputError):
        build_maximizing_operation(E0, E0, 1)


def test_build_explicit_output_vectors():
    outs = [np.array([0.0, 1.0], dtype=complex)]
    op = build_maximizing_operation(E0, E1, 2, output_vectors=outs)
    assert abs(e_distance(op, E0, E1) - 1.0) < 1e-13
    with pytest.raises(ValidationError):
        build_maximizing_operation(E0, E1, 2, output_vectors=[np.array([0.0, 2.0], dtype=complex)])
    with pytest.raises(ValidationError):
        build_maximizing_operation(E0, E1, 2, output_vectors=outs * 2)


@pytest.mark.parametrize("norm", [1.0 + 9e-10, 1.0 - 9e-10])
def test_build_normalizes_accepted_output_vectors(norm):
    """An output vector within 1e-9 of unit norm is divided by its norm, so
    T keeps unit eigenvalues and the operation still attains D."""
    rho, sig = np.diag([0.9, 0.1]), np.diag([0.3, 0.7])
    op = build_maximizing_operation(rho, sig, 2, output_vectors=[[norm, 0.0]])
    assert abs(e_distance(op, rho, sig) - 0.6) <= 1e-15
    assert certify_maximizer(op, rho, sig).mode is MaximizerMode.ON_Q


def test_certify_constructed_maximizer():
    op = build_maximizing_operation(E0, MIX, 2)
    cert = certify_maximizer(op, E0, MIX)
    assert cert.mode == MaximizerMode.ON_Q
    assert np.max(np.abs(cert.m_op)) < 1e-10  # no kernel freedom used


def test_certify_on_r():
    op = build_maximizing_operation(E0, MIX, 2, MaximizerMode.ON_R)
    cert = certify_maximizer(op, E0, MIX)
    assert cert.mode == MaximizerMode.ON_R


def test_certify_with_kernel_freedom():
    """Adding Kraus mass on the kernel keeps the operation maximizing."""
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    sig = np.diag([0.3, 0.5, 0.2]).astype(complex)
    op = build_maximizing_operation(rho, sig, 2)
    kernel_vec = np.array([0.0, 0.0, 1.0], dtype=complex)
    extra = np.sqrt(0.5) * np.outer(np.array([1.0, 0.0], dtype=complex), kernel_vec.conj())
    op2 = QuantumOperation(list(op.kraus) + [extra])
    d = trace_distance(rho, sig)
    assert abs(e_distance(op2, rho, sig) - d) < 1e-12
    cert = certify_maximizer(op2, rho, sig)
    assert cert.mode == MaximizerMode.ON_Q
    w = np.linalg.eigvalsh(cert.m_op)
    assert abs(w[-1] - 0.5) < 1e-12  # the added mass shows up in M


def test_certify_random_operation_is_not_maximizer():
    rng = np.random.default_rng(42)
    rho = random_density(3, 2, rng)
    sig = random_density(3, 3, rng)
    d = trace_distance(rho, sig)
    for _ in range(20):
        op = random_operation(3, 2, 2, rng)
        cert = certify_maximizer(op, rho, sig)
        attains = abs(e_distance(op, rho, sig) - d) < 1e-8
        assert (cert.mode != MaximizerMode.NOT_MAXIMIZER) == attains


def test_certify_rejects_identical_states():
    op = build_maximizing_operation(E0, E1, 1)
    with pytest.raises(DegenerateInputError):
        certify_maximizer(op, E0, E0)


@pytest.mark.parametrize("gap, coincide", [(1e-11, True), (1e-8, False)])
def test_one_coincide_cut_for_construction_and_certificate(monkeypatch, gap, coincide):
    """A pair at trace distance 1e-11 coincides for both functions, one at
    1e-8 is distinct for both (default tolerance 1e-9)."""
    monkeypatch.delenv("QOPDIST_DEFAULT_TOL", raising=False)
    rho = np.diag([0.5 - gap, 0.5 + gap]).astype(complex)
    sig = np.diag([0.5, 0.5]).astype(complex)
    assert abs(trace_distance(rho, sig) - gap) < 1e-15
    if coincide:
        with pytest.raises(DegenerateInputError):
            build_maximizing_operation(rho, sig, 1)
        with pytest.raises(DegenerateInputError):
            certify_maximizer(build_maximizing_operation(E0, E1, 1), rho, sig)
    else:
        op = build_maximizing_operation(rho, sig, 1)
        assert certify_maximizer(op, rho, sig).mode is MaximizerMode.ON_Q


# Corruptions of valid build_state_pair weights and the check each must trip.
CORRUPTIONS = {
    "lambda-nonpositive": "strictly positive",
    "kappa-nonpositive": "strictly positive",
    "delta-negative": "weights must be >= 0",
    "lambda-sum": "must each sum",
    "delta-sum": "sum to 1",
    "lambda-length": "lambda lists",
    "kappa-length": "kappa lists",
}


def _matched_setup(seed, n_unit, n_zero, d):
    """An operation whose T projects onto n_unit random orthonormal vectors
    of C^(n_unit + n_zero), and valid weights for target d on random
    leading subsets of its unit and zero eigenspaces."""
    rng = np.random.default_rng(seed)
    dim = n_unit + n_zero
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    op = QuantumOperation([np.outer(np.eye(1, dim, i), u[:, i].conj()) for i in range(n_unit)])
    nq, nr = int(rng.integers(1, n_unit + 1)), int(rng.integers(1, n_zero + 1))
    split = float(rng.uniform(0.0, 1.0))

    def parts(n, total):
        x = rng.uniform(0.05, 1.0, size=n)
        return total * x / x.sum()

    weights = [parts(nq, d), parts(nr, d), parts(nq, split * (1 - d)), parts(nr, (1 - split) * (1 - d))]
    return op, weights


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_unit=st.integers(1, 3),
    n_zero=st.integers(1, 3),
    d=st.floats(0.01, 0.99),
    kind=st.sampled_from([None] + sorted(CORRUPTIONS)),
)
def test_build_state_pair_weights(seed, n_unit, n_zero, d, kind):
    """Valid weights give a pair of states whose trace distance and
    probability gap both equal d; each corruption raises ValidationError
    from the check that names it."""
    op, (lam, kap, dlam, dkap) = _matched_setup(seed, n_unit, n_zero, d)
    if kind is None:
        rho, sig = build_state_pair(op, d, lam, kap, dlam, dkap)
        assert abs(trace_distance(rho, sig) - d) <= 1e-10
        assert abs(e_distance(op, rho, sig) - d) <= 1e-10
        for s in (rho, sig):
            assert np.array_equal(DensityMatrix(s.mat).mat, s.mat)
        return
    if kind == "lambda-nonpositive":
        lam[0] = -lam[0]
    elif kind == "kappa-nonpositive":
        kap[-1] = 0.0
    elif kind == "delta-negative":
        dlam[0] = -1e-3
    elif kind == "lambda-sum":
        lam *= 1.0 + 1e-6
    elif kind == "delta-sum":
        dkap = dkap + 1e-6
    elif kind == "lambda-length":
        lam = np.append(lam, d)
    else:
        dkap = dkap[:-1]
    with pytest.raises(ValidationError, match=CORRUPTIONS[kind]):
        build_state_pair(op, d, lam, kap, dlam, dkap)


def test_build_state_pair_defaults():
    rho, sig = build_state_pair(MEASURE0, 0.6)
    assert np.max(np.abs(rho.mat - np.diag([0.8, 0.2]))) < 1e-12
    assert np.max(np.abs(sig.mat - np.diag([0.2, 0.8]))) < 1e-12
    assert abs(trace_distance(rho, sig) - 0.6) < 1e-12
    assert abs(e_distance(MEASURE0, rho, sig) - 0.6) < 1e-12


def test_build_state_pair_explicit_weights():
    rho, sig = build_state_pair(
        MEASURE0,
        0.6,
        lambda_weights=[0.6],
        kappa_weights=[0.6],
        delta_lambda=[0.4],
        delta_kappa=[0.0],
    )
    assert np.max(np.abs(rho.mat - np.diag([1.0, 0.0]))) < 1e-12
    assert np.max(np.abs(sig.mat - np.diag([0.4, 0.6]))) < 1e-12


def test_build_state_pair_weight_validation():
    with pytest.raises(ValidationError):
        build_state_pair(MEASURE0, 0.0)
    with pytest.raises(ValidationError):
        build_state_pair(MEASURE0, 0.6, lambda_weights=[0.5])  # sums to 0.5 != 0.6
    with pytest.raises(ValidationError):
        build_state_pair(MEASURE0, 0.6, lambda_weights=[0.3, 0.3])  # too many
    with pytest.raises(ValidationError):
        build_state_pair(
            MEASURE0, 0.6, delta_lambda=[0.1], delta_kappa=[0.1]
        )  # slack mass sums to 0.2 != 0.4


def test_build_state_pair_needs_unit_and_zero():
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((2, 2)) + 0j)
    with pytest.raises(NotMaximizingShapeError):
        build_state_pair(QuantumOperation([q]), 0.5)


def test_build_state_pair_larger_space():
    """Two unit and three zero eigenvalues, randomized target."""
    eye5 = np.eye(5, dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    op = QuantumOperation([np.outer(eye2[:, i], eye5[:, i]) for i in range(2)])
    rng = np.random.default_rng(44)
    for _ in range(10):
        d = float(rng.uniform(0.05, 0.95))
        rho, sig = build_state_pair(op, d)
        assert abs(trace_distance(rho, sig) - d) < 1e-10
        assert abs(e_distance(op, rho, sig) - d) < 1e-10


def test_theorem3_report_frozen():
    rho, sig = build_state_pair(MEASURE0, 0.6)
    rep = theorem3_report(MEASURE0, rho, sig)
    assert abs(rep.p_m - 0.8) < 1e-12
    assert abs(rep.p_n - 0.2) < 1e-12
    assert abs(rep.d_in - 0.6) < 1e-12
    assert rep.d_out_normalized < 1e-12  # both outputs collapse to the same state
    assert abs(rep.bound - 0.75) < 1e-12
    assert rep.holds
    assert rep.relative_increase is None


def test_theorem3_requires_maximizer():
    rng = np.random.default_rng(45)
    rho = random_density(2, 1, rng)
    sig = random_density(2, 2, rng)
    with pytest.raises(ValidationError):
        theorem3_report(QuantumOperation([np.eye(2, dtype=complex) * 0.5]), rho, sig)


def test_theorem3_zero_probability():
    rho, sig = build_state_pair(
        MEASURE0, 0.6, lambda_weights=[0.6], kappa_weights=[0.6],
        delta_lambda=[0.0], delta_kappa=[0.4],
    )
    # tr(T sigma) = 0: the branch never occurs for sigma
    with pytest.raises(ZeroProbabilityError):
        theorem3_report(MEASURE0, rho, sig)


def test_theorem4_saturation():
    op = build_maximizing_operation(E0, E1, 1)
    rep = theorem4_report(op, E0, E1)
    assert abs(rep.d_out_subnormalized - 0.5) < 1e-12
    assert abs(rep.bound - 0.5) < 1e-12
    assert rep.holds
    assert rep.d_out_normalized is None


def test_theorem4_on_matched_pairs():
    rng = np.random.default_rng(46)
    for _ in range(10):
        d = float(rng.uniform(0.1, 0.9))
        rho, sig = build_state_pair(MEASURE0, d)
        rep = theorem4_report(MEASURE0, rho, sig)
        assert rep.holds
        assert rep.d_out_subnormalized <= 0.5 * d + 1e-12


def test_extremal_trace_product_frozen():
    t = np.diag([0.9, 0.3]).astype(complex)
    ext = extremal_trace_product(t, 0.5)
    assert abs(ext.max_val - 0.45) < 1e-14
    assert abs(ext.min_val - 0.15) < 1e-14
    assert np.max(np.abs(ext.q_max - np.diag([0.5, 0.0]))) < 1e-12
    assert np.max(np.abs(ext.q_min - np.diag([0.0, 0.5]))) < 1e-12


def test_extremal_trace_product_validation():
    with pytest.raises(ValidationError):
        extremal_trace_product(np.diag([1.0, -0.2]), 0.5)
    with pytest.raises(ValidationError):
        extremal_trace_product(np.diag([0.5, 0.5]), 0.0)


@pytest.mark.parametrize("d_frak", [float("nan"), float("inf")])
def test_extremal_trace_product_rejects_nonfinite_d_frak(d_frak):
    with pytest.raises(ValidationError, match="finite positive"):
        extremal_trace_product(np.diag([0.9, 0.3]), d_frak)


def test_maximizing_projector_frozen():
    a = np.diag([1.0, -2.0]).astype(complex)
    b = np.zeros((2, 2), dtype=complex)
    mp = maximizing_projector(a, b)
    assert np.max(np.abs(mp.pi - np.diag([1.0, 0.0]))) < 1e-12
    assert abs(mp.value - 1.0) < 1e-14


def test_maximizing_projector_identity():
    """tr(Pi (A-B)) maximum equals D + (trA - trB)/2 on random instances."""
    rng = np.random.default_rng(47)
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 0.5 * (a + a.conj().T)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = 0.5 * (b + b.conj().T)
        mp = maximizing_projector(a, b)
        expect = trace_distance(a, b) + 0.5 * float(np.trace(a - b).real)
        assert abs(mp.value - expect) < 1e-10


def test_maximizing_projector_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        maximizing_projector(np.eye(2), np.eye(3))


def test_output_distances_from_apply():
    """apply() feeds both contraction reports consistently."""
    rho, sig = build_state_pair(MEASURE0, 0.4)
    rep = theorem4_report(MEASURE0, rho, sig)
    direct = trace_distance(apply(MEASURE0, rho), apply(MEASURE0, sig))
    assert abs(rep.d_out_subnormalized - direct) < 1e-14


@pytest.fixture
def split_calls(monkeypatch):
    """The matrices maximizers passes to spectral_split while the test runs."""
    calls = []

    def spy(delta):
        calls.append(delta)
        return spectral_split(delta)

    monkeypatch.setattr(maximizers, "spectral_split", spy)
    return calls


def _random_pair(seed, dim=4):
    rng = np.random.default_rng(seed)
    return random_density(dim, 2, rng), random_density(dim, 3, rng)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_one_split_per_pair_on_the_api_path(split_calls):
    rho, sig = _random_pair(60)
    op = build_maximizing_operation(rho, sig, 2, MaximizerMode.ON_Q)
    assert certify_maximizer(op, rho, sig).mode is MaximizerMode.ON_Q
    op_r = build_maximizing_operation(rho, sig, 2, MaximizerMode.ON_R)
    assert certify_maximizer(op_r, rho, sig).mode is MaximizerMode.ON_R
    assert len(split_calls) == 1
    rho2, sig2 = build_state_pair(op, 0.4)
    assert theorem3_report(op, rho2, sig2).holds and theorem4_report(op, rho2, sig2).holds
    assert len(split_calls) == 2
    # The shape and tolerance checks still run on a held split.
    with pytest.raises(DegenerateInputError):
        certify_maximizer(op, rho2, sig2, tol=0.5)
    with pytest.raises(DimensionMismatchError):
        certify_maximizer(op, rho2, E0)
    assert len(split_calls) == 2


def _pair_path(rho, sig, d_target, new):
    """Every output of building, certifying and bounding the pair, with
    ``new`` applied to each state and operation before each call."""
    arrays, certificates, ops = [], [], []
    for mode in (MaximizerMode.ON_Q, MaximizerMode.ON_R):
        op = build_maximizing_operation(new(rho), new(sig), 3, mode)
        cert = certify_maximizer(new(op), new(rho), new(sig))
        arrays += [*op.kraus, cert.m_op]
        certificates.append((cert.mode, cert.diagnostics))
        ops.append(op)
    rho2, sig2 = build_state_pair(ops[0], d_target)
    arrays += [rho2.mat, sig2.mat]
    reports = [
        repr(report(new(ops[0]), new(rho2), new(sig2)))
        for report in (theorem3_report, theorem4_report, theorem3_report)
    ]
    return arrays, certificates, reports


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 6),
    ranks=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    d_target=st.floats(0.05, 0.95),
)
def test_held_pair_path_gives_the_bits_of_a_fresh_evaluation(seed, dim, ranks, d_target):
    """Building, certifying and both bound reports on the same objects, which
    reuse the split held on rho and the evaluation held on the operation,
    give the bits that new objects with the same matrices give, which hold
    nothing."""
    rng = np.random.default_rng(seed)
    rho = random_density(dim, min(ranks[0], dim), rng)
    sig = random_density(dim, min(ranks[1], dim), rng)
    assume(trace_distance(rho, sig) > 1e-6)
    held_arrays, held_certs, held_reports = _pair_path(rho, sig, d_target, lambda x: x)
    fresh_arrays, fresh_certs, fresh_reports = _pair_path(rho, sig, d_target, copy.copy)
    assert all(_same_bits(a, b) for a, b in zip(held_arrays, fresh_arrays, strict=True))
    assert held_certs == fresh_certs
    assert held_reports == fresh_reports


def test_a_different_state_object_gets_a_fresh_split(split_calls):
    """A split is held on rho for one sigma object: a copy of either state,
    equal to the bit, is another object and gets its own split."""
    rho, sig = _random_pair(62)
    split = maximizers._distinct_split(rho, sig, None)
    twin = copy.copy(rho)
    assert _same_bits(twin.mat, rho.mat)
    other = maximizers._distinct_split(twin, sig, None)
    assert len(split_calls) == 2 and other is not split
    assert maximizers._distinct_split(twin, sig, None) is other
    assert maximizers._distinct_split(rho, sig, None) is split
    assert maximizers._distinct_split(rho, copy.copy(sig), None) is not split
    assert len(split_calls) == 3


@pytest.fixture
def bound_evals(monkeypatch):
    """The (E, rho, sigma) of each fresh bound-input evaluation while the
    test runs."""
    calls = []
    fresh = maximizers._fresh_bound_inputs

    def spy(E, rho, sigma):
        calls.append((E, rho, sigma))
        return fresh(E, rho, sigma)

    monkeypatch.setattr(maximizers, "_fresh_bound_inputs", spy)
    return calls


def _matched_pair(seed, d_target=0.4):
    """An ON_Q maximizer of a random pair and a matched pair for it."""
    op = build_maximizing_operation(*_random_pair(seed), 2, MaximizerMode.ON_Q)
    return (op, *build_state_pair(op, d_target))


def test_one_bound_evaluation_per_pair(bound_evals):
    op, rho, sig = _matched_pair(70)
    assert theorem3_report(op, rho, sig).holds
    assert theorem4_report(op, rho, sig).holds
    assert theorem3_report(op, rho, sig).holds
    assert len(bound_evals) == 1


def test_a_different_object_gets_a_fresh_bound_evaluation(bound_evals):
    """The evaluation is held on the operation for one pair of state
    objects: a copy of either state or of the operation gets its own."""
    op, rho, sig = _matched_pair(71)
    theorem4_report(op, rho, sig)
    for args in ((op, copy.copy(rho), sig), (op, rho, copy.copy(sig)), (copy.copy(op), rho, sig)):
        theorem4_report(*args)
        theorem4_report(*args)
    assert len(bound_evals) == 4


def test_raised_default_tol_reaches_a_reused_pair(monkeypatch, bound_evals):
    """The coincide cut runs on every call: raised above the pair's distance
    between two calls, the second call finds the pair coinciding before it
    reads the held evaluation."""
    monkeypatch.delenv("QOPDIST_DEFAULT_TOL", raising=False)
    op, rho, sig = _matched_pair(73)
    theorem3_report(op, rho, sig)
    monkeypatch.setenv("QOPDIST_DEFAULT_TOL", "0.5")
    with pytest.raises(DegenerateInputError):
        theorem4_report(op, rho, sig)
    assert len(bound_evals) == 1


def test_reused_split_is_read_only_and_public_split_writable():
    rho, sig = _random_pair(63)
    memo = maximizers._distinct_split(rho, sig, None)
    public = spectral_split(rho.mat - sig.mat)
    for field in vars(public):
        assert not getattr(memo, field).flags.writeable
        assert getattr(public, field).flags.writeable


def test_stored_distance_is_the_cut_of_the_split():
    """rho holds the coincide-cut distance with the split for sig: the
    float 0.5 * (sum q_vals + sum r_vals) of that split."""
    rho, sig = _random_pair(64)
    split = maximizers._distinct_split(rho, sig, None)
    stored, distance = held(rho, maximizers._pair_split, sig)
    assert stored is split
    assert distance == 0.5 * (np.sum(split.q_vals) + np.sum(split.r_vals))


def test_reused_bound_outputs_are_read_only(bound_evals):
    op, rho, sig = _matched_pair(74)
    first = maximizers._bound_inputs(op, rho, sig)
    again = maximizers._bound_inputs(op, rho, sig)
    assert again is first and len(bound_evals) == 1
    assert not first[1].flags.writeable and not first[2].flags.writeable


def test_a_raw_ndarray_is_evaluated_on_every_call(split_calls, bound_evals):
    """An ndarray or a nested list becomes a new state on every call
    (``as_state``), so it is split and bounded afresh, once per call, to
    the bits of the held pair.  The split held on rho stays; the
    operation keeps one evaluation, the last converted pair's, so the held
    pair is evaluated once more."""
    op, rho, sig = _matched_pair(75)
    held = repr(theorem4_report(op, rho, sig))
    splits, evals = len(split_calls), len(bound_evals)
    for raw in (rho.mat.copy(), rho.mat.tolist()):
        assert repr(theorem4_report(op, raw, sig)) == held
        assert repr(theorem4_report(op, raw, sig)) == held
    assert (len(split_calls) - splits, len(bound_evals) - evals) == (4, 4)
    for E, state, other in bound_evals[evals:]:
        assert E is op and isinstance(state, DensityMatrix) and state is not rho and other is sig
    assert repr(theorem4_report(op, rho, sig)) == held
    assert (len(split_calls) - splits, len(bound_evals) - evals) == (4, 5)


def test_a_chain_of_pairs_keeps_no_earlier_state_alive():
    """Building, certifying and bounding the pairs (x0, x1), (x1, x2), ...
    leaves each state held only weakly: with the first and last states and
    every operation still referenced, every state in between and every
    matched pair is collected."""
    rng = np.random.default_rng(77)
    first = state = random_density(4, 2, rng)
    refs, ops = [], []
    for _ in range(5):
        nxt = random_density(4, 3, rng)
        op = build_maximizing_operation(state, nxt, 2)
        assert certify_maximizer(op, state, nxt).mode is MaximizerMode.ON_Q
        pair = build_state_pair(op, 0.4)
        assert theorem3_report(op, *pair).holds and theorem4_report(op, *pair).holds
        refs += [weakref.ref(nxt), *map(weakref.ref, pair)]
        ops.append(op)
        state = nxt
    del nxt, pair
    refs.pop(-3)  # the last state, still referenced as ``state``
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    assert first._held and all(op._held for op in ops)
