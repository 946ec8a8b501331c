"""Tests for the numeric kernels against scalar and object-path oracles."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qopdist
from qopdist import _kernels
from qopdist.channels import QuantumOperation
from qopdist.maximizers import build_maximizing_operation
from qopdist.metrics import qubit_gap, sine_distance, trace_distance
from qopdist.statlab import run_trials
from qopdist.suites import _maximizer_shaped_op


def test_backend_reported():
    """One numpy implementation, reported under the same name everywhere."""
    assert _kernels.kernel_backend() == "numpy"
    assert qopdist.kernel_backend() == "numpy"


def test_gap_values_paths_agree():
    """The closed-form gap surface equals sine minus trace distance of the
    qubit states with Bloch vectors u z and v (eta z + sqrt(1 - eta^2) x)."""
    rng = np.random.default_rng(61)
    u = rng.uniform(0.0, 1.0, size=300)
    v = rng.uniform(0.0, 1.0, size=300)
    eta = rng.uniform(-1.0, 1.0, size=300)
    got = _kernels.gap_values(u, v, eta)
    eye = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    for k in range(300):
        s = np.sqrt(1.0 - eta[k] ** 2)
        rho = 0.5 * (eye + u[k] * sz)
        sigma = 0.5 * (eye + v[k] * (eta[k] * sz + s * sx))
        ref = sine_distance(rho, sigma) - trace_distance(rho, sigma)
        assert abs(got[k] - ref) < 1e-12


def test_gap_grid_max_tie_break():
    """Symmetric maxima resolve to the scan-order-first point."""
    us = np.array([0.0, 1.0])
    vs = np.array([0.0, 1.0])
    etas = np.array([0.0])
    val, u, v, e = _kernels.gap_grid_max(us, vs, etas)
    assert (u, v, e) == (0.0, 1.0, 0.0)
    assert abs(val - (np.sqrt(0.5) - 0.5)) < 1e-14


def test_gap_grid_max_paths_agree():
    """The grid maximum is what a first-strictly-greater scan over the
    scalar gap finds, in (u, v, eta) index order; the grid is symmetric
    in u and v, so ties are resolved on the way."""
    us = np.linspace(0.0, 1.0, 9)
    vs = np.linspace(0.0, 1.0, 9)
    etas = np.linspace(-1.0, 1.0, 9)
    best = (-np.inf, None, None, None)
    for u in us:
        for v in vs:
            for e in etas:
                val = qubit_gap(float(u), float(v), float(e))
                if val > best[0]:
                    best = (val, float(u), float(v), float(e))
    assert _kernels.gap_grid_max(us, vs, etas) == best


def test_gap_grid_max_is_the_max_of_gap_values():
    """On a 50^3 grid the grid maximum is bit-equal to the largest of the
    per-point values, at the first index in (u, v, eta) order."""
    us = np.linspace(0.0, 1.0, 50)
    etas = np.linspace(-1.0, 1.0, 50)
    u, v, e = np.meshgrid(us, us, etas, indexing="ij")
    vals = _kernels.gap_values(u, v, e)
    k = int(np.argmax(vals))
    assert _kernels.gap_grid_max(us, us, etas) == (vals[k], u.flat[k], v.flat[k], e.flat[k])


def _maximizer_shaped(dim_out, rng):
    """Kraus operators |f_i><i| on C^4 for i = 0, 1 with random unit f_i:
    T = diag(1, 1, 0, 0) and non-diagonal outputs."""
    eye4 = np.eye(4, dtype=complex)
    kraus = []
    for i in range(2):
        f = rng.standard_normal(dim_out) + 1j * rng.standard_normal(dim_out)
        kraus.append(np.outer(f / np.linalg.norm(f), eye4[:, i]))
    return QuantumOperation(kraus)


def _trial_weights(n, nb, rng):
    w_rho = rng.dirichlet(np.ones(nb), size=n)
    w_sig = rng.dirichlet(np.ones(nb), size=n)
    pm = rng.uniform(0.3, 1.0, size=n)
    pn = rng.uniform(0.05, 0.29, size=n)
    return w_rho, w_sig, pm, pn


def _random_hermitian(shape, rng):
    mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 0.5 * (mats + np.swapaxes(mats, -1, -2).conj())


def _random_trial_inputs(n, dim_out, rng):
    nb = 4
    return (_random_hermitian((nb, dim_out, dim_out), rng), *_trial_weights(n, nb, rng))


def _spectra(rng, d, nb, kind):
    """nb spectra of length d, uniform on [0, 1] ("distinct"), drawn from
    {0, 1/2, 1} so that eigenvalues repeat ("repeated"), or all zero
    ("zero")."""
    if kind == "distinct":
        return rng.uniform(0.0, 1.0, size=(nb, d))
    if kind == "repeated":
        return rng.choice([0.0, 0.5, 1.0], size=(nb, d))
    return np.zeros((nb, d))


def _commuting_family(rng, d, nb, kind):
    """nb matrices U diag(lambda_j) U^H sharing one random unitary U."""
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return np.einsum("ik,jk,lk->jil", u, _spectra(rng, d, nb, kind), u.conj())


def _assert_matches_per_trial(stats, mats, w_rho, w_sig, pm, pn):
    """Each trial's distances equal trace distances of its two output
    matrices, built one trial at a time, within 1e-12."""
    d_in, d_norm, d_sub = stats
    for t in range(len(pm)):
        out_rho = np.tensordot(w_rho[t], mats, axes=1)
        out_sig = np.tensordot(w_sig[t], mats, axes=1)
        assert abs(d_in[t] - 0.5 * np.abs(w_rho[t] - w_sig[t]).sum()) < 1e-12
        assert abs(d_sub[t] - trace_distance(out_rho, out_sig)) < 1e-12
        assert abs(d_norm[t] - trace_distance(out_rho / pm[t], out_sig / pn[t])) < 1e-12


def test_trial_stats_paths_agree():
    """The batched kernel matches per-trial trace distances of the mixed
    output matrices."""
    rng = np.random.default_rng(62)
    for dim_out in (1, 2, 3):
        inputs = _random_trial_inputs(100, dim_out, rng)
        _assert_matches_per_trial(_kernels.trial_stats(*inputs), *inputs)


SPECTRA = st.sampled_from(["distinct", "repeated", "zero"])
FIXTURE_PER_EXAMPLE = [HealthCheck.function_scoped_fixture]


@settings(max_examples=60, deadline=None, suppress_health_check=FIXTURE_PER_EXAMPLE)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), nb=st.integers(1, 16), kind=SPECTRA)
def test_diagonal_outputs_share_one_eigenbasis(lapack_calls, seed, d, nb, kind):
    """Diagonal output matrices, the maximizer shape, with distinct,
    repeated or zero spectra, take the shared-eigenbasis path: one eigh
    and no eigvalsh, and the per-trial distances still agree."""
    rng = np.random.default_rng(seed)
    mats = np.einsum("jk,kl->jkl", _spectra(rng, d, nb, kind), np.eye(d))
    inputs = (mats, *_trial_weights(20, nb, rng))
    del lapack_calls[:]
    stats = _kernels.trial_stats(*inputs)
    assert lapack_calls == ["eigh"]
    _assert_matches_per_trial(stats, *inputs)


@settings(max_examples=60, deadline=None, suppress_health_check=FIXTURE_PER_EXAMPLE)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), nb=st.integers(1, 16), kind=SPECTRA)
def test_commuting_outputs_agree_on_either_path(lapack_calls, seed, d, nb, kind):
    """Commuting outputs U diag(lambda_j) U^H with a random unitary U agree
    with the per-trial distances, whether the kernel keeps the shared
    eigenbasis or, where eigh mixes the vectors of close eigenvalues of
    its combination, falls back to eigvalsh."""
    rng = np.random.default_rng(seed)
    mats = _commuting_family(rng, d, nb, kind)
    inputs = (mats, *_trial_weights(20, nb, rng))
    del lapack_calls[:]
    stats = _kernels.trial_stats(*inputs)
    assert lapack_calls in (["eigh"], ["eigh", "eigvalsh", "eigvalsh"])
    _assert_matches_per_trial(stats, *inputs)


@settings(max_examples=30, deadline=None, suppress_health_check=FIXTURE_PER_EXAMPLE)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 8),
    family=st.sampled_from(["random", "commuting + 1e-9"]),
)
def test_non_commuting_outputs_fall_back_to_eigvalsh(lapack_calls, seed, d, family):
    """Random Hermitian outputs, and commuting ones with a 1e-9
    non-commuting term, run one eigvalsh per output kind and agree."""
    rng = np.random.default_rng(seed)
    if family == "random":
        mats = _random_hermitian((4, d, d), rng)
    else:
        mats = _commuting_family(rng, d, 4, "distinct")
        mats[0] += 1e-9 * _random_hermitian((d, d), rng)
    inputs = (mats, *_trial_weights(20, 4, rng))
    del lapack_calls[:]
    stats = _kernels.trial_stats(*inputs)
    assert lapack_calls == ["eigh", "eigvalsh", "eigvalsh"]
    _assert_matches_per_trial(stats, *inputs)


OPERATIONS_WITH_COMMUTING_OUTPUTS = {
    "suites-5-2-2": lambda: _maximizer_shaped_op(5, 2, 2),
    "suites-2-1-1": lambda: _maximizer_shaped_op(2, 1, 1),
    "readme-measure": lambda: build_maximizing_operation(
        np.diag([0.9, 0.1]), np.diag([0.3, 0.7]), dim_out=1
    ),
}


@pytest.mark.parametrize("name", OPERATIONS_WITH_COMMUTING_OUTPUTS)
def test_trial_lapack_calls_do_not_grow_with_trials(lapack_calls, name):
    """On operations whose outputs commute, run_trials makes as many
    LAPACK calls for 50 000 trials (more than one kernel chunk) as for 10.
    Each call gets a new operation, so each one sets up."""
    counts = []
    for n in (10, 50_000):
        op = OPERATIONS_WITH_COMMUTING_OUTPUTS[name]()
        del lapack_calls[:]
        run_trials(op, n, np.random.default_rng(7))
        counts.append(len(lapack_calls))
    assert 50_000 > _kernels._CHUNK and counts[0] == counts[1] > 0


def test_trial_stats_numpy_chunking(monkeypatch):
    """With a chunk size that does not divide the trial count, the batched
    kernel still matches the object path trial by trial."""
    monkeypatch.setattr(_kernels, "_CHUNK", 7)
    for dim_out in (1, 2, 3):
        op = _maximizer_shaped(dim_out, np.random.default_rng(60 + dim_out))
        ra = run_trials(op, 50, np.random.default_rng(64), path="auto")
        rb = run_trials(op, 50, np.random.default_rng(64), path="object")
        assert len(ra) == len(rb) == 50
        for name in ("d_in", "d_out_normalized", "d_out_subnormalized"):
            assert np.max(np.abs(getattr(ra, name) - getattr(rb, name))) < 1e-12


@pytest.mark.parametrize("family", ["diagonal", "random"])
def test_trial_stats_tests_unless_given_the_held_result(lapack_calls, family):
    """A five-argument call runs the shared-basis eigh every time; a call
    given shared_spectra's result, None included, runs it never; both
    give bit-equal distances."""
    rng = np.random.default_rng(67)
    if family == "diagonal":
        mats = np.einsum("jk,kl->jkl", _spectra(rng, 3, 4, "distinct"), np.eye(3))
        fresh = ["eigh"]
    else:
        mats = _random_hermitian((4, 3, 3), rng)
        fresh = ["eigh", "eigvalsh", "eigvalsh"]
    weights = _trial_weights(20, 4, rng)
    del lapack_calls[:]
    plain = [_kernels.trial_stats(mats, *weights) for _ in range(2)]
    assert lapack_calls == fresh * 2
    spectra = _kernels.shared_spectra(mats)
    assert (spectra is None) == (family == "random")
    del lapack_calls[:]
    given = [_kernels.trial_stats(mats, *weights, spectra=spectra) for _ in range(2)]
    assert lapack_calls == fresh[1:] * 2
    assert all(np.array_equal(a, b) for stats in (plain[1], *given) for a, b in zip(plain[0], stats))
