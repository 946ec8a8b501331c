"""Tests for the numeric kernels against scalar and object-path oracles."""

import numpy as np

import qopdist
from qopdist import _kernels
from qopdist.channels import QuantumOperation
from qopdist.metrics import qubit_gap, sine_distance, trace_distance
from qopdist.statlab import run_trials


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


def _random_trial_inputs(n, dim_out, rng):
    nb = 4
    mats = rng.standard_normal((nb, dim_out, dim_out)) + 1j * rng.standard_normal(
        (nb, dim_out, dim_out)
    )
    mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    w_rho = rng.dirichlet(np.ones(nb), size=n)
    w_sig = rng.dirichlet(np.ones(nb), size=n)
    pm = rng.uniform(0.3, 1.0, size=n)
    pn = rng.uniform(0.05, 0.29, size=n)
    return mats, w_rho, w_sig, pm, pn


def test_trial_stats_paths_agree():
    """The batched kernel matches per-trial trace distances of the mixed
    output matrices."""
    rng = np.random.default_rng(62)
    for dim_out in (1, 2, 3):
        mats, w_rho, w_sig, pm, pn = _random_trial_inputs(100, dim_out, rng)
        d_in, d_norm, d_sub = _kernels.trial_stats(mats, w_rho, w_sig, pm, pn)
        for t in range(100):
            out_rho = np.tensordot(w_rho[t], mats, axes=1)
            out_sig = np.tensordot(w_sig[t], mats, axes=1)
            assert abs(d_in[t] - 0.5 * np.abs(w_rho[t] - w_sig[t]).sum()) < 1e-12
            assert abs(d_sub[t] - trace_distance(out_rho, out_sig)) < 1e-12
            assert abs(d_norm[t] - trace_distance(out_rho / pm[t], out_sig / pn[t])) < 1e-12


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
