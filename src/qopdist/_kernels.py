"""Hot numeric kernels, vectorized with numpy.

Two loops dominate runtime: evaluation of the qubit sine-minus-trace gap
surface over large grids, and the Monte Carlo trial pipeline that turns
sampled probability points into input/output trace distances.

Every trial output is a real combination sum_j w_j A_j of the same few
matrices A_j.  When the A_j commute, one eigenbasis U diagonalizes them
all, and each trial's trace distance is half the 1-norm of w @ Lambda,
with Lambda[j] the diagonal of U^H A_j U: one ``eigh`` finds U, and
``trial_stats`` builds no per-trial matrix.  U is accepted only
when every off-diagonal entry of every U^H A_j U is at most
16 d eps max|A| (d the output dimension), the order of the backward error
of a per-trial ``eigvalsh``.  By Weyl's inequality each eigenvalue of a
trial output then moves by at most d sum_j |w_j| times that bound.
Otherwise, as for operations whose outputs do not commute or whose shared
basis eigh does not resolve to that bound, the kernel runs one batched
``eigvalsh`` per output kind and chunk of trials.

The shared-basis test depends only on the A_j.  ``shared_spectra`` runs
it, and a caller that calls ``trial_stats`` many times with the same A_j
passes its result in: ``run_trials`` holds it with each operation's setup
(``channels.held``), so a repeated call runs no ``eigh``.  A call without
it runs the test itself: about 55 us at (16,8,8), against about 1.7 ms for
a whole ``run_trials(2000)`` call (2 vCPU, numpy 2.4).
"""

from __future__ import annotations

import numpy as np

_SQRT_HALF = np.sqrt(0.5)
_EPS = np.finfo(np.float64).eps
# Trials per batched eigvalsh call in trial_stats; bounds the (chunk, d, d)
# temporaries for large trial counts.
_CHUNK = 32768
# Default of trial_stats' spectra: no held shared-basis test, whose result
# may itself be None.
_UNTESTED = object()


def kernel_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"


# -- qubit gap surface -------------------------------------------------------

def _gap(u, v, eta) -> np.ndarray:
    """Gap surface, sine distance minus trace distance, on the broadcast of
    the float64 arrays u, v and eta."""
    a = 1.0 - u * v * eta - np.sqrt((1.0 - u * u) * (1.0 - v * v))
    np.clip(a, 0.0, None, out=a)
    b = u * u + v * v - 2.0 * u * v * eta
    np.clip(b, 0.0, None, out=b)
    return _SQRT_HALF * np.sqrt(a) - 0.5 * np.sqrt(b)


def gap_values(u, v, eta) -> np.ndarray:
    """Gap surface per (u, v, eta) point."""
    return _gap(*(np.asarray(x, dtype=np.float64).reshape(-1) for x in (u, v, eta)))


def gap_grid_max(us, vs, etas):
    """Max of the gap surface over a product grid, as (value, u, v, eta).

    Ties resolve to the first maximum in (u, v, eta) index order, as a
    first-strictly-greater scan over the grid would find it.
    """
    us, vs, etas = (np.asarray(x, dtype=np.float64) for x in (us, vs, etas))
    vals = _gap(us[:, None, None], vs[None, :, None], etas[None, None, :])
    i, j, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return float(vals[i, j, k]), float(us[i]), float(vs[j]), float(etas[k])


# -- Monte Carlo trial pipeline ----------------------------------------------

def shared_spectra(op_mats):
    """Eigenvalues of every op_mats[j] in one shared eigenbasis, as a
    read-only (nb, d) array, or None when some off-diagonal entry of some
    U^H op_mats[j] U exceeds 16 d eps max|A|.

    U is the eigenbasis of sum_j cos(j + 1) op_mats[j]; 1, cos 1, cos 2,
    ... have no rational relation, so distinct integer spectra do not meet
    in it.  Where two of its eigenvalues are close but the matrices differ
    on their vectors, eigh mixes those vectors by about eps max|A| / gap,
    which can exceed the bound; such families take the eigvalsh path.
    Diagonal op_mats, as every maximizer-shaped operation gives, pass:
    eigh of a diagonal matrix returns a basis of unit vectors.
    """
    nb, d = op_mats.shape[:2]
    tol = 16.0 * d * _EPS * np.abs(op_mats).max(initial=0.0)
    _, u = np.linalg.eigh(np.tensordot(np.cos(np.arange(1.0, nb + 1.0)), op_mats, axes=1))
    dj = u.conj().T @ op_mats @ u
    if not np.abs(dj[:, ~np.eye(d, dtype=bool)]).max(initial=0.0) <= tol:
        return None
    lam = np.diagonal(dj, axis1=1, axis2=2).real.copy()
    lam.flags.writeable = False
    return lam


def trial_stats(op_mats, w_rho, w_sig, pm, pn, *, spectra=_UNTESTED):
    """Batched trial statistics.

    ``op_mats[j]`` is the operation's output matrix for the j-th basis
    state; ``w_rho``/``w_sig`` hold the input spectra in that basis.
    Returns per-trial input distance, normalized-output distance and
    subnormalized-output distance.  Commuting ``op_mats`` take one shared
    eigenbasis for the whole batch (see the module docstring); otherwise
    every trial's two output matrices are built and passed to
    ``eigvalsh``, ``_CHUNK`` trials at a time.  ``spectra`` is
    ``shared_spectra(op_mats)`` where the caller holds it; without it the
    call runs that test itself.
    """
    op_mats = np.ascontiguousarray(op_mats, dtype=np.complex128)
    w_rho = np.ascontiguousarray(w_rho, dtype=np.float64)
    w_sig = np.ascontiguousarray(w_sig, dtype=np.float64)
    pm = np.ascontiguousarray(pm, dtype=np.float64)
    pn = np.ascontiguousarray(pn, dtype=np.float64)
    dw = w_rho - w_sig
    d_in = 0.5 * np.abs(dw).sum(axis=1)
    lam = shared_spectra(op_mats) if spectra is _UNTESTED else spectra
    if lam is not None:
        d_sub = 0.5 * np.abs(dw @ lam).sum(axis=1)
        d_norm = 0.5 * np.abs((w_rho / pm[:, None] - w_sig / pn[:, None]) @ lam).sum(axis=1)
        return d_in, d_norm, d_sub
    n = w_rho.shape[0]
    d = op_mats.shape[1]
    flat = op_mats.reshape(op_mats.shape[0], d * d)
    d_norm = np.empty(n)
    d_sub = np.empty(n)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        wn = w_rho[lo:hi] / pm[lo:hi, None] - w_sig[lo:hi] / pn[lo:hi, None]
        m_sub = (dw[lo:hi] @ flat).reshape(-1, d, d)
        m_norm = (wn @ flat).reshape(-1, d, d)
        d_sub[lo:hi] = 0.5 * np.abs(np.linalg.eigvalsh(m_sub)).sum(axis=1)
        d_norm[lo:hi] = 0.5 * np.abs(np.linalg.eigvalsh(m_norm)).sum(axis=1)
    return d_in, d_norm, d_sub
