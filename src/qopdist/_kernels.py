"""Hot numeric kernels, vectorized with numpy.

Two loops dominate runtime: evaluation of the qubit sine-minus-trace gap
surface over large grids, and the Monte Carlo trial pipeline that turns
sampled probability points into input/output trace distances.
"""

from __future__ import annotations

import numpy as np

_SQRT_HALF = np.sqrt(0.5)
# Trials per batched eigvalsh call in trial_stats; bounds the (chunk, d, d)
# temporaries for large trial counts.
_CHUNK = 32768


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

def trial_stats(op_mats, w_rho, w_sig, pm, pn):
    """Batched trial statistics.

    ``op_mats[j]`` is the operation's output matrix for the j-th basis
    state; ``w_rho``/``w_sig`` hold the input spectra in that basis.
    Returns per-trial input distance, normalized-output distance and
    subnormalized-output distance.
    """
    op_mats = np.ascontiguousarray(op_mats, dtype=np.complex128)
    w_rho = np.ascontiguousarray(w_rho, dtype=np.float64)
    w_sig = np.ascontiguousarray(w_sig, dtype=np.float64)
    pm = np.ascontiguousarray(pm, dtype=np.float64)
    pn = np.ascontiguousarray(pn, dtype=np.float64)
    n = w_rho.shape[0]
    d = op_mats.shape[1]
    flat = op_mats.reshape(op_mats.shape[0], d * d)
    d_in = 0.5 * np.abs(w_rho - w_sig).sum(axis=1)
    d_norm = np.empty(n)
    d_sub = np.empty(n)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        dw = w_rho[lo:hi] - w_sig[lo:hi]
        wn = w_rho[lo:hi] / pm[lo:hi, None] - w_sig[lo:hi] / pn[lo:hi, None]
        m_sub = (dw @ flat).reshape(-1, d, d)
        m_norm = (wn @ flat).reshape(-1, d, d)
        d_sub[lo:hi] = 0.5 * np.abs(np.linalg.eigvalsh(m_sub)).sum(axis=1)
        d_norm[lo:hi] = 0.5 * np.abs(np.linalg.eigvalsh(m_norm)).sum(axis=1)
    return d_in, d_norm, d_sub
