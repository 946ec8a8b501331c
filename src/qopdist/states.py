"""Density matrices, qubit constructors and random-state sampling.

Random states are drawn from the Hilbert-Schmidt-induced measure (Ginibre
construction) by ``random_density``, which takes an explicit
``numpy.random.Generator`` so every suite is reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL_HERM, TOL_ORTHO, TOL_PSD, TOL_TRACE, checked_index, checked_indices, resolve_tol
from .errors import ValidationError
from .linalg import as_complex_matrix, as_hermitian, as_real_array, bounded_max, complex_normals, hermitian_part

__all__ = [
    "DensityMatrix",
    "PAULI",
    "as_state",
    "bloch_of",
    "from_bloch",
    "from_spectrum",
    "random_density",
    "random_pairs_max_gap",
    "state_matrix",
    "validate_state",
]

_EPS = np.finfo(np.float64).eps

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A normalized quantum state (d, d), or a stack (n, d, d) of them:
    Hermitian, PSD, unit trace.

    Construction validates the invariants, so holding a ``DensityMatrix``
    is the proof that each wrapped matrix is a state.  The matrix is
    read-only, so the state can hold what is derived from it, alone or with
    another state (``channels.held``).  States compare and hash by
    identity, as held entries match them.  A copy or an unpickled state
    wraps a read-only matrix of the same bits without checking it again,
    and starts with nothing held.
    """

    mat: np.ndarray

    def __post_init__(self):
        m, _, _ = _check_state(self.mat, TOL_HERM, TOL_PSD, TOL_TRACE)
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "_held", {})

    def __reduce__(self):
        return _trusted_state, (self.mat,)

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    @property
    def purity(self) -> float | np.ndarray:
        """tr rho^2: a float for one state, an array for a stack."""
        p = np.einsum("...ij,...ji->...", self.mat, self.mat).real
        return float(p) if p.ndim == 0 else p


def _check_state(m, tol_herm: float, tol_psd: float, tol_trace: float):
    """The one state check: Hermitian, PSD and unit trace within the given
    tolerances, for one matrix (d, d) or each matrix of a stack (n, d, d).
    Returns the symmetrized copy, its ascending eigenvalues and its
    traces."""
    h = as_hermitian(m, tol_herm)
    if h.ndim > 3 or h.shape[-1] == 0:
        raise ValidationError(f"a state is a (d, d) matrix or an (n, d, d) stack, d >= 1, not {h.shape}")
    w = np.linalg.eigvalsh(h)
    low = w[..., 0].min(initial=np.inf)
    if low < -tol_psd:
        raise ValidationError(f"state is not PSD: min eigenvalue {low:.6e} beyond tolerance {tol_psd:.1e}")
    tr = np.asarray(h.trace(axis1=-2, axis2=-1).real)
    bad = (tr <= 0.0) | (np.abs(tr - 1.0) > tol_trace)
    if bad.any():
        raise ValidationError(f"state trace {float(tr[bad][0])!r} deviates from 1 beyond tolerance {tol_trace:.1e}")
    return h, w, tr


def _trusted_state(m: np.ndarray) -> DensityMatrix:
    """Wrap a bit-Hermitian, unit-trace, PSD matrix or stack that this
    module just built, or a copy of a state's matrix, without checking it
    again."""
    m.flags.writeable = False
    state = object.__new__(DensityMatrix)
    object.__setattr__(state, "mat", m)
    object.__setattr__(state, "_held", {})
    return state


def as_state(x) -> DensityMatrix:
    """``x`` itself if it is a ``DensityMatrix``, else ``validate_state(x)``."""
    return x if isinstance(x, DensityMatrix) else validate_state(x)


def state_matrix(x) -> np.ndarray:
    """The matrix of a ``DensityMatrix``, or the Hermiticity-checked,
    symmetrized copy of any other square matrix or stack of them."""
    return x.mat if isinstance(x, DensityMatrix) else as_hermitian(x)


def from_bloch(u) -> DensityMatrix:
    """Qubit state (1/2)(I + u . sigma) from a Bloch vector of length <= 1."""
    u = as_real_array(u).reshape(-1)
    if u.shape != (3,):
        raise ValidationError(f"Bloch vector must have 3 components, got {u.shape}")
    norm = float(np.linalg.norm(u))
    if norm > 1.0 + 1e-12:
        raise ValidationError(f"Bloch vector length {norm!r} exceeds 1")
    m = 0.5 * (np.eye(2, dtype=np.complex128) + u[0] * PAULI[0] + u[1] * PAULI[1] + u[2] * PAULI[2])
    return DensityMatrix(m)


def bloch_of(rho: DensityMatrix) -> np.ndarray:
    """Recover the Bloch vector u_i = tr(rho sigma_i) of a qubit state."""
    m = rho.mat
    if m.shape != (2, 2):
        raise ValidationError("Bloch coordinates are defined for qubits only")
    return np.array([float(np.trace(m @ s).real) for s in PAULI])


def random_density(dim: int, rank, rng: np.random.Generator) -> DensityMatrix:
    """Random state of the given rank from the Hilbert-Schmidt-induced
    measure: G†G / tr(G†G) for a ``rank x dim`` Ginibre matrix G (Zyczkowski
    and Sommers 2001).  Rank 1 gives a Haar-random pure state.

    An integer ``rank`` gives one state (dim, dim); a 1-D integer array of
    ranks gives a stack (n, dim, dim), one state per rank, in one masked
    draw: each G is padded with zero rows to ``dim`` rows.  One state is
    drawn as a stack of one, so both forms share the draw order.
    """
    mats = _densities(_raw_densities(dim, rank, rng))
    return _trusted_state(mats[0] if np.ndim(rank) == 0 else mats)


def _raw_densities(dim: int, rank, rng: np.random.Generator) -> np.ndarray:
    """The padded Ginibre stack (n, dim, dim) of ``random_density``: the one
    draw path, which the argument checks and the masked draw run through."""
    dim = checked_index("dim", dim, 1)
    ranks = np.array([checked_index("rank", rank, 1)]) if np.ndim(rank) == 0 else checked_indices("rank", rank, 1)
    if (ranks > dim).any():
        raise ValidationError(f"rank must be <= dim, got rank={rank}, dim={dim}")
    return complex_normals(np.arange(dim) < ranks[:, None], dim, rng)


def _densities(g: np.ndarray) -> np.ndarray:
    """G†G / tr(G†G) for each G of a stack: the one formula of
    ``random_density``."""
    mats = hermitian_part(g.conj().transpose(0, 2, 1) @ g)
    return mats / np.einsum("nii->n", mats).real[:, None, None]


# Rows of G per BLAS product in ``_trace_estimates``.  One product over
# every row of an oracle (12 000 rows at n = 2 000, d = 6) is big enough
# for OpenBLAS to start its threads, which slows the forked suite workers
# down; blocks of 1 500 rows stay single-threaded.
_BLAS_ROWS = 1500


def _trace_estimates(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Re<G T, G> / ||G||_F^2 for each G of a stack: tr(T rho) for
    rho = G†G / tr(G†G) up to a rounding of a few d^2 * eps * max|T|."""
    rows = g.reshape(-1, g.shape[-1])
    gt = np.empty_like(rows)
    for start in range(0, len(rows), _BLAS_ROWS):
        np.matmul(rows[start : start + _BLAS_ROWS], t, out=gt[start : start + _BLAS_ROWS])
    re_im, gt_re_im = rows.view(np.float64).reshape(len(g), -1), gt.view(np.float64).reshape(len(g), -1)
    return np.einsum("ij,ij->i", gt_re_im, re_im) / np.einsum("ij,ij->i", re_im, re_im)


def random_pairs_max_gap(t, ranks, rng: np.random.Generator) -> float:
    """max_i |tr(T (rho_i - sigma_i))| for rho = ``random_density(d, ranks,
    rng)`` followed by sigma = ``random_density(d, ranks, rng)``, bit for
    bit, leaving ``rng`` where those two calls leave it; ``t`` is a (d, d)
    matrix Hermitian within ``TOL_HERM`` and enters as its Hermitian part.

    Only the pairs that can still set the maximum are built as states
    (``linalg.bounded_max``).  Each state's tr(T rho) is computed from its
    Ginibre draw G without forming rho (``_trace_estimates``), which gives
    each pair's gap up to rounding; the scale is max|T|.
    """
    t = as_hermitian(as_complex_matrix(t))
    g_rho = _raw_densities(t.shape[0], ranks, rng)
    g_sigma = _raw_densities(t.shape[0], ranks, rng)
    if not len(g_rho):
        raise ValidationError("random_pairs_max_gap needs at least one pair")
    gap = np.abs(_trace_estimates(g_rho, t) - _trace_estimates(g_sigma, t))

    def gaps(block):
        return np.abs(np.einsum("nij,ji->n", _densities(g_rho[block]) - _densities(g_sigma[block]), t).real)

    return bounded_max(gap, gaps, float(np.abs(t).max()))


def from_spectrum(vectors, weights) -> DensityMatrix:
    """The state V diag(w) V† of columns V orthonormal within ``TOL_ORTHO``
    and weights w >= 0 that sum to 1 within ``TOL_TRACE``: w is the
    spectrum, so the check needs no eigendecomposition."""
    v = np.asarray(vectors, dtype=np.complex128)
    try:
        w = as_real_array(weights)
    except ValidationError as exc:
        raise ValidationError(f"weights are not numeric: {exc}") from None
    if v.ndim != 2 or v.shape[0] < 1 or w.shape != v.shape[1:]:
        raise ValidationError(f"need a (d, k) matrix of columns and k weights, got {v.shape} and {w.shape}")
    dev = float(np.abs(v.conj().T @ v - np.eye(w.size)).max(initial=0.0))
    if not dev <= TOL_ORTHO:
        raise ValidationError(f"vectors are not orthonormal: Gram deviation {dev:.3e} > {TOL_ORTHO:.1e}")
    if not ((w >= 0.0).all() and abs(w.sum() - 1.0) <= TOL_TRACE):
        raise ValidationError(f"weights must be >= 0 and sum to 1 within {TOL_TRACE:.1e}, got {w}")
    return _trusted_state(hermitian_part((v * w) @ v.conj().T))


def validate_state(m: np.ndarray, tol: float | None = None) -> DensityMatrix:
    """Check Hermiticity, PSD and unit trace within ``tol``; normalize
    drift below it.  Takes one matrix or a stack (n, d, d), checked in one
    pass.

    A trace within rounding of 1 (``4 * dim * eps``: a few ulps on each
    diagonal entry) is left as it is, so any state this package built
    comes back bit for bit.  Eigenvalues between ``-tol`` and the
    ``DensityMatrix`` cut are clamped to zero.  Raises ``ValidationError``
    naming the offending quantity otherwise.
    """
    return _trusted_state(_validated(m, resolve_tol(tol)))


def _validated(m, tol: float) -> np.ndarray:
    """``_check_state`` at ``tol`` on one matrix or a stack, then
    ``validate_state``'s two repairs on each matrix that needs them."""
    h, w, tr = _check_state(m, tol, tol, tol)
    renorm = np.abs(tr - 1.0) > 4 * h.shape[-1] * _EPS
    np.divide(h, tr[..., None, None], out=h, where=renorm[..., None, None])
    clamp = w[..., 0] / tr < -TOL_PSD
    if clamp.any():
        vals, vecs = np.linalg.eigh(h[clamp])
        vals = np.clip(vals, 0.0, None)
        fixed = hermitian_part((vecs * vals[:, None, :]) @ vecs.conj().transpose(0, 2, 1))
        h[clamp] = fixed / np.trace(fixed, axis1=1, axis2=2).real[:, None, None]
    return h
