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
from .linalg import as_hermitian, complex_normals, hermitian_part

__all__ = [
    "DensityMatrix",
    "PAULI",
    "as_state",
    "bloch_of",
    "from_bloch",
    "from_spectrum",
    "random_density",
    "state_matrix",
    "validate_state",
]

_EPS = np.finfo(np.float64).eps

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


@dataclass(frozen=True)
class DensityMatrix:
    """A normalized quantum state (d, d), or a stack (n, d, d) of them:
    Hermitian, PSD, unit trace.

    Construction validates the invariants, so holding a ``DensityMatrix``
    is the proof that each wrapped matrix is a state.
    """

    mat: np.ndarray

    def __post_init__(self):
        m, _, _ = _check_state(self.mat, TOL_HERM, TOL_PSD, TOL_TRACE)
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

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
    module just built, without checking it again."""
    m.flags.writeable = False
    state = object.__new__(DensityMatrix)
    object.__setattr__(state, "mat", m)
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
    u = np.asarray(u, dtype=np.float64).reshape(-1)
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
    dim = checked_index("dim", dim, 1)
    one = np.ndim(rank) == 0
    ranks = np.array([checked_index("rank", rank, 1)]) if one else checked_indices("rank", rank, 1)
    if (ranks > dim).any():
        raise ValidationError(f"rank must be <= dim, got rank={rank}, dim={dim}")
    g = complex_normals(np.arange(dim) < ranks[:, None], dim, rng)
    mats = hermitian_part(g.conj().transpose(0, 2, 1) @ g)
    mats = mats / np.einsum("nii->n", mats).real[:, None, None]
    return _trusted_state(mats[0] if one else mats)


def from_spectrum(vectors, weights) -> DensityMatrix:
    """The state V diag(w) V† of columns V orthonormal within ``TOL_ORTHO``
    and weights w >= 0 that sum to 1 within ``TOL_TRACE``: w is the
    spectrum, so the check needs no eigendecomposition."""
    v = np.asarray(vectors, dtype=np.complex128)
    w = np.asarray(weights, dtype=np.float64)
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
