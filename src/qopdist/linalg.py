"""Dense complex linear algebra on small Hermitian matrices.

Everything downstream (distances, operation analysis, the maximizer
constructions) runs through the eigendecomposition, the positive square
root and the positive/negative spectral split implemented here.  Matrices
are plain complex128 ndarrays; validators return symmetrized copies so
later arithmetic never sees asymmetric round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL_HERM, TOL_ORTHO, TOL_PSD, checked_index, resolve_tol
from .errors import NumericalError, ValidationError

__all__ = [
    "SpectralSplit",
    "as_complex_array",
    "as_complex_matrix",
    "as_hermitian",
    "as_real_array",
    "bounded_max",
    "complex_normals",
    "eig_hermitian",
    "hermitian_part",
    "projector_onto",
    "psd_sqrt",
    "random_hermitian",
    "spectral_split",
]


def as_complex_matrix(a: np.ndarray) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array; a stack of matrices is
    rejected, so this is also the gate of every function that takes one
    matrix."""
    m = as_complex_array(a)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def as_complex_array(a) -> np.ndarray:
    """Coerce to a finite C-contiguous complex128 array of any shape;
    non-numeric or ragged input raises ValidationError."""
    try:
        m = np.ascontiguousarray(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"expected an array of numbers: {exc}") from exc
    if not np.isfinite(m).all():
        raise ValidationError("matrix contains NaN or Inf entries")
    return m


def as_real_array(a) -> np.ndarray:
    """Coerce to a float64 array of any shape; complex, non-numeric or
    ragged input raises ValidationError."""
    try:
        m = np.asarray(a)
        if m.dtype.kind != "c":
            return m.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"expected an array of real numbers: {exc}") from exc
    raise ValidationError("expected an array of real numbers, got complex entries")


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack (..., m, n)."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A†)/2, of one matrix or of each matrix of a stack (..., d, d)."""
    a = np.asarray(a, dtype=np.complex128)
    return 0.5 * (a + _dagger(a))


def as_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Validate Hermiticity within ``tol`` and return the symmetrized copy.

    Takes one matrix (d, d) or a stack (..., d, d), checked in one pass;
    an empty stack passes.  ``tol`` must be a finite number >= 0
    (``config.resolve_tol``).
    """
    tol = resolve_tol(tol)
    m = as_complex_array(a)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    dev = float(np.abs(m - _dagger(m)).max(initial=0.0))
    if dev > tol:
        raise ValidationError(f"matrix is not Hermitian: max |A - A†| = {dev:.3e} > {tol:.1e}")
    return hermitian_part(m)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style random Hermitian matrix with entries of typical size 1."""
    dim = checked_index("dim", dim, 1)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(g / np.sqrt(2.0))


def complex_normals(keep: np.ndarray, dim: int, rng: np.random.Generator) -> np.ndarray:
    """A block of rows of ``dim`` complex normals (real and imaginary parts
    i.i.d. N(0, 1)) where ``keep`` is True, and zero rows where it is not."""
    dim = checked_index("dim", dim, 1)
    g = np.zeros(keep.shape + (dim,), dtype=np.complex128)
    rows = np.flatnonzero(keep)  # the kept rows' flat indices, in C order
    g.reshape(-1, dim)[rows] = rng.standard_normal((rows.size, 2 * dim)).view(np.complex128)
    return g


def bounded_max(estimate, exact, scale: float) -> float:
    """The largest exact value of an oracle, evaluating only the members
    that can still set it.

    ``estimate`` (1-D) is at or above each member's exact value in exact
    arithmetic, and ``exact(block)`` gives the exact values of the members
    at the index array ``block``.  A member's bound is ``estimate + 1e-9 *
    |estimate| + 1e-12 * scale``: margins far above the rounding of both
    values for inputs of size ``scale``.  The members are visited by
    descending bound (stable sort), in blocks of 16, 32, 64 and so on; each
    block is cut to the bounds still above the largest exact value found,
    and the visit stops at the first bound at or below it.  An exact value
    above its bound, or NaN, raises NumericalError; an empty estimate array
    or a NaN bound raises ValidationError.
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    if estimate.ndim != 1 or not estimate.size:
        raise ValidationError(f"bounded_max needs a 1-D array of at least one estimate, got shape {estimate.shape}")
    bound = estimate + 1e-9 * np.abs(estimate) + 1e-12 * scale
    if np.isnan(bound).any():
        raise ValidationError(f"bounded_max got a NaN bound from its estimates and scale {scale!r}")
    order = np.argsort(-bound, kind="stable")
    best, start, size = -np.inf, 0, 16
    while start < len(order) and bound[order[start]] > best:
        block = order[start : start + size]
        block = block[bound[block] > best]
        values = exact(block)
        above = np.flatnonzero(~(values <= bound[block]))  # NaN is not at or below
        if above.size:
            i, value = block[above[0]], float(values[above[0]])
            raise NumericalError(f"bounded_max: member {i} has exact value {value!r} above its bound {float(bound[i])!r}")
        best = max(best, float(np.max(values)))
        start, size = start + size, 2 * size
    return best


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of one matrix Hermitian within ``TOL_HERM``.

    Returns ``(vals, vecs)`` with eigenvalues sorted descending and
    eigenvectors as the matching columns of ``vecs``.
    """
    m = as_hermitian(as_complex_matrix(h))
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    return w[::-1].copy(), v[:, ::-1].copy()


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Unique positive square root of a positive semidefinite matrix, or of
    each matrix of a stack (..., d, d).

    Eigenvalues below ``-TOL_PSD`` are rejected.  Eigenvalues at or below
    ``d * eps * max|eigenvalue|`` are round-off on the kernel and count as
    zero: their square roots (~1e-8 from ~1e-17) would otherwise enter
    every product with the root.
    """
    m = as_hermitian(a)
    w, v = np.linalg.eigh(m)
    low = float(w.min(initial=0.0))
    if low < -TOL_PSD:
        raise ValidationError(f"matrix is not PSD: min eigenvalue {low:.3e} < -{TOL_PSD:.1e}")
    cut = m.shape[-1] * np.finfo(np.float64).eps * np.abs(w).max(axis=-1, keepdims=True, initial=0.0)
    roots = np.sqrt(np.where(w > cut, w, 0.0))
    return hermitian_part((v * roots[..., None, :]) @ _dagger(v))


@dataclass(frozen=True)
class SpectralSplit:
    """Positive/negative split of a Hermitian matrix.

    ``q_mat - r_mat`` reconstructs the input; both parts are PSD with
    orthogonal supports.  Basis arrays hold orthonormal columns: ``q_basis``
    spans the strictly-positive eigenspace (eigenvalues ``q_vals``,
    descending), ``r_basis`` the strictly-negative one (``r_vals`` are the
    magnitudes), and ``kernel_basis`` the numerical kernel.
    """

    q_mat: np.ndarray
    r_mat: np.ndarray
    q_vals: np.ndarray
    r_vals: np.ndarray
    q_basis: np.ndarray
    r_basis: np.ndarray
    kernel_basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.q_mat.shape[0]

    @property
    def kernel_dim(self) -> int:
        return self.kernel_basis.shape[1]


def spectral_split(delta: np.ndarray) -> SpectralSplit:
    """Split a Hermitian matrix into positive part, negative part and kernel.

    Eigenvalues with magnitude at or below ``1e-9 * max|eigenvalue|`` are
    assigned to the kernel.
    """
    w, v = eig_hermitian(delta)
    cut = 1e-9 * float(np.max(np.abs(w))) if w.size else 0.0
    pos = w > cut
    neg = w < -cut
    ker = ~(pos | neg)
    dim = v.shape[0]

    q_basis = v[:, pos]
    r_basis = v[:, neg][:, ::-1]  # most negative last in eigh order; flip to magnitude-descending
    q_vals = w[pos]
    r_vals = -w[neg][::-1]
    q_mat = hermitian_part((q_basis * q_vals) @ q_basis.conj().T) if q_vals.size else np.zeros((dim, dim), dtype=np.complex128)
    r_mat = hermitian_part((r_basis * r_vals) @ r_basis.conj().T) if r_vals.size else np.zeros((dim, dim), dtype=np.complex128)
    return SpectralSplit(
        q_mat=q_mat,
        r_mat=r_mat,
        q_vals=q_vals,
        r_vals=r_vals,
        q_basis=q_basis,
        r_basis=r_basis,
        kernel_basis=v[:, ker],
    )


def projector_onto(vectors, dim: int) -> np.ndarray:
    """Projector onto the span of vectors orthonormal within ``TOL_ORTHO``.

    ``vectors`` may be a sequence of 1-D arrays or a 2-D array whose
    columns are the vectors.  An empty list yields the zero matrix.  A
    NaN or infinite entry raises ValidationError before any product.
    """
    cols = _as_columns(vectors, checked_index("dim", dim, 1))
    if cols.shape[1]:
        gram = cols.conj().T @ cols
        dev = float(np.max(np.abs(gram - np.eye(cols.shape[1]))))
        if not dev <= TOL_ORTHO:  # also catches a NaN from overflow
            raise ValidationError(f"vectors are not orthonormal: Gram deviation {dev:.3e} > {TOL_ORTHO:.1e}")
    return hermitian_part(cols @ cols.conj().T)


def _as_columns(vectors, dim: int) -> np.ndarray:
    if not (isinstance(vectors, np.ndarray) and vectors.ndim == 2):
        vecs = [as_complex_array(x).reshape(-1) for x in vectors]
        vectors = as_complex_array(vecs).T if vecs else np.zeros((dim, 0))
    cols = as_complex_array(vectors)
    if cols.shape[0] != dim:
        raise ValidationError(f"vectors live in dimension {cols.shape[0]}, expected {dim}")
    return cols
