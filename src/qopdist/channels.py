"""Quantum operations in operator-sum form.

An operation is a finite set of Kraus operators E_mu mapping a dim_in
space into a dim_out space.  The associated operator T = sum E_mu^† E_mu
obeys 0 <= T <= 1 and carries everything this package needs: occurrence
probabilities tr(T rho), the probability-difference distance between two
inputs, its extremal states, and the exact-cloning example.  ``apply``
maps one Hermitian input matrix or a stack of them; every other function
of an input takes states, and converts a raw operand once with
``states.as_state``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .config import TOL_PROB, checked_index, checked_indices, checked_real, resolve_tol
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    PurityError,
    ValidationError,
    ZeroProbabilityError,
)
from .linalg import (
    as_complex_array,
    as_complex_matrix,
    as_hermitian,
    bounded_max,
    complex_normals,
    hermitian_part,
)
from .metrics import fidelity, trace_distance
from .states import DensityMatrix, as_state, from_spectrum, state_matrix, validate_state

__all__ = [
    "ClonerOutputs",
    "ContractivityReport",
    "ExtremalPair",
    "QuantumOperation",
    "apply",
    "cloner_distance_factor",
    "cloner_outputs",
    "contractivity_check",
    "e_distance",
    "held",
    "is_trace_preserving",
    "max_e_distance_over_states",
    "normalize_output",
    "occurrence_probability",
    "random_operation",
    "random_operations",
    "random_operations_max_gap",
    "t_eigh",
    "t_operator",
]

_CLUSTER_TOL = 1e-10  # T eigenvalues this close to an extreme attain it


class QuantumOperation:
    """Immutable Kraus set {E_mu}, each of shape (dim_out, dim_in).

    The sum T = sum E_mu^† E_mu is validated to satisfy 0 <= T <= 1
    (eigenvalues in [-tol, 1+tol]) and cached at construction; the check
    reads the spectrum ``t_eigh`` holds, so T is diagonalized once.  The
    operation holds read-only copies of the given operators, and what
    ``held`` derives from them, alone or with a pair of states, for as
    long as it lives.  A copy or an unpickled operation is built again from
    its Kraus operators without checking T again (bit-equal operators give
    the T the original passed with, at its own tolerance), and starts with
    nothing held.
    """

    __slots__ = ("kraus", "dim_in", "dim_out", "t_op", "_held")

    def __init__(self, kraus, tol: float | None = None):
        tol = resolve_tol(tol)
        if not np.iterable(kraus):
            raise ValidationError(f"kraus must be a sequence of matrices, got {kraus!r}")
        ops = tuple(as_complex_matrix(e).copy() for e in kraus)
        if not ops:
            raise ValidationError("need at least one Kraus operator")
        d_out, d_in = ops[0].shape
        if d_out < 1 or d_in < 1:
            raise ValidationError(f"Kraus operators need nonzero dimensions, got shape {(d_out, d_in)}")
        for e in ops[1:]:
            if e.shape != (d_out, d_in):
                raise DimensionMismatchError(
                    f"Kraus shapes disagree: {(d_out, d_in)} vs {e.shape}"
                )
        _fill(self, ops)
        w = t_eigh(self)[0]
        if w[0] < -tol or w[-1] > 1.0 + tol:
            raise ValidationError(
                f"Kraus sum gives T eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}], "
                f"outside [0, 1] by {max(-w[0], w[-1] - 1.0):.3e}"
            )

    def __setattr__(self, name, value):
        raise AttributeError("QuantumOperation is immutable")

    def __reduce__(self):
        return _rebuilt, (self.kraus,)

    def __repr__(self):
        return (
            f"QuantumOperation(n_kraus={len(self.kraus)}, "
            f"dim_in={self.dim_in}, dim_out={self.dim_out})"
        )


def _t_sum(ops) -> np.ndarray:
    """T = sum E_mu^† E_mu, symmetrized, in one fixed order of arithmetic."""
    d_in = ops[0].shape[1]
    t = np.zeros((d_in, d_in), dtype=np.complex128)
    for e in ops:
        t += e.conj().T @ e
    return hermitian_part(t)


def _fill(op: QuantumOperation, ops: tuple) -> QuantumOperation:
    t = _t_sum(ops)
    for e in ops:
        e.flags.writeable = False
    t.flags.writeable = False
    object.__setattr__(op, "kraus", ops)
    object.__setattr__(op, "dim_in", int(t.shape[0]))
    object.__setattr__(op, "dim_out", int(ops[0].shape[0]))
    object.__setattr__(op, "t_op", t)
    object.__setattr__(op, "_held", {})
    return op


def _rebuilt(ops: tuple) -> QuantumOperation:
    """An operation with Kraus operators ``ops`` whose T is known to lie in
    [0, 1], a copy's or one this module built, without checking T again."""
    return _fill(object.__new__(QuantumOperation), ops)


def held(owner, build, *others):
    """``build(owner, *others)``, held on ``owner``, an operation or a state,
    for as long as it lives: the package's one store of derived data.

    Owner and others are immutable, so a held result stays valid; its
    arrays are read-only, as later calls hand out the same objects.  Each
    ``build`` keeps one entry, which refers to ``others`` weakly and hits
    only while each of them is the very object passed now; a miss builds
    again and replaces the entry whole.  A ``build`` that raises stores
    nothing.  Two threads may both run ``build``; either result is kept.
    """
    entry = owner._held.get(build)
    if entry is not None:
        for ref, other in zip(entry[0], others):
            if ref() is not other:
                break
        else:  # every one of ``others`` is the object the entry was built with
            return entry[1]
    refs = tuple(map(weakref.ref, others))
    result = build(owner, *others)
    owner._held[build] = (refs, result)
    return result


def _t_eigh(E: QuantumOperation):
    w, v = np.linalg.eigh(E.t_op)
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def t_eigh(E: QuantumOperation):
    """``np.linalg.eigh`` of T: ascending eigenvalues w and eigenvectors as
    the columns of v, computed once per operation and held on it
    (``held``), both read-only."""
    return held(E, _t_eigh)


def _operand(E: QuantumOperation, rho, stack: bool = False):
    """An input to E once its shape is checked, (dim_in, dim_in): a state,
    through ``as_state``; or with ``stack``, for ``apply``, also a stack
    (n, dim_in, dim_in), as the Hermitian matrix ``state_matrix`` gives."""
    m = rho.mat if isinstance(rho, DensityMatrix) else as_complex_array(rho)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        raise ValidationError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[-2:] != (E.dim_in, E.dim_in):
        kind = "operand stack" if m.ndim == 3 else "operand"
        raise DimensionMismatchError(f"{kind} shape {m.shape} does not match operation input dim {E.dim_in}")
    x = rho if isinstance(rho, DensityMatrix) else m
    return state_matrix(x) if stack else as_state(x)


def apply(E: QuantumOperation, rho) -> np.ndarray:
    """Operator-sum action sum E_mu rho E_mu^†; subnormalized for non-TP E.

    ``rho`` is one matrix (dim_in, dim_in) or a stack (n, dim_in, dim_in),
    which gives the stack (n, dim_out, dim_out) of outputs through the same
    Kraus loop, broadcast over the stack.  A raw operand must be Hermitian
    within ``TOL_HERM`` (``states.state_matrix``).
    """
    m = _operand(E, rho, stack=True)
    out = np.zeros(m.shape[:-2] + (E.dim_out, E.dim_out), dtype=np.complex128)
    for e in E.kraus:
        out += e @ m @ e.conj().T
    return hermitian_part(out)


def t_operator(E: QuantumOperation) -> np.ndarray:
    """The positive operator T = sum E_mu^† E_mu on the input space."""
    return E.t_op


def occurrence_probability(E: QuantumOperation, rho) -> float:
    """Probability tr(T rho) that the operation occurs on the state rho."""
    p = float(np.trace(E.t_op @ _operand(E, rho).mat).real)
    return min(max(p, 0.0), 1.0)


def normalize_output(E: QuantumOperation, rho):
    """Normalized output state and its occurrence probability.

    Raises ZeroProbabilityError when the branch does not occur
    (probability at or below TOL_PROB).
    """
    rho = _operand(E, rho)
    p = occurrence_probability(E, rho)
    if p <= TOL_PROB:
        raise ZeroProbabilityError(f"occurrence probability {p:.3e} <= {TOL_PROB:.3e}")
    out = apply(E, rho) / p
    return validate_state(out), p


def e_distance(E: QuantumOperation, rho, sigma) -> float:
    """Absolute difference of occurrence probabilities |tr(T rho) - tr(T sigma)|."""
    return abs(float(np.trace(E.t_op @ (_operand(E, rho).mat - _operand(E, sigma).mat)).real))


def is_trace_preserving(E: QuantumOperation, tol: float | None = None) -> bool:
    """True when T equals the identity within tol (entrywise max norm)."""
    tol = resolve_tol(tol)
    return bool(np.max(np.abs(E.t_op - np.eye(E.dim_in))) <= tol)


@dataclass(frozen=True)
class ExtremalPair:
    """Largest probability difference over all input pairs and its attainers."""

    value: float
    rho_star: DensityMatrix
    sigma_star: DensityMatrix
    theta_max: float
    theta_min: float

    def __post_init__(self):
        if abs(self.value - (self.theta_max - self.theta_min)) > 1e-12:
            raise ValidationError(
                f"value {self.value!r} != theta_max - theta_min = "
                f"{self.theta_max - self.theta_min!r}"
            )


def max_e_distance_over_states(E: QuantumOperation) -> ExtremalPair:
    """Maximize the probability difference over all pairs of input states.

    The maximum equals the spread of the T spectrum; it is attained by the
    normalized projectors onto the top and bottom eigenspaces (eigenvalues
    within _CLUSTER_TOL of the extremes).
    """
    w, v = t_eigh(E)
    theta_min, theta_max = float(w[0]), float(w[-1])
    top = w >= theta_max - _CLUSTER_TOL
    bot = w <= theta_min + _CLUSTER_TOL
    return ExtremalPair(
        value=theta_max - theta_min,
        rho_star=from_spectrum(v[:, top], np.full(top.sum(), 1.0 / top.sum())),
        sigma_star=from_spectrum(v[:, bot], np.full(bot.sum(), 1.0 / bot.sum())),
        theta_max=theta_max,
        theta_min=theta_min,
    )


@dataclass(frozen=True)
class ContractivityReport:
    """D(in) and D(out) of a pair; trace-preserving operations never increase D."""

    d_in: float
    d_out: float


def contractivity_check(E: QuantumOperation, rho, sigma) -> ContractivityReport:
    """D(in) and D(out) of a pair under a trace-preserving operation."""
    if not is_trace_preserving(E):
        raise ValidationError("contractivity_check needs a trace-preserving operation")
    rho, sigma = _operand(E, rho), _operand(E, sigma)
    return ContractivityReport(d_in=trace_distance(rho, sigma), d_out=trace_distance(apply(E, rho), apply(E, sigma)))


@dataclass(frozen=True)
class ClonerOutputs:
    """Subnormalized outputs of the exact cloner for a designated pure pair."""

    g1: np.ndarray
    g2: np.ndarray
    omega: float


def cloner_outputs(omega1, omega2, tol: float | None = None) -> ClonerOutputs:
    """Outputs (1+Omega)^{-1} w_j (x) w_j of the exact probabilistic cloner.

    Omega is the fidelity of the two designated pure inputs; the success
    probability of exact cloning is 1/(1+Omega), which shows up as the
    common trace of both outputs.
    """
    tol = resolve_tol(tol)
    s1, s2 = as_state(omega1), as_state(omega2)
    if max(s1.mat.ndim, s2.mat.ndim) > 2:
        raise ValidationError("cloner_outputs takes two states, not stacks of them")
    if s1.dim != s2.dim:
        raise DimensionMismatchError(f"input dims differ: {s1.dim} vs {s2.dim}")
    for name, s in (("omega1", s1), ("omega2", s2)):
        if s.purity < 1.0 - tol:
            raise PurityError(f"{name} is mixed (tr rho^2 = {s.purity:.12f})")
    om = fidelity(s1, s2)
    if om >= 1.0 - 1e-12:
        raise DegenerateInputError("designated pure states coincide")
    scale = 1.0 / (1.0 + om)
    return ClonerOutputs(
        g1=scale * np.kron(s1.mat, s1.mat),
        g2=scale * np.kron(s2.mat, s2.mat),
        omega=om,
    )


def cloner_distance_factor(omega: float) -> float:
    """Output/input distance ratio sqrt(1+Omega^2)/(1+Omega) of the cloner.

    Strictly decreasing on [0, 1) and always above 1/sqrt(2).
    """
    omega = checked_real("omega", omega)
    if not (0.0 <= omega < 1.0):
        raise ValidationError(f"Omega must lie in [0, 1), got {omega!r}")
    return float(np.sqrt(1.0 + omega * omega) / (1.0 + omega))


def _raw_operations(dim_in: int, dim_out, n_kraus, rng: np.random.Generator):
    """The unscaled Kraus block and T stack of ``random_operations``: the
    one draw path, which the argument checks, the padded normals and the
    sum T = sum E^dag E all run through."""
    dim_in = checked_index("dim_in", dim_in, 1)
    dim_out = checked_indices("dim_out", dim_out, 1)
    n_kraus = checked_indices("n_kraus", n_kraus, 1)
    if dim_out.shape != n_kraus.shape:
        raise DimensionMismatchError(f"dim_out and n_kraus differ in length: {dim_out.size} vs {n_kraus.size}")
    n_max, out_max = int(n_kraus.max(initial=1)), int(dim_out.max(initial=1))
    keep = (np.arange(n_max) < n_kraus[:, None])[:, :, None] & (np.arange(out_max) < dim_out[:, None])[:, None, :]
    g = complex_normals(keep, dim_in, rng)
    g.view(np.float64)[...] *= 1.0 / np.sqrt(2.0)  # g / sqrt(2), bit for bit: numpy divides by the reciprocal
    rows = g.reshape(len(g), n_max * out_max, dim_in)
    return g, rows.conj().transpose(0, 2, 1) @ rows


def _scales(t: np.ndarray) -> np.ndarray:
    """The factor 1 / (||T|| + 1e-9) of each raw T of a stack: the one
    scale rule of ``random_operations``."""
    return 1.0 / (np.linalg.eigvalsh(t)[:, -1] + 1e-9)


def random_operations(dim_in: int, dim_out, n_kraus, rng: np.random.Generator):
    """Random operations on ``dim_in``-dimensional inputs, one per entry of
    the 1-D integer arrays ``dim_out`` and ``n_kraus``: complex-normal Kraus
    operators, each set divided by sqrt(||T|| + 1e-9).

    That scaling keeps the top of each T spectrum strictly below 1 and
    covers the non-trace-preserving regime the extremal-pair machinery
    cares about.  One padded draw: the Kraus block has shape
    (n, max(n_kraus), max(dim_out), dim_in) and is zero beyond each
    operation's Kraus count and output dimension, so an operation draws the
    same normals whatever the others' shapes.  Returns the Kraus block and
    the stacked T (n, dim_in, dim_in).
    """
    g, t = _raw_operations(dim_in, dim_out, n_kraus, rng)
    scale = _scales(t)
    return g * np.sqrt(scale)[:, None, None, None], t * scale[:, None, None]


def random_operations_max_gap(delta, dim_out, n_kraus, rng: np.random.Generator) -> float:
    """max_i |tr(T_i delta)| over the T stack that
    ``random_operations(delta.shape[0], dim_out, n_kraus, rng)`` returns,
    bit for bit, from the same draws; ``delta`` is Hermitian within
    ``TOL_HERM`` and enters as its Hermitian part.

    Only the operations that can still set the maximum are scaled exactly
    (``linalg.bounded_max``).  Every raw T has ||T|| >= max_k T[k, k]
    (Rayleigh quotient), so |tr(T delta)| / (max_k T[k, k] + 1e-9) is the
    estimate; the scale is max|delta|, as each |T[i, j]| <= 1 once scaled.
    """
    delta = as_hermitian(as_complex_matrix(delta))
    _, t = _raw_operations(delta.shape[0], dim_out, n_kraus, rng)
    if not len(t):
        raise ValidationError("random_operations_max_gap needs at least one operation")
    diag = np.einsum("nii->ni", t).real.max(axis=1)
    raw = np.abs(np.einsum("nij,ji->n", t, delta).real)

    def gaps(block):
        sub = t[block]
        return np.abs(np.einsum("nij,ji->n", sub * _scales(sub)[:, None, None], delta).real)

    return bounded_max(raw / (diag + 1e-9), gaps, float(np.abs(delta).max()))


def random_operation(dim_in: int, dim_out: int, n_kraus: int, rng: np.random.Generator) -> QuantumOperation:
    """One random operation: ``random_operations`` for n = 1.

    Its scaling is the proof that 0 <= T <= 1, so the constructor's check
    is not repeated.
    """
    kraus, _ = random_operations(dim_in, [dim_out], [n_kraus], rng)
    return _rebuilt(tuple(kraus[0]))
