"""Quantum operations in operator-sum form.

An operation is a finite set of Kraus operators E_mu mapping a dim_in
space into a dim_out space.  The associated operator T = sum E_mu^† E_mu
obeys 0 <= T <= 1 and carries everything this package needs: occurrence
probabilities tr(T rho), the probability-difference distance between two
inputs, its extremal states, and the exact-cloning example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL_BOUND, TOL_PROB, checked_index, checked_indices, resolve_tol
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    PurityError,
    ValidationError,
    ZeroProbabilityError,
)
from .linalg import as_complex_matrix, complex_normals, hermitian_part
from .metrics import fidelity, trace_distance
from .states import DensityMatrix, as_state, from_spectrum, validate_state

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
    "is_trace_preserving",
    "max_e_distance_over_states",
    "normalize_output",
    "occurrence_probability",
    "random_operation",
    "random_operations",
    "t_operator",
]

_CLUSTER_TOL = 1e-10  # T eigenvalues this close to an extreme attain it


class QuantumOperation:
    """Immutable Kraus set {E_mu}, each of shape (dim_out, dim_in).

    The sum T = sum E_mu^† E_mu is validated to satisfy 0 <= T <= 1
    (eigenvalues in [-tol, 1+tol]) and cached at construction.  The
    operation holds read-only copies of the given operators.
    """

    __slots__ = ("kraus", "dim_in", "dim_out", "t_op")

    def __init__(self, kraus, tol: float | None = None):
        tol = resolve_tol(tol)
        ops = tuple(as_complex_matrix(np.array(e, dtype=np.complex128)) for e in kraus)
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
        t = _t_sum(ops)
        w = np.linalg.eigvalsh(t)
        if w[0] < -tol or w[-1] > 1.0 + tol:
            raise ValidationError(
                f"Kraus sum gives T eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}], "
                "outside [0, 1]"
            )
        _fill(self, ops, t)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumOperation is immutable")

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


def _fill(op: QuantumOperation, ops: tuple, t: np.ndarray) -> QuantumOperation:
    for e in ops:
        e.flags.writeable = False
    t.flags.writeable = False
    object.__setattr__(op, "kraus", ops)
    object.__setattr__(op, "dim_in", int(t.shape[0]))
    object.__setattr__(op, "dim_out", int(ops[0].shape[0]))
    object.__setattr__(op, "t_op", t)
    return op


def _trusted_operation(ops: tuple, t: np.ndarray) -> QuantumOperation:
    """Wrap Kraus operators this module just built, with ``t = _t_sum(ops)``
    already known to lie between 0 and 1, without checking them again."""
    return _fill(object.__new__(QuantumOperation), ops, t)


def _input_matrix(E: QuantumOperation, rho) -> np.ndarray:
    m = rho.mat if isinstance(rho, DensityMatrix) else as_complex_matrix(rho)
    if m.shape != (E.dim_in, E.dim_in):
        raise DimensionMismatchError(
            f"operand shape {m.shape} does not match operation input dim {E.dim_in}"
        )
    return m


def apply(E: QuantumOperation, rho) -> np.ndarray:
    """Operator-sum action sum E_mu rho E_mu^†; subnormalized for non-TP E."""
    m = _input_matrix(E, rho)
    out = np.zeros((E.dim_out, E.dim_out), dtype=np.complex128)
    for e in E.kraus:
        out += e @ m @ e.conj().T
    return hermitian_part(out)


def t_operator(E: QuantumOperation) -> np.ndarray:
    """The positive operator T = sum E_mu^† E_mu on the input space."""
    return E.t_op


def occurrence_probability(E: QuantumOperation, rho) -> float:
    """Probability tr(T rho) that the operation occurs on input rho."""
    m = _input_matrix(E, rho)
    p = float(np.trace(E.t_op @ m).real)
    return min(max(p, 0.0), 1.0)


def normalize_output(E: QuantumOperation, rho):
    """Normalized output state and its occurrence probability.

    Raises ZeroProbabilityError when the branch does not occur
    (probability at or below TOL_PROB).
    """
    p = occurrence_probability(E, rho)
    if p <= TOL_PROB:
        raise ZeroProbabilityError(f"occurrence probability {p:.3e} <= {TOL_PROB:.3e}")
    out = apply(E, rho) / p
    return validate_state(out), p


def e_distance(E: QuantumOperation, rho, sigma) -> float:
    """Absolute difference of occurrence probabilities |tr(T rho) - tr(T sigma)|."""
    mr = _input_matrix(E, rho)
    ms = _input_matrix(E, sigma)
    return abs(float(np.trace(E.t_op @ (mr - ms)).real))


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
    w, v = np.linalg.eigh(E.t_op)
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
    """Trace-preserving operations never increase trace distance."""

    d_in: float
    d_out: float
    holds: bool


def contractivity_check(E: QuantumOperation, rho, sigma) -> ContractivityReport:
    """Check D(out) <= D(in) + TOL_BOUND for a trace-preserving operation."""
    if not is_trace_preserving(E):
        raise ValidationError("contractivity_check needs a trace-preserving operation")
    d_in = trace_distance(_input_matrix(E, rho), _input_matrix(E, sigma))
    d_out = trace_distance(apply(E, rho), apply(E, sigma))
    return ContractivityReport(d_in=d_in, d_out=d_out, holds=d_out <= d_in + TOL_BOUND)


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
    if not (0.0 <= omega < 1.0):
        raise ValidationError(f"Omega must lie in [0, 1), got {omega!r}")
    return float(np.sqrt(1.0 + omega * omega) / (1.0 + omega))


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
    dim_in = checked_index("dim_in", dim_in, 1)
    dim_out = checked_indices("dim_out", dim_out, 1)
    n_kraus = checked_indices("n_kraus", n_kraus, 1)
    if dim_out.shape != n_kraus.shape:
        raise DimensionMismatchError(f"dim_out and n_kraus differ in length: {dim_out.size} vs {n_kraus.size}")
    n_max, out_max = int(n_kraus.max(initial=1)), int(dim_out.max(initial=1))
    keep = (np.arange(n_max) < n_kraus[:, None])[:, :, None] & (np.arange(out_max) < dim_out[:, None])[:, None, :]
    g = complex_normals(keep, dim_in, rng) / np.sqrt(2.0)
    rows = g.reshape(len(g), n_max * out_max, dim_in)
    t = rows.conj().transpose(0, 2, 1) @ rows
    scale = 1.0 / (np.linalg.eigvalsh(t)[:, -1] + 1e-9)
    return g * np.sqrt(scale)[:, None, None, None], t * scale[:, None, None]


def random_operation(dim_in: int, dim_out: int, n_kraus: int, rng: np.random.Generator) -> QuantumOperation:
    """One random operation: ``random_operations`` for n = 1.

    Its scaling is the proof that 0 <= T <= 1, so the constructor's check
    is not repeated.
    """
    kraus, _ = random_operations(dim_in, [dim_out], [n_kraus], rng)
    ops = tuple(kraus[0])
    return _trusted_operation(ops, _t_sum(ops))
