"""Distance measures on states and Hermitian operators.

Trace distance is defined for arbitrary Hermitian matrices (half the trace
norm of the difference); fidelity, angle and sine distance require states.
The qubit closed forms and the gap maximizer live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import TOL_BOUND
from .errors import DimensionMismatchError, ValidationError
from .linalg import psd_sqrt
from .states import as_state, state_matrix

__all__ = [
    "FvdgReport",
    "QubitGapPoint",
    "angle",
    "check_fvdg_bounds",
    "fidelity",
    "max_qubit_gap",
    "qubit_gap",
    "sine_distance",
    "trace_distance",
]


def trace_distance(a, b) -> float | np.ndarray:
    """Half the trace norm of (a - b) for Hermitian a, b.

    Also takes two stacks (n, d, d) of the same shape and returns the n
    distances of their pairs as an array; one pair gives a float.
    """
    ma, mb = state_matrix(a), state_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"operands have shapes {ma.shape} and {mb.shape}")
    return _per_pair(0.5 * np.abs(np.linalg.eigvalsh(ma - mb)).sum(axis=-1))


def fidelity(rho, sigma) -> float | np.ndarray:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), clamped to [0, 1].

    Evaluated as the nuclear norm of sqrt(rho) @ sqrt(sigma): identical in
    exact arithmetic, but ``psd_sqrt`` sets round-off eigenvalues on a
    kernel to zero, so rank-deficient inputs keep full precision.  Takes
    states or two stacks (n, d, d) of the same shape, like
    ``trace_distance``; a plain array goes through ``validate_state``,
    once for the whole stack.
    """
    r, s = as_state(rho).mat, as_state(sigma).mat
    if r.shape != s.shape:
        raise DimensionMismatchError(f"states have shapes {r.shape} and {s.shape}")
    sv = np.linalg.svd(psd_sqrt(r) @ psd_sqrt(s), compute_uv=False)
    return _per_pair(np.clip(sv.sum(axis=-1), 0.0, 1.0))


def angle(rho, sigma) -> float | np.ndarray:
    """Angle between states in [0, pi/2]: arccos of the fidelity."""
    return _per_pair(np.arccos(fidelity(rho, sigma)))


def sine_distance(rho, sigma) -> float | np.ndarray:
    """sqrt(1 - F^2); coincides with the trace distance on pure pairs."""
    return _sine(fidelity(rho, sigma))


def _sine(f) -> float | np.ndarray:
    """The sine distance sqrt(1 - F^2) of a pair, or of each pair, with
    fidelity ``f``."""
    return _per_pair(np.sqrt(np.maximum(1.0 - f * f, 0.0)))


def _per_pair(values) -> float | np.ndarray:
    """A float for one pair, the array of values for a stack of pairs."""
    return float(values) if np.ndim(values) == 0 else values


@dataclass(frozen=True)
class QubitGapPoint:
    """A point of the qubit parallelepiped with its gap value."""

    u: float
    v: float
    eta: float
    value: float

    def __post_init__(self):
        ref = qubit_gap(self.u, self.v, self.eta)
        if not np.isfinite(self.value) or abs(self.value - ref) > 1e-12:
            raise ValidationError(f"value {self.value!r} inconsistent with gap({self.u}, {self.v}, {self.eta}) = {ref!r}")


def qubit_gap(u: float, v: float, eta: float) -> float:
    """Sine distance minus trace distance for qubits with Bloch lengths
    u, v and angle cosine eta."""
    if not (-1e-12 <= u <= 1 + 1e-12 and -1e-12 <= v <= 1 + 1e-12 and -1 - 1e-12 <= eta <= 1 + 1e-12):
        raise ValidationError(f"(u, v, eta) = ({u}, {v}, {eta}) outside [0,1]x[0,1]x[-1,1]")
    val = _kernels.gap_values(
        np.array([min(max(u, 0.0), 1.0)]),
        np.array([min(max(v, 0.0), 1.0)]),
        np.array([min(max(eta, -1.0), 1.0)]),
    )
    return float(val[0])


_GAP_GRID_N, _GAP_REFINE_ROUNDS = 50, 6  # max_qubit_gap: points per axis, refinements


def max_qubit_gap() -> QubitGapPoint:
    """Maximize the qubit gap over the parallelepiped [0,1]^2 x [-1,1].

    Deterministic coarse grid followed by shrinking-box refinement around
    the incumbent; ties resolve to the lexicographically smallest point.
    Derivative-free on purpose: the surface has square-root cusps.
    """
    full = box = ((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))
    best_val = -np.inf
    best_pt = (0.0, 0.0, -1.0)
    for _ in range(_GAP_REFINE_ROUNDS + 1):
        axes = [np.linspace(lo, hi, _GAP_GRID_N) for lo, hi in box]
        val, bu, bv, be = _kernels.gap_grid_max(*axes)
        if val > best_val:
            best_val, best_pt = val, (bu, bv, be)
        # Shrink to a few grid cells around the incumbent, clipped to the full box.
        halves = [2.0 * (a[-1] - a[0]) / (_GAP_GRID_N - 1) for a in axes]
        box = [(max(c - h, lo), min(c + h, hi)) for c, h, (lo, hi) in zip(best_pt, halves, full)]
    u, v, eta = best_pt
    return QubitGapPoint(u=u, v=v, eta=eta, value=best_val)


@dataclass(frozen=True)
class FvdgReport:
    """Fuchs-van de Graaf check: 1 - F <= D <= sqrt(1 - F^2), per pair."""

    trace_dist: float | np.ndarray
    fid: float | np.ndarray
    sine_dist: float | np.ndarray
    lower_ok: bool | np.ndarray
    upper_ok: bool | np.ndarray


def check_fvdg_bounds(rho, sigma) -> FvdgReport:
    """Evaluate both bounds, each up to TOL_BOUND, on a state pair or on
    each pair of two stacks (n, d, d), from one fidelity evaluation."""
    r, s = as_state(rho), as_state(sigma)
    d = trace_distance(r, s)
    f = fidelity(r, s)
    c = _sine(f)
    return FvdgReport(
        trace_dist=d,
        fid=f,
        sine_dist=c,
        lower_ok=(1.0 - f) <= d + TOL_BOUND,
        upper_ok=d <= c + TOL_BOUND,
    )
