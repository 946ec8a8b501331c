"""Constructions around operations that maximize probability difference.

Forward direction: given two states, build operations whose occurrence
probabilities differ by exactly the trace distance (Kraus operators
|q'><q| over the positive-part eigenbasis of rho - sigma).  Reverse
direction: given such an operation, build matched state pairs attaining
any target distance.  Certification decides membership by block-
decomposing T in the (q, r, kernel) basis.  Bound reports evaluate the
output-distance inequalities; the extremal-trace and maximizing-projector
helpers cover the supporting variational identities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channels import QuantumOperation, apply, held, occurrence_probability, t_eigh
from .config import TOL_BOUND, TOL_PROB, TOL_UNIT_ZERO, checked_index, checked_real, default_tol, resolve_tol
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NotMaximizingShapeError,
    ValidationError,
    ZeroProbabilityError,
)
from .linalg import SpectralSplit, as_complex_array, as_hermitian, as_real_array, eig_hermitian, projector_onto, spectral_split
from .metrics import trace_distance
from .states import DensityMatrix, as_state, from_spectrum

__all__ = [
    "BoundReport",
    "ExtremalTraceProduct",
    "MaximizerCertificate",
    "MaximizerMode",
    "MaximizingProjector",
    "build_maximizing_operation",
    "build_state_pair",
    "certify_maximizer",
    "extremal_trace_product",
    "matched_eigenspaces",
    "maximizing_projector",
    "theorem3_report",
    "theorem4_report",
]


class MaximizerMode(enum.Enum):
    """Which support carries the unit block of T; NONE means not a maximizer."""

    ON_Q = "on-q"
    ON_R = "on-r"
    NOT_MAXIMIZER = "none"


def _pair_split(rho: DensityMatrix, sigma: DensityMatrix):
    """The split of rho - sigma with read-only arrays, and the trace distance
    0.5 * (sum q_vals + sum r_vals) the coincide cut compares."""
    split = spectral_split(rho.mat - sigma.mat)
    for arr in vars(split).values():
        arr.flags.writeable = False
    return split, 0.5 * (np.sum(split.q_vals) + np.sum(split.r_vals))


def _distinct_split(rho: DensityMatrix, sigma: DensityMatrix, tol: float | None) -> SpectralSplit:
    """Spectral split of rho - sigma; DegenerateInputError when the states
    coincide: their trace distance is at or below the resolved ``tol``.

    Building, certifying and bounding one pair ask for the same split in a
    row, so the split and its distance are held on rho for sigma
    (``channels.held``).  The shape and tolerance checks run on every call.
    """
    tol = resolve_tol(tol)
    if rho.mat.shape != sigma.mat.shape:
        raise DimensionMismatchError(f"state shapes differ: {rho.mat.shape} vs {sigma.mat.shape}")
    split, distance = held(rho, _pair_split, sigma)
    if distance <= tol:
        raise DegenerateInputError(f"states coincide: trace distance at or below {tol:.1e}")
    return split


def build_maximizing_operation(
    rho,
    sigma,
    dim_out: int,
    mode: MaximizerMode = MaximizerMode.ON_Q,
    output_vectors=None,
    tol: float | None = None,
) -> QuantumOperation:
    """Operation whose probability difference on (rho, sigma) equals their
    trace distance.

    One Kraus operator |q'><q| per eigenvector of the chosen support of
    rho - sigma (positive part for ON_Q, negative part for ON_R).  The
    output vectors need norms within 1e-9 of 1 and are divided by their
    norms; by default the standard basis of the output space is assigned
    cyclically.  States within ``tol`` in trace distance coincide
    (DegenerateInputError).
    """
    dim_out = checked_index("dim_out", dim_out, 1)
    split = _distinct_split(as_state(rho), as_state(sigma), tol)
    if mode is MaximizerMode.ON_Q:
        basis = split.q_basis
    elif mode is MaximizerMode.ON_R:
        basis = split.r_basis
    else:
        raise ValidationError(f"mode must be ON_Q or ON_R, got {mode!r}")
    n = basis.shape[1]
    if output_vectors is None:
        eye = np.eye(dim_out, dtype=np.complex128)
        outs = [eye[:, i % dim_out] for i in range(n)]
    else:
        outs = [as_complex_array(v).reshape(-1) for v in output_vectors]
        if len(outs) != n:
            raise ValidationError(f"need {n} output vectors, got {len(outs)}")
        for i, v in enumerate(outs):
            if v.shape != (dim_out,):
                raise ValidationError(f"output vector {i} has dim {v.shape[0]}, expected {dim_out}")
            norm = np.linalg.norm(v)
            if not abs(norm - 1.0) <= 1e-9:
                raise ValidationError(f"output vector {i} is not normalized")
            outs[i] = v / norm
    kraus = [np.outer(outs[i], basis[:, i].conj()) for i in range(n)]
    return QuantumOperation(kraus)


@dataclass(frozen=True)
class MaximizerCertificate:
    """Outcome of testing whether an operation maximizes a pair's
    probability difference, with the additive kernel term and residuals."""

    mode: MaximizerMode
    m_op: np.ndarray | None
    diagnostics: dict


def certify_maximizer(E: QuantumOperation, rho, sigma, tol: float | None = None) -> MaximizerCertificate:
    """Decide whether T = P_supp + M with the unit block on either support
    of rho - sigma and a kernel-supported M between 0 and 1.

    Works in the (q, r, kernel) eigenbasis of rho - sigma; every block must
    match within TOL_UNIT_ZERO, and all block residuals land in the
    diagnostics record.  Returns NOT_MAXIMIZER with m_op None otherwise.
    States within ``tol`` (default ``QOPDIST_DEFAULT_TOL``) in trace
    distance coincide (DegenerateInputError), as for
    ``build_maximizing_operation``.
    """
    split = _distinct_split(as_state(rho), as_state(sigma), tol)
    t = E.t_op
    if t.shape[0] != split.dim:
        raise DimensionMismatchError(
            f"operation input dim {t.shape[0]} does not match state dim {split.dim}"
        )
    nq = split.q_basis.shape[1]
    nr = split.r_basis.shape[1]
    basis = np.hstack([split.q_basis, split.r_basis, split.kernel_basis])
    tb = basis.conj().T @ t @ basis
    qq = tb[:nq, :nq]
    rr = tb[nq : nq + nr, nq : nq + nr]
    kk = tb[nq + nr :, nq + nr :]
    mags = np.abs(tb)
    off_qr = float(mags[:nq, nq : nq + nr].max(initial=0.0))
    off_qk = float(mags[:nq, nq + nr :].max(initial=0.0))
    off_rk = float(mags[nq : nq + nr, nq + nr :].max(initial=0.0))
    res_qq_unit = float(np.max(np.abs(qq - np.eye(nq)), initial=0.0))
    res_qq_zero = float(mags[:nq, :nq].max(initial=0.0))
    res_rr_unit = float(np.max(np.abs(rr - np.eye(nr)), initial=0.0))
    res_rr_zero = float(mags[nq : nq + nr, nq : nq + nr].max(initial=0.0))
    if kk.size:
        mw = np.linalg.eigvalsh(kk)
        m_lo, m_hi = float(mw[0]), float(mw[-1])
    else:
        m_lo, m_hi = 0.0, 0.0
    m_ok = (m_lo >= -TOL_UNIT_ZERO) and (m_hi <= 1.0 + TOL_UNIT_ZERO)
    diagnostics = {
        "tr_t_r": float(np.trace(t @ split.r_mat).real),
        "tr_t_q_minus_tr_q": float((np.trace(t @ split.q_mat) - np.trace(split.q_mat)).real),
        "off_qr": off_qr,
        "off_qk": off_qk,
        "off_rk": off_rk,
        "qq_minus_identity": res_qq_unit,
        "qq_norm": res_qq_zero,
        "rr_minus_identity": res_rr_unit,
        "rr_norm": res_rr_zero,
        "m_min_eig": m_lo,
        "m_max_eig": m_hi,
    }
    offs_ok = max(off_qr, off_qk, off_rk) <= TOL_UNIT_ZERO
    if offs_ok and m_ok and res_qq_unit <= TOL_UNIT_ZERO and res_rr_zero <= TOL_UNIT_ZERO:
        mode = MaximizerMode.ON_Q
    elif offs_ok and m_ok and res_rr_unit <= TOL_UNIT_ZERO and res_qq_zero <= TOL_UNIT_ZERO:
        mode = MaximizerMode.ON_R
    else:
        return MaximizerCertificate(mode=MaximizerMode.NOT_MAXIMIZER, m_op=None, diagnostics=diagnostics)
    kb = split.kernel_basis
    m_full = kb @ kk @ kb.conj().T if kb.shape[1] else np.zeros_like(t)
    return MaximizerCertificate(mode=mode, m_op=m_full, diagnostics=diagnostics)


def matched_eigenspaces(E: QuantumOperation):
    """Eigenvectors of T for eigenvalues within TOL_UNIT_ZERO of 1 and of 0,
    as the columns of (unit, zero); unit columns run from the largest
    eigenvalue down.  Matched state pairs live on these two eigenspaces.
    Both are read-only views of the eigenvectors ``channels.t_eigh`` holds
    on E, so only the first spectral use of an operation diagonalizes T.

    Raises NotMaximizingShapeError when either eigenspace is empty.
    """
    w, v = t_eigh(E)  # ascending, so each eigenspace is a block of columns
    unit = v[:, np.searchsorted(w, 1.0 - TOL_UNIT_ZERO) :][:, ::-1]
    zero = v[:, : np.searchsorted(w, TOL_UNIT_ZERO, side="right")]
    if unit.shape[1] == 0 or zero.shape[1] == 0:
        raise NotMaximizingShapeError(
            f"T spectrum spans [{w[0]:.3e}, {w[-1]:.3e}] but a matched pair "
            f"needs both a unit and a zero eigenvalue"
        )
    return unit, zero


def build_state_pair(
    E: QuantumOperation,
    d_target: float,
    lambda_weights=None,
    kappa_weights=None,
    delta_lambda=None,
    delta_kappa=None,
):
    """Matched pair (rho, sigma) with trace distance and probability
    difference both equal to d_target, for an operation whose T has unit
    and zero eigenvalues.

    rho places lambda + delta_lambda on the unit eigenvectors and
    delta_kappa on the kernel ones; sigma swaps the roles.  Weight lists
    default to uniform; explicit lists may address leading subsets of the
    two eigenspaces, with sums lambda = kappa = d_target and
    delta_lambda + delta_kappa = 1 - d_target; ``from_spectrum`` checks
    that the deltas are >= 0 and complete each state to a unit trace.
    """
    d_target = checked_real("d_target", d_target)
    if not (0.0 < d_target < 1.0):
        raise ValidationError(f"d_target must lie in (0, 1), got {d_target}")
    unit, zero = matched_eigenspaces(E)
    nq_max, nr_max = unit.shape[1], zero.shape[1]
    lam = np.full(nq_max, d_target / nq_max) if lambda_weights is None else as_real_array(lambda_weights)
    kap = np.full(nr_max, d_target / nr_max) if kappa_weights is None else as_real_array(kappa_weights)
    nq, nr = lam.size, kap.size
    if delta_lambda is None and delta_kappa is None:
        dlam = np.full(nq, (1.0 - d_target) / (nq + nr))
        dkap = np.full(nr, (1.0 - d_target) / (nq + nr))
    else:
        dlam = np.zeros(nq) if delta_lambda is None else as_real_array(delta_lambda)
        dkap = np.zeros(nr) if delta_kappa is None else as_real_array(delta_kappa)
    if any(w.ndim != 1 for w in (lam, kap, dlam, dkap)):
        raise ValidationError("weight and delta lists must be 1-D")
    if not (1 <= nq <= nq_max) or dlam.size != nq:
        raise ValidationError(f"lambda lists must address 1..{nq_max} unit eigenvectors")
    if not (1 <= nr <= nr_max) or dkap.size != nr:
        raise ValidationError(f"kappa lists must address 1..{nr_max} kernel eigenvectors")
    if np.any(lam <= 0) or np.any(kap <= 0):
        raise ValidationError("lambda and kappa weights must be strictly positive")
    if abs(lam.sum() - d_target) > 1e-9 or abs(kap.sum() - d_target) > 1e-9:
        raise ValidationError(
            f"lambda and kappa must each sum to {d_target}, got {lam.sum()} and {kap.sum()}"
        )
    basis = np.hstack([unit[:, :nq], zero[:, :nr]])
    return (
        from_spectrum(basis, np.concatenate([lam + dlam, dkap])),
        from_spectrum(basis, np.concatenate([dlam, kap + dkap])),
    )


@dataclass(frozen=True)
class BoundReport:
    """Evaluation of an output-distance bound for a maximizing operation."""

    d_in: float
    d_out_normalized: float | None
    d_out_subnormalized: float
    p_m: float
    p_n: float
    bound: float
    holds: bool
    relative_increase: float | None = None


def _bound_inputs(E: QuantumOperation, rho: DensityMatrix, sigma: DensityMatrix):
    """(d_in, out_r, out_s, d_sub, p_r, p_s) of a certified maximizer E for
    the pair, with read-only outputs and d_sub = D(out_r, out_s).

    Both bound reports on one pair ask for these in a row, so the
    evaluation is held on E for the pair (``channels.held``).  The coincide
    cut runs first on every call, so a raised default tolerance still
    reaches a held pair.
    """
    _distinct_split(rho, sigma, None)
    return held(E, _fresh_bound_inputs, rho, sigma)


def _fresh_bound_inputs(E: QuantumOperation, rho, sigma):
    """Certify E as a maximizer for the pair, then evaluate each output, the
    distance between them and each occurrence probability once."""
    cert = certify_maximizer(E, rho, sigma)
    if cert.mode is MaximizerMode.NOT_MAXIMIZER:
        raise ValidationError(
            "operation does not maximize the probability difference of this pair; "
            f"residuals {cert.diagnostics}"
        )
    out_r, out_s = apply(E, rho), apply(E, sigma)
    out_r.flags.writeable = False
    out_s.flags.writeable = False
    p_r, p_s = occurrence_probability(E, rho), occurrence_probability(E, sigma)
    return trace_distance(rho, sigma), out_r, out_s, trace_distance(out_r, out_s), p_r, p_s


def theorem3_report(E: QuantumOperation, rho, sigma) -> BoundReport:
    """Normalized outputs: D(rho', sigma') <= D(rho, sigma) / p_m, and the
    relative increase stays below 1 - p_m, both up to TOL_BOUND."""
    d_in, out_r, out_s, d_sub, p_r, p_s = _bound_inputs(E, as_state(rho), as_state(sigma))
    if min(p_r, p_s) <= TOL_PROB:
        raise ZeroProbabilityError(f"occurrence probabilities ({p_r:.3e}, {p_s:.3e}) too small")
    d_out = trace_distance(out_r / p_r, out_s / p_s)
    p_m, p_n = max(p_r, p_s), min(p_r, p_s)
    bound = d_in / p_m
    holds = d_out <= bound + TOL_BOUND
    rel = None
    if d_out > d_in:
        rel = (d_out - d_in) / d_out
        holds = holds and rel <= (1.0 - p_m) + TOL_BOUND
    return BoundReport(
        d_in=d_in,
        d_out_normalized=d_out,
        d_out_subnormalized=d_sub,
        p_m=p_m,
        p_n=p_n,
        bound=bound,
        holds=holds,
        relative_increase=rel,
    )


def theorem4_report(E: QuantumOperation, rho, sigma) -> BoundReport:
    """Subnormalized outputs under the Hermitian-operator metric:
    D(E(rho), E(sigma)) <= D(rho, sigma) / 2 + TOL_BOUND."""
    d_in, _, _, d_sub, p_r, p_s = _bound_inputs(E, as_state(rho), as_state(sigma))
    bound = 0.5 * d_in
    return BoundReport(
        d_in=d_in,
        d_out_normalized=None,
        d_out_subnormalized=d_sub,
        p_m=max(p_r, p_s),
        p_n=min(p_r, p_s),
        bound=bound,
        holds=d_sub <= bound + TOL_BOUND,
        relative_increase=None,
    )


@dataclass(frozen=True)
class ExtremalTraceProduct:
    """Extremes of tr(T Q) over positive Q with fixed trace, and attainers."""

    max_val: float
    min_val: float
    q_max: np.ndarray
    q_min: np.ndarray


def extremal_trace_product(t, d_frak: float) -> ExtremalTraceProduct:
    """Range of tr(T Q) over PSD Q with tr Q = d_frak.

    The extremes are the extreme T-eigenvalues scaled by d_frak; they are
    attained by one-dimensional eigenprojectors scaled the same way.
    """
    w, v = eig_hermitian(t)
    if w.size == 0:
        raise ValidationError("T needs dimension >= 1, got a 0 x 0 matrix")
    d_frak = checked_real("d_frak", d_frak)
    if not (math.isfinite(d_frak) and d_frak > 0):
        raise ValidationError(f"d_frak must be a finite positive number, got {d_frak}")
    if w[-1] < -default_tol():
        raise ValidationError(f"T has negative eigenvalue {w[-1]:.3e}; not PSD")
    vec_max = v[:, 0]
    vec_min = v[:, -1]
    return ExtremalTraceProduct(
        max_val=float(w[0]) * d_frak,
        min_val=float(w[-1]) * d_frak,
        q_max=d_frak * np.outer(vec_max, vec_max.conj()),
        q_min=d_frak * np.outer(vec_min, vec_min.conj()),
    )


@dataclass(frozen=True)
class MaximizingProjector:
    """Projector attaining max tr{Pi (A - B)} over 0 <= Pi <= 1."""

    pi: np.ndarray
    value: float


def maximizing_projector(a, b) -> MaximizingProjector:
    """Projector onto the positive-part support of A - B.

    Its trace product with A - B equals D(A, B) + (tr A - tr B)/2, the
    maximum over all operators between 0 and 1; for equal-trace inputs
    this reduces to the trace distance itself.
    """
    ma, mb = as_hermitian(a), as_hermitian(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"operands have shapes {ma.shape} and {mb.shape}")
    split = spectral_split(ma - mb)
    pi = projector_onto(split.q_basis, split.dim)
    value = float(np.trace(pi @ (ma - mb)).real)
    return MaximizingProjector(pi=pi, value=value)
