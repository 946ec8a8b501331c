"""Monte Carlo statistics of output distances over the probability triangle.

A maximizer-shaped operation (T has unit and zero eigenvalues) turns every
point 0 <= p_n < p_m <= 1 into a matched input pair whose probability gap
and trace distance both equal p_m - p_n.  Sampling points uniformly and
randomizing the admissible weight splits yields empirical distributions of
the input distance, the normalized and subnormalized output distances, and
the relative distance increase; the checks here compare them against the
distribution-level bounds those quantities must obey.
"""

from __future__ import annotations

import enum
import gc
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from . import _kernels
from .channels import QuantumOperation, apply, held
from .config import TOL_BOUND, checked_index, checked_real
from .errors import ValidationError
from .linalg import as_real_array
from .maximizers import build_state_pair, matched_eigenspaces
from .metrics import trace_distance
from .states import from_spectrum

__all__ = [
    "BoundKind",
    "DominanceResult",
    "MeanOutputBound",
    "MomentCheck",
    "TrialColumns",
    "TrialRecord",
    "TrianglePoint",
    "cdf_moment",
    "dominance_implies_moments",
    "empirical_cdf",
    "mean_output_distance_bound",
    "moment_check",
    "pair_for_point",
    "run_trials",
    "sample_triangle_batch",
]

# Records built per pass when iterating a TrialColumns; bounds what one
# next() call builds and holds.
_RECORD_BLOCK = 4096
_consume = deque(maxlen=0).extend


@dataclass(frozen=True, slots=True)
class TrianglePoint:
    """A pair of occurrence probabilities with 0 <= p_n < p_m <= 1."""

    p_m: float
    p_n: float

    def __post_init__(self):
        checked_real("p_m", self.p_m)
        checked_real("p_n", self.p_n)
        if not (0.0 <= self.p_n < self.p_m <= 1.0):
            raise ValidationError(f"(p_m, p_n) = ({self.p_m}, {self.p_n}) outside the triangle")


def sample_triangle_batch(rng: np.random.Generator, n: int):
    """Arrays (p_m, p_n) of n points uniform on the open triangle: the
    larger and the smaller of two uniforms, with tied pairs and pairs whose
    smaller value is 0 (both of measure zero) drawn again.  n must be an
    integer >= 0."""
    n = checked_index("n", n, 0)
    draws = rng.random((n, 2))
    while True:
        pm, pn = np.maximum(draws[:, 0], draws[:, 1]), np.minimum(draws[:, 0], draws[:, 1])
        redraw = (pm == pn) | (pn == 0.0)
        if not redraw.any():
            return pm, pn
        draws[redraw] = rng.random((int(redraw.sum()), 2))


def pair_for_point(E: QuantumOperation, point: TrianglePoint):
    """Matched pair whose occurrence probabilities are exactly the point.

    Distance target p_m - p_n, with the delta weights split so the unit
    eigenvectors carry p_n in total and the kernel ones carry 1 - p_m;
    splits within each set are uniform.
    """
    unit, zero = matched_eigenspaces(E)
    nq, nr = unit.shape[1], zero.shape[1]
    d = point.p_m - point.p_n
    return build_state_pair(
        E,
        d,
        lambda_weights=np.full(nq, d / nq),
        kappa_weights=np.full(nr, d / nr),
        delta_lambda=np.full(nq, point.p_n / nq),
        delta_kappa=np.full(nr, (1.0 - point.p_m) / nr),
    )


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One Monte Carlo trial: input distance, both output distances, and the
    relative increase when the normalized outputs drifted apart."""

    point: TrianglePoint
    d_in: float
    d_out_normalized: float
    d_out_subnormalized: float
    relative_increase: float | None

    def __post_init__(self):
        if not abs(self.d_in - (self.point.p_m - self.point.p_n)) <= 1e-9:
            raise ValidationError(
                f"d_in {self.d_in!r} != p_m - p_n = {self.point.p_m - self.point.p_n!r}"
            )


def _trial_setup(E: QuantumOperation):
    """(basis, nq, nr, op_mats, spectra) of E: the nq unit and nr kernel
    eigenvectors of T as the columns of ``basis``, op_mats[j] =
    E(|b_j><b_j|) for each column b_j, and the trial kernel's shared-basis
    test of op_mats (``_kernels.shared_spectra``), all read-only.
    ``run_trials`` holds it on E (``channels.held``), so repeated calls on
    one operation set up once."""
    unit, zero = matched_eigenspaces(E)
    basis = np.hstack([unit, zero])
    cols = basis.T
    op_mats = apply(E, cols[:, :, None] * cols.conj()[:, None, :])
    basis.flags.writeable = False
    op_mats.flags.writeable = False
    return basis, unit.shape[1], zero.shape[1], op_mats, _kernels.shared_spectra(op_mats)


def _presample(nq: int, nr: int, n_trials: int, rng: np.random.Generator):
    """Draw every random quantity up front so all execution paths agree:
    the triangle points and the input spectra (w_rho, w_sig) over the nq
    unit and nr kernel basis vectors."""
    pm, pn = sample_triangle_batch(rng, n_trials)
    lam_frac = rng.dirichlet(np.ones(nq), size=n_trials)
    kap_frac = rng.dirichlet(np.ones(nr), size=n_trials)
    dlam_frac = rng.dirichlet(np.ones(nq), size=n_trials)
    dkap_frac = rng.dirichlet(np.ones(nr), size=n_trials)
    d = (pm - pn)[:, None]
    # The delta terms are sigma's unit block and rho's kernel block, and
    # each also adds to the other state's distance terms in that block.
    # Products go to contiguous temporaries: a ufunc writing into a
    # column block of w_rho or w_sig runs a strided loop over a few columns.
    delta_unit = pn[:, None] * dlam_frac
    delta_kernel = (1.0 - pm)[:, None] * dkap_frac
    w_rho = np.empty((n_trials, nq + nr))
    w_sig = np.empty((n_trials, nq + nr))
    np.add(d * lam_frac, delta_unit, out=w_rho[:, :nq])
    w_rho[:, nq:] = delta_kernel
    w_sig[:, :nq] = delta_unit
    np.add(d * kap_frac, delta_kernel, out=w_sig[:, nq:])
    return w_rho, w_sig, pm, pn


@dataclass(frozen=True, eq=False)
class TrialColumns:
    """Monte Carlo trials as one array per quantity, one entry per trial.

    ``relative_increase`` is NaN where the normalized outputs did not drift
    apart.  Each column is stored as a read-only float64 copy, and the
    trial invariants are checked once for the whole batch: the point lies
    in the triangle, the input distance equals p_m - p_n, both output
    distances lie in [0, 1] within 1e-9, and ``relative_increase`` is NaN
    or lies in [0, 1).  These ranges follow from the definitions; the
    bounds of Theorems 3 and 4 are left to the suites, which report a
    violation instead of raising.

    Suites and bulk statistics should read the columns; iterating is for
    callers that need one object per trial.  It yields one TrialRecord per
    trial, with ``relative_increase`` None where the column is NaN; the
    batch check already covers every record, so the records are built
    without running their own checks, ``_RECORD_BLOCK`` at a time.  Each
    block is built with the cyclic garbage collector paused, as
    ``timeit.Timer.timeit`` pauses it: a block allocates only acyclic
    objects (slot-backed points and records, floats, None and lists), so
    a collection started while it is built would find nothing, and the
    kept records would only make later sweeps longer.  The pause covers
    one block build (at most ``_RECORD_BLOCK`` records, about 1 ms) and
    ends before the ``next()`` that started the block returns, so an
    iterator dropped after one ``next()`` leaves the collector as it was;
    a caller that disabled the collector keeps it disabled.  With several
    threads, the collector is back on when the first block being built
    finishes (at worst a collection is deferred), and a ``gc.disable()``
    another thread issues while a block is built may be undone.
    """

    p_m: np.ndarray
    p_n: np.ndarray
    d_in: np.ndarray
    d_out_normalized: np.ndarray
    d_out_subnormalized: np.ndarray
    relative_increase: np.ndarray

    def __post_init__(self):
        for name, col in vars(self).items():
            try:
                col = as_real_array(col).copy()
            except ValidationError as exc:
                raise ValidationError(f"trial column {name} is not numeric: {exc}") from None
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if len({col.shape for col in vars(self).values()}) != 1 or self.d_in.ndim != 1:
            raise ValidationError("trial columns must be 1-D arrays of one length")
        pm, pn, d_in = self.p_m, self.p_n, self.d_in
        d_norm, d_sub, rel = self.d_out_normalized, self.d_out_subnormalized, self.relative_increase
        # Each check is written so that NaN fails it, except that
        # relative_increase is NaN where the outputs did not drift apart.
        in_unit = (np.abs(d_norm - 0.5) <= 0.5 + 1e-9) & (np.abs(d_sub - 0.5) <= 0.5 + 1e-9)
        checks = (
            ("(p_m, p_n) outside the triangle", (0.0 <= pn) & (pn < pm) & (pm <= 1.0)),
            ("d_in != p_m - p_n", np.abs(d_in - (pm - pn)) <= 1e-9),
            ("an output distance outside [0, 1]", in_unit),
            ("relative_increase outside [0, 1)", ~((rel < 0.0) | (rel >= 1.0))),
        )
        for what, ok in checks:
            if not ok.all():
                i = int(np.argmin(ok))  # the first failing trial
                row = ", ".join(f"{name}={float(col[i])!r}" for name, col in vars(self).items())
                raise ValidationError(f"trial {i}: {what}: {row}")

    def __len__(self) -> int:
        return len(self.d_in)

    def __iter__(self):
        # Records are built one block at a time, each field set through its
        # slot's member descriptor in C-level passes, so each record equals,
        # hashes and prints like one built by TrialRecord(...).  The chain
        # hands them out from each block's list without a Python frame per
        # record, and builds the next block only when the last one runs out.
        n, b = len(self), _RECORD_BLOCK
        return chain.from_iterable(map(self._records, map(slice, range(0, n, b), range(b, n + b, b))))

    def _records(self, rows: slice) -> list:
        # The collector is paused for this one block only (see the class
        # docstring), with the enable/disable sequence of timeit.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            pm, pn, d_in, d_norm, d_sub, rel = (col[rows] for col in vars(self).values())
            rel_or_none = rel.astype(object)
            rel_or_none[np.isnan(rel)] = None
            k = len(d_in)
            points = list(map(object.__new__, repeat(TrianglePoint, k)))
            records = list(map(object.__new__, repeat(TrialRecord, k)))
            for objs, descriptor, values in (
                (points, TrianglePoint.p_m, pm.tolist()),
                (points, TrianglePoint.p_n, pn.tolist()),
                (records, TrialRecord.point, points),
                (records, TrialRecord.d_in, d_in.tolist()),
                (records, TrialRecord.d_out_normalized, d_norm.tolist()),
                (records, TrialRecord.d_out_subnormalized, d_sub.tolist()),
                (records, TrialRecord.relative_increase, rel_or_none.tolist()),
            ):
                _consume(map(descriptor.__set__, objs, values))
            return records
        finally:
            if was_enabled:
                gc.enable()


def run_trials(
    E: QuantumOperation,
    n_trials: int,
    rng: np.random.Generator,
    path: str = "auto",
) -> TrialColumns:
    """Sample n_trials triangle points with randomized admissible weight
    splits and evaluate all three distances per trial.

    path "auto" routes through the vectorized trial kernel; "object"
    rebuilds every state and output matrix through the high-level API.
    Both consume identical random draws, so they agree to rounding.
    """
    n_trials = checked_index("n_trials", n_trials, 1)
    if path not in ("auto", "object"):
        raise ValidationError(f"path must be 'auto' or 'object', got {path!r}")
    basis, nq, nr, op_mats, spectra = held(E, _trial_setup)
    w_rho, w_sig, pm, pn = _presample(nq, nr, n_trials, rng)
    if path == "auto":
        d_in, d_norm, d_sub = _kernels.trial_stats(op_mats, w_rho, w_sig, pm, pn, spectra=spectra)
    else:
        d_in = np.empty(n_trials)
        d_norm = np.empty(n_trials)
        d_sub = np.empty(n_trials)
        for i in range(n_trials):
            rho = from_spectrum(basis, w_rho[i])
            sig = from_spectrum(basis, w_sig[i])
            d_in[i] = trace_distance(rho, sig)
            out_r = apply(E, rho)
            out_s = apply(E, sig)
            d_sub[i] = trace_distance(out_r, out_s)
            d_norm[i] = trace_distance(out_r / pm[i], out_s / pn[i])
    rel = np.divide(d_norm - d_in, d_norm, out=np.full(n_trials, np.nan), where=d_norm > d_in)
    return TrialColumns(
        p_m=pm,
        p_n=pn,
        d_in=d_in,
        d_out_normalized=d_norm,
        d_out_subnormalized=d_sub,
        relative_increase=rel,
    )


class BoundKind(enum.Enum):
    """Dominating density for a moment bound: flat or downward wedge 2-2x."""

    UNIFORM = "uniform"
    WEDGE = "wedge"


@dataclass(frozen=True)
class MomentCheck:
    empirical_moment: float
    bound: float
    stderr: float


def moment_check(samples, n: int, bound_kind: BoundKind) -> MomentCheck:
    """The n-th empirical moment, its standard error and its dominating-
    density value, for a caller to compare.

    Flat density on [0,1] gives 1/(n+1); the wedge density 2-2x gives
    2/(n^2+3n+2).  The order n must be an integer >= 1; the samples must
    form a nonempty 1-D numeric array within [0, 1].
    """
    n = checked_index("moment order", n, 1)
    x = _samples(samples, "moment_check")
    if not (x.min() >= -1e-12 and x.max() <= 1.0 + 1e-12):
        raise ValidationError(f"samples outside [0,1]: range [{x.min()}, {x.max()}]")
    if bound_kind is BoundKind.UNIFORM:
        bound = 1.0 / (n + 1)
    elif bound_kind is BoundKind.WEDGE:
        bound = 2.0 / (n * n + 3 * n + 2)
    else:
        raise ValidationError(f"unknown bound_kind {bound_kind!r}")
    powers = x**n
    sem = float(powers.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0
    return MomentCheck(empirical_moment=float(powers.mean()), bound=bound, stderr=sem)


def _floats(values, what: str) -> np.ndarray:
    try:
        return as_real_array(values)
    except ValidationError as exc:
        raise ValidationError(f"{what} are not numeric: {exc}") from None


def _samples(samples, caller: str) -> np.ndarray:
    """The samples as a nonempty 1-D float array, else ValidationError."""
    x = _floats(samples, f"{caller} samples")
    if x.ndim != 1:
        raise ValidationError(f"{caller} samples must be 1-D, got shape {x.shape}")
    if x.size == 0:
        raise ValidationError(f"{caller} needs at least one sample")
    return x


def empirical_cdf(samples, grid) -> np.ndarray:
    """P[X <= xi] for each xi of the grid.  The samples must form a 1-D
    array without NaN, which would count as above every grid point; a NaN
    grid point raises too, where it would read as P = 1.  Grid points of
    +-inf are valid.  Each violation raises ValidationError, as does a
    non-numeric sample or grid point."""
    x = np.sort(_samples(samples, "empirical_cdf"))
    if np.isnan(x[-1]):  # sorting puts NaN last
        raise ValidationError("empirical_cdf samples contain NaN")
    g = _floats(grid, "empirical_cdf grid points")
    if np.isnan(g).any():
        raise ValidationError("empirical_cdf grid contains NaN")
    return np.searchsorted(x, g, side="right") / x.size


@dataclass(frozen=True)
class DominanceResult:
    """CDF dominance on a shared grid and the moment ordering it implies."""

    dominance_holds: bool
    orders: tuple
    moments_g: tuple
    moments_h: tuple
    moments_ok: bool
    worst_gap: float


def _cdf_arrays(grid, cdf, what: str = "CDF") -> tuple:
    """(grid, cdf) as float arrays after the checks ``cdf_moment`` names."""
    g, f = _floats(grid, "grid points"), _floats(cdf, f"{what} values")
    if not (np.isfinite(g).all() and np.isfinite(f).all()):
        raise ValidationError("grid and CDF values must be finite")
    if g.ndim != 1 or g.size < 2:
        raise ValidationError(f"grid must be 1-D with at least two points, got shape {g.shape}")
    if f.shape != g.shape:
        raise ValidationError(f"{what} shape {f.shape} does not match grid shape {g.shape}")
    if not (np.diff(g) > 0.0).all():
        raise ValidationError("grid must be strictly increasing")
    if not (f.min() >= -1e-9 and f.max() <= 1.0 + 1e-9):
        raise ValidationError(f"{what} values outside [0, 1]: range [{f.min()}, {f.max()}]")
    if not (np.diff(f) >= -1e-9).all():
        raise ValidationError(f"{what} values decrease along the grid")
    if abs(f[-1] - 1.0) > 1e-9:
        raise ValidationError(f"{what} does not reach 1 at the grid end")
    return g, f


def _moment(grid: np.ndarray, cdf: np.ndarray, n: int) -> float:
    return float(grid[-1] ** n - n * np.trapezoid(grid ** (n - 1) * cdf, grid))


def cdf_moment(grid, cdf, n: int) -> float:
    """n-th moment E[X^n] of a nonnegative variable from its CDF.

    ``cdf`` holds F at the points of ``grid``, which starts at 0 (or where
    F is still 0) and ends at R with F(R) = 1.  Integration by parts gives
    E[X^n] = R^n - n * integral of x^(n-1) F(x) dx over [0, R], evaluated
    with the trapezoid rule on the grid.  n must be an integer >= 1; grid
    and CDF must be finite 1-D arrays of one shape, with at least two grid
    points in strictly increasing order, and the CDF values must lie in
    [0, 1], not decrease and end at 1, each within 1e-9; else
    ValidationError.
    """
    n = checked_index("moment order", n, 1)
    return _moment(*_cdf_arrays(grid, cdf), n)


def dominance_implies_moments(cdf_g, cdf_h, orders) -> DominanceResult:
    """Check CDF dominance G >= H pointwise, then the implied reversed
    ordering of moments E_G[X^n] <= E_H[X^n] for each requested order,
    both up to TOL_BOUND.

    Each CDF is a (grid, values) pair on a shared grid ending where both
    reach 1, checked once as for ``cdf_moment``.  Moments come from
    integrating the CDFs, so the ordering is inherited from dominance
    exactly up to quadrature arithmetic.  Each order must be an integer >= 1.
    """
    grid_g, fg = _cdf_arrays(*cdf_g, "first CDF")
    grid_h, fh = _cdf_arrays(*cdf_h, "second CDF")
    if grid_g.shape != grid_h.shape or not np.all(np.abs(grid_g - grid_h) <= 1e-12):
        raise ValidationError("CDFs must share one grid")
    gaps = fg - fh
    dominance = bool(np.all(gaps >= -TOL_BOUND))
    orders = tuple(checked_index("moment order", n, 1) for n in orders)
    mg = tuple(_moment(grid_g, fg, n) for n in orders)
    mh = tuple(_moment(grid_h, fh, n) for n in orders)
    return DominanceResult(
        dominance_holds=dominance,
        orders=orders,
        moments_g=mg,
        moments_h=mh,
        moments_ok=dominance and all(a <= b + TOL_BOUND for a, b in zip(mg, mh)),
        worst_gap=float(gaps.min()),
    )


@dataclass(frozen=True)
class MeanOutputBound:
    mean_d_in: float
    mean_d_out_sub: float
    stderr: float


def mean_output_distance_bound(records) -> MeanOutputBound:
    """Mean input and subnormalized output distances and the output mean's
    standard error, for a caller to compare with the 1/6 ceiling (the mean
    input distance over the uniform triangle is 1/3, and outputs sit at
    half of inputs or less).

    ``records`` is a TrialColumns or an iterable of TrialRecord; anything
    else raises ValidationError.
    """
    if isinstance(records, TrialColumns):
        d_in, d_sub = records.d_in, records.d_out_subnormalized
    else:
        try:
            records = list(records)
            d_in, d_sub = (
                np.fromiter(map(attrgetter(name), records), float)
                for name in ("d_in", "d_out_subnormalized")
            )
        except (AttributeError, TypeError) as exc:
            raise ValidationError(f"records must be a TrialColumns or TrialRecords: {exc}") from None
    if d_in.size == 0:
        raise ValidationError("need at least one trial record")
    sem = float(d_sub.std(ddof=1) / np.sqrt(d_sub.size)) if d_sub.size > 1 else 0.0
    return MeanOutputBound(mean_d_in=float(d_in.mean()), mean_d_out_sub=float(d_sub.mean()), stderr=sem)
