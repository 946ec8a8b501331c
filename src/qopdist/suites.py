"""Seeded verification suites and their report plumbing.

Each suite re-checks one cluster of claims at Monte Carlo scale and
returns a SuiteReport: attainment residuals for the constructions,
violation counts for the inequalities, and distribution-level checks for
the triangle statistics.  Reports serialize as line-delimited JSON with a
schema header; timing stays in memory only, so a fixed seed reproduces a
report file byte for byte.

Every suite is declared once, as a body registered with ``@_suite``; the
registry fixes the public ``run_<name>`` functions and ``SUITE_NAMES``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import statlab
from .channels import (
    QuantumOperation,
    apply,
    cloner_distance_factor,
    cloner_outputs,
    e_distance,
    max_e_distance_over_states,
    random_operation,
    random_operations,
)
from .config import checked_index, resolve_tol
from .errors import ReportParseError, ValidationError
from .linalg import random_hermitian
from .maximizers import (
    MaximizerMode,
    build_maximizing_operation,
    extremal_trace_product,
    maximizing_projector,
)
from .metrics import check_fvdg_bounds, fidelity, max_qubit_gap, trace_distance
from .states import random_density
from .statlab import BoundKind, cdf_moment, dominance_implies_moments, empirical_cdf, moment_check

__all__ = [
    "SUITE_NAMES",
    "SuiteReport",
    "parse_report",
    "run_all",
    "run_suite",
    "write_report",
]

REPORT_FORMAT = "qopdist-suite-report"
SCHEMA_VERSION = 1

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class SuiteReport:
    """Result of one suite run; failures count failed detail checks."""

    suite_name: str
    n_cases: int
    n_failures: int
    worst_residual: float
    seed: int
    elapsed_seconds: float
    details: tuple

    def __post_init__(self):
        if self.n_failures > self.n_cases:
            raise ValidationError(
                f"n_failures {self.n_failures} exceeds n_cases {self.n_cases}"
            )
        if not np.isfinite(self.worst_residual):
            raise ValidationError(f"worst_residual {self.worst_residual!r} is not finite")


# -- the harness ---------------------------------------------------------------

# Suite name -> public run_<name>, in declaration (= canonical) order.
_SUITES = {}


def _suite(name: str, salt: int, default_cases: int):
    """Register ``body(rng, n_cases, slack) -> (n_counted, details)`` as the
    public ``run_<name>(seed, n_cases=None, slack=1e-9) -> SuiteReport``.

    The wrapper owns the timer, the default case count, the suite's
    generator ``default_rng([seed, salt])`` and the report assembly.  A
    seed or case count that is not an integer, a negative seed, fewer than
    one case or a slack that is not a finite number >= 0 raises
    ValidationError.
    """

    def register(body):
        def run(seed: int, n_cases: int | None = None, slack: float = 1e-9) -> SuiteReport:
            t0 = time.perf_counter()
            slack = _checked_args(seed, n_cases, slack)
            n_cases = default_cases if n_cases is None else n_cases
            n_counted, details = body(np.random.default_rng([seed, salt]), n_cases, slack)
            return SuiteReport(
                suite_name=name,
                n_cases=n_counted,
                n_failures=sum(1 for d in details if not d["ok"]),
                worst_residual=float(max(d["residual"] for d in details)),
                seed=seed,
                elapsed_seconds=time.perf_counter() - t0,
                details=tuple(details),
            )

        run.__name__ = run.__qualname__ = f"run_{name}"
        run.__doc__ = body.__doc__
        _SUITES[name] = run
        return run

    return register


def _checked_args(seed: int, n_cases: int | None, slack) -> float:
    """Reject a seed below 0 or a case count below 1 (``checked_index``);
    return the resolved slack."""
    checked_index("seed", seed, 0)
    if n_cases is not None:
        checked_index("n_cases", n_cases, 1)
    return resolve_tol(slack)


def _detail(case: str, residual, ok, **extra) -> dict:
    """One check record: the case label, any extra fields, then the residual
    as a float and the verdict as a bool."""
    return {"case": case, **extra, "residual": float(residual), "ok": bool(ok)}


def _violations(case: str, excess: np.ndarray, slack: float, **extra) -> dict:
    """Count the entries of ``excess`` (value minus bound) above ``slack``."""
    bad = int(np.sum(excess > slack))
    return _detail(case, excess.max(), bad == 0, violations=bad, **extra)


def _distinct_pair(dim: int, rng: np.random.Generator):
    while True:
        rho = random_density(dim, int(rng.integers(1, dim + 1)), rng)
        sig = random_density(dim, int(rng.integers(1, dim + 1)), rng)
        if trace_distance(rho, sig) >= 1e-3:
            return rho, sig


def _trace_products(mats: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """tr(M delta) for each matrix M of a stack."""
    return np.einsum("nij,ji->n", mats, delta).real


def _probe_block(dim: int, count: int, rng: np.random.Generator):
    """``count`` random probes 0 <= P <= 1 of rank 0 to ``dim``: each spans
    the first ``rank`` columns of a Ginibre draw, with weight 1 on each
    column (half the probes) or uniform weights in [0, 1].

    One stacked QR: the first ``rank`` columns of Q span the first ``rank``
    columns of the draw.  Returns Q, the weights (zero beyond each rank)
    and the ranks; P = Q diag(w) Q†.
    """
    ranks = rng.integers(0, dim + 1, size=count)
    q, _ = np.linalg.qr(rng.standard_normal((count, dim, 2 * dim)).view(np.complex128))
    weights = np.where(rng.random((count, 1)) < 0.5, 1.0, rng.uniform(0.0, 1.0, size=(count, dim)))
    weights *= np.arange(dim) < ranks[:, None]
    return q, weights, ranks


def _probe_values(q: np.ndarray, weights: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """tr(P delta) = sum_k w_k q_k† delta q_k for each probe of a block."""
    return np.einsum("nik,nik,nk->n", q.conj(), delta @ q, weights).real


def _maximizer_shaped_op(dim: int, n_unit: int, dim_out: int) -> QuantumOperation:
    """Operation with T = diag(1,...,1,0,...,0): n_unit unit eigenvalues,
    the rest kernel; output vectors cycle through the output basis."""
    eye_in = np.eye(dim, dtype=np.complex128)
    eye_out = np.eye(dim_out, dtype=np.complex128)
    kraus = [np.outer(eye_out[:, i % dim_out], eye_in[:, i]) for i in range(n_unit)]
    return QuantumOperation(kraus)


def _trial_draws(rng: np.random.Generator, n_trials: int):
    """Trials on the (5,2,2) and (2,1,1) maximizer-shaped operations, split
    90/10: the total trial count and a (tag, TrialColumns) pair per operation."""
    shares = (max(n_trials - n_trials // 10, 1), max(n_trials // 10, 1))
    shapes = ((5, 2, 2), (2, 1, 1))
    draws = [
        (tag, statlab.run_trials(_maximizer_shaped_op(*shape), share, rng))
        for shape, share, tag in zip(shapes, shares, ("dim5", "dim2"))
    ]
    return sum(shares), draws


# -- individual suites ---------------------------------------------------------


@_suite("thm1", salt=101, default_cases=200)
def run_thm1(rng, n_cases, slack):
    """Constructed operations attain the trace distance as a probability
    gap, and no random operation beats it."""
    n_oracle = 500
    details = []
    for i in range(n_cases):
        dim = int(rng.integers(2, 7))
        rho, sig = _distinct_pair(dim, rng)
        d = trace_distance(rho, sig)
        mode = MaximizerMode.ON_Q if i % 2 == 0 else MaximizerMode.ON_R
        dim_out = int(rng.integers(1, 5))
        op = build_maximizing_operation(rho, sig, dim_out, mode)
        attain = abs(e_distance(op, rho, sig) - d)
        # Oracle operations: output dimension 1 to dim, 1 to 4 Kraus operators.
        oracle_out = rng.integers(1, dim + 1, size=n_oracle)
        oracle_kraus = rng.integers(1, 5, size=n_oracle)
        _, t = random_operations(dim, oracle_out, oracle_kraus, rng)
        gaps = np.abs(_trace_products(t, rho.mat - sig.mat))
        excess = float(gaps.max()) - d
        details.append(
            _detail(
                f"pair-{i:03d}-dim{dim}-{mode.value}",
                max(attain, excess),
                attain < 1e-10 and excess <= slack,
                attain_residual=float(attain),
                oracle_excess=float(excess),
            )
        )
    return n_cases, details


@_suite("thm2", salt=102, default_cases=100)
def run_thm2(rng, n_cases, slack):
    """Extremal input pairs attain the spread of the T spectrum; random
    pairs never exceed it; trace-preserving operations give zero."""
    n_pairs = 2000
    details = []
    for i in range(n_cases):
        dim = int(rng.integers(2, 7))
        op = random_operation(dim, int(rng.integers(1, dim + 1)), int(rng.integers(1, 5)), rng)
        ext = max_e_distance_over_states(op)
        attain = abs(e_distance(op, ext.rho_star, ext.sigma_star) - ext.value)
        t = op.t_op
        ranks = rng.integers(1, dim + 1, size=n_pairs)
        rhos = random_density(dim, ranks, rng)
        sigs = random_density(dim, ranks, rng)
        vals = np.abs(_trace_products(rhos.mat - sigs.mat, t))
        excess = float(vals.max() - ext.value)
        details.append(
            _detail(
                f"op-{i:03d}-dim{dim}",
                max(attain, excess),
                attain < 1e-10 and excess <= slack,
                attain_residual=float(attain),
                pair_excess=float(excess),
            )
        )
    # Trace-preserving operations: unitary singleton and a complete
    # projective measurement both have flat T spectrum.
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    eye = np.eye(3, dtype=np.complex128)
    for label, op in (
        ("tp-unitary", QuantumOperation([q])),
        ("tp-projective", QuantumOperation([np.outer(eye[:, k], eye[:, k]) for k in range(3)])),
    ):
        value = max_e_distance_over_states(op).value
        details.append(_detail(label, value, value < 1e-10))
    return n_cases + 2, details


@_suite("thm3", salt=103, default_cases=10_000)
def run_thm3(rng, n_cases, slack):
    """Normalized output distance never beats the input distance divided by
    the larger probability; relative increase never beats 1 - p_m."""
    n_counted, draws = _trial_draws(rng, n_cases)
    details = []
    for tag, trials in draws:
        gaps = trials.d_out_normalized - trials.d_in / trials.p_m
        details.append(_violations(f"{tag}-normalized-ratio-bound", gaps, slack))
        increasing = ~np.isnan(trials.relative_increase)
        if increasing.any():
            over = trials.relative_increase[increasing] - (1.0 - trials.p_m[increasing])
            details.append(
                _violations(f"{tag}-relative-increase-bound", over, slack, n_increasing=over.size)
            )
    return n_counted, details


@_suite("thm4", salt=104, default_cases=10_000)
def run_thm4(rng, n_cases, slack):
    """Subnormalized output distance stays at or below half the input
    distance, with the orthogonal-qubit instance saturating it."""
    n_counted, draws = _trial_draws(rng, n_cases)
    details = [
        _violations(
            f"{tag}-subnormalized-half-bound",
            trials.d_out_subnormalized - 0.5 * trials.d_in,
            slack,
        )
        for tag, trials in draws
    ]
    rho = np.diag([1.0, 0.0]).astype(np.complex128)
    sig = np.diag([0.0, 1.0]).astype(np.complex128)
    op = build_maximizing_operation(rho, sig, 1, MaximizerMode.ON_Q)
    resid = abs(trace_distance(apply(op, rho), apply(op, sig)) - 0.5)
    details.append(_detail("orthogonal-qubit-saturation", resid, resid < 1e-10))
    return n_counted, details


@_suite("thm5", salt=106, default_cases=10_000)
def run_thm5(rng, n_cases, slack):
    """Qubit gap maximum, its witness pair, and the global gap ceiling."""
    point = max_qubit_gap()
    resid = abs(point.value - 0.25)
    details = [
        _detail(
            "qubit-grid-max",
            resid,
            resid <= 1e-4,
            value=point.value,
            at=[point.u, point.v, point.eta],
        )
    ]
    rho = np.diag([1.0, 0.0]).astype(np.complex128)
    sig = np.diag([0.75, 0.25]).astype(np.complex128)
    witness = check_fvdg_bounds(rho, sig)
    gap = witness.sine_dist - witness.trace_dist
    resid = abs(gap - 0.25)
    details.append(_detail("witness-pair-gap", resid, resid < 1e-10, value=float(gap)))
    dims = rng.integers(2, 7, size=n_cases)
    worst_gap = -np.inf
    worst_chain = -np.inf
    worst_angle = -np.inf
    bad = 0
    for dim in range(2, 7):
        count = int(np.sum(dims == dim))
        if count == 0:
            continue
        rhos = random_density(dim, rng.integers(1, dim + 1, size=count), rng)
        sigs = random_density(dim, rng.integers(1, dim + 1, size=count), rng)
        fvdg = check_fvdg_bounds(rhos, sigs)
        d, f, c = fvdg.trace_dist, fvdg.fid, fvdg.sine_dist
        gap = c - d
        chain = gap - (c + f - 1.0)
        angle_excess = (c + f) - SQRT2
        worst_gap = max(worst_gap, float(gap.max()) - (SQRT2 - 1.0))
        worst_chain = max(worst_chain, float(chain.max()))
        worst_angle = max(worst_angle, float(angle_excess.max()))
        bad += int(np.sum((gap > SQRT2 - 1.0 + slack) | (chain > slack) | (angle_excess > 1e-12)))
    details.append(
        _detail(
            "global-gap-ceiling",
            max(worst_gap, worst_chain, worst_angle),
            bad == 0,
            violations=bad,
            worst_over_ceiling=float(worst_gap),
            worst_chain_excess=float(worst_chain),
            worst_angle_excess=float(worst_angle),
        )
    )
    return n_cases + 2, details


@_suite("cloning", salt=107, default_cases=200)
def run_cloning(rng, n_cases, slack):
    """Output/input distance ratio of the exact cloner matches its closed
    form and stays above 1/sqrt(2)."""
    omega1 = np.diag([1.0, 0.0]).astype(np.complex128)
    omega2 = np.diag([0.0, 1.0]).astype(np.complex128)
    out = cloner_outputs(omega1, omega2)
    ratio = trace_distance(out.g1, out.g2) / trace_distance(omega1, omega2)
    resid = abs(ratio - 1.0)
    details = [_detail("orthogonal-pair-ratio-one", resid, resid < 1e-12, ratio=float(ratio))]
    for i in range(n_cases):
        dim = int(rng.integers(2, 7))
        while True:
            w1 = random_density(dim, 1, rng)
            w2 = random_density(dim, 1, rng)
            if fidelity(w1, w2) < 1.0 - 1e-6:
                break
        out = cloner_outputs(w1, w2)
        ratio = trace_distance(out.g1, out.g2) / trace_distance(w1, w2)
        resid = abs(ratio - cloner_distance_factor(out.omega))
        details.append(
            _detail(
                f"pair-{i:03d}-dim{dim}",
                resid,
                resid < slack and ratio > 1.0 / SQRT2,
                omega=float(out.omega),
                ratio=float(ratio),
            )
        )
    return n_cases + 1, details


@_suite("lemma1", salt=108, default_cases=500)
def run_lemma1(rng, n_cases, slack):
    """Trace products tr(TQ) stay inside [theta*D, Theta*D] and the scaled
    eigenprojectors attain the endpoints."""
    details = []
    for i in range(n_cases):
        dim = int(rng.integers(2, 7))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = g @ g.conj().T / dim
        d_frak = float(rng.uniform(0.05, 1.0))
        ext = extremal_trace_product(t, d_frak)
        attain = max(
            abs(float(np.trace(t @ ext.q_max).real) - ext.max_val),
            abs(float(np.trace(t @ ext.q_min).real) - ext.min_val),
        )
        q = d_frak * random_density(dim, int(rng.integers(1, dim + 1)), rng).mat
        val = float(np.trace(t @ q).real)
        escape = max(ext.min_val - val, val - ext.max_val)
        details.append(
            _detail(
                f"T-{i:03d}-dim{dim}",
                max(attain, escape),
                attain < 1e-10 and escape <= slack,
                attain_residual=float(attain),
                escape=float(escape),
            )
        )
    return n_cases, details


@_suite("lemma2", salt=110, default_cases=10_000)
def run_lemma2(rng, n_cases, slack):
    """Moment identities of the flat and wedge densities via CDF
    integration, the dominance-to-moments implication, and the sine-plus-
    cosine ceiling on a dense angle grid.  Draws nothing from the seed."""
    grid = np.linspace(0.0, 1.0, max(n_cases, 1000) + 1)
    cdf_uniform = grid.copy()
    cdf_wedge = 2.0 * grid - grid * grid
    details = []
    for n in range(1, 6):
        m_u = cdf_moment(grid, cdf_uniform, n)
        m_w = cdf_moment(grid, cdf_wedge, n)
        for label, m, target in (
            (f"uniform-moment-{n}", m_u, 1.0 / (n + 1)),
            (f"wedge-moment-{n}", m_w, 2.0 / (n * n + 3 * n + 2)),
        ):
            resid = abs(m - target)
            details.append(_detail(label, resid, resid <= 1e-3, value=float(m)))
    orders = range(1, 6)
    dom = dominance_implies_moments((grid, cdf_wedge), (grid, cdf_uniform), orders, tol=slack)
    details.append(
        _detail(
            "wedge-dominates-uniform",
            max(a - b for a, b in zip(dom.moments_g, dom.moments_h)),
            dom,
            dominance=dom.dominance_holds,
        )
    )
    same = dominance_implies_moments((grid, cdf_uniform), (grid, cdf_uniform), orders, tol=slack)
    resid = max(abs(a - b) for a, b in zip(same.moments_g, same.moments_h))
    details.append(_detail("equal-cdfs-equal-moments", resid, same))
    alpha = np.linspace(0.0, 2.0 * np.pi, max(n_cases, 1000))
    excess = float(np.max(np.sin(alpha) + np.cos(alpha)) - SQRT2)
    details.append(_detail("sin-plus-cos-ceiling", excess, excess <= 1e-12))
    return max(n_cases, len(details)), details


@_suite("appendixB", salt=109, default_cases=500)
def run_appendixB(rng, n_cases, slack):
    """Hermitian-operator metric axioms, maximizing-projector optimality,
    and joint convexity on random instances."""
    n_probes = 200
    details = []
    for i in range(n_cases):
        dim = int(rng.integers(2, 7))
        a = random_hermitian(dim, rng)
        b = random_hermitian(dim, rng)
        c = random_hermitian(dim, rng)
        mp = maximizing_projector(a, b)
        q, weights, _ = _probe_block(dim, n_probes, rng)
        probe_excess = float(_probe_values(q, weights, a - b).max()) - mp.value
        probs = rng.dirichlet(np.ones(3))
        a_parts = [random_hermitian(dim, rng) for _ in range(3)]
        b_parts = [random_hermitian(dim, rng) for _ in range(3)]
        mix_a = sum(p * m for p, m in zip(probs, a_parts))
        mix_b = sum(p * m for p, m in zip(probs, b_parts))
        # One stacked call: ab, ba, aa, ac, cb, the mixtures, then the parts.
        dist = trace_distance(
            np.stack([a, b, a, a, c, mix_a, *a_parts]),
            np.stack([b, a, a, c, b, mix_b, *b_parts]),
        )
        d_ab = dist[0]
        sym = abs(d_ab - dist[1])
        self_zero = dist[2]
        tri = d_ab - (dist[3] + dist[4])
        ident = abs(mp.value - (d_ab + 0.5 * float(np.trace(a - b).real)))
        convex_gap = dist[5] - sum(p * d for p, d in zip(probs, dist[6:]))
        ok = (
            sym <= 1e-12
            and self_zero <= 1e-12
            and tri <= 1e-12
            and ident < 1e-10
            and probe_excess <= slack
            and convex_gap <= 1e-12
        )
        details.append(
            _detail(
                f"instance-{i:03d}-dim{dim}",
                max(sym, self_zero, tri, ident, probe_excess, convex_gap),
                ok,
                symmetry=float(sym),
                triangle_excess=float(tri),
                projector_identity=float(ident),
                probe_excess=float(probe_excess),
                convexity_excess=float(convex_gap),
            )
        )
    return n_cases, details


def _cdf_floor(prefix: str, samples: np.ndarray, grid: np.ndarray, targets: np.ndarray) -> list:
    """Empirical CDF of ``samples`` at each grid point against its target
    floor, allowing three standard errors."""
    n = len(samples)
    details = []
    for x, p, target in zip(grid, empirical_cdf(samples, grid), targets):
        sem = float(np.sqrt(max(p * (1.0 - p), 1e-12) / n))
        details.append(
            _detail(f"{prefix}-cdf-at-{x:.1f}", target - p, p >= target - 3.0 * sem, empirical=float(p))
        )
    return details


@_suite("section3", salt=105, default_cases=100_000)
def run_section3(rng, n_cases, slack):
    """Distribution-level statistics over the uniform triangle.

    The checks are statistical (CDF floors within 3 standard errors, the
    mean input distance within 0.01, moment and mean ceilings), so
    ``slack`` does not apply to them.
    """
    checked_index("section3 n_cases", n_cases, 100)
    trials = statlab.run_trials(_maximizer_shaped_op(5, 2, 2), n_cases, rng)
    d_in, d_norm = trials.d_in, trials.d_out_normalized
    rel = np.nan_to_num(trials.relative_increase, nan=0.0)
    resid = abs(d_in.mean() - 1.0 / 3.0)
    details = [_detail("mean-input-distance", resid, resid <= 0.01, value=float(d_in.mean()))]
    grid = np.round(np.arange(0.1, 0.95, 0.1), 2)
    details += _cdf_floor("output", d_norm, grid, grid)
    mc = moment_check(d_norm, 1, BoundKind.UNIFORM)
    details.append(
        _detail(
            "output-mean-below-half",
            mc.empirical_moment - mc.bound,
            mc.holds,
            empirical=mc.empirical_moment,
        )
    )
    details += _cdf_floor("relative-increase", rel, grid, 2.0 * grid - grid * grid)
    wc = moment_check(rel, 1, BoundKind.WEDGE)
    details.append(
        _detail(
            "relative-increase-mean-below-third",
            wc.empirical_moment - wc.bound,
            wc.holds,
            empirical=wc.empirical_moment,
        )
    )
    mb = statlab.mean_output_distance_bound(trials)
    details.append(
        _detail(
            "mean-subnormalized-output-below-sixth",
            mb.mean_d_out_sub - 1.0 / 6.0,
            mb.holds,
            empirical=mb.mean_d_out_sub,
        )
    )
    return n_cases, details


SUITE_NAMES = tuple(_SUITES)

# The suites by their run time at seed 7 (minimum of 5 in-process runs on
# one CPU of a 2-vCPU host), longest first: appendixB 0.61 s and thm1
# 0.63 s (a tie within noise), thm2 0.50 s, thm5 0.22 s, cloning 0.12 s,
# lemma1 0.08 s, section3 0.06 s, the rest under 0.01 s each.  Workers
# take them in this order, so the longest suite does not start last.
_LONGEST_FIRST = (
    "appendixB",
    "thm1",
    "thm2",
    "thm5",
    "cloning",
    "lemma1",
    "section3",
    "thm3",
    "thm4",
    "lemma2",
)


def _run_named(name: str, seed: int, n_cases: int | None, slack: float) -> SuiteReport:
    return _SUITES[name](seed, n_cases, slack)


def _run_every_suite(seed: int, n_cases: int | None, slack: float) -> list[SuiteReport]:
    """Every suite's report, in SUITE_NAMES order.

    The suites share no state, so they run in a pool of forked worker
    processes, one per CPU this process may use (at most one per suite).
    They run in this process instead when there is one CPU, no fork start
    method, or another live thread, because fork copies only the calling
    thread.  A suite's exception is re-raised here with its own type, the
    suites not yet started are cancelled, and the pool is shut down before
    this returns or raises.  Each report's elapsed_seconds is measured
    where the suite ran.
    """
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor

    job = functools.partial(_run_named, seed=seed, n_cases=n_cases, slack=slack)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(SUITE_NAMES))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        reports = dict(zip(_LONGEST_FIRST, map(job, _LONGEST_FIRST)))
    else:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            reports = dict(zip(_LONGEST_FIRST, pool.map(job, _LONGEST_FIRST)))
    return [reports[name] for name in SUITE_NAMES]


def run_suite(name: str, seed: int, n_cases: int | None = None, slack: float = 1e-9) -> list[SuiteReport]:
    """Run one named suite, or every suite for name 'all' (see
    ``_run_every_suite``: in worker processes where that is safe)."""
    if name == "all":
        return _run_every_suite(seed, n_cases, _checked_args(seed, n_cases, slack))
    if name not in _SUITES:
        raise ValidationError(f"unknown suite {name!r}; choose from {('all',) + SUITE_NAMES}")
    return [_SUITES[name](seed, n_cases, slack)]


def run_all(seed: int, n_cases: int | None = None, slack: float = 1e-9) -> list[SuiteReport]:
    return run_suite("all", seed, n_cases, slack)


# -- report files --------------------------------------------------------------


def write_report(path, reports) -> None:
    """Line-delimited JSON: a schema header, then one record per suite.

    Timing is deliberately omitted so fixed-seed runs are byte-identical.
    """
    lines = [
        json.dumps(
            {"format": REPORT_FORMAT, "schema_version": SCHEMA_VERSION},
            sort_keys=True,
            separators=(",", ":"),
        )
    ]
    for r in reports:
        lines.append(
            json.dumps(
                {
                    "suite_name": r.suite_name,
                    "n_cases": r.n_cases,
                    "n_failures": r.n_failures,
                    "worst_residual": r.worst_residual,
                    "seed": r.seed,
                    "details": list(r.details),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_report(path) -> list[SuiteReport]:
    """Read a report file back; elapsed time is not stored and reads as 0."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    except OSError as exc:
        raise ReportParseError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ReportParseError(f"{path}: empty report")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ReportParseError(f"{path}: bad header: {exc}") from exc
    if header.get("format") != REPORT_FORMAT or header.get("schema_version") != SCHEMA_VERSION:
        raise ReportParseError(f"{path}: unrecognized header {header!r}")
    out = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
            out.append(
                SuiteReport(
                    suite_name=rec["suite_name"],
                    n_cases=checked_index("n_cases", rec["n_cases"], 0),
                    n_failures=checked_index("n_failures", rec["n_failures"], 0),
                    worst_residual=_json_number("worst_residual", rec["worst_residual"]),
                    seed=checked_index("seed", rec["seed"], 0),
                    elapsed_seconds=0.0,
                    details=tuple(rec["details"]),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ReportParseError(f"{path}:{i}: bad suite record: {exc!r}") from exc
    return out


def _json_number(name: str, value) -> float:
    """``value`` as a float when it loaded as a JSON number: a flag or a
    numeric string is not taken for one."""
    if type(value) not in (int, float):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)
