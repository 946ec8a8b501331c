"""Seeded verification suites and their report plumbing.

Each suite re-checks one cluster of claims at Monte Carlo scale and
returns a SuiteReport of detail records.  Every check is a value and the
bound it must not exceed, stored as ``checks: {name: [value, bound]}``; a
record's ``margin`` is the least ``bound - value`` of its checks and its
``ok`` is ``margin >= 0``, so a negative margin means a failed check.  A
check of the form "at least" is stated as a deficit against its floor.
The report's ``n_failures`` counts the records that are not ok and its
``worst_margin`` is their least margin.  Reports serialize as
line-delimited JSON with a schema header; timing stays in memory only, so
a fixed seed reproduces a report file byte for byte.

Every suite is declared once, as a body registered with ``@_suite``; the
registry fixes the public ``run_<name>`` functions and ``SUITE_NAMES``.
"""

from __future__ import annotations

import functools
import json
import math
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
    random_operations_max_gap,
)
from .config import checked_index, checked_path, resolve_tol
from .errors import MatrixFileError, NumericalError, ReportParseError, ValidationError
from .linalg import bounded_max, random_hermitian
from .maximizers import (
    MaximizerMode,
    build_maximizing_operation,
    extremal_trace_product,
    maximizing_projector,
)
from .metrics import check_fvdg_bounds, fidelity, max_qubit_gap, trace_distance
from .states import random_density, random_pairs_max_gap, validate_state
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
SCHEMA_VERSION = 2

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class SuiteReport:
    """Result of one suite run: n_failures counts the detail records that are
    not ok, and worst_margin is the least margin of any record."""

    suite_name: str
    n_cases: int
    n_failures: int
    worst_margin: float
    seed: int
    elapsed_seconds: float
    details: tuple

    def __post_init__(self):
        if self.n_failures > self.n_cases:
            raise ValidationError(
                f"n_failures {self.n_failures} exceeds n_cases {self.n_cases}"
            )
        if not np.isfinite(self.worst_margin):
            raise ValidationError(f"worst_margin {self.worst_margin!r} is not finite")


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
            n_failures, worst_margin = _tally(details)
            return SuiteReport(
                suite_name=name,
                n_cases=n_counted,
                n_failures=n_failures,
                worst_margin=worst_margin,
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


def _detail(case: str, checks: dict, **extra) -> dict:
    """One record: the case label, any extra fields, each check of
    ``checks = {name: (value, bound)}`` as ``[value, bound]``, the margin
    ``min(bound - value)`` and the verdict ``margin >= 0``.

    This is the only place a verdict is made.  A check whose value or bound
    is not finite raises NumericalError naming the case and the check.
    """
    pairs = {name: [float(value), float(bound)] for name, (value, bound) in checks.items()}
    for name, (value, bound) in pairs.items():
        if not math.isfinite(bound - value):
            raise NumericalError(f"{case}: check {name} is not finite: value {value!r}, bound {bound!r}")
    margin = min(bound - value for value, bound in pairs.values())
    return {"case": case, **extra, "checks": pairs, "margin": margin, "ok": margin >= 0}


def _tally(details) -> tuple[int, float]:
    """(n_failures, worst_margin) of a suite's details: how many are not
    ok, and their least margin."""
    return sum(not d["ok"] for d in details), min(d["margin"] for d in details)


def _violations(case: str, checks: dict, **extra) -> dict:
    """A record over arrays, ``checks = {name: (values, bound)}``: each
    check's value is the largest of its values, and ``violations`` counts
    the positions where any check's value exceeds its bound."""
    bad = np.logical_or.reduce([values > bound for values, bound in checks.values()])
    return _detail(
        case,
        {name: (values.max(), bound) for name, (values, bound) in checks.items()},
        violations=int(np.count_nonzero(bad)),
        **extra,
    )


def _distinct_pair(dim: int, rng: np.random.Generator):
    """Random states rho and sigma at trace distance d >= 1e-3, and d."""
    while True:
        rho = random_density(dim, int(rng.integers(1, dim + 1)), rng)
        sig = random_density(dim, int(rng.integers(1, dim + 1)), rng)
        if (d := trace_distance(rho, sig)) >= 1e-3:
            return rho, sig, d


def _probe_block(dim: int, count: int, rng: np.random.Generator):
    """``count`` random probes 0 <= P <= 1 of rank 0 to ``dim``: each spans
    the first ``rank`` columns of a Ginibre draw, with weight 1 on each
    column (half the probes) or uniform weights in [0, 1].

    Returns the draws (count, dim, dim), the weights (zero beyond each
    rank) and the ranks.  The first ``rank`` columns of Q, from the QR of a
    draw, span its first ``rank`` columns, and P = Q diag(w) Q†.
    """
    ranks = rng.integers(0, dim + 1, size=count)
    draws = rng.standard_normal((count, dim, 2 * dim)).view(np.complex128)
    weights = np.where(rng.random((count, 1)) < 0.5, 1.0, rng.uniform(0.0, 1.0, size=(count, dim)))
    weights *= np.arange(dim) < ranks[:, None]
    return draws, weights, ranks


def _probe_values(q: np.ndarray, weights: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """tr(P delta) = sum_k w_k q_k† delta q_k for each probe of a block."""
    return np.einsum("nik,nik,nk->n", q.conj(), delta @ q, weights).real


def _probe_max(delta: np.ndarray, draws: np.ndarray, weights: np.ndarray) -> float:
    """The largest probe value of a block, with only the probes that can
    still set it sent through QR (``linalg.bounded_max``).

    Each P has eigenvalues w, so tr(P delta) <= sum_k w_k lambda_k(delta)
    with both sorted alike (von Neumann's trace inequality); the scale is
    d * max|delta|, as the QR and the products round each value off by a
    few d^3 * eps * max|delta|.
    """
    top = np.sort(weights, axis=1) @ np.linalg.eigvalsh(delta)

    def values(block):
        q, _ = np.linalg.qr(draws[block])
        return _probe_values(q, weights[block], delta)

    return bounded_max(top, values, len(delta) * float(np.abs(delta).max()))


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
        rho, sig, d = _distinct_pair(dim, rng)
        mode = MaximizerMode.ON_Q if i % 2 == 0 else MaximizerMode.ON_R
        dim_out = int(rng.integers(1, 5))
        op = build_maximizing_operation(rho, sig, dim_out, mode)
        attain = abs(e_distance(op, rho, sig) - d)
        # Oracle operations: output dimension 1 to dim, 1 to 4 Kraus operators.
        oracle_out = rng.integers(1, dim + 1, size=n_oracle)
        oracle_kraus = rng.integers(1, 5, size=n_oracle)
        gap = random_operations_max_gap(rho.mat - sig.mat, oracle_out, oracle_kraus, rng)
        details.append(
            _detail(
                f"pair-{i:03d}-dim{dim}-{mode.value}",
                {"attainment": (attain, 1e-10), "oracle_excess": (gap - d, slack)},
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
        gap = random_pairs_max_gap(op.t_op, rng.integers(1, dim + 1, size=n_pairs), rng)
        details.append(
            _detail(
                f"op-{i:03d}-dim{dim}",
                {"attainment": (attain, 1e-10), "pair_excess": (gap - ext.value, slack)},
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
        details.append(_detail(label, {"spread": (max_e_distance_over_states(op).value, 1e-10)}))
    return n_cases + 2, details


@_suite("thm3", salt=103, default_cases=10_000)
def run_thm3(rng, n_cases, slack):
    """Normalized output distance never beats the input distance divided by
    the larger probability; relative increase never beats 1 - p_m."""
    n_counted, draws = _trial_draws(rng, n_cases)
    details = []
    for tag, trials in draws:
        gaps = trials.d_out_normalized - trials.d_in / trials.p_m
        details.append(_violations(f"{tag}-normalized-ratio-bound", {"excess": (gaps, slack)}))
        increasing = ~np.isnan(trials.relative_increase)
        if increasing.any():
            over = trials.relative_increase[increasing] - (1.0 - trials.p_m[increasing])
            details.append(
                _violations(
                    f"{tag}-relative-increase-bound", {"excess": (over, slack)}, n_increasing=over.size
                )
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
            {"excess": (trials.d_out_subnormalized - 0.5 * trials.d_in, slack)},
        )
        for tag, trials in draws
    ]
    rho, sig = validate_state(np.diag([1.0, 0.0])), validate_state(np.diag([0.0, 1.0]))
    op = build_maximizing_operation(rho, sig, 1, MaximizerMode.ON_Q)
    resid = abs(trace_distance(apply(op, rho), apply(op, sig)) - 0.5)
    details.append(_detail("orthogonal-qubit-saturation", {"residual": (resid, 1e-10)}))
    return n_counted, details


@_suite("thm5", salt=106, default_cases=10_000)
def run_thm5(rng, n_cases, slack):
    """Qubit gap maximum, its witness pair, and the global gap ceiling."""
    point = max_qubit_gap()
    details = [
        _detail(
            "qubit-grid-max",
            {"residual": (abs(point.value - 0.25), 1e-4)},
            value=point.value,
            at=[point.u, point.v, point.eta],
        )
    ]
    rho = np.diag([1.0, 0.0]).astype(np.complex128)
    sig = np.diag([0.75, 0.25]).astype(np.complex128)
    witness = check_fvdg_bounds(rho, sig)
    gap = witness.sine_dist - witness.trace_dist
    details.append(_detail("witness-pair-gap", {"residual": (abs(gap - 0.25), 1e-10)}, value=float(gap)))
    dims = rng.integers(2, 7, size=n_cases)
    over_ceiling, chain_excess, angle_excess = [], [], []
    for dim in range(2, 7):
        count = int(np.sum(dims == dim))
        if count == 0:
            continue
        rhos = random_density(dim, rng.integers(1, dim + 1, size=count), rng)
        sigs = random_density(dim, rng.integers(1, dim + 1, size=count), rng)
        fvdg = check_fvdg_bounds(rhos, sigs)
        d, f, c = fvdg.trace_dist, fvdg.fid, fvdg.sine_dist
        over_ceiling.append((c - d) - (SQRT2 - 1.0))
        chain_excess.append((c - d) - (c + f - 1.0))
        angle_excess.append((c + f) - SQRT2)
    details.append(
        _violations(
            "global-gap-ceiling",
            {
                "over_ceiling": (np.concatenate(over_ceiling), slack),
                "chain_excess": (np.concatenate(chain_excess), slack),
                "angle_excess": (np.concatenate(angle_excess), 1e-12),
            },
        )
    )
    return n_cases + 2, details


@_suite("cloning", salt=107, default_cases=200)
def run_cloning(rng, n_cases, slack):
    """Output/input distance ratio of the exact cloner matches its closed
    form and stays at or above 1/sqrt(2)."""
    omega1 = np.diag([1.0, 0.0]).astype(np.complex128)
    omega2 = np.diag([0.0, 1.0]).astype(np.complex128)
    out = cloner_outputs(omega1, omega2)
    ratio = trace_distance(out.g1, out.g2) / trace_distance(omega1, omega2)
    details = [
        _detail("orthogonal-pair-ratio-one", {"residual": (abs(ratio - 1.0), 1e-12)}, ratio=float(ratio))
    ]
    for i in range(n_cases):
        dim = int(rng.integers(2, 7))
        while True:
            w1 = random_density(dim, 1, rng)
            w2 = random_density(dim, 1, rng)
            if fidelity(w1, w2) < 1.0 - 1e-6:
                break
        out = cloner_outputs(w1, w2)
        ratio = trace_distance(out.g1, out.g2) / trace_distance(w1, w2)
        details.append(
            _detail(
                f"pair-{i:03d}-dim{dim}",
                {
                    "from_closed_form": (abs(ratio - cloner_distance_factor(out.omega)), slack),
                    "ratio_deficit": (1.0 / SQRT2 - ratio, 0.0),
                },
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
        details.append(
            _detail(
                f"T-{i:03d}-dim{dim}",
                {"attainment": (attain, 1e-10), "escape": (max(ext.min_val - val, val - ext.max_val), slack)},
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
            details.append(_detail(label, {"residual": (abs(m - target), 1e-3)}, value=float(m)))
    for label, cdf in (("wedge-dominates-uniform", cdf_wedge), ("equal-cdfs-equal-moments", cdf_uniform)):
        dom = dominance_implies_moments((grid, cdf), (grid, cdf_uniform), range(1, 6))
        moment_excess = max(a - b for a, b in zip(dom.moments_g, dom.moments_h))
        details.append(
            _detail(label, {"cdf_deficit": (-dom.worst_gap, slack), "moment_excess": (moment_excess, slack)})
        )
    alpha = np.linspace(0.0, 2.0 * np.pi, max(n_cases, 1000))
    excess = np.max(np.sin(alpha) + np.cos(alpha)) - SQRT2
    details.append(_detail("sin-plus-cos-ceiling", {"excess": (excess, 1e-12)}))
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
        probe_excess = _probe_max(a - b, *_probe_block(dim, n_probes, rng)[:2]) - mp.value
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
        details.append(
            _detail(
                f"instance-{i:03d}-dim{dim}",
                {
                    "symmetry": (abs(d_ab - dist[1]), 1e-12),
                    "self_distance": (dist[2], 1e-12),
                    "triangle_excess": (d_ab - (dist[3] + dist[4]), 1e-12),
                    "projector_identity": (abs(mp.value - (d_ab + 0.5 * float(np.trace(a - b).real))), 1e-10),
                    "probe_excess": (probe_excess, slack),
                    "convexity_excess": (dist[5] - sum(p * d for p, d in zip(probs, dist[6:])), 1e-12),
                },
            )
        )
    return n_cases, details


def _cdf_floor(prefix: str, samples: np.ndarray, grid: np.ndarray, targets: np.ndarray) -> list:
    """Empirical CDF of ``samples`` at each grid point against its target
    floor, allowing three standard errors."""
    n = len(samples)
    details = []
    for x, p, target in zip(grid, empirical_cdf(samples, grid), targets):
        sem = np.sqrt(max(p * (1.0 - p), 1e-12) / n)
        details.append(
            _detail(f"{prefix}-cdf-at-{x:.1f}", {"deficit": (target - p, 3.0 * sem)}, empirical=float(p))
        )
    return details


@_suite("section3", salt=105, default_cases=100_000)
def run_section3(rng, n_cases, slack):
    """Distribution-level statistics over the uniform triangle.

    The checks are statistical (CDF floors within 3 standard errors, the
    mean input distance within 0.01, moment and mean ceilings within 3
    standard errors), so ``slack`` does not apply to them.
    """
    checked_index("section3 n_cases", n_cases, 100)
    trials = statlab.run_trials(_maximizer_shaped_op(5, 2, 2), n_cases, rng)
    d_in, d_norm = trials.d_in, trials.d_out_normalized
    rel = np.nan_to_num(trials.relative_increase, nan=0.0)
    mean_in = float(d_in.mean())
    details = [_detail("mean-input-distance", {"residual": (abs(mean_in - 1.0 / 3.0), 0.01)}, value=mean_in)]
    grid = np.round(np.arange(0.1, 0.95, 0.1), 2)
    details += _cdf_floor("output", d_norm, grid, grid)
    mc = moment_check(d_norm, 1, BoundKind.UNIFORM)
    details.append(
        _detail(
            "output-mean-below-half",
            {"excess": (mc.empirical_moment - mc.bound, 3.0 * mc.stderr)},
            empirical=mc.empirical_moment,
        )
    )
    details += _cdf_floor("relative-increase", rel, grid, 2.0 * grid - grid * grid)
    wc = moment_check(rel, 1, BoundKind.WEDGE)
    details.append(
        _detail(
            "relative-increase-mean-below-third",
            {"excess": (wc.empirical_moment - wc.bound, 3.0 * wc.stderr)},
            empirical=wc.empirical_moment,
        )
    )
    mb = statlab.mean_output_distance_bound(trials)
    details.append(
        _detail(
            "mean-subnormalized-output-below-sixth",
            {"excess": (mb.mean_d_out_sub - 1.0 / 6.0, 3.0 * mb.stderr)},
            empirical=mb.mean_d_out_sub,
        )
    )
    return n_cases, details


SUITE_NAMES = tuple(_SUITES)

# The suites by their run time at seed 7 (minimum of 5 in-process runs on
# one CPU of a 2-vCPU host, two measurements), longest first: appendixB
# 0.39-0.41 s, thm1 0.31-0.33 s, thm2 0.26-0.27 s, thm5 0.17 s, cloning
# 0.08-0.09 s, lemma1 0.05-0.06 s, section3 0.04 s, the rest under 0.01 s
# each.  Workers take them in this order, so the longest suite does not
# start last.
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
    """Line-delimited JSON: a schema header, then one record per suite, each
    a compact object with sorted keys.

    Timing is deliberately omitted so fixed-seed runs are byte-identical.
    Each detail record is encoded and written by itself, ahead of the other
    keys because "details" sorts first: one encoding call for a whole suite
    record would keep every fragment of it alive until the call returns.
    A path that cannot be written raises MatrixFileError, and one that is
    not a ``str``, ``bytes`` or ``os.PathLike`` ValidationError.
    """
    dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    try:
        with open(checked_path(path), "w", encoding="utf-8") as fh:
            fh.write(dumps({"format": REPORT_FORMAT, "schema_version": SCHEMA_VERSION}) + "\n")
            for r in reports:
                fh.write('{"details":[')
                for k, detail in enumerate(r.details):
                    fh.write(("," if k else "") + dumps(detail))
                rest = {
                    "n_cases": r.n_cases,
                    "n_failures": r.n_failures,
                    "seed": r.seed,
                    "suite_name": r.suite_name,
                    "worst_margin": r.worst_margin,
                }
                fh.write("]," + dumps(rest)[1:] + "\n")
    except OSError as exc:
        raise MatrixFileError(f"cannot write {path}: {exc}") from exc


def parse_report(path) -> list[SuiteReport]:
    """Read a report file back; elapsed time is not stored and reads as 0.

    Lines are parsed as they are read, so the file's text is never held
    in memory at once.  A path that is not a ``str``, ``bytes`` or
    ``os.PathLike`` raises ValidationError.
    """
    try:
        with open(checked_path(path), encoding="utf-8") as fh:
            return _parse_lines(path, (line for line in fh if line.strip()))
    except (OSError, UnicodeDecodeError) as exc:
        raise ReportParseError(f"cannot read {path}: {exc}") from exc


def _parse_lines(path, lines) -> list[SuiteReport]:
    """The suite records of a report's nonblank ``lines`` (an iterator),
    after its header; ``path`` only names the file in errors."""
    try:
        header = json.loads(next(lines))
    except StopIteration:
        raise ReportParseError(f"{path}: empty report") from None
    except json.JSONDecodeError as exc:
        raise ReportParseError(f"{path}: bad header: {exc}") from exc
    if header != {"format": REPORT_FORMAT, "schema_version": SCHEMA_VERSION}:
        raise ReportParseError(f"{path}: unrecognized header {header!r}")
    out = []
    for i, line in enumerate(lines, start=2):
        try:
            rec = json.loads(line)
            report = SuiteReport(
                suite_name=rec["suite_name"],
                n_cases=checked_index("n_cases", rec["n_cases"], 0),
                n_failures=checked_index("n_failures", rec["n_failures"], 0),
                worst_margin=_json_number("worst_margin", rec["worst_margin"]),
                seed=checked_index("seed", rec["seed"], 0),
                elapsed_seconds=0.0,
                details=tuple(rec["details"]),
            )
            _check_verdicts(report)
            out.append(report)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError, NumericalError) as exc:
            raise ReportParseError(f"{path}:{i}: bad suite record: {exc!r}") from exc
    return out


def _check_verdicts(report: SuiteReport) -> None:
    """Reject a loaded suite record whose verdicts do not follow from its
    checks: each detail needs ``checks``, each a [value, bound] of JSON
    numbers, and a ``margin`` and an ``ok`` equal to the ones ``_detail``
    makes of them; ``n_failures`` and ``worst_margin`` must be the
    ``_tally`` of the details."""
    for k, d in enumerate(report.details):
        if not (isinstance(d, dict) and {"checks", "margin", "ok"} <= d.keys() and isinstance(d["checks"], dict)):
            raise ValidationError(f"detail {k} lacks checks, margin or ok")
        checks = {name: [_json_number(f"check {name}", x) for x in pair] for name, pair in d["checks"].items()}
        judged = _detail(f"detail {k}", checks)
        margin = _json_number("margin", d["margin"])
        if margin != judged["margin"]:
            raise ValidationError(
                f"detail {k}: margin {margin!r} does not follow from its checks: {judged['margin']!r}"
            )
        if d["ok"] is not judged["ok"]:
            raise ValidationError(f"detail {k}: ok {d['ok']!r} disagrees with margin {margin!r}")
    n_failed, worst = _tally(report.details)
    if report.n_failures != n_failed:
        raise ValidationError(f"n_failures {report.n_failures} but {n_failed} details failed")
    if report.worst_margin != worst:
        raise ValidationError(f"worst_margin {report.worst_margin!r} is not the least detail margin {worst!r}")


def _json_number(name: str, value) -> float:
    """``value`` as a float when it loaded as a JSON number: a flag or a
    numeric string is not taken for one."""
    if type(value) not in (int, float):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)
