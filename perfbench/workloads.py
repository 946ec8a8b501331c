"""The three benchmark workloads.

Each workload is a closed loop with one caller in one process.  Its work
comes in numbered units (a whole ``verify all`` run, a trial batch, a
block of API pairs); unit ``i`` draws its inputs only from ``(seed, i)``,
so the same seed always gives the same inputs, whether the unit runs
timed, traced or as part of a correctness re-check.

``unit(i, tracer)`` runs one unit, checks its outputs, and returns the
wall time of the library work in it.  With a tracer the library calls
run inside the benchmark's own ``bench.*`` spans.
"""

from __future__ import annotations

import io
import os
import statistics
import time
from contextlib import redirect_stdout

import numpy as np

import qopdist as q
from qopdist import cli

clock = time.perf_counter


class Workload:
    """Counts attempted and failed operations, and named gate results."""

    min_units = 3
    trace_units = 3

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.gates = {}
        self.errors = []

    def gate(self, name: str, ok: bool) -> None:
        self.gates[name] = self.gates.get(name, True) and bool(ok)

    def fail(self, what: str, exc: Exception) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def finish(self) -> None:
        """Correctness re-checks that run once, after the timed units."""


# -- verify_suites --------------------------------------------------------------


class VerifySuites(Workload):
    """``qopdist verify all --seed S --report FILE`` through ``cli.main``."""

    min_units = 2  # two reports of one seed must be byte-identical
    trace_units = 1
    failed_frac_name = "verify_failed_frac"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.walls = []
        self.cases = 0
        self.first_report = None

    def _verify(self, report):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["verify", "all", "--seed", str(self.seed), "--report", report])
        return code, out.getvalue()

    def unit(self, i, tracer=None):
        report = os.path.join(self.tmp, f"report-{i}.jsonl")
        run = self._verify if tracer is None else tracer.bench_span("bench.verify", self._verify)
        if tracer is not None:
            tracer.new_group()
        t0 = clock()
        try:
            code, text = run(report)
        except Exception as exc:  # a crashing run counts as one failed operation
            self.fail("verify", exc)
            self.attempted += 1
            self.failed += 1
            self.gate("verify_completes", False)
            return clock() - t0
        wall = clock() - t0
        reports = q.parse_report(report)
        cases = sum(r.n_cases for r in reports)
        failures = sum(r.n_failures for r in reports)
        self.attempted += cases
        self.failed += failures
        self.gate("verify_zero_failures", code == 0 and failures == 0 and text.rstrip().endswith("OK"))
        self.gate("verify_all_suites", [r.suite_name for r in reports] == list(q.suites.SUITE_NAMES))
        with open(report, "rb") as fh:
            data = fh.read()
        if self.first_report is None:
            self.first_report = data
        self.gate("verify_report_bytes_identical", data == self.first_report)
        self.cases = cases
        self.walls.append(wall)
        return wall

    def metrics(self):
        wall = statistics.median(self.walls)
        return self.cases / min(self.walls), [
            ("verify_s", wall, "s", f"median of {len(self.walls)} runs of verify all, {self.cases} cases each"),
            ("verify_best_s", min(self.walls), "s", "fastest run"),
        ]


# -- triangle_trials ------------------------------------------------------------

# (dim_in, n_unit, dim_out): qubit with scalar output, the section3 shape,
# and a wide-output shape where the trial kernel's share is largest.
SHAPES = ((2, 1, 1), (5, 2, 2), (16, 8, 8))
CALL_TRIALS = 2000
CALLS_PER_SHAPE = 10
# Grid ends just above 1 so CDFs of values equal to 1 up to rounding reach 1.
CDF_GRID = np.linspace(0.0, 1.0 + 1e-9, 101)
TOL_BOUND = 1e-9


def maximizer_shaped(dim_in: int, n_unit: int, dim_out: int):
    """T = diag(1, ..., 1, 0, ..., 0) with n_unit unit eigenvalues; output
    vectors cycle through the output basis."""
    eye_in = np.eye(dim_in, dtype=np.complex128)
    eye_out = np.eye(dim_out, dtype=np.complex128)
    return q.QuantumOperation(
        [np.outer(eye_out[:, i % dim_out], eye_in[:, i]) for i in range(n_unit)]
    )


def trial_columns(records):
    """(p_m, p_n, d_in, d_norm, d_sub, rel) arrays; rel is 0 where the
    normalized outputs did not drift apart."""
    pm = np.array([r.point.p_m for r in records])
    pn = np.array([r.point.p_n for r in records])
    d_in = np.array([r.d_in for r in records])
    d_norm = np.array([r.d_out_normalized for r in records])
    d_sub = np.array([r.d_out_subnormalized for r in records])
    rel = np.array([0.0 if r.relative_increase is None else r.relative_increase for r in records])
    return pm, pn, d_in, d_norm, d_sub, rel


def section3_analysis(records):
    """Output-distance CDF against the Theorem-3 ceiling d_in / p_m, the
    moments that dominance implies, and the mean bounds."""
    cols = trial_columns(records)
    pm, _, d_in, d_norm, _, rel = cols
    ceiling = d_in / pm
    dom = q.dominance_implies_moments(
        (CDF_GRID, q.empirical_cdf(d_norm, CDF_GRID)),
        (CDF_GRID, q.empirical_cdf(ceiling, CDF_GRID)),
        (1, 2, 3),
    )
    mean_norm = q.moment_check(d_norm, 1, q.BoundKind.UNIFORM)
    mean_rel = q.moment_check(rel, 1, q.BoundKind.WEDGE)
    mean_sub = q.mean_output_distance_bound(records)
    return cols, dom, mean_norm, mean_rel, mean_sub


class TriangleTrials(Workload):
    """``run_trials`` plus the Section-3 analysis over three operation shapes."""

    failed_frac_name = "trials_failed_frac"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.ops = [maximizer_shaped(*s) for s in SHAPES]
        self.walls = []
        self.rates = []
        self.sample_call = seed % CALLS_PER_SHAPE
        self.sample_records = {}

    def _rng(self, batch, shape, call):
        return np.random.default_rng([self.seed, batch, shape, call])

    def _batch(self, b):
        out = []
        for k, op in enumerate(self.ops):
            records = []
            for c in range(CALLS_PER_SHAPE):
                records += q.run_trials(op, CALL_TRIALS, self._rng(b, k, c))
            out.append((records, section3_analysis(records)))
        return out

    def unit(self, b, tracer=None):
        run = self._batch if tracer is None else tracer.bench_span("bench.batch", self._batch)
        if tracer is not None:
            tracer.new_group()
        n = len(SHAPES) * CALLS_PER_SHAPE * CALL_TRIALS
        self.attempted += n
        t0 = clock()
        try:
            shapes = run(b)
        except Exception as exc:
            self.fail(f"batch {b}", exc)
            self.failed += n
            self.gate("trials_complete", False)
            return clock() - t0
        wall = clock() - t0
        for k, (records, (cols, dom, mean_norm, mean_rel, mean_sub)) in enumerate(shapes):
            pm, _, d_in, d_norm, d_sub, rel = cols
            bad = (
                (d_norm > d_in / pm + TOL_BOUND)  # Theorem 3: normalized ratio bound
                | (rel > 1.0 - pm + TOL_BOUND)  # Theorem 3: relative-increase cap
                | (d_sub > 0.5 * d_in + TOL_BOUND)  # Theorem 4: half bound
            )
            self.failed += int(bad.sum())
            self.gate("thm3_thm4_bounds", not bad.any())
            # Exact consequences of the per-trial bounds on the same samples.
            analysis_ok = (
                dom.dominance_holds
                and dom.moments_ok
                and mean_norm.empirical_moment <= float(np.mean(d_in / pm)) + TOL_BOUND
                and mean_sub.mean_d_out_sub <= 0.5 * mean_sub.mean_d_in + TOL_BOUND
                and np.isfinite(mean_rel.empirical_moment)
            )
            self.gate("section3_analysis", analysis_ok)
            if b == 0:
                lo = self.sample_call * CALL_TRIALS
                self.sample_records[k] = records[lo : lo + CALL_TRIALS]
        self.walls.append(wall)
        self.rates.append(n / wall)
        return wall

    def finish(self):
        """Re-run one call per shape of batch 0 through the object path."""
        worst = 0.0
        for k, op in enumerate(self.ops):
            main = self.sample_records.get(k)
            if main is None:
                continue
            obj = q.run_trials(op, CALL_TRIALS, self._rng(0, k, self.sample_call), path="object")
            diff = max(
                float(np.max(np.abs(a - b))) for a, b in zip(trial_columns(main), trial_columns(obj))
            )
            worst = max(worst, diff)
        self.gate("object_path_agrees", bool(self.sample_records) and worst <= 1e-10)
        self.object_path_diff = worst

    def metrics(self):
        wall = statistics.median(self.walls)
        rate = statistics.median(self.rates)
        return max(self.rates), [
            ("trials_per_s", rate, "1/s", f"median of {len(self.rates)} batches"),
            ("batch_p50_ms", wall * 1e3, "ms",
             f"{len(SHAPES)} shapes x {CALLS_PER_SHAPE} calls x {CALL_TRIALS} trials per batch"),
            ("object_path_max_diff", self.object_path_diff, "1",
             f"call {self.sample_call} of batch 0, each shape"),
        ]


# -- api_roundtrip --------------------------------------------------------------

BLOCK_PAIRS = 100
MODES = (q.MaximizerMode.ON_Q, q.MaximizerMode.ON_R)


def _ginibre_state(rng, dim):
    rank = int(rng.integers(1, dim + 1))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def pair_inputs(rng):
    """Raw inputs of one pair, as a caller outside the library would hold them."""
    dim = int(rng.integers(2, 7))
    return {
        "rho": _ginibre_state(rng, dim),
        "sigma": _ginibre_state(rng, dim),
        "dim_out": int(rng.integers(1, 5)),
        "d_target": float(rng.uniform(0.05, 0.95)),
        "lam": rng.uniform(0.1, 1.0, size=dim),
        "kap": rng.uniform(0.1, 1.0, size=dim),
        "split": float(rng.uniform(0.1, 0.9)),
    }


class ApiRoundtrip(Workload):
    """Constructions, certification, matched pairs, bound reports and file
    round trips on a seeded stream of random state pairs."""

    failed_frac_name = "pairs_failed_frac"


    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.pair_ms = []
        self.rates = []
        self.paths = {k: os.path.join(tmp, f"{k}.json") for k in ("state", "kraus", "matrix")}

    def _pair(self, x):
        rho = q.validate_state(x["rho"])
        sigma = q.validate_state(x["sigma"])
        d = q.trace_distance(rho, sigma)
        built = []
        for mode in MODES:
            op = q.build_maximizing_operation(rho, sigma, x["dim_out"], mode)
            cert = q.certify_maximizer(op, rho, sigma)
            built.append((op, cert.mode, q.e_distance(op, rho, sigma)))
        op = built[0][0]
        # T of the ON_Q operation projects onto the positive support of
        # rho - sigma: one unit eigenvalue per Kraus operator, the rest zero.
        nq, nr = len(op.kraus), op.dim_in - len(op.kraus)
        t = x["d_target"]
        lam = t * x["lam"][:nq] / x["lam"][:nq].sum()
        kap = t * x["kap"][:nr] / x["kap"][:nr].sum()
        rest = 1.0 - t
        rho2, sigma2 = q.build_state_pair(
            op, t, lam, kap,
            np.full(nq, x["split"] * rest / nq),
            np.full(nr, (1.0 - x["split"]) * rest / nr),
        )
        rep3 = q.theorem3_report(op, rho2, sigma2)
        rep4 = q.theorem4_report(op, rho2, sigma2)
        p = self.paths
        q.save_state(p["state"], rho)
        state_back = q.load_state(p["state"])
        q.save_kraus_set(p["kraus"], op)
        op_back = q.load_kraus_set(p["kraus"])
        q.save_matrix(p["matrix"], x["rho"])
        mat_back = q.load_matrix(p["matrix"])
        return d, built, rep3, rep4, rho, state_back, op, op_back, mat_back

    def _check(self, x, out):
        d, built, rep3, rep4, rho, state_back, op, op_back, (mat_back, kind) = out
        checks = {
            "attainment": all(abs(e - d) <= 1e-10 for _, _, e in built),
            "certificate_mode": all(got is want for (_, got, _), want in zip(built, MODES)),
            "bound_reports": rep3.holds and rep4.holds and abs(rep3.d_in - x["d_target"]) <= 1e-10,
            # Known defect: validate_state renormalizes, so a state file
            # round trip can move entries by an ulp.  Not bit-exact yet.
            "load_state_within_1e-15": float(np.max(np.abs(state_back.mat - rho.mat))) <= 1e-15,
            "load_kraus_bit_exact": all(
                np.array_equal(a, b) for a, b in zip(op.kraus, op_back.kraus)
            ) and len(op.kraus) == len(op_back.kraus),
            "load_matrix_bit_exact": kind is None and np.array_equal(mat_back, x["rho"]),
        }
        for name, ok in checks.items():
            self.gate(name, ok)
        return all(checks.values())

    def unit(self, i, tracer=None):
        rng = np.random.default_rng([self.seed, i])
        inputs = [pair_inputs(rng) for _ in range(BLOCK_PAIRS)]
        run = self._pair if tracer is None else tracer.bench_span("bench.pair", self._pair)
        total = 0.0
        done = 0
        for x in inputs:
            if tracer is not None:
                tracer.new_group()
            self.attempted += 1
            t0 = clock()
            try:
                out = run(x)
            except Exception as exc:
                self.fail("pair", exc)
                self.failed += 1
                self.gate("pairs_complete", False)
                continue
            dt = clock() - t0
            total += dt
            done += 1
            self.pair_ms.append(dt * 1e3)
            if not self._check(x, out):
                self.failed += 1
        if done:
            self.rates.append(done / total)
        return total

    def metrics(self):
        ms = np.array(self.pair_ms)
        p50, p99 = (float(v) for v in np.percentile(ms, [50, 99]))
        rate = statistics.median(self.rates)
        return max(self.rates), [
            ("pairs_per_s", rate, "1/s", f"median of {len(self.rates)} blocks of {BLOCK_PAIRS}"),
            ("pair_p50_ms", p50, "ms", f"n={ms.size} pairs"),
            ("pair_p99_ms", p99, "ms", f"n={ms.size} pairs, {int(ms.size * 0.01)} beyond"),
        ]


def kernel_probes():
    """The two kernel timings of benchmarks/bench_kernels.py, on inputs built
    through the public API: the gap-grid maximum over a 100^3 grid (that
    script's 400^3 grid needs gigabytes), and the trial kernel on 200k
    trials of the (5, 2, 2) shape.  Medians of 3, in seconds."""
    from qopdist import _kernels

    def median_time(fn, repeats=3):
        times = []
        for _ in range(repeats):
            t0 = clock()
            fn()
            times.append(clock() - t0)
        return statistics.median(times)

    us = np.linspace(0.0, 1.0, 100)
    etas = np.linspace(-1.0, 1.0, 100)
    grid_s = median_time(lambda: _kernels.gap_grid_max(us, us, etas))

    n = 200_000
    op = maximizer_shaped(5, 2, 2)
    w, v = np.linalg.eigh(q.t_operator(op))
    unit, zero = v[:, w >= 1.0 - 1e-8], v[:, w <= 1e-8]
    nq, nr = unit.shape[1], zero.shape[1]
    rng = np.random.default_rng(11)
    pm, pn = q.sample_triangle_batch(rng, n)
    d = (pm - pn)[:, None]
    lam, dlam = rng.dirichlet(np.ones(nq), size=n), rng.dirichlet(np.ones(nq), size=n)
    kap, dkap = rng.dirichlet(np.ones(nr), size=n), rng.dirichlet(np.ones(nr), size=n)
    w_rho = np.hstack([d * lam + pn[:, None] * dlam, (1.0 - pm)[:, None] * dkap])
    w_sig = np.hstack([pn[:, None] * dlam, d * kap + (1.0 - pm)[:, None] * dkap])
    basis = np.hstack([unit, zero])
    op_mats = np.stack([q.apply(op, np.outer(b, b.conj())) for b in basis.T])
    trials_s = median_time(lambda: _kernels.trial_stats(op_mats, w_rho, w_sig, pm, pn))
    return grid_s, trials_s


WORKLOADS = {
    "verify_suites": VerifySuites,
    "triangle_trials": TriangleTrials,
    "api_roundtrip": ApiRoundtrip,
}
