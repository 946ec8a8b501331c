"""Command-line interface.

Subcommands: dist (distances between matrix files), maximize (build the
distance-attaining operation for a state pair), pairs (build matched
state pairs for an operation), verify (run seeded verification suites),
clone (exact cloner of a designated pure pair).

Exit codes are part of the contract: 0 success, 1 checks failed,
2 parse/usage, 3 dimension mismatch, 4 degenerate input, 5 operation
shape unfit for matched pairs, 6 purity violation.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .channels import cloner_distance_factor, cloner_outputs, e_distance
from .config import checked_index, resolve_tol
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    MatrixFileError,
    NotMaximizingShapeError,
    PurityError,
    QopdistError,
    ValidationError,
)
from .matrixio import load_kraus_set, load_matrix, load_state, save_kraus_set, save_state
from .maximizers import (
    MaximizerMode,
    build_maximizing_operation,
    build_state_pair,
    certify_maximizer,
    matched_eigenspaces,
)
from .metrics import angle, fidelity, sine_distance, trace_distance
from .suites import SUITE_NAMES, run_suite, write_report

_METRICS = {
    "trace": trace_distance,
    "fidelity": fidelity,
    "sine": sine_distance,
    "angle": angle,
}


def _fmt(value: float) -> str:
    return f"{float(value):.12f}"


def cmd_dist(args) -> int:
    mat_a, _ = load_matrix(args.file_a)
    mat_b, _ = load_matrix(args.file_b)
    value = _METRICS[args.metric](mat_a, mat_b)
    print(_fmt(value))
    return 0


def cmd_maximize(args) -> int:
    tol = resolve_tol(args.tol)
    rho = load_state(args.file_rho)
    sigma = load_state(args.file_sigma)
    op = build_maximizing_operation(rho, sigma, args.dim_out, MaximizerMode(args.mode), tol=tol)
    cert = certify_maximizer(op, rho, sigma, tol=tol)
    if cert.mode != MaximizerMode(args.mode):
        raise QopdistError(
            f"constructed operation certified as {cert.mode.value}, expected {args.mode}"
        )
    d_e = e_distance(op, rho, sigma)
    d = trace_distance(rho, sigma)
    if abs(d_e - d) > tol:
        raise QopdistError(f"attainment residual {abs(d_e - d):.3e} exceeds tolerance")
    save_kraus_set(args.out_file, op)
    print(f"e_distance {_fmt(d_e)}")
    print(f"trace_distance {_fmt(d)}")
    print(f"certificate {cert.mode.value}")
    print(f"written {args.out_file}")
    return 0


def _positive_fractions(rng: np.random.Generator, k: int) -> np.ndarray:
    while True:
        f = rng.dirichlet(np.ones(k))
        if f.min() > 1e-9:
            return f


def cmd_pairs(args) -> int:
    tol = resolve_tol(args.tol)
    op = load_kraus_set(args.kraus_file)
    if not 0.0 < args.d_target < 1.0:
        raise ValidationError(f"target distance {args.d_target} must lie strictly in (0, 1)")
    checked_index("count", args.count, 1)
    checked_index("seed", args.seed, 0)
    try:
        unit, zero = matched_eigenspaces(op)
    except NotMaximizingShapeError as exc:
        spectrum = np.linalg.eigvalsh(op.t_op)
        print(f"error: {exc}", file=sys.stderr)
        print("T spectrum: " + " ".join(_fmt(w) for w in spectrum), file=sys.stderr)
        return 5
    rng = np.random.default_rng(args.seed)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise MatrixFileError(f"cannot create directory {args.out_dir}: {exc}") from exc
    d = args.d_target
    for i in range(args.count):
        nq = int(rng.integers(1, unit.shape[1] + 1))
        nr = int(rng.integers(1, zero.shape[1] + 1))
        slack_mass = 1.0 - d
        s = float(rng.uniform(0.0, slack_mass))
        rho, sigma = build_state_pair(
            op,
            d,
            lambda_weights=d * _positive_fractions(rng, nq),
            kappa_weights=d * _positive_fractions(rng, nr),
            delta_lambda=s * rng.dirichlet(np.ones(nq)),
            delta_kappa=(slack_mass - s) * rng.dirichlet(np.ones(nr)),
        )
        d_e = e_distance(op, rho, sigma)
        d_tr = trace_distance(rho, sigma)
        if abs(d_e - d) > tol or abs(d_tr - d) > tol:
            raise QopdistError(
                f"pair {i} misses target: e-distance {d_e!r}, trace distance {d_tr!r}"
            )
        path_rho = os.path.join(args.out_dir, f"pair-{i:02d}-rho.json")
        path_sigma = os.path.join(args.out_dir, f"pair-{i:02d}-sigma.json")
        save_state(path_rho, rho)
        save_state(path_sigma, sigma)
        print(f"pair-{i:02d}: e_distance {_fmt(d_e)} trace_distance {_fmt(d_tr)}")
    print(f"written {args.count} pairs to {args.out_dir}")
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.seed, args.cases, resolve_tol(args.tol))
    for r in reports:
        print(
            f"{r.suite_name}: {r.n_cases} cases, {r.n_failures} failures, "
            f"worst margin {r.worst_margin:.12g}, {r.elapsed_seconds:.2f}s"
        )
    if args.report:
        write_report(args.report, reports)
        print(f"report written to {args.report}")
    total = sum(r.n_failures for r in reports)
    print("OK" if total == 0 else f"FAILED: {total} check(s)")
    return 0 if total == 0 else 1


def cmd_clone(args) -> int:
    omega1 = load_state(args.file_omega1)
    omega2 = load_state(args.file_omega2)
    out = cloner_outputs(omega1, omega2)
    d_in = trace_distance(omega1, omega2)
    d_out = trace_distance(out.g1, out.g2)
    factor = d_out / d_in
    predicted = cloner_distance_factor(out.omega)
    print(
        "{"
        + f'"Omega": {_fmt(out.omega)}, "D_in": {_fmt(d_in)}, '
        + f'"D_out": {_fmt(d_out)}, "factor": {_fmt(factor)}'
        + "}"
    )
    if abs(factor - predicted) > 1e-9:
        raise QopdistError(
            f"factor {factor!r} disagrees with closed form {predicted!r}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qopdist",
        description="Distances between quantum states as operation-induced probability gaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance between two matrix files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument(
        "--metric", choices=sorted(_METRICS), default="trace", help="which distance to print"
    )
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("maximize", help="build the operation whose probability gap attains the trace distance")
    p.add_argument("file_rho")
    p.add_argument("file_sigma")
    p.add_argument("dim_out", type=int)
    p.add_argument("out_file")
    p.add_argument("--mode", choices=[m.value for m in (MaximizerMode.ON_Q, MaximizerMode.ON_R)], default="on-q")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_maximize)

    p = sub.add_parser("pairs", help="build matched state pairs achieving a target distance under an operation")
    p.add_argument("kraus_file")
    p.add_argument("d_target", type=float)
    p.add_argument("count", type=int)
    p.add_argument("out_dir")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("verify", help="run seeded verification suites")
    p.add_argument("suite", choices=("all",) + SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("clone", help="exact cloner of a designated pure pair")
    p.add_argument("file_omega1")
    p.add_argument("file_omega2")
    p.set_defaults(func=cmd_clone)

    return parser


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, DimensionMismatchError):
        return 3
    if isinstance(exc, DegenerateInputError):
        return 4
    if isinstance(exc, NotMaximizingShapeError):
        return 5
    if isinstance(exc, PurityError):
        return 6
    if isinstance(exc, (MatrixFileError, ValidationError)):
        return 2
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QopdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
