"""Acceptance gate: every headline claim re-checked at full scale.

Each test prints one PASS/FAIL line (bypassing pytest capture, so the
lines always reach the terminal).  Scales and tolerances here are the
contract; reduced-scale smoke coverage lives in test_suites.py.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qopdist
from qopdist.channels import QuantumOperation, e_distance, random_operation
from qopdist.linalg import spectral_split
from qopdist.maximizers import MaximizerMode, build_maximizing_operation, certify_maximizer
from qopdist.metrics import trace_distance
from qopdist.states import random_density
from qopdist.suites import (
    run_appendixB,
    run_cloning,
    run_lemma1,
    run_lemma2,
    run_section3,
    run_thm1,
    run_thm2,
    run_thm3,
    run_thm4,
    run_thm5,
)

SEED = 7


def _criterion(capsys, num, label, ok):
    line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _detail(report, case):
    hits = [d for d in report.details if d["case"] == case]
    assert len(hits) == 1, f"expected one detail {case!r}"
    return hits[0]


def test_criterion_01_maximizer_attainment(capsys):
    r = run_thm1(SEED)
    ok = r.n_cases == 200 and r.n_failures == 0
    _criterion(capsys, 1, "constructed operation attains the trace distance; no random operation beats it", ok)


def test_criterion_02_certification_agreement(capsys):
    rng = np.random.default_rng(2002)
    combos = 0
    disagreements = 0
    for _ in range(250):
        dim = int(rng.integers(2, 7))
        while True:
            rho = random_density(dim, int(rng.integers(1, dim + 1)), rng)
            sig = random_density(dim, int(rng.integers(1, dim + 1)), rng)
            d = trace_distance(rho, sig)
            if d >= 1e-3:
                break
        dim_out = int(rng.integers(1, 5))
        ops = [
            build_maximizing_operation(rho, sig, dim_out, MaximizerMode.ON_Q),
            build_maximizing_operation(rho, sig, dim_out, MaximizerMode.ON_R),
        ]
        base = ops[0]
        split = spectral_split(rho.mat - sig.mat)
        if split.kernel_dim > 0:
            extra = [
                np.sqrt(0.5) * np.outer(np.eye(dim_out, dtype=complex)[:, 0], k.conj())
                for k in split.kernel_basis.T
            ]
            ops.append(QuantumOperation(list(base.kraus) + extra))
        else:
            ops.append(random_operation(dim, int(rng.integers(1, dim + 1)), 2, rng))
        while len(ops) < 8:
            ops.append(
                random_operation(dim, int(rng.integers(1, dim + 1)), int(rng.integers(1, 4)), rng)
            )
        for op in ops:
            attains = abs(e_distance(op, rho, sig) - d) < 1e-8
            claims = certify_maximizer(op, rho, sig).mode != MaximizerMode.NOT_MAXIMIZER
            combos += 1
            if attains != claims:
                disagreements += 1
    ok = combos == 2000 and disagreements == 0
    _criterion(capsys, 2, "certification agrees with attainment on 2000 combinations", ok)


def test_criterion_03_extremal_pairs(capsys):
    r = run_thm2(SEED)
    ok = r.n_cases == 102 and r.n_failures == 0
    _criterion(capsys, 3, "extremal pairs attain the T-spectrum spread; trace-preserving gives zero", ok)


def test_criterion_04_normalized_output_bounds(capsys):
    r = run_thm3(SEED)
    ok = r.n_cases == 10_000 and r.n_failures == 0
    ok = ok and all(d.get("violations", 0) == 0 for d in r.details)
    _criterion(capsys, 4, "normalized ratio and relative-increase bounds, zero violations", ok)


def test_criterion_05_subnormalized_half_bound(capsys):
    r = run_thm4(SEED)
    sat = _detail(r, "orthogonal-qubit-saturation")
    ok = r.n_cases == 10_000 and r.n_failures == 0 and sat["checks"]["residual"][0] < 1e-10
    _criterion(capsys, 5, "subnormalized outputs stay within half the input distance; saturation exact", ok)


def test_criterion_06_triangle_statistics(capsys):
    r = run_section3(SEED)
    mean_in = _detail(r, "mean-input-distance")
    mean_sub = _detail(r, "mean-subnormalized-output-below-sixth")
    ok = (
        r.n_cases == 100_000
        and r.n_failures == 0
        and mean_in["checks"]["residual"][0] <= 0.01
        and mean_sub["checks"]["excess"][0] <= 0.01
    )
    _criterion(capsys, 6, "triangle statistics at 100k trials", ok)


def test_criterion_07_cloning_factor(capsys):
    r = run_cloning(SEED)
    orth = _detail(r, "orthogonal-pair-ratio-one")
    ok = r.n_cases == 201 and r.n_failures == 0 and orth["checks"]["residual"][0] < 1e-12
    _criterion(capsys, 7, "cloner ratio matches closed form and exceeds 1/sqrt(2)", ok)


def test_criterion_08_sine_trace_gap(capsys):
    r = run_thm5(SEED)
    grid = _detail(r, "qubit-grid-max")
    witness = _detail(r, "witness-pair-gap")
    sampled = _detail(r, "global-gap-ceiling")
    ok = (
        r.n_cases == 10_002
        and r.n_failures == 0
        and grid["checks"]["residual"][0] <= 1e-4
        and witness["checks"]["residual"][0] < 1e-10
        and sampled["violations"] == 0
    )
    _criterion(capsys, 8, "qubit gap max is 1/4; global gap stays under sqrt(2)-1", ok)


def test_criterion_09_trace_product_and_moments(capsys):
    r1 = run_lemma1(SEED)
    r2 = run_lemma2(SEED)
    moments_ok = all(
        d["checks"]["residual"][0] <= 1e-3
        for d in r2.details
        if d["case"].startswith(("uniform-moment", "wedge-moment"))
    )
    trig = _detail(r2, "sin-plus-cos-ceiling")
    ok = (
        r1.n_cases == 500
        and r1.n_failures == 0
        and r2.n_failures == 0
        and moments_ok
        and trig["checks"]["excess"][0] <= 1e-12
    )
    _criterion(capsys, 9, "trace-product interval, moment identities, sine-plus-cosine ceiling", ok)


def test_criterion_10_metric_axioms(capsys):
    r = run_appendixB(SEED)
    ok = r.n_cases == 500 and r.n_failures == 0
    _criterion(capsys, 10, "metric axioms, projector optimality and joint convexity", ok)


def test_criterion_11_verify_determinism(tmp_path, capsys):
    # Run the package this test imported, never an installed copy found
    # on PATH: its source root goes in front of the inherited PYTHONPATH.
    src = str(Path(qopdist.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not inherited else os.pathsep.join([src, inherited]))
    paths = [tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"]
    for p in paths:
        proc = subprocess.run(
            [sys.executable, "-m", "qopdist.cli", "verify", "all", "--seed", "7", "--report", str(p)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    _criterion(capsys, 11, "verify-all reports are byte-identical across runs", ok)
