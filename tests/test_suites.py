"""Tests for the verification suites and their report files.

Suites run here at reduced scale; the full-scale runs live in
test_acceptance.py.
"""

import dataclasses
import inspect
import json
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qopdist import channels, linalg, metrics, states, statlab, suites
from qopdist.channels import QuantumOperation, e_distance, random_operations
from qopdist.cli import main
from qopdist.errors import DegenerateInputError, NumericalError, ReportParseError, ValidationError
from qopdist.linalg import random_hermitian
from qopdist.metrics import trace_distance
from qopdist.states import DensityMatrix, random_density
from qopdist.statlab import TrialColumns
from qopdist.suites import (
    SUITE_NAMES,
    SuiteReport,
    parse_report,
    run_all,
    run_suite,
    write_report,
)

# The canonical suite order, written out so it is not read back from the
# registry that defines SUITE_NAMES.
CANONICAL = (
    "thm1",
    "thm2",
    "thm3",
    "thm4",
    "thm5",
    "cloning",
    "lemma1",
    "lemma2",
    "appendixB",
    "section3",
)

SMALL = {
    "thm1": 12,
    "thm2": 8,
    "thm3": 1500,
    "thm4": 1500,
    "thm5": 300,
    "cloning": 40,
    "lemma1": 60,
    "lemma2": 2000,
    "appendixB": 40,
    "section3": 20000,
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes_at_reduced_scale(name):
    reports = run_suite(name, 7, SMALL[name])
    assert len(reports) == 1
    r = reports[0]
    assert r.suite_name == name
    assert r.n_failures == 0
    assert r.seed == 7
    assert r.elapsed_seconds >= 0.0
    assert len(r.details) >= 1
    for d in r.details:
        assert d["ok"]
        assert np.isfinite(d["margin"])


def test_run_all_order():
    """run_all covers every suite once, in the canonical order."""
    assert SUITE_NAMES == CANONICAL
    assert sorted(suites._LONGEST_FIRST) == sorted(CANONICAL)
    reports = run_all(3, 150)
    assert tuple(r.suite_name for r in reports) == CANONICAL


# -- verify all in worker processes ---------------------------------------------


def _without_timing(report):
    return dataclasses.replace(report, elapsed_seconds=0.0)


@pytest.mark.parametrize("seed", [5, 11])
def test_run_all_matches_in_process_suites(tmp_path, seed):
    """run_all gives, field by field except the timing, and in the report
    file byte for byte, what each suite gives alone in this process."""
    together = run_all(seed, 100)
    alone = [run_suite(name, seed, 100)[0] for name in CANONICAL]
    assert [_without_timing(r) for r in together] == [_without_timing(r) for r in alone]
    write_report(tmp_path / "together.jsonl", together)
    write_report(tmp_path / "alone.jsonl", alone)
    assert (tmp_path / "together.jsonl").read_bytes() == (tmp_path / "alone.jsonl").read_bytes()


def _pid_suite(name):
    """Stand-in suite whose one detail records the process it ran in."""

    def run(seed, n_cases=None, slack=1e-9):
        detail = {"case": "pid", "pid": os.getpid(), "checks": {}, "margin": 0.0, "ok": True}
        return SuiteReport(name, 1, 0, 0.0, seed, 0.0, (detail,))

    return run


@pytest.fixture
def pid_suites(monkeypatch):
    for name in SUITE_NAMES:
        monkeypatch.setitem(suites._SUITES, name, _pid_suite(name))


def _pids(reports):
    return {r.details[0]["pid"] for r in reports}


def test_run_all_uses_worker_processes(pid_suites):
    if len(os.sched_getaffinity(0)) < 2 or "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs two CPUs and the fork start method")
    if threading.active_count() > 1:
        pytest.skip("other live threads keep the suites in this process")
    reports = run_all(3)
    assert [r.suite_name for r in reports] == list(CANONICAL)
    assert os.getpid() not in _pids(reports)
    assert multiprocessing.active_children() == []


def test_run_all_stays_in_process_on_one_cpu(pid_suites, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    reports = run_all(3)
    assert [r.suite_name for r in reports] == list(CANONICAL)
    assert _pids(reports) == {os.getpid()}


def test_suite_error_in_worker_keeps_exit_code(pid_suites, monkeypatch, capsys):
    """A suite raising DegenerateInputError makes verify all exit 4, as in
    this process, and leaves no worker process behind."""

    def degenerate(seed, n_cases=None, slack=1e-9):
        raise DegenerateInputError("states coincide")

    monkeypatch.setitem(suites._SUITES, "thm2", degenerate)
    assert main(["verify", "all", "--seed", "3"]) == 4
    assert "states coincide" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@pytest.fixture
def no_workers(monkeypatch):
    """Fail if run_suite('all') gets as far as starting the suites."""

    def started(*args):
        raise AssertionError("suites started before the arguments were checked")

    monkeypatch.setattr(suites, "_run_every_suite", started)


@pytest.mark.parametrize(
    "n_cases, slack, message",
    [(0, 1e-9, "n_cases must be >= 1, got 0"), (1, float("nan"), "tolerance must be a finite number >= 0")],
)
def test_all_rejects_bad_arguments_before_any_worker(no_workers, n_cases, slack, message):
    with pytest.raises(ValidationError, match=message):
        run_suite("all", 0, n_cases, slack)


@pytest.mark.parametrize("name", CANONICAL)
def test_public_suite_surface(name):
    """Each suite is a module-level run_<name>(seed, n_cases=None, slack=1e-9)."""
    fn = getattr(suites, f"run_{name}")
    assert fn.__name__ == f"run_{name}"
    assert fn.__module__ == "qopdist.suites"
    assert str(inspect.signature(fn)) == (
        "(seed: 'int', n_cases: 'int | None' = None, slack: 'float' = 1e-09) -> 'SuiteReport'"
    )
    assert fn.__doc__


def _over_bounds_by(excess):
    """run_trials stand-in: every trial exceeds the Thm 3 ratio and
    relative-increase bounds and the Thm 4 half bound by ``excess``."""

    def run_trials(op, n_trials, rng):
        def column(value):
            return np.full(n_trials, value)

        return TrialColumns(
            p_m=column(0.8),
            p_n=column(0.2),
            d_in=column(0.6),
            d_out_normalized=column(0.6 / 0.8 + excess),
            d_out_subnormalized=column(0.5 * 0.6 + excess),
            relative_increase=column((1.0 - 0.8) + excess),
        )

    return run_trials


@pytest.mark.parametrize("run, checks", [(suites.run_thm3, 4), (suites.run_thm4, 2)])
def test_slack_reaches_trial_bounds(monkeypatch, run, checks):
    monkeypatch.setattr(statlab, "run_trials", _over_bounds_by(1e-6))
    assert run(7, 100, slack=1e-5).n_failures == 0
    r = run(7, 100, slack=1e-7)
    assert r.n_failures == checks
    share = {"dim5": 90, "dim2": 10}  # 90/10 split of the 100 trials
    for d in r.details:
        if not d["ok"]:
            assert d["violations"] == share[d["case"][:4]]


# -- the stacked oracles against the public scalar path -------------------------

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(2, 6)


def _trace_products(mats: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """tr(M delta) for each matrix M of a stack."""
    return np.einsum("nij,ji->n", mats, delta).real


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, dim=DIMS)
def test_oracle_block_holds_public_operations(seed, dim):
    """Each operation of a thm1 oracle block, cut to its Kraus count and
    output dimension, passes the public QuantumOperation check (0 <= T <= 1)
    and its e_distance is the block's stacked value."""
    rng = np.random.default_rng(seed)
    dim_out = rng.integers(1, dim + 1, size=40)
    n_kraus = rng.integers(1, 5, size=40)
    kraus, t = random_operations(dim, dim_out, n_kraus, rng)
    rho = random_density(dim, int(rng.integers(1, dim + 1)), rng)
    sig = random_density(dim, int(rng.integers(1, dim + 1)), rng)
    gaps = np.abs(_trace_products(t, rho.mat - sig.mat))
    for n in range(40):
        op = QuantumOperation(kraus[n, : n_kraus[n], : dim_out[n]])
        assert abs(e_distance(op, rho, sig) - gaps[n]) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, dim=DIMS)
def test_ginibre_batch_holds_public_states(seed, dim):
    """Each state of a thm2/thm5 batch has the rank it was drawn with, from
    rank 1 to full, and passes the public state check unchanged, alone and
    as the whole stack."""
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, dim + 1, size=12)
    ranks[:2] = 1, dim
    batch = random_density(dim, ranks, rng)
    assert batch.mat.shape == (12, dim, dim) and not batch.mat.flags.writeable
    assert np.array_equal(DensityMatrix(batch.mat).mat, batch.mat)
    for rank, m in zip(ranks, batch.mat):
        assert np.linalg.matrix_rank(m, tol=1e-10, hermitian=True) == rank
        assert np.array_equal(DensityMatrix(m).mat, m)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, dim=DIMS)
def test_probe_values_match_explicit_probes(seed, dim):
    """Each stacked appendixB probe value is tr(P delta) of the probe P built
    from the first ``rank`` columns of Q, from the QR of its draw, and their
    weights, and 0 <= P <= 1."""
    rng = np.random.default_rng(seed)
    draws, weights, ranks = suites._probe_block(dim, 40, rng)
    q, _ = np.linalg.qr(draws)
    delta = random_hermitian(dim, rng) - random_hermitian(dim, rng)
    values = suites._probe_values(q, weights, delta)
    for n in range(40):
        cols = q[n][:, : ranks[n]]
        probe = (cols * weights[n, : ranks[n]]) @ cols.conj().T
        w = np.linalg.eigvalsh(probe)
        assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
        assert abs(np.trace(probe @ delta).real - values[n]) <= 1e-12


def _full_max_gap(delta, dim_out, n_kraus, rng):
    """The thm1 oracle as the whole scaled block: every T scaled exactly."""
    _, t = random_operations(delta.shape[0], dim_out, n_kraus, rng)
    return np.abs(_trace_products(t, delta)).max()


@pytest.mark.parametrize("seed", [7, 11])
def test_thm1_report_matches_the_full_oracle_evaluation(tmp_path, monkeypatch, seed):
    """Scaling only the oracle operations that can set the maximum writes
    the report that scaling all of them writes, byte for byte."""
    pruned, full = tmp_path / "pruned.jsonl", tmp_path / "full.jsonl"
    write_report(pruned, run_suite("thm1", seed, 40))
    monkeypatch.setattr(suites, "random_operations_max_gap", _full_max_gap)
    write_report(full, run_suite("thm1", seed, 40))
    assert pruned.read_bytes() == full.read_bytes()


def test_thm1_scales_at_most_a_fifth_of_its_oracle_exactly(monkeypatch):
    """Of the 200 x 500 oracle matrices of thm1 at seed 7, at most 20% go
    through the eigvalsh that channels calls to scale them."""
    real = np.linalg.eigvalsh
    scaled = []

    def spy(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "qopdist.channels":
            scaled.append(a.shape[0] if a.ndim == 3 else 1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    (report,) = run_suite("thm1", 7)
    assert report.n_failures == 0
    assert 0 < sum(scaled) <= 0.2 * 200 * 500


def _full_pairs_max_gap(t, ranks, rng):
    """The thm2 oracle as two whole stacks of states."""
    rhos, sigmas = random_density(t.shape[0], ranks, rng), random_density(t.shape[0], ranks, rng)
    return np.abs(_trace_products(rhos.mat - sigmas.mat, t)).max()


def _full_probe_max(delta, draws, weights):
    """The appendixB oracle with every probe sent through QR."""
    q, _ = np.linalg.qr(draws)
    return suites._probe_values(q, weights, delta).max()


@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("dim", range(1, 7))
def test_probe_max_is_the_largest_probe_value(dim, n):
    """The pruned probe maximum is the maximum over every probe of the
    block bit for bit, and the block leaves the generator where it is."""
    for seed in range(50):
        rng = np.random.default_rng([seed, dim, n])
        delta = random_hermitian(dim, rng) - random_hermitian(dim, rng)
        full, pruned = np.random.default_rng(seed), np.random.default_rng(seed)
        draws, weights, _ = suites._probe_block(dim, n, full)
        q, _ = np.linalg.qr(draws)
        block = suites._probe_block(dim, n, pruned)[:2]
        for kind, d in {"hermitian": delta, "negative": -delta @ delta, "zero": 0.0 * delta}.items():
            expected = suites._probe_values(q, weights, d).max()
            assert suites._probe_max(d, *block) == expected, (seed, kind)
        assert pruned.random() == full.random()


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize(
    "suite, name, full",
    [("thm2", "random_pairs_max_gap", _full_pairs_max_gap), ("appendixB", "_probe_max", _full_probe_max)],
)
def test_pruned_oracle_reports_match_the_full_evaluation(tmp_path, monkeypatch, seed, suite, name, full):
    """Evaluating only the thm2 pairs and appendixB probes that can set
    the maximum writes the report that evaluating all of them writes, byte
    for byte."""
    pruned_file, full_file = tmp_path / "pruned.jsonl", tmp_path / "full.jsonl"
    write_report(pruned_file, run_suite(suite, seed, 40))
    monkeypatch.setattr(suites, name, full)
    write_report(full_file, run_suite(suite, seed, 40))
    assert pruned_file.read_bytes() == full_file.read_bytes()


def test_thm2_builds_at_most_a_twentieth_of_its_pairs(monkeypatch):
    """Of the 100 x 2 000 random pairs of thm2 at seed 7, at most 5% are
    built as states to be evaluated exactly."""
    real = states._densities
    built = []

    def spy(g):
        built.append(len(g))
        return real(g)

    monkeypatch.setattr(states, "_densities", spy)
    (report,) = run_suite("thm2", 7)
    assert report.n_failures == 0
    assert 0 < sum(built) <= 2 * 0.05 * 100 * 2000


def test_appendixB_sends_at_most_three_fifths_of_its_probes_through_qr(monkeypatch):
    """Of the 500 x 200 probes of appendixB at seed 7, at most 60% go
    through the QR that suites calls to build them."""
    real = np.linalg.qr
    factored = []

    def spy(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "qopdist.suites":
            factored.append(a.shape[0] if a.ndim == 3 else 1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    (report,) = run_suite("appendixB", 7)
    assert report.n_failures == 0
    assert 0 < sum(factored) <= 0.6 * 500 * 200


@pytest.mark.parametrize("suite, module", [("thm1", channels), ("thm2", states), ("appendixB", suites)])
def test_a_halved_oracle_estimate_raises(monkeypatch, suite, module):
    """An oracle whose estimates are halved no longer bounds its exact
    values from above; the check in bounded_max reports that as a
    NumericalError, where pruning alone would drop members unseen."""
    real = linalg.bounded_max
    monkeypatch.setattr(module, "bounded_max", lambda estimate, exact, scale: real(0.5 * estimate, exact, scale))
    with pytest.raises(NumericalError, match="above its bound"):
        run_suite(suite, 7, 40)


def _thread_count_after(name: str) -> int:
    suites._SUITES[name](7, 100 if name == "section3" else 2)
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs /proc/self/task and the fork start method",
)
def test_no_suite_starts_blas_threads():
    """A forked worker starts with one thread and runs each suite on it
    alone: no product of a suite is big enough for OpenBLAS to start its
    threads, which would compete with the other worker for the CPUs."""
    with multiprocessing.get_context("fork").Pool(1, maxtasksperchild=1) as pool:
        assert {name: pool.apply(_thread_count_after, (name,)) for name in SUITE_NAMES} == dict.fromkeys(SUITE_NAMES, 1)


def test_thm1_fails_when_the_construction_misses(monkeypatch):
    """An operation that reaches only D - 1e-6 fails every thm1 case."""
    real = suites.build_maximizing_operation

    def short(rho, sig, dim_out, mode):
        op = real(rho, sig, dim_out, mode)
        shrink = np.sqrt(1.0 - 1e-6 / trace_distance(rho, sig))
        return QuantumOperation([shrink * e for e in op.kraus])

    monkeypatch.setattr(suites, "build_maximizing_operation", short)
    r = suites.run_thm1(7, 2)
    assert r.n_failures == 2
    for d in r.details:
        assert abs(d["checks"]["attainment"][0] - 1e-6) < 1e-12


def test_thm5_slack_below_the_chain_excess_fails(monkeypatch):
    """With every fidelity of the random stacks set to 1 - D - 1e-6, each
    pair exceeds the chain 1 - F <= D by 1e-6: a slack above that passes, a
    slack below fails.  The witness pair keeps its true fidelity."""
    real = metrics.fidelity

    def short(r, s):
        stacked = isinstance(r, DensityMatrix) and r.mat.ndim == 3
        return 1.0 - metrics.trace_distance(r, s) - 1e-6 if stacked else real(r, s)

    monkeypatch.setattr(metrics, "fidelity", short)
    above = suites.run_thm5(7, 50, slack=1e-5)
    assert above.n_failures == 0
    assert abs(above.details[-1]["checks"]["chain_excess"][0] - 1e-6) < 1e-12
    below = suites.run_thm5(7, 50, slack=1e-7)
    assert below.n_failures == 1
    assert below.details[-1]["violations"] == 50


@pytest.mark.parametrize("nan_at", [0, 1])
def test_nan_check_raises_numerical_error_wherever_it_sits(monkeypatch, capsys, nan_at):
    """A NaN attainment in thm1's first or second case raises NumericalError
    naming the case and the check, and verify exits 1."""
    real = suites.e_distance
    calls = []

    def nan_once(op, rho, sig):
        calls.append(None)
        return float("nan") if len(calls) == nan_at + 1 else real(op, rho, sig)

    monkeypatch.setattr(suites, "e_distance", nan_once)
    with pytest.raises(NumericalError, match=f"pair-{nan_at:03d}-.*: check attainment is not finite"):
        suites.run_thm1(7, 3)
    calls.clear()
    assert main(["verify", "thm1", "--seed", "7", "--cases", "3"]) == 1
    assert f"pair-{nan_at:03d}-" in capsys.readouterr().err


def test_zero_slack_passes_an_exact_closed_form():
    """At slack 0, a cloning case whose ratio equals its closed form exactly
    passes: a check holds when its value reaches its bound."""
    r = suites.run_cloning(5, 150, slack=0.0)
    exact = [d for d in r.details if d["checks"].get("from_closed_form", [None])[0] == 0.0]
    assert exact
    assert all(d["ok"] for d in exact)


@pytest.mark.parametrize("name", SUITE_NAMES)
@pytest.mark.parametrize("n_cases", [0, -3])
def test_too_few_cases_rejected(name, n_cases):
    """Every suite rejects fewer than one case with the same error."""
    with pytest.raises(ValidationError, match=f"n_cases must be >= 1, got {n_cases}"):
        run_suite(name, 0, n_cases)


def test_negative_seed_rejected(no_workers):
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        run_suite("all", -1, 1)


def test_unknown_suite():
    with pytest.raises(ValidationError):
        run_suite("thm9", 0)


def test_suite_report_invariants():
    with pytest.raises(ValidationError):
        SuiteReport("x", 1, 2, 0.0, 0, 0.0, ())
    with pytest.raises(ValidationError):
        SuiteReport("x", 1, 0, float("nan"), 0, 0.0, ())


def test_suite_determinism():
    a = run_suite("cloning", 13, 25)[0]
    b = run_suite("cloning", 13, 25)[0]
    assert a.details == b.details
    assert a.worst_margin == b.worst_margin


def test_different_seeds_differ():
    a = run_suite("cloning", 1, 25)[0]
    b = run_suite("cloning", 2, 25)[0]
    assert a.details != b.details


def test_report_round_trip(tmp_path):
    reports = [run_suite("thm4", 7, 500)[0], run_suite("cloning", 7, 20)[0]]
    path = tmp_path / "report.jsonl"
    write_report(path, reports)
    parsed = parse_report(path)
    assert len(parsed) == 2
    for orig, back in zip(reports, parsed):
        assert back.suite_name == orig.suite_name
        assert back.n_cases == orig.n_cases
        assert back.n_failures == orig.n_failures
        assert back.worst_margin == orig.worst_margin
        assert back.seed == orig.seed
        assert back.elapsed_seconds == 0.0  # timing is not persisted
        assert back.details == orig.details


def test_report_lines_are_compact_sorted_json(tmp_path):
    """Each line of a report file is its header or suite record encoded in
    one call with sorted keys and no spaces."""
    reports = run_all(3, 150)
    path = tmp_path / "report.jsonl"
    write_report(path, reports)
    records = [{"format": "qopdist-suite-report", "schema_version": 2}] + [
        {
            "suite_name": r.suite_name,
            "n_cases": r.n_cases,
            "n_failures": r.n_failures,
            "worst_margin": r.worst_margin,
            "seed": r.seed,
            "details": list(r.details),
        }
        for r in reports
    ]
    expected = "".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n" for rec in records)
    assert path.read_text() == expected


def test_report_files_are_deterministic(tmp_path):
    p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    write_report(p1, run_suite("lemma1", 5, 30))
    write_report(p2, run_suite("lemma1", 5, 30))
    assert p1.read_bytes() == p2.read_bytes()


def test_parse_report_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ReportParseError):
        parse_report(path)
    path.write_text('{"format":"something-else","schema_version":1}\n')
    with pytest.raises(ReportParseError):
        parse_report(path)
    path.write_text("[1]\n")
    with pytest.raises(ReportParseError):
        parse_report(path)
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(ReportParseError):
        parse_report(path)
    path.write_text(
        '{"format":"qopdist-suite-report","schema_version":2}\n{"suite_name":"x"}\n'
    )
    with pytest.raises(ReportParseError):
        parse_report(path)
    with pytest.raises(ReportParseError):
        parse_report(tmp_path / "missing.jsonl")


def _edited_report(tmp_path, edit):
    """A one-suite report file whose header and record dicts went through
    ``edit(header, record)``."""
    path = tmp_path / "r.jsonl"
    write_report(path, run_suite("lemma2", 7, 1))
    header, record = map(json.loads, path.read_text().splitlines())
    edit(header, record)
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    return path


def _report_with(tmp_path, field, value):
    """A one-suite report file whose record has ``field`` set to ``value``."""
    return _edited_report(tmp_path, lambda header, record: record.update({field: value}))


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_cases", 2.5),
        ("n_failures", True),
        ("seed", "7"),
        ("seed", -1),
        ("worst_margin", True),
        ("worst_margin", "0.5"),
        ("worst_margin", "1e-3"),
    ],
)
def test_parse_report_rejects_bad_counts(tmp_path, field, value):
    """Counts and seeds in a report file go through the same check as
    arguments, and the worst margin must be a JSON number: none is
    truncated, parsed from text or taken from a flag."""
    with pytest.raises(ReportParseError, match=f"{field} must be"):
        parse_report(_report_with(tmp_path, field, value))


def test_parse_report_rejects_residual_beyond_float_range(tmp_path):
    with pytest.raises(ReportParseError, match="too large"):
        parse_report(_report_with(tmp_path, "worst_margin", 10**400))


def _drop(key):
    return lambda header, record: record["details"][0].pop(key)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            lambda h, r: r.update(n_failures=1), "n_failures 1 but 0 details failed", id="n_failures-miscounted"
        ),
        pytest.param(
            lambda h, r: r["details"][0].update(ok=False), "detail 0: ok False disagrees", id="ok-against-margin"
        ),
        pytest.param(
            lambda h, r: r.update(worst_margin=r["worst_margin"] + 1.0),
            "is not the least detail margin",
            id="worst_margin-not-least",
        ),
        pytest.param(_drop("checks"), "detail 0 lacks checks, margin or ok", id="detail-without-checks"),
        pytest.param(_drop("margin"), "detail 0 lacks checks, margin or ok", id="detail-without-margin"),
        pytest.param(_drop("ok"), "detail 0 lacks checks, margin or ok", id="detail-without-ok"),
        pytest.param(
            lambda h, r: r["details"][0]["checks"]["residual"].__setitem__(0, 1e9),
            "detail 0: margin 0.001 does not follow from its checks",
            id="check-value-raised",
        ),
        pytest.param(
            lambda h, r: r["details"][1]["checks"]["residual"].__setitem__(1, 0.0),
            "detail 1: margin .* does not follow from its checks",
            id="check-bound-lowered",
        ),
        pytest.param(
            lambda h, r: r["details"][0]["checks"]["residual"].__setitem__(0, float("nan")),
            "detail 0: check residual is not finite",
            id="check-not-finite",
        ),
        pytest.param(
            lambda h, r: r["details"][0]["checks"]["residual"].__setitem__(0, "0.0"),
            "check residual must be a number",
            id="check-value-text",
        ),
        pytest.param(lambda h, r: h.update(schema_version=1), "unrecognized header", id="schema-1"),
    ],
)
def test_parse_report_rejects_verdicts_that_do_not_follow(tmp_path, edit, message):
    """A loaded record's margins, oks, n_failures and worst_margin must
    follow from its detail checks, and a schema-1 file is not read as
    schema 2."""
    with pytest.raises(ReportParseError, match=message):
        parse_report(_edited_report(tmp_path, edit))
