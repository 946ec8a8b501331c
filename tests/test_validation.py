"""The validation contract: each state and operation is checked once, at the
public boundary, and what the library builds passes that check unchanged.

Properties run the public checks again on library outputs and demand
bit-identical results; work counts pin how many eigendecompositions a
validation costs; edge inputs must raise the documented ValidationError.
"""

import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qopdist
from qopdist import channels, config, linalg, metrics, states, suites
from qopdist.channels import (
    QuantumOperation,
    cloner_outputs,
    is_trace_preserving,
    random_operation,
    random_operations,
)
from qopdist.config import resolve_tol
from qopdist.errors import DimensionMismatchError, ValidationError
from qopdist.linalg import complex_normals, eig_hermitian, projector_onto, random_hermitian, spectral_split
from qopdist.matrixio import load_state, save_state
from qopdist.maximizers import (
    build_maximizing_operation,
    certify_maximizer,
    extremal_trace_product,
    maximizing_projector,
)
from qopdist.metrics import angle, check_fvdg_bounds, fidelity, sine_distance, trace_distance
from qopdist.states import DensityMatrix, random_density, validate_state
from qopdist.statlab import (
    BoundKind,
    cdf_moment,
    dominance_implies_moments,
    moment_check,
    run_trials,
    sample_triangle_batch,
)
from qopdist.suites import run_all, run_suite, run_thm3

SEEDS = st.integers(0, 2**32 - 1)
BAD_TOLS = [math.nan, math.inf, -1.0, -1e-12, "abc"]


def _drifted(rng, dim):
    """A state matrix with trace drift below 1e-9 and, when it has a kernel,
    kernel eigenvalues pushed to -5e-10: both repairs of validate_state run."""
    rank = int(rng.integers(1, dim + 1))
    w, v = np.linalg.eigh(random_density(dim, rank, rng).mat)
    shift = np.where(w < 1e-12, -5e-10, 0.0)
    m = (v * (w + shift)) @ v.conj().T
    return m * (1.0 + float(rng.uniform(-5e-10, 5e-10)))


def _library_states(seed, dim):
    rng = np.random.default_rng(seed)
    return [
        random_density(dim, 1, rng),
        random_density(dim, int(rng.integers(1, dim + 1)), rng),
        validate_state(_drifted(rng, dim), tol=1e-8),
    ]


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim=st.integers(1, 6))
def test_library_states_pass_the_public_check_unchanged(seed, dim):
    for s in _library_states(seed, dim):
        assert not s.mat.flags.writeable
        assert np.array_equal(DensityMatrix(s.mat).mat, s.mat)
        assert np.array_equal(validate_state(s.mat).mat, s.mat)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim_in=st.integers(1, 5), dim_out=st.integers(1, 4), n_kraus=st.integers(1, 4))
def test_random_operations_pass_the_public_check_unchanged(seed, dim_in, dim_out, n_kraus):
    op = random_operation(dim_in, dim_out, n_kraus, np.random.default_rng(seed))
    assert (op.dim_in, op.dim_out, len(op.kraus)) == (dim_in, dim_out, n_kraus)
    again = QuantumOperation(op.kraus)
    assert np.array_equal(again.t_op, op.t_op)
    assert all(np.array_equal(a, b) for a, b in zip(again.kraus, op.kraus))
    assert not op.t_op.flags.writeable
    assert not any(e.flags.writeable for e in op.kraus)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim=st.integers(1, 6))
def test_a_stack_is_checked_as_each_of_its_matrices(seed, dim):
    """validate_state on a stack returns what it returns for each matrix at
    the default tolerance, bit for bit, with both repairs running; one bad
    matrix rejects the stack."""
    rng = np.random.default_rng(seed)
    mats = np.stack([_drifted(rng, dim) for _ in range(6)] + [random_density(dim, dim, rng).mat])
    with mock.patch.dict(os.environ, {"QOPDIST_DEFAULT_TOL": "1e-8"}):
        expected = np.stack([validate_state(m).mat for m in mats])
        assert np.array_equal(validate_state(mats).mat, expected)
        mats[3] *= 1.5
        with pytest.raises(ValidationError, match="state trace"):
            validate_state(mats)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=SEEDS, dim=st.integers(1, 6))
def test_state_file_round_trip_is_bit_exact(tmp_path, seed, dim):
    path = tmp_path / "state.json"
    for s in _library_states(seed, dim):
        save_state(path, s)
        assert np.array_equal(load_state(path).mat, s.mat)


# -- work counts ----------------------------------------------------------------


@pytest.fixture
def default_tol_calls(monkeypatch):
    calls = []
    real = config.default_tol

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(config, "default_tol", counted)
    for module in vars(qopdist).values():
        if getattr(module, "__name__", "").startswith("qopdist.") and hasattr(module, "default_tol"):
            monkeypatch.setattr(module, "default_tol", counted)
    return calls


def test_random_operation_costs_one_eigvalsh_and_no_tol_read(lapack_calls, default_tol_calls):
    rng = np.random.default_rng(3)
    for dim_in, dim_out, n_kraus in ((1, 1, 1), (3, 2, 4), (5, 5, 2)):
        del lapack_calls[:]
        random_operation(dim_in, dim_out, n_kraus, rng)
        assert lapack_calls == ["eigvalsh"]
    assert default_tol_calls == []


def test_validate_state_of_a_valid_state_costs_one_eigvalsh(lapack_calls):
    rng = np.random.default_rng(4)
    for dim in (1, 2, 4, 6):
        m = random_density(dim, dim, rng).mat
        del lapack_calls[:]
        validate_state(m)
        assert lapack_calls == ["eigvalsh"]


def test_check_fvdg_bounds_validates_each_raw_input_once(monkeypatch):
    seen = []
    real = states.validate_state

    def spy(m, tol=None):
        seen.append(1)
        return real(m, tol)

    for module in (states, metrics):
        monkeypatch.setattr(module, "validate_state", spy, raising=False)
    report = metrics.check_fvdg_bounds(np.diag([0.9, 0.1]), np.diag([0.3, 0.7]))
    assert len(seen) == 2
    assert abs(report.trace_dist - 0.6) < 1e-12


def test_check_fvdg_bounds_computes_the_fidelity_once(lapack_calls):
    rng = np.random.default_rng(6)
    r, s = random_density(3, 3, rng), random_density(3, 2, rng)
    report = metrics.check_fvdg_bounds(r, s)
    assert sorted(lapack_calls) == ["eigh", "eigh", "eigvalsh", "svd"]
    assert report.fid == metrics.fidelity(r, s)
    assert report.sine_dist == metrics.sine_distance(r, s)


@pytest.fixture
def hermitian_checks(monkeypatch):
    """Calls of as_hermitian, through every binding of it in the package."""
    calls = []
    real = linalg.as_hermitian

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in vars(qopdist).values():
        if getattr(module, "__name__", "").startswith("qopdist.") and hasattr(module, "as_hermitian"):
            monkeypatch.setattr(module, "as_hermitian", counted)
    return calls


def test_appendixB_checks_each_instance_at_most_five_times(hermitian_checks):
    """One stacked trace_distance call (two checks) and maximizing_projector
    (three) per instance."""
    assert suites.run_appendixB(7, 3).n_failures == 0
    assert 0 < len(hermitian_checks) <= 5 * 3


def test_thm5_checks_its_sampled_stacks_only_in_psd_sqrt(hermitian_checks):
    """Per dimension block, the two psd_sqrt calls of the fidelity are the
    only checks (5 blocks); the plain-array witness pair costs four: its
    two state checks and its two roots."""
    assert suites.run_thm5(7, 50).n_failures == 0
    assert 0 < len(hermitian_checks) <= 2 * 5 + 4


def test_thm2_does_not_recheck_the_states_it_builds(monkeypatch):
    """The sampled stacks and the extremal pairs are trusted states: no
    _check_state call in the whole suite, while the spy does see an
    outside matrix."""
    calls = []
    real = states._check_state

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(states, "_check_state", counted)
    assert suites.run_thm2(7, 20).n_failures == 0
    assert calls == []
    validate_state(np.eye(2) / 2)
    assert calls == [1]


def test_library_samplers_do_not_recheck(lapack_calls):
    rng = np.random.default_rng(5)
    random_density(4, 1, rng)
    random_density(4, 2, rng)
    random_density(4, np.array([1, 3]), rng)
    assert lapack_calls == []


# -- tolerances -----------------------------------------------------------------


def test_resolve_tol_default_and_value(monkeypatch):
    monkeypatch.setenv("QOPDIST_DEFAULT_TOL", "3e-7")
    assert resolve_tol(None) == 3e-7
    assert resolve_tol(0) == 0.0
    assert resolve_tol(2e-5) == 2e-5


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_resolve_tol_rejects(tol):
    with pytest.raises(ValidationError, match="tolerance must be a finite number >= 0"):
        resolve_tol(tol)


# -- counts and seeds -------------------------------------------------------------

MEASURE0 = QuantumOperation([np.array([[1.0, 0.0]], dtype=complex)])
FLAT_CDF = (np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11))
E0, E1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


def _rng():
    return np.random.default_rng(0)


# test id: (the function and parameter, the name the error gives it, its
# floor, a call that passes the value there)
COUNT_TAKERS = {
    "n_trials": ("run_trials.n_trials", "n_trials", 1, lambda v: run_trials(MEASURE0, v, _rng())),
    "n_cases": ("run_suite.n_cases", "n_cases", 1, lambda v: run_suite("lemma2", 7, v)),
    "seed": ("run_suite.seed", "seed", 0, lambda v: run_suite("lemma2", v, 1)),
    "run_all.n_cases": ("run_all.n_cases", "n_cases", 1, lambda v: run_all(7, v)),
    "run_all.seed": ("run_all.seed", "seed", 0, lambda v: run_all(v, 1)),
    "n": ("sample_triangle_batch.n", "n", 0, lambda v: sample_triangle_batch(_rng(), v)),
    "moment_check": ("moment_check.n", "moment order", 1, lambda v: moment_check([0.5], v, BoundKind.UNIFORM)),
    "cdf_moment": ("cdf_moment.n", "moment order", 1, lambda v: cdf_moment(*FLAT_CDF, v)),
    "dominance_implies_moments": (
        "dominance_implies_moments.orders",
        "moment order",
        1,
        lambda v: dominance_implies_moments(FLAT_CDF, FLAT_CDF, (1, v)),
    ),
    "build_maximizing_operation": (
        "build_maximizing_operation.dim_out",
        "dim_out",
        1,
        lambda v: build_maximizing_operation(E0, E1, v),
    ),
    "random_hermitian": ("random_hermitian.dim", "dim", 1, lambda v: random_hermitian(v, _rng())),
    "projector_onto": ("projector_onto.dim", "dim", 1, lambda v: projector_onto([], v)),
    "complex_normals": ("complex_normals.dim", "dim", 1, lambda v: complex_normals(np.ones(2, bool), v, _rng())),
    "random_density.dim": ("random_density.dim", "dim", 1, lambda v: random_density(v, 1, _rng())),
    "random_density.rank": ("random_density.rank", "rank", 1, lambda v: random_density(3, v, _rng())),
    "random_operation.dim_in": ("random_operation.dim_in", "dim_in", 1, lambda v: random_operation(v, 2, 1, _rng())),
    "random_operation.dim_out": ("random_operation.dim_out", "dim_out", 1, lambda v: random_operation(2, v, 1, _rng())),
    "random_operation.n_kraus": ("random_operation.n_kraus", "n_kraus", 1, lambda v: random_operation(2, 2, v, _rng())),
    "random_operations.dim_in": (
        "random_operations.dim_in",
        "dim_in",
        1,
        lambda v: random_operations(v, [2], [1], _rng()),
    ),
    "random_operations.dim_out": (
        "random_operations.dim_out",
        "dim_out",
        1,
        lambda v: random_operations(2, [1, v], [1, 1], _rng()),
    ),
    "random_operations.n_kraus": (
        "random_operations.n_kraus",
        "n_kraus",
        1,
        lambda v: random_operations(2, [1, 1], [1, v], _rng()),
    ),
}


@pytest.fixture
def idle_run_all(monkeypatch):
    """run_all and run_suite("all") check their arguments, then run no suite."""
    monkeypatch.setattr(suites, "_run_every_suite", lambda seed, n_cases, slack: [])


@pytest.mark.parametrize("value", [2.5, math.nan, "3", True])
@pytest.mark.parametrize("name", COUNT_TAKERS)
def test_non_integral_counts_and_seeds_rejected(idle_run_all, name, value):
    """A count, dimension, seed or moment order that is not an integer
    raises ValidationError naming the argument; none is truncated."""
    _, arg, _, take = COUNT_TAKERS[name]
    with pytest.raises(ValidationError, match=f"{arg} must be an integer, got {value!r}"):
        take(value)


ORDER_TAKERS = ("moment_check", "cdf_moment", "dominance_implies_moments")
OUT_OF_RANGE = [
    (name, floor - 1, f"{arg} must be >= {floor}") for name, (_, arg, floor, _) in COUNT_TAKERS.items()
] + [(name, -1, "moment order must be >= 1") for name in ORDER_TAKERS]


@pytest.mark.parametrize("name, value, message", OUT_OF_RANGE)
def test_negative_counts_and_orders_rejected(idle_run_all, name, value, message):
    """A count below its floor (one case or sample, one dimension, seed 0,
    moment order 1) raises ValidationError instead of a ValueError, a
    RuntimeWarning, or a moment of 1 or inf."""
    with pytest.raises(ValidationError, match=message):
        COUNT_TAKERS[name][-1](value)


@pytest.mark.parametrize("name", COUNT_TAKERS)
def test_numpy_integer_count_accepted_by_every_taker(idle_run_all, name):
    """np.int64 at the floor (1 for a floor of 0) passes every count check."""
    _, _, floor, take = COUNT_TAKERS[name]
    take(np.int64(max(floor, 1)))


# A parameter with one of these names counts something.
COUNT_NAME = re.compile(r"dim.*|n|n_.*|rank|seed|count")


def test_every_public_count_is_checked():
    """Each count parameter of a public function is in COUNT_TAKERS, whose
    bad values are shown above to raise ValidationError; so is nothing else
    with a count's name."""
    counts = {
        f"{name}.{param}"
        for name, obj in _public_api().items()
        if inspect.isfunction(obj)
        for param in inspect.signature(obj).parameters
        if COUNT_NAME.fullmatch(param)
    }
    listed = {where for where, *_ in COUNT_TAKERS.values()}
    assert counts == {where for where in listed if COUNT_NAME.fullmatch(where.partition(".")[2])}


def test_sample_triangle_batch_of_zero_points():
    pm, pn = sample_triangle_batch(np.random.default_rng(0), 0)
    assert pm.shape == pn.shape == (0,)


SAMPLER_COUNTS = [
    ("rank", lambda rng: random_density(3, 2.5, rng)),
    ("rank", lambda rng: random_density(3, True, rng)),
    ("rank", lambda rng: random_density(3, [2.5], rng)),
    ("rank", lambda rng: random_density(3, [True], rng)),
    ("rank", lambda rng: random_density(3, np.array([[1]]), rng)),
    ("dim", lambda rng: random_density(2.5, 1, rng)),
    ("dim_out", lambda rng: random_operation(2, 1.5, 1, rng)),
    ("n_kraus", lambda rng: random_operation(2, 2, 1.5, rng)),
    ("dim_in", lambda rng: random_operation(2.5, 2, 1, rng)),
    ("rank", lambda rng: random_density(3, [1, 0], rng)),
    ("rank", lambda rng: random_density(3, [4], rng)),
    ("dim_out", lambda rng: random_operations(2, np.array([[1]]), np.array([[1]]), rng)),
    ("n_kraus", lambda rng: random_operations(2, [1], [2.5], rng)),
]


@pytest.mark.parametrize("name, draw", SAMPLER_COUNTS, ids=[f"{n}-{i}" for i, (n, _) in enumerate(SAMPLER_COUNTS)])
def test_sampler_counts_and_ranks_must_be_integers(name, draw):
    """A rank, dimension or Kraus count that is not an integer (or an array
    of ranks that is not of an integer dtype) raises ValidationError naming
    the argument, instead of being truncated or ending in a TypeError."""
    with pytest.raises(ValidationError, match=f"^{name} must be "):
        draw(np.random.default_rng(0))


def test_numpy_integer_counts_and_seeds_accepted():
    assert len(COUNT_TAKERS["n_trials"][-1](np.int64(3))) == 3
    (report,) = run_suite("lemma2", np.int64(7), np.int32(1))
    assert report.n_failures == 0


EYE2 = np.eye(2, dtype=np.complex128)
TOL_TAKERS = {
    "QuantumOperation": lambda tol: QuantumOperation([2.0 * EYE2], tol=tol),
    "validate_state": lambda tol: validate_state(np.diag([0.7, 0.5]), tol=tol),
    "is_trace_preserving": lambda tol: is_trace_preserving(QuantumOperation([EYE2]), tol=tol),
    "cloner_outputs": lambda tol: cloner_outputs(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), tol=tol),
    "build_maximizing_operation": lambda tol: build_maximizing_operation(
        np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 1, tol=tol
    ),
    "certify_maximizer": lambda tol: certify_maximizer(
        QuantumOperation([EYE2]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), tol=tol
    ),
    "as_hermitian": lambda tol: linalg.as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), tol=tol),
    "run_thm3": lambda tol: run_thm3(0, 1, slack=tol),
    "run_suite": lambda tol: run_suite("thm3", 0, 1, slack=tol),
    "run_all": lambda tol: run_all(0, 1, slack=tol),
    "dominance_implies_moments": lambda tol: dominance_implies_moments(
        (np.linspace(0, 1, 3),) * 2, (np.linspace(0, 1, 3),) * 2, [1], tol=tol
    ),
}


@pytest.mark.parametrize("name", sorted(TOL_TAKERS))
@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_bad_tolerance_rejected_at_every_entry_point(name, tol):
    with pytest.raises(ValidationError, match="tolerance must be a finite number >= 0"):
        TOL_TAKERS[name](tol)


def _tolerance_parameters(obj) -> list:
    """Names of the parameters of ``obj`` (of ``__init__`` for a class) that
    hold a tolerance: every name containing "tol" or "slack"."""
    try:
        sig = inspect.signature(obj.__init__ if inspect.isclass(obj) else obj)
    except (TypeError, ValueError):
        return []
    return [name for name in sig.parameters if "tol" in name or "slack" in name]


def _public_api() -> dict:
    """Name -> object for ``qopdist.__all__`` and the ``__all__`` of every
    module of the package."""
    modules = [qopdist] + [
        importlib.import_module(f"qopdist.{info.name}") for info in pkgutil.iter_modules(qopdist.__path__)
    ]
    return {name: getattr(m, name) for m in modules for name in getattr(m, "__all__", ())}


def test_every_public_tolerance_is_checked():
    """A tolerance parameter in the public API exists only on a callable
    whose bad values are shown above to raise ValidationError."""
    public = _public_api()
    takers = {name for name, obj in public.items() if _tolerance_parameters(obj)}
    assert takers == set(TOL_TAKERS) & set(public)


# -- edge inputs ----------------------------------------------------------------


# 1 + m * 2**-26 squares exactly in floating point for m < 2**13, so a
# Kraus operator with that diagonal entry gives exactly that T eigenvalue.
UNIT_STEPS = st.integers(0, 2**13 - 1)


@settings(max_examples=60, deadline=None)
@given(m=UNIT_STEPS, dim=st.integers(1, 4))
def test_operation_accepts_t_eigenvalues_up_to_one_plus_tol(m, dim):
    """T eigenvalues 0 and 1 + tol (1 itself for m = 0) pass with tol set
    exactly to the excess; one ulp of 1 less tolerance rejects the top."""
    top = (1.0 + m * 2.0**-26) ** 2
    kraus = np.diag([1.0 + m * 2.0**-26] + [0.0] * dim).astype(np.complex128)
    tol = top - 1.0
    op = QuantumOperation([kraus], tol=tol)
    assert np.array_equal(np.diag(op.t_op).real, [top] + [0.0] * dim)
    if m:
        with pytest.raises(ValidationError, match="outside"):
            QuantumOperation([kraus], tol=tol - 2.0**-52)


@settings(max_examples=60, deadline=None)
@given(tol=st.floats(0.0, 1e-6))
def test_operation_rejects_t_below_minus_tol(tol):
    """T = sum E^dag E is PSD for any Kraus set, so the lower edge of the
    check is reached by handing it T directly: an eigenvalue at -tol passes,
    the next float below fails."""
    for low, accepted in ((-tol, True), (np.nextafter(-tol, -1.0), False)):
        t = np.diag([low, 0.5]).astype(np.complex128)
        with mock.patch.object(channels, "_t_sum", lambda ops, t=t: t):
            if accepted:
                QuantumOperation([EYE2 / 2], tol=tol)
            else:
                with pytest.raises(ValidationError, match="outside"):
                    QuantumOperation([EYE2 / 2], tol=tol)


@pytest.mark.parametrize(
    "build",
    [
        DensityMatrix,
        validate_state,
        lambda m: QuantumOperation([m]),
        lambda m: extremal_trace_product(m, 0.5),
        lambda m: maximizing_projector(m, m),
    ],
    ids=["DensityMatrix", "validate_state", "QuantumOperation", "extremal_trace_product", "maximizing_projector"],
)
def test_zero_dimension_rejected(build):
    with pytest.raises(ValidationError):
        build(np.zeros((0, 0)))


UNIT_GRID = np.array([0.0, 1.0])
# test id: (grid, CDF) pairs whose grid or values are not finite
NON_FINITE_CDFS = {
    "nan-grids": ((np.array([0.0, math.nan]), UNIT_GRID),) * 2,
    "inf-grids": ((np.array([0.0, math.inf]), UNIT_GRID),) * 2,
    "nan-cdf": ((UNIT_GRID, UNIT_GRID), (UNIT_GRID, np.array([math.nan, 1.0]))),
}


@pytest.mark.parametrize("name", NON_FINITE_CDFS)
def test_non_finite_cdfs_rejected(name):
    """A NaN or infinite grid point or CDF value raises ValidationError, so
    NaN grids cannot pass as one shared grid with dominance holding."""
    with pytest.raises(ValidationError, match="must be finite"):
        dominance_implies_moments(*NON_FINITE_CDFS[name], [1])


@pytest.mark.parametrize("args", [(0, 2, 1), (2, 0, 1), (2, 2, 0)])
def test_random_operation_rejects_empty_shape(args):
    with pytest.raises(ValidationError):
        random_operation(*args, np.random.default_rng(0))


def test_operation_copies_the_callers_arrays():
    k = np.array([[1.0, 0.0], [0.0, 0.5]], dtype=np.complex128)
    op = QuantumOperation([k])
    assert k.flags.writeable
    k[0, 0] = 0.0
    assert op.kraus[0][0, 0] == 1.0
    assert op.t_op[0, 0] == 1.0


# -- stacks ---------------------------------------------------------------------

PAIR_STACK = np.stack([np.diag([0.9, 0.1]), np.diag([0.5, 0.5])]).astype(np.complex128)
OTHER_STACK = PAIR_STACK[::-1].copy()
METRICS = {"trace_distance": trace_distance, "fidelity": fidelity, "sine_distance": sine_distance, "angle": angle}
EMPTY = "empty"  # accepted: an empty stack (0, d, d) gives an empty array of values
LOOP = "loop"  # accepted: (stacked result, the same from a loop over the pairs) agree bit for bit


def _fvdg_fields(report):
    return np.array(dataclasses.astuple(report), dtype=float)


STACK_CASES = {
    # State constructors and the bound report take a stack as well.
    "DensityMatrix": (
        lambda: (DensityMatrix(PAIR_STACK).mat, [DensityMatrix(m).mat for m in PAIR_STACK]),
        LOOP,
    ),
    "validate_state": (
        lambda: (validate_state(PAIR_STACK).mat, [validate_state(m).mat for m in PAIR_STACK]),
        LOOP,
    ),
    "check_fvdg_bounds": (
        lambda: (
            _fvdg_fields(check_fvdg_bounds(PAIR_STACK, OTHER_STACK)).T,
            [_fvdg_fields(check_fvdg_bounds(a, b)) for a, b in zip(PAIR_STACK, OTHER_STACK)],
        ),
        LOOP,
    ),
    # Functions that take one matrix reject a stack with ValidationError.
    "spectral_split": (lambda: spectral_split(PAIR_STACK), ValidationError),
    "eig_hermitian": (lambda: eig_hermitian(PAIR_STACK), ValidationError),
    "maximizing_projector": (lambda: maximizing_projector(PAIR_STACK, OTHER_STACK), ValidationError),
    "extremal_trace_product": (lambda: extremal_trace_product(PAIR_STACK, 0.5), ValidationError),
    "build_maximizing_operation": (
        lambda: build_maximizing_operation(PAIR_STACK, OTHER_STACK, 1),
        ValidationError,
    ),
    "certify_maximizer": (
        lambda: certify_maximizer(QuantumOperation([EYE2]), PAIR_STACK, OTHER_STACK),
        ValidationError,
    ),
    "cloner_outputs": (lambda: cloner_outputs(PAIR_STACK, OTHER_STACK), ValidationError),
    "cloner_outputs-DensityMatrix": (
        lambda: cloner_outputs(DensityMatrix(PAIR_STACK), DensityMatrix(OTHER_STACK)),
        ValidationError,
    ),
    "save_state-DensityMatrix": (lambda: save_state(os.devnull, DensityMatrix(PAIR_STACK)), ValidationError),
}
for _name, _metric in METRICS.items():
    STACK_CASES.update(
        {
            # Stacks of different shapes, and one matrix against a stack.
            f"{_name}-stack-lengths": (
                lambda m=_metric: m(PAIR_STACK, np.stack([np.eye(2) / 2] * 3)),
                DimensionMismatchError,
            ),
            f"{_name}-stack-dims": (
                lambda m=_metric: m(PAIR_STACK, np.stack([np.eye(3) / 3] * 2)),
                DimensionMismatchError,
            ),
            f"{_name}-matrix-vs-stack": (lambda m=_metric: m(PAIR_STACK[0], OTHER_STACK), DimensionMismatchError),
            f"{_name}-empty": (lambda m=_metric: m(PAIR_STACK[:0], OTHER_STACK[:0]), EMPTY),
        }
    )


@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_stack_edge_cases(name):
    call, outcome = STACK_CASES[name]
    if outcome is EMPTY:
        assert call().shape == (0,)
    elif outcome is LOOP:
        stacked, looped = call()
        assert np.array_equal(stacked, np.stack(looped))
    else:
        with pytest.raises(outcome):
            call()
