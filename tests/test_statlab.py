"""Tests for triangle sampling, trial columns and the moment machinery."""

import collections
import dataclasses
import gc
import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qopdist import statlab
from qopdist.channels import QuantumOperation
from qopdist.errors import ValidationError
from qopdist.statlab import (
    BoundKind,
    TrialColumns,
    TrialRecord,
    TrianglePoint,
    cdf_moment,
    dominance_implies_moments,
    empirical_cdf,
    mean_output_distance_bound,
    moment_check,
    pair_for_point,
    run_trials,
    sample_triangle_batch,
)

MEASURE0 = QuantumOperation([np.array([[1.0, 0.0]], dtype=complex)])

DISTANCES = ("d_in", "d_out_normalized", "d_out_subnormalized")
# The three operation shapes (dim_in, n_unit, dim_out) of the triangle_trials benchmark.
SHAPES = [(2, 1, 1), (5, 2, 2), (16, 8, 8)]


def _maximizer_shaped(dim_in, n_unit, dim_out):
    """T = diag(1, ..., 1, 0, ..., 0) with n_unit unit eigenvalues; output
    vectors cycle through the output basis."""
    eye_in = np.eye(dim_in, dtype=complex)
    eye_out = np.eye(dim_out, dtype=complex)
    return QuantumOperation([np.outer(eye_out[:, i % dim_out], eye_in[:, i]) for i in range(n_unit)])


def test_triangle_point_validation():
    p = TrianglePoint(0.8, 0.2)
    assert p.p_m == 0.8
    with pytest.raises(ValidationError):
        TrianglePoint(0.2, 0.8)
    with pytest.raises(ValidationError):
        TrianglePoint(0.5, 0.5)
    with pytest.raises(ValidationError):
        TrianglePoint(1.2, 0.1)


class _TiedDraws:
    """A generator stand-in whose ``random`` hands out fixed blocks in turn."""

    def __init__(self, *blocks):
        self.blocks = [np.array(b, dtype=float) for b in blocks]

    def random(self, shape):
        block = self.blocks.pop(0)
        assert block.shape == shape
        return block


def test_sample_triangle_in_region():
    """Tied pairs are drawn again, batch by batch, until every point lies in
    the open triangle; untied pairs keep their first draw."""
    rng = _TiedDraws(
        [[0.5, 0.5], [0.1, 0.7], [0.3, 0.3], [0.9, 0.2]],
        [[0.4, 0.4], [0.6, 0.2]],
        [[0.25, 0.75]],
    )
    pm, pn = sample_triangle_batch(rng, 4)
    assert pm.tolist() == [0.75, 0.7, 0.6, 0.9]
    assert pn.tolist() == [0.25, 0.1, 0.2, 0.2]
    assert rng.blocks == []


def test_sample_triangle_batch():
    rng = np.random.default_rng(52)
    pm, pn = sample_triangle_batch(rng, 5000)
    assert pm.shape == (5000,)
    assert np.all(pn < pm)
    assert np.all(pn >= 0.0) and np.all(pm <= 1.0)
    # mean gap of two sorted uniforms is 1/3
    assert abs(float(np.mean(pm - pn)) - 1.0 / 3.0) < 0.02


def test_pair_for_point_frozen():
    rho, sig = pair_for_point(MEASURE0, TrianglePoint(0.8, 0.2))
    assert np.max(np.abs(rho.mat - np.diag([0.8, 0.2]))) < 1e-12
    assert np.max(np.abs(sig.mat - np.diag([0.2, 0.8]))) < 1e-12


def test_pair_for_point_probabilities():
    """tr(T rho) = p_m and tr(T sigma) = p_n by construction."""
    rng = np.random.default_rng(53)
    for pm, pn in zip(*sample_triangle_batch(rng, 20)):
        point = TrianglePoint(float(pm), float(pn))
        rho, sig = pair_for_point(MEASURE0, point)
        t = MEASURE0.t_op
        assert abs(float(np.trace(t @ rho.mat).real) - point.p_m) < 1e-10
        assert abs(float(np.trace(t @ sig.mat).real) - point.p_n) < 1e-10


def test_trial_record_consistency_check():
    for d_in in (0.3, math.nan):  # should equal p_m - p_n = 0.6
        with pytest.raises(ValidationError, match="d_in"):
            TrialRecord(
                point=TrianglePoint(0.8, 0.2),
                d_in=d_in,
                d_out_normalized=0.1,
                d_out_subnormalized=0.1,
                relative_increase=None,
            )


def test_run_trials_invariants():
    rng = np.random.default_rng(54)
    trials = run_trials(MEASURE0, 800, rng)
    assert len(trials) == 800
    assert np.all(np.abs(trials.d_in - (trials.p_m - trials.p_n)) < 1e-9)
    assert np.all(trials.d_out_normalized <= trials.d_in / trials.p_m + 1e-9)
    assert np.all(trials.d_out_subnormalized <= 0.5 * trials.d_in + 1e-9)
    rel = trials.relative_increase
    increasing = ~np.isnan(rel)
    assert np.all(rel[increasing] <= 1.0 - trials.p_m[increasing] + 1e-9)


def test_run_trials_paths_agree():
    op = _maximizer_shaped(5, 2, 2)
    ra = run_trials(op, 200, np.random.default_rng(55), path="auto")
    rb = run_trials(op, 200, np.random.default_rng(55), path="object")
    assert isinstance(ra, TrialColumns) and isinstance(rb, TrialColumns)
    for name in DISTANCES:
        assert np.max(np.abs(getattr(ra, name) - getattr(rb, name))) < 1e-12


def _columns(**override):
    """Two consistent trials; the second did not drift apart."""
    cols = {
        "p_m": np.array([0.8, 0.5]),
        "p_n": np.array([0.2, 0.1]),
        "d_in": np.array([0.6, 0.4]),
        "d_out_normalized": np.array([0.7, 0.3]),
        "d_out_subnormalized": np.array([0.3, 0.1]),
        "relative_increase": np.array([0.1 / 0.7, np.nan]),
    }
    cols.update({k: np.asarray(v, dtype=float) for k, v in override.items()})
    return TrialColumns(**cols)


def test_trial_columns_d_in_mismatch():
    with pytest.raises(ValidationError, match="trial 1: d_in"):
        _columns(d_in=[0.6, 0.4 + 1e-8])


@pytest.mark.parametrize(
    "p_m, p_n",
    [(0.2, 0.8), (0.5, 0.5), (1.2, 0.1), (0.5, -0.1), (math.nan, 0.1)],
)
def test_trial_columns_point_outside_triangle(p_m, p_n):
    with pytest.raises(ValidationError, match="trial 1: .* outside the triangle"):
        _columns(p_m=[0.8, p_m], p_n=[0.2, p_n], d_in=[0.6, p_m - p_n])


@pytest.mark.parametrize(
    "override, what",
    [
        ({"d_out_normalized": [0.7, math.nan]}, "output distance"),
        ({"d_out_subnormalized": [0.3, -5.0]}, "output distance"),
        ({"d_out_normalized": [0.7, 1.0 + 1e-8]}, "output distance"),
        ({"relative_increase": [0.1 / 0.7, math.inf]}, "relative_increase"),
        ({"relative_increase": [0.1 / 0.7, 1.0]}, "relative_increase"),
        ({"relative_increase": [0.1 / 0.7, -0.1]}, "relative_increase"),
    ],
)
def test_trial_columns_output_ranges(override, what):
    """Both output distances lie in [0, 1] within 1e-9 and the relative
    increase is NaN or lies in [0, 1), by definition; NaN fails."""
    with pytest.raises(ValidationError, match=f"trial 1: .*{what}"):
        _columns(**override)


def test_trial_columns_output_ranges_reach_the_mean_bound():
    """Columns with a NaN and a negative output distance are refused, so
    mean_output_distance_bound cannot report holds=True on them."""
    with pytest.raises(ValidationError, match="trial 0: an output distance"):
        mean_output_distance_bound(
            TrialColumns(
                p_m=[0.8],
                p_n=[0.2],
                d_in=[0.6],
                d_out_normalized=[math.nan],
                d_out_subnormalized=[-5.0],
                relative_increase=[math.inf],
            )
        )


def test_trial_columns_lengths_must_agree():
    with pytest.raises(ValidationError, match="one length"):
        _columns(d_out_subnormalized=[0.3])


def test_trial_columns_len_and_iteration():
    """Iteration yields one TrialRecord per trial that equals, hashes and
    prints like the record the public constructors build from the column
    values, with relative_increase None exactly where the column is NaN."""
    seen_nan = set()
    for shape in SHAPES:
        trials = run_trials(_maximizer_shaped(*shape), 300, np.random.default_rng(58))
        records = list(trials)
        assert len(trials) == len(records) == 300
        columns = zip(*(col.tolist() for col in vars(trials).values()))
        for r, (pm, pn, d_in, d_norm, d_sub, rel) in zip(records, columns):
            built = TrialRecord(
                point=TrianglePoint(p_m=pm, p_n=pn),
                d_in=d_in,
                d_out_normalized=d_norm,
                d_out_subnormalized=d_sub,
                relative_increase=None if math.isnan(rel) else rel,
            )
            assert type(r) is TrialRecord and type(r.point) is TrianglePoint
            assert r == built and hash(r) == hash(built) and repr(r) == repr(built)
            seen_nan.add(r.relative_increase is None)
    assert seen_nan == {True, False}


def test_records_are_slot_backed():
    """Records and their points keep their fields in slots, with no
    __dict__; they survive a pickle round trip unchanged and stay frozen,
    and dataclasses.replace still runs the record's check."""
    records = list(run_trials(_maximizer_shaped(5, 2, 2), 50, np.random.default_rng(59)))
    r = records[0]
    assert not hasattr(r, "__dict__") and not hasattr(r.point, "__dict__")
    back = pickle.loads(pickle.dumps(records))
    assert back == records and list(map(repr, back)) == list(map(repr, records))
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.d_in = 0.0
    assert dataclasses.replace(r, d_in=r.d_in) == r
    with pytest.raises(ValidationError, match="d_in"):
        dataclasses.replace(r, d_in=r.d_in + 0.1)


def test_iteration_runs_no_per_record_check(monkeypatch):
    """The batch check covers every record, so iterating runs neither
    record's __post_init__; the public constructors still run theirs."""
    calls = collections.Counter()
    for cls in (TrialRecord, TrianglePoint):

        def spy(self, check=cls.__post_init__, name=cls.__name__):
            calls[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    records = list(run_trials(_maximizer_shaped(5, 2, 2), 2000, np.random.default_rng(60)))
    assert len(records) == 2000 and calls == {}
    TrialRecord(TrianglePoint(0.8, 0.2), 0.6, 0.7, 0.3, None)
    assert calls == {"TrialRecord": 1, "TrianglePoint": 1}


# Edge values first: p_n = 0, p_m = 1, output distances 0.0, -0.0 and 1.0,
# relative_increase NaN and 0.0.
P_N = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
P_M = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
UNIT = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
REL = st.one_of(st.sampled_from([math.nan, 0.0, -0.0]), st.floats(0.0, 1.0, exclude_max=True))
ROWS = st.lists(st.tuples(P_M, P_N, UNIT, UNIT, REL).filter(lambda row: row[1] < row[0]), max_size=12)


@settings(max_examples=80, deadline=None)
@given(rows=ROWS, block=st.integers(1, 5))
@example(rows=[], block=1)
def test_iteration_matches_the_public_constructors(rows, block):
    """On random valid columns, empty ones included, at any block size,
    every record equals, hashes and prints like the one TrialRecord(...)
    builds from the same values; relative_increase is None exactly where
    the column is NaN and otherwise a float, and two passes give equal but
    distinct records."""
    pm, pn, d_norm, d_sub, rel = np.array(rows, dtype=float).reshape(-1, 5).T
    trials = TrialColumns(
        p_m=pm, p_n=pn, d_in=pm - pn, d_out_normalized=d_norm, d_out_subnormalized=d_sub, relative_increase=rel
    )
    with mock.patch.object(statlab, "_RECORD_BLOCK", block):
        records, again = list(trials), list(trials)
    assert len(trials) == len(records) == len(again) == len(rows)
    for i, (r, a) in enumerate(zip(records, again)):
        built = TrialRecord(
            point=TrianglePoint(p_m=float(pm[i]), p_n=float(pn[i])),
            d_in=float(pm[i] - pn[i]),
            d_out_normalized=float(d_norm[i]),
            d_out_subnormalized=float(d_sub[i]),
            relative_increase=None if math.isnan(rel[i]) else float(rel[i]),
        )
        assert r == built and hash(r) == hash(built) and repr(r) == repr(built)
        assert (r.relative_increase is None) == math.isnan(rel[i])
        assert r.relative_increase is None or type(r.relative_increase) is float
        assert all(type(getattr(r, name)) is float for name in DISTANCES)
        assert type(r.point.p_m) is float and type(r.point.p_n) is float
        assert a == r and a is not r and a.point is not r.point


def test_first_record_does_not_build_them_all():
    """Iteration builds records one block at a time: the allocation peak of
    the first record is below a tenth of the peak of all of them."""
    trials = run_trials(_maximizer_shaped(2, 1, 1), 100_000, np.random.default_rng(61))
    peaks = []
    tracemalloc.start()
    try:
        for take in (lambda t: next(iter(t)), list):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            kept = take(trials)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            del kept
    finally:
        tracemalloc.stop()
    assert peaks[0] < peaks[1] / 10


def _full_pass(trials):
    list(trials)


def _one_next(trials):
    """One next() on the iterator, which is dropped on return."""
    it = iter(trials)
    next(it)


def _raising_build(trials):
    with mock.patch.object(statlab, "_consume", side_effect=RuntimeError("block build failed")):
        with pytest.raises(RuntimeError, match="block build failed"):
            list(trials)


@pytest.mark.parametrize("was_enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("take", [_full_pass, _one_next, _raising_build], ids=["full", "one-next", "raising"])
def test_iteration_leaves_the_collector_as_it_found_it(take, was_enabled):
    """The collector is paused around one block build and never across a
    yield: after a full pass, after one next() on a 10 000-trial batch
    whose iterator is then dropped, and after a block build that raises,
    it is enabled again, or still disabled where the caller disabled it."""
    trials = run_trials(_maximizer_shaped(2, 1, 1), 10_000, np.random.default_rng(62))
    assert gc.isenabled()
    if not was_enabled:
        gc.disable()
    try:
        take(trials)
        after = gc.isenabled()
    finally:
        gc.enable()
    assert after == was_enabled


def test_no_collection_starts_inside_a_block_build(monkeypatch):
    """A 4096-trial batch is one block, and no cyclic collection starts
    while it is built (without the pause, about a dozen do)."""
    trials = run_trials(_maximizer_shaped(5, 2, 2), 4096, np.random.default_rng(63))
    inside, starts = [], []
    build = TrialColumns._records

    def spy(self, rows):
        inside.append(rows)
        try:
            return build(self, rows)
        finally:
            inside.pop()

    def on_gc(phase, info):
        if phase == "start" and inside:
            starts.append(info["generation"])

    monkeypatch.setattr(TrialColumns, "_records", spy)
    assert gc.isenabled() and gc.get_threshold()[0] > 0
    gc.callbacks.append(on_gc)
    try:
        records = list(trials)
    finally:
        gc.callbacks.remove(on_gc)
    assert len(records) == 4096 and starts == []


def test_trial_columns_reject_a_non_numeric_column():
    """A column that is not numeric is named in a ValidationError."""
    with pytest.raises(ValidationError, match="trial column p_m is not numeric"):
        TrialColumns(*(["a"],) * 6)
    with pytest.raises(ValidationError, match="trial column d_out_normalized is not numeric"):
        TrialColumns(
            p_m=[0.8],
            p_n=[0.2],
            d_in=[0.6],
            d_out_normalized=[{}],
            d_out_subnormalized=[0.3],
            relative_increase=[math.nan],
        )


def test_trial_columns_are_read_only_copies():
    """No column can be written, and the caller keeps its arrays: writing
    into them changes neither the columns nor the records."""
    caller = {name: col.copy() for name, col in vars(_columns()).items()}
    trials = TrialColumns(**caller)
    records = list(trials)
    for col in vars(trials).values():
        assert col.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 0.5
    for arr in caller.values():
        arr[:] = 0.5
        assert arr.flags.writeable
    assert trials.p_m.tolist() == [0.8, 0.5]
    assert list(trials) == records


def test_run_trials_validation():
    with pytest.raises(ValidationError):
        run_trials(MEASURE0, 0, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        run_trials(MEASURE0, 10, np.random.default_rng(0), path="fast")


def test_moment_check_bounds():
    samples = np.linspace(0.0, 1.0, 2001)
    mc = moment_check(samples, 1, BoundKind.UNIFORM)
    assert abs(mc.bound - 0.5) < 1e-15
    assert mc.holds
    mc2 = moment_check(samples, 2, BoundKind.UNIFORM)
    assert abs(mc2.bound - 1.0 / 3.0) < 1e-15
    wc = moment_check(samples**2, 2, BoundKind.WEDGE)
    assert abs(wc.bound - 1.0 / 6.0) < 1e-15


def test_moment_check_validation():
    with pytest.raises(ValidationError):
        moment_check(np.array([]), 1, BoundKind.UNIFORM)
    with pytest.raises(ValidationError):
        moment_check(np.array([0.5]), 0, BoundKind.UNIFORM)
    for outside in ([1.5], [math.nan], [0.5, math.nan]):
        with pytest.raises(ValidationError, match="outside"):
            moment_check(np.array(outside), 1, BoundKind.UNIFORM)


@pytest.mark.parametrize(
    "samples, message",
    [(["a", "b"], "samples are not numeric"), ([[0.1, 0.2], [0.3, 0.4]], "samples must be 1-D")],
    ids=["non-numeric", "2-D"],
)
def test_moment_check_rejects_bad_samples(samples, message):
    with pytest.raises(ValidationError, match=message):
        moment_check(samples, 1, BoundKind.UNIFORM)


def test_empirical_cdf_frozen():
    samples = np.array([0.1, 0.2, 0.9])
    grid = np.array([0.15, 0.5, 1.0])
    cdf = empirical_cdf(samples, grid)
    assert np.max(np.abs(cdf - np.array([1 / 3, 2 / 3, 1.0]))) < 1e-15


def test_empirical_cdf_needs_a_sample():
    with pytest.raises(ValidationError, match="at least one sample"):
        empirical_cdf([], np.array([0.5]))


@pytest.mark.parametrize("samples", [[0.1, math.nan], [math.nan], [math.nan, 0.3, 0.2]])
def test_empirical_cdf_rejects_nan(samples):
    """A NaN sample would count as above every grid point."""
    with pytest.raises(ValidationError, match="NaN"):
        empirical_cdf(samples, [0.5, 2.0])


@pytest.mark.parametrize("grid", [[math.nan, 1.0], [0.5, math.nan]])
def test_empirical_cdf_rejects_a_nan_grid_point(grid):
    """A NaN grid point would read as P = 1.0."""
    with pytest.raises(ValidationError, match="grid contains NaN"):
        empirical_cdf([0.1, 0.2], grid)


def test_empirical_cdf_infinite_grid_points():
    """Grid points of -inf and +inf stay valid: P = 0 and P = 1."""
    assert empirical_cdf([0.1, 0.2], [-math.inf, 0.15, math.inf]).tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("samples", [[[0.1, 0.2], [0.3, 0.4]], 0.3], ids=["2-D", "0-D"])
def test_empirical_cdf_rejects_samples_that_are_not_1d(samples):
    with pytest.raises(ValidationError, match="samples must be 1-D"):
        empirical_cdf(samples, [0.5])


@pytest.mark.parametrize(
    "samples, grid, message",
    [(["a"], [0.5], "samples are not numeric"), ([0.1], ["x"], "grid points are not numeric")],
    ids=["samples", "grid"],
)
def test_empirical_cdf_rejects_non_numeric_input(samples, grid, message):
    with pytest.raises(ValidationError, match=message):
        empirical_cdf(samples, grid)


def test_cdf_moment_closed_forms():
    grid = np.linspace(0.0, 1.0, 20001)
    for n in range(1, 6):
        assert abs(cdf_moment(grid, grid, n) - 1.0 / (n + 1)) < 1e-6
        wedge = 2.0 * grid - grid * grid
        assert abs(cdf_moment(grid, wedge, n) - 2.0 / (n * n + 3 * n + 2)) < 1e-6


def test_moment_two_routes_agree():
    """Direct power mean vs integration of the empirical CDF."""
    rng = np.random.default_rng(56)
    samples = rng.uniform(0.0, 1.0, size=20000)
    grid = np.linspace(0.0, 1.0, 4001)
    cdf = empirical_cdf(samples, grid)
    for n in (1, 2, 3):
        direct = float(np.mean(samples**n))
        via_cdf = cdf_moment(grid, cdf, n)
        assert abs(direct - via_cdf) < 1e-3


def test_dominance_implies_moments_wedge_vs_uniform():
    grid = np.linspace(0.0, 1.0, 5001)
    res = dominance_implies_moments(
        (grid, 2.0 * grid - grid * grid), (grid, grid), range(1, 6)
    )
    assert res.dominance_holds
    assert res.moments_ok
    assert bool(res)
    for n, mg, mh in zip(res.orders, res.moments_g, res.moments_h):
        assert mg <= mh + 1e-9
        assert abs(mg - 2.0 / (n * n + 3 * n + 2)) < 1e-6
        assert abs(mh - 1.0 / (n + 1)) < 1e-6


def test_dominance_point_mass():
    """Uniform dominates the CDF of a point mass at 1."""
    grid = np.linspace(0.0, 1.0, 101)
    point = np.where(grid >= 1.0, 1.0, 0.0)
    res = dominance_implies_moments((grid, grid), (grid, point), [1, 2])
    assert res.dominance_holds
    assert res.moments_g[0] <= res.moments_h[0] + 1e-9


def test_dominance_equal_cdfs():
    grid = np.linspace(0.0, 1.0, 101)
    res = dominance_implies_moments((grid, grid), (grid, grid), [1, 2, 3])
    assert bool(res)
    for mg, mh in zip(res.moments_g, res.moments_h):
        assert abs(mg - mh) < 1e-12


def test_dominance_grid_mismatch():
    g1 = np.linspace(0.0, 1.0, 11)
    g2 = np.linspace(0.0, 1.0, 21)
    with pytest.raises(ValidationError):
        dominance_implies_moments((g1, g1), (g2, g2), [1])


def test_mean_output_distance_bound():
    rng = np.random.default_rng(57)
    trials = run_trials(MEASURE0, 5000, rng)
    rep = mean_output_distance_bound(trials)
    assert abs(rep.mean_d_in - 1.0 / 3.0) < 0.03
    assert rep.holds
    assert rep.mean_d_out_sub <= 1.0 / 6.0 + 3.0 * rep.stderr


def test_mean_output_distance_bound_columns_or_records():
    trials = run_trials(_maximizer_shaped(5, 2, 2), 2000, np.random.default_rng(59))
    assert mean_output_distance_bound(trials) == mean_output_distance_bound(list(trials))


def test_mean_output_distance_bound_empty():
    with pytest.raises(ValidationError):
        mean_output_distance_bound([])


@st.composite
def _maximizer_shapes(draw):
    dim_in = draw(st.integers(2, 6))
    return dim_in, draw(st.integers(1, dim_in - 1)), draw(st.integers(1, 3))


@settings(max_examples=20, deadline=None)
@given(shape=_maximizer_shapes(), seed=st.integers(0, 2**32 - 1), n_trials=st.integers(1, 30))
def test_run_trials_obey_theorems_3_and_4(shape, seed, n_trials):
    """On any maximizer-shaped operation, every trial obeys the Theorem 3
    ratio and relative-increase bounds and the Theorem 4 half bound, and
    the object path reproduces the columns."""
    op = _maximizer_shaped(*shape)
    trials = run_trials(op, n_trials, np.random.default_rng(seed))
    assert np.all(trials.d_out_normalized <= trials.d_in / trials.p_m + 1e-9)
    rel = trials.relative_increase
    increasing = ~np.isnan(rel)
    assert np.all(rel[increasing] <= 1.0 - trials.p_m[increasing] + 1e-9)
    assert np.all(trials.d_out_subnormalized <= 0.5 * trials.d_in + 1e-9)
    oracle = run_trials(op, n_trials, np.random.default_rng(seed), path="object")
    for name in DISTANCES:
        assert np.max(np.abs(getattr(trials, name) - getattr(oracle, name))) < 1e-12
