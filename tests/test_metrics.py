"""Tests for the distance family: trace, fidelity, sine, angle, qubit gap."""

import numpy as np
import pytest

from qopdist.errors import DimensionMismatchError, ValidationError
from qopdist.metrics import (
    QubitGapPoint,
    angle,
    check_fvdg_bounds,
    fidelity,
    max_qubit_gap,
    qubit_gap,
    sine_distance,
    trace_distance,
)
from qopdist.states import from_bloch, random_density, random_pure

E0 = np.diag([1.0, 0.0]).astype(complex)
E1 = np.diag([0.0, 1.0]).astype(complex)
MIX = np.diag([0.75, 0.25]).astype(complex)


def test_trace_distance_frozen_values():
    assert abs(trace_distance(E0, E1) - 1.0) < 1e-14
    assert trace_distance(E0, E0) == 0.0
    assert abs(trace_distance(E0, MIX) - 0.25) < 1e-14


def test_trace_distance_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        trace_distance(E0, np.eye(3) / 3)


def test_trace_distance_hermitian_inputs():
    """The metric extends to plain Hermitian operands."""
    a = np.diag([1.0, -2.0]).astype(complex)
    b = np.zeros((2, 2), dtype=complex)
    assert abs(trace_distance(a, b) - 1.5) < 1e-14
    assert abs(trace_distance(np.diag([1.0, -1.0]), b) - 1.0) < 1e-15
    assert abs(trace_distance(np.diag([0.5, -0.25]), b) - 0.375) < 1e-15


def test_fidelity_commuting():
    half = np.diag([0.5, 0.5]).astype(complex)
    assert abs(fidelity(half, MIX) - 0.9659258262890682) < 1e-12


def test_fidelity_pure_overlap():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a = random_pure(4, rng)
        b = random_pure(4, rng)
        va = np.linalg.eigh(a.mat)[1][:, -1]
        vb = np.linalg.eigh(b.mat)[1][:, -1]
        assert abs(fidelity(a, b) - abs(np.vdot(va, vb))) < 1e-12


def test_fidelity_extremes():
    assert abs(fidelity(E0, E0) - 1.0) < 1e-14
    assert fidelity(E0, E1) < 1e-12


def test_sine_angle_consistency():
    rng = np.random.default_rng(22)
    for _ in range(20):
        rho = random_density(3, 2, rng)
        sig = random_density(3, 3, rng)
        f = fidelity(rho, sig)
        assert abs(angle(rho, sig) - np.arccos(f)) < 1e-12
        assert abs(sine_distance(rho, sig) - np.sin(angle(rho, sig))) < 1e-12


def test_sine_equals_trace_on_pure_pairs():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = random_pure(3, rng)
        b = random_pure(3, rng)
        assert abs(sine_distance(a, b) - trace_distance(a, b)) < 1e-10


def test_fvdg_bounds_hold():
    rng = np.random.default_rng(24)
    for _ in range(50):
        rho = random_density(4, int(rng.integers(1, 5)), rng)
        sig = random_density(4, int(rng.integers(1, 5)), rng)
        rep = check_fvdg_bounds(rho, sig)
        assert rep.lower_ok and rep.upper_ok
        assert 1.0 - rep.fid <= rep.trace_dist + 1e-9
        assert rep.trace_dist <= rep.sine_dist + 1e-9


def test_qubit_gap_witness_value():
    assert abs(qubit_gap(1.0, 0.5, 1.0) - 0.25) < 1e-12


def test_qubit_gap_degenerate_points():
    assert abs(qubit_gap(0.0, 0.0, 1.0)) < 1e-12
    assert abs(qubit_gap(1.0, 1.0, 1.0)) < 1e-12


def test_qubit_gap_box_validation():
    with pytest.raises(ValidationError):
        qubit_gap(1.5, 0.0, 0.0)
    with pytest.raises(ValidationError):
        qubit_gap(0.5, 0.5, -1.5)


def test_qubit_gap_matches_states():
    """The closed form agrees with distances of actual Bloch states."""
    rng = np.random.default_rng(25)
    for _ in range(40):
        u, v = rng.uniform(0.0, 1.0, size=2)
        eta = rng.uniform(-1.0, 1.0)
        rho = from_bloch([0.0, 0.0, u])
        st = np.sqrt(1.0 - eta * eta)
        sig = from_bloch([v * st, 0.0, v * eta])
        gap = sine_distance(rho, sig) - trace_distance(rho, sig)
        assert abs(qubit_gap(u, v, eta) - gap) < 1e-10


def test_qubit_gap_point_cross_check():
    p = QubitGapPoint(1.0, 0.5, 1.0, 0.25)
    assert p.value == 0.25
    with pytest.raises(ValidationError):
        QubitGapPoint(1.0, 0.5, 1.0, 0.3)


def test_max_qubit_gap():
    point = max_qubit_gap()
    assert abs(point.value - 0.25) < 1e-4
    # maximizer sits on the pure-state edge
    assert point.u > 0.9 or point.v > 0.9


def test_max_qubit_gap_coarse_n_floor():
    with pytest.raises(ValidationError):
        max_qubit_gap(coarse_n=10)
