"""Mode table and eigenfunction checks against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointbilliard import (
    GOLDEN_RATIO,
    BilliardSpec,
    ValidationError,
    basis_column,
    build_mode_table,
    eval_eigenfunction,
    golden_rectangle,
    mode_table_with_count,
)


def test_mode_energy_matches_direct_formula():
    spec = golden_rectangle()
    for mx, my in [(1, 1), (2, 3), (7, 1), (13, 21)]:
        expected = (math.pi ** 2 / 2.0) * (mx ** 2 / spec.lx ** 2
                                           + my ** 2 / spec.ly ** 2)
        assert spec.mode_energy(mx, my) == pytest.approx(expected, rel=1e-15)


def test_golden_rectangle_density_and_spacing():
    spec = golden_rectangle()
    assert spec.ly == pytest.approx(GOLDEN_RATIO, rel=1e-15)
    assert spec.weyl_density == pytest.approx(
        spec.mass * spec.area / (2.0 * math.pi), rel=1e-15)
    assert spec.weyl_density == pytest.approx(0.25751810740024195, rel=1e-14)
    assert spec.mean_spacing == pytest.approx(1.0 / spec.weyl_density, rel=1e-15)


def test_mode_table_matches_bruteforce_enumeration():
    # oracle: exhaustive double loop, written independently of the table code
    spec = golden_rectangle()
    e_cut = 500.0
    oracle = []
    for mx in range(1, 100):
        if spec.mode_energy(mx, 1) > e_cut and mx > 1:
            break
        for my in range(1, 200):
            e = spec.mode_energy(mx, my)
            if e > e_cut:
                break
            oracle.append((e, mx, my))
    oracle.sort()

    table = build_mode_table(spec, e_cut)
    assert len(table) == len(oracle)
    for i, (e, mx, my) in enumerate(oracle):
        assert table.energies[i] == pytest.approx(e, rel=1e-14)
        assert (table.mx[i], table.my[i]) == (mx, my)


def test_mode_count_tracks_weyl_law():
    spec = golden_rectangle()
    e_cut = 2000.0
    table = build_mode_table(spec, e_cut)
    # two-term Weyl count for Dirichlet walls plus the corner constant;
    # what remains is the O(E^(1/4)) number fluctuation
    wavenumber = math.sqrt(2.0 * spec.mass * e_cut)
    perimeter = 2.0 * (spec.lx + spec.ly)
    expected = (spec.weyl_density * e_cut
                - perimeter * wavenumber / (4.0 * math.pi) + 0.25)
    assert len(table) == pytest.approx(expected, abs=10.0)
    assert np.all(np.diff(table.energies) >= 0.0)


def test_truncated_keeps_degenerate_families_whole():
    square = BilliardSpec(lx=1.0, ly=1.0, mass=1.0)
    table = build_mode_table(square, 800.0)
    diffs = np.diff(table.energies)
    tied = np.nonzero(diffs == 0.0)[0]
    assert tied.size > 0, "square billiard should have exact degeneracies"
    n = int(tied[0]) + 1  # cut right through the first degenerate pair
    kept = table.truncated(n)
    assert len(kept) > n
    assert kept.energies[-1] == kept.energies[n - 1]


def test_eigenfunction_vanishes_on_boundary():
    spec = golden_rectangle()
    table = build_mode_table(spec, 200.0)
    mode = (table.mx[5], table.my[5])
    for point in [(0.0, 0.3), (spec.lx, 0.9), (0.5, 0.0), (0.2, spec.ly)]:
        assert eval_eigenfunction(spec, mode, point) == pytest.approx(0.0, abs=1e-12)


def test_eigenfunctions_orthonormal_by_quadrature():
    # oracle: 64-node Gauss-Legendre product quadrature, computed first;
    # the integrands are smooth low-order sine products, so the nodes
    # resolve them to machine precision
    spec = golden_rectangle()
    nodes, base_weights = np.polynomial.legendre.leggauss(64)
    xs = 0.5 * spec.lx * (nodes + 1.0)
    wx = 0.5 * spec.lx * base_weights
    ys = 0.5 * spec.ly * (nodes + 1.0)
    wy = 0.5 * spec.ly * base_weights
    table = build_mode_table(spec, 200.0)
    indices = [0, 3, 7]
    values = []
    for i in indices:
        mode = (table.mx[i], table.my[i])
        values.append(np.array([[eval_eigenfunction(spec, mode, (x, y))
                                 for y in ys] for x in xs]))
    for a in range(len(indices)):
        for b in range(a, len(indices)):
            integral = float(wx @ (values[a] * values[b]) @ wy)
            expected = 1.0 if a == b else 0.0
            assert integral == pytest.approx(expected, abs=1e-9)


def test_basis_column_matches_pointwise_eval(golden, generic_point):
    table = build_mode_table(golden, 300.0)
    col = basis_column(table, generic_point)
    assert col.shape == (len(table),)
    for i in [0, 1, 10, len(table) - 1]:
        assert col[i] == pytest.approx(
            eval_eigenfunction(golden, (table.mx[i], table.my[i]), generic_point), rel=1e-14)


def test_mode_table_with_count_returns_enough_modes(golden):
    table = mode_table_with_count(golden, 500)
    assert len(table) >= 500
    # never more than one degenerate family beyond the request
    assert len(table) <= 510


def test_validation_rejects_bad_geometry():
    with pytest.raises(ValidationError):
        BilliardSpec(lx=-1.0, ly=1.0, mass=1.0)
    with pytest.raises(ValidationError):
        BilliardSpec(lx=1.0, ly=1.0, mass=0.0)
    with pytest.raises(ValidationError):
        build_mode_table(golden_rectangle(), -5.0)


@settings(max_examples=50, deadline=None)
@given(mx=st.integers(1, 40), my=st.integers(1, 40))
def test_mode_energy_monotone_in_quantum_numbers(mx, my):
    spec = golden_rectangle()
    e = spec.mode_energy(mx, my)
    assert spec.mode_energy(mx + 1, my) > e
    assert spec.mode_energy(mx, my + 1) > e


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-0.5, 1.5), y=st.floats(-0.5, 2.5))
def test_contains_agrees_with_bounds(x, y):
    spec = golden_rectangle()
    inside = (0.0 <= x <= spec.lx) and (0.0 <= y <= spec.ly)
    assert spec.contains(x, y) == inside
