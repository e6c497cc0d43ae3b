"""Boundary-condition matrix: phase law, unitarity, and conjugation checks."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointbilliard import ValidationError
from pointbilliard.extension import (
    ExtensionAngle,
    angle_from_inv_coupling,
    deficiency_gram,
    gram_invariant_defect,
    hermitian_conjugation_defect,
    inv_coupling_from_angle,
    u_matrix,
    u_phase,
    unitarity_defect,
)

from conftest import make_evaluator


def test_single_scatterer_phase_matches_angle(ev1_30k):
    theta = angle_from_inv_coupling(ev1_30k, ev1_30k.scatterers.inv_couplings[0], 0)
    u = u_phase(ev1_30k)
    expected = -cmath.exp(1j * theta.theta)
    assert abs(u - expected) < 1e-6


def test_angle_coupling_roundtrip(ev1):
    for inv in (-3.0, -0.2, 0.0, 0.4, 7.5):
        theta = angle_from_inv_coupling(ev1, inv, 0)
        assert 0.0 < theta.theta < 2.0 * math.pi
        back = inv_coupling_from_angle(ev1, theta, 0)
        assert back == pytest.approx(inv, abs=1e-12 * (1.0 + abs(inv)))


@settings(max_examples=200, deadline=None)
@given(inv=st.floats(allow_nan=False, allow_infinity=False),
       lam=st.sampled_from((1e-300, 1.0, 5.0)))
def test_angle_stays_strictly_inside_the_circle(golden, generic_point, big_table, inv, lam):
    # 2*atan2(Lambda*C, inv) rounds to 2*pi for inv far below -Lambda*C, and
    # to 0 far above it once Lambda*C is tiny; neither is a valid angle here
    ev = make_evaluator(golden, big_table, [generic_point], [0.0], lambda_scale=lam)
    angle = angle_from_inv_coupling(ev, inv, 0)
    assert 0.0 < angle.theta < 2.0 * math.pi
    try:
        back = inv_coupling_from_angle(ev, angle, 0)
    except ValidationError:  # so near the decoupled limit that it overflows
        return
    assert math.isfinite(back)


def test_angle_zero_is_decoupled_limit(ev1):
    with pytest.raises(ValidationError):
        inv_coupling_from_angle(ev1, ExtensionAngle(0.0), 0)
    with pytest.raises(ValidationError):
        ExtensionAngle(-0.1)
    with pytest.raises(ValidationError):
        ExtensionAngle(2.0 * math.pi)


def test_boundary_angle_pi_is_zero_inverse_coupling(ev1):
    inv = inv_coupling_from_angle(ev1, ExtensionAngle(math.pi), 0)
    assert inv == pytest.approx(0.0, abs=1e-15)


def test_single_scatterer_unitarity(ev1):
    assert unitarity_defect(ev1) < 1e-12


def test_u_matrix_shape_and_finiteness(ev2):
    u = u_matrix(ev2)
    assert u.shape == (2, 2)
    assert np.all(np.isfinite(u))


def test_hermitian_conjugation_law(ev2):
    # lambda(omega)^dagger = lambda(conj omega), checked at a genuinely
    # complex energy and at the imaginary reference scale
    assert hermitian_conjugation_defect(ev2, 700.0 + 35.0j) < 1e-12
    assert hermitian_conjugation_defect(ev2, 1j * ev2.lam) < 1e-12


def test_gram_matrix_invariant_under_u(ev2):
    gram = deficiency_gram(ev2)
    assert gram.shape == (2, 2)
    # diagonal of the gram matrix is the deficiency norm at each scatterer
    for i in range(2):
        assert gram[i, i] == pytest.approx(ev2.deficiency_norm_sq(i), rel=1e-12)
    assert gram_invariant_defect(ev2) < 1e-12


def test_pair_unitarity_defect_is_intrinsic(golden, generic_point,
                                            second_point, big_table):
    # with two scatterers the construction preserves the deficiency gram,
    # not the euclidean inner product, so U'U - 1 plateaus at a value set
    # by the geometry; the plateau must not drift with the truncation
    defects = {}
    for n_max in (3_000, 30_000):
        ev = make_evaluator(golden, big_table, [generic_point, second_point],
                            [0.3, -0.4], n_max=n_max)
        defects[n_max] = unitarity_defect(ev)
    assert defects[3_000] > 1e-3
    assert abs(defects[3_000] - defects[30_000]) < 1e-3


def test_phase_independent_of_reference_scale(golden, generic_point, big_table):
    # fix the boundary angle, map it to the coupling at each scale, and
    # the resulting physics (the U phase) must not move
    theta = 2.4
    phases = []
    for lam in (0.5, 1.0, 5.0):
        probe = make_evaluator(golden, big_table, [generic_point], [0.0],
                               n_max=30_000, lambda_scale=lam)
        inv = inv_coupling_from_angle(probe, ExtensionAngle(theta), 0)
        ev = make_evaluator(golden, big_table, [generic_point], [inv],
                            n_max=30_000, lambda_scale=lam)
        phases.append(cmath.phase(u_phase(ev)) % (2.0 * math.pi))
    spread = max(phases) - min(phases)
    assert spread < 1e-10


@pytest.mark.parametrize("lam", [0.5, 5.0])
@pytest.mark.parametrize("n", [1, 3])
def test_diagnostics_sample_the_pair_at_imaginary_scale(golden, generic_point, second_point,
                                                         big_table, monkeypatch, n, lam):
    positions = [generic_point, second_point, (0.2 * golden.lx, 0.8 * golden.ly)][:n]
    ev = make_evaluator(golden, big_table, positions, [0.3, -0.4, 1.1][:n], lambda_scale=lam)
    points, secular_matrix = [], ev.secular_matrix

    def recorded(omega):
        points.append(omega)
        return secular_matrix(omega)

    monkeypatch.setattr(ev, "secular_matrix", recorded)
    for diagnostic in (u_matrix, gram_invariant_defect):
        points.clear()
        diagnostic(ev)
        assert points == [1j * lam, -1j * lam]


def test_u_phase_rejects_multi_scatterer(ev2):
    with pytest.raises(ValidationError):
        u_phase(ev2)
