"""Regularized resolvent series vs independent summation and quadrature."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from pointbilliard import ValidationError, eval_eigenfunction
from pointbilliard.errors import PoleProximityError
from pointbilliard.basis import BilliardSpec, mode_table_with_count
from pointbilliard.greens import GreensAccuracy, GreensEvaluator, LocalGreens, ScattererSet
from pointbilliard.rankone import reduce_full
from pointbilliard.solver import EnergyWindow, _pole_mask, solve_multi, truncation_shift_bound

from conftest import (
    GENERIC_X,
    GENERIC_Y_FRACTION,
    SECOND_X,
    SECOND_Y_FRACTION,
    gap_midpoint,
    make_evaluator,
)
from test_stats import independent_curvature


def test_diag_matches_bruteforce_sum(golden, generic_point, big_table):
    # oracle first: dumb per-mode loop over the same 400 modes; the tail has
    # its own quadrature test
    ev = make_evaluator(golden, big_table, [generic_point], [0.3], n_max=400)
    omega = gap_midpoint(ev, 200)
    lam2 = ev.lam ** 2
    oracle = 0.0
    for i in range(400):
        phi = eval_eigenfunction(golden, (ev.table.mx[i], ev.table.my[i]), generic_point)
        e = float(ev.energies[i])
        oracle += phi * phi * (1.0 / (omega - e) + e / (e * e + lam2))
    assert ev.diag(0, omega) - ev.tail_correction(omega) == pytest.approx(oracle, rel=1e-12)


def test_integral_tail_matches_quadrature(golden, generic_point, big_table):
    # oracle: numerically integrate the mean-field regularized integrand
    # from the cutoff upward; the tail formula is its closed form
    ev = make_evaluator(golden, big_table, [generic_point], [0.3], n_max=3000)
    omega = gap_midpoint(ev, 500)
    ec = ev.cutoff_energy
    lam2 = ev.lam ** 2
    scale = golden.mass / (2.0 * math.pi)

    def integrand(e):
        return scale * (1.0 / (omega - e) + e / (e * e + lam2))

    oracle, err = integrate.quad(integrand, ec, np.inf, limit=400)
    assert err < 1e-9
    assert ev.tail_correction(omega) == pytest.approx(oracle, abs=1e-8)


def test_tail_tightens_selfconvergence(golden, generic_point, big_table):
    omega = 1200.0
    with_tail = {}
    without = {}
    for n_max in (25_000, 100_000):
        ev = make_evaluator(golden, big_table, [generic_point], [0.3], n_max=n_max)
        with_tail[n_max] = ev.diag(0, omega)
        without[n_max] = with_tail[n_max] - ev.tail_correction(omega)
    gap_tail = abs(with_tail[100_000] - with_tail[25_000])
    gap_bare = abs(without[100_000] - without[25_000])
    assert gap_tail < 1e-5
    assert gap_bare > 100.0 * gap_tail


def test_diag_error_bound_is_honest(golden, generic_point, big_table):
    small = make_evaluator(golden, big_table, [generic_point], [0.3],
                           n_max=25_000)
    big = make_evaluator(golden, big_table, [generic_point], [0.3],
                         n_max=100_000)
    for level in (100, 500, 2000):
        omega = gap_midpoint(small, level)
        actual = abs(small.diag(0, omega) - big.diag(0, omega))
        assert actual <= small.diag_error(0, omega) + 1e-7


def test_diag_derivative_matches_finite_difference(ev1):
    # oracle: central difference of diag at a step well below the gap scale
    omega = gap_midpoint(ev1, 400)
    h = 1e-5 * ev1.mean_spacing
    fd = (ev1.diag(0, omega + h) - ev1.diag(0, omega - h)) / (2.0 * h)
    assert ev1.diag_derivative(0, omega) == pytest.approx(fd, rel=1e-6)


def test_diag_curvature_matches_mode_sums_and_differences(ev1, golden):
    # oracle: the mode sums 2 phi^2/(w - e)^3 and -6 phi^2/(w - e)^4 in fsum,
    # plus the tail's derivatives of (M/2pi) ln(e_cut - w) written out
    ev = ev1  # 3 000 modes
    phi_sq = ev.phi_values[:, 0] ** 2
    scale = golden.mass / (2.0 * math.pi)
    for k in (40, 400, 2_000):
        omega = gap_midpoint(ev, k)
        d = omega - ev.energies
        gap = ev.cutoff_energy - omega
        curv, third = (g[0, 0] for g in ev.secular_orders(omega, 2, 2))
        terms = 2.0 * phi_sq / d ** 3  # of both signs: compare on the scale of their sizes
        assert abs(curv - (math.fsum(terms) - scale / gap ** 2)) <= 1e-12 * np.abs(terms).sum()
        assert third == pytest.approx(math.fsum(-6.0 * phi_sq / d ** 4) - 2.0 * scale / gap ** 3,
                                      rel=1e-12)
        assert third < 0.0
        # and the central difference of the analytic slope
        h = 1e-5 * np.min(np.abs(ev.energies - omega))
        up, down = omega + h, omega - h
        fd = (ev.diag_derivative(0, up) - ev.diag_derivative(0, down)) / (up - down)
        assert curv == pytest.approx(fd, rel=1e-6)
        # the slope's tail term is the order-1 case, bit for bit its old closed form
        assert ev.tail_correction(omega, 1) == -scale / gap


def test_diag_at_imaginary_scale_equals_deficiency(golden, generic_point, big_table):
    # oracle: the closed form sum phi^2/(e^2 + lam^2) + (M/2pi) atan2(lam, E_c)/lam,
    # the mode sum plus its mean-field tail; at i lam the counterterm cancels
    # the real part of every term, so diag(i lam) = -i lam C
    for lam in (1e-300, 1e-3, 1.0, 1e3):
        ev = make_evaluator(golden, big_table, [generic_point], [0.3], lambda_scale=lam)
        phi_sq, e = ev.phi_values[:, 0] ** 2, ev.energies
        oracle = (math.fsum(phi_sq / (e * e + lam * lam))
                  + golden.mass / (2.0 * math.pi) * math.atan2(lam, ev.cutoff_energy) / lam)
        assert ev.deficiency_norm_sq(0) == pytest.approx(oracle, rel=1e-12)
        value = ev.diag(0, 1j * lam)
        assert abs(value.real) < 1e-13
        assert value.imag == pytest.approx(-lam * oracle, rel=1e-12)
        conj = ev.diag(0, -1j * lam)
        assert conj == pytest.approx(np.conj(value), rel=1e-14)


def test_offdiag_is_symmetric(ev2):
    omega = gap_midpoint(ev2, 350)
    assert ev2.offdiag(0, 1, omega) == pytest.approx(
        ev2.offdiag(1, 0, omega), rel=1e-14)


def test_offdiag_weights_structure(ev2):
    w = ev2.offdiag_weights()
    assert w.shape == (ev2.n_eff,)
    assert np.all((w >= 0.0) & (w <= 1.0))
    assert w[0] == 1.0       # low modes fully counted
    assert w[-1] == 0.0      # topmost mode averaged away


@pytest.mark.parametrize("n_max", [1, 2])
def test_offdiag_profile_of_a_short_table_is_the_closed_form(golden, generic_point,
                                                             second_point, big_table, n_max):
    # oracle: the three-window average itself; a table spanning fewer than
    # three mean spacings gets it too, not plain sums
    ev = make_evaluator(golden, big_table, [generic_point, second_point], [0.3, -0.4],
                        n_max=n_max)
    assert ev.energies[0] > ev.cutoff_energy - 3.0 * ev.mean_spacing
    shares = [_block_average_share(e, ev.cutoff_energy, ev.mean_spacing) for e in ev.energies]
    assert ev.offdiag_weights() == pytest.approx(shares, abs=1e-15)
    assert ev.offdiag_weights()[-1] == 0.0


@pytest.mark.parametrize("n_max", [30_000, 100_000])
def test_offdiag_profile_is_exactly_one_three_spacings_below_cutoff(golden, generic_point,
                                                                    big_table, n_max):
    # the three one-spacing covers add up to 1 for every such mode; summed
    # as three clipped differences they rounded to 0.9999999999995842
    ev = make_evaluator(golden, big_table, [generic_point], [0.3], n_max=n_max)
    deep = ev.cutoff_energy - ev.energies >= 3.0 * ev.mean_spacing
    assert deep.sum() > 0.99 * ev.n_eff
    assert np.all(ev.offdiag_weights()[deep] == 1.0)


def test_pole_weight_blocks_are_exactly_rank_one(golden, generic_point, second_point,
                                                 big_table):
    # oracle: outer(phi_k, phi_k) of the evaluator's own mode values; a block
    # off rank one by 4e-13 planted a spurious root next to a strong pole
    ev = make_evaluator(golden, big_table, [generic_point, second_point, (0.3, 1.1)],
                        [0.3, -0.4, 1.0], n_max=30_000)
    phi = ev.phi_values
    deep = ev.cutoff_energy - ev.energies >= 3.0 * ev.mean_spacing
    strong = 4_000 + int(np.argmax((phi[4_000:4_100] ** 2).sum(axis=1)))
    block = np.array([[ev._entry(i, j)[strong] for j in range(3)] for i in range(3)])
    assert np.array_equal(block, np.outer(phi[strong], phi[strong]))
    for i in range(3):
        for j in range(3):
            assert np.array_equal(ev._entry(i, j)[deep], phi[deep, i] * phi[deep, j])


def test_sub_floor_mode_values_are_zero_in_every_column(golden, big_table):
    # both scatterers on the nodal line x = lx/2, the first also on y = ly/3:
    # their even-mx modes carry rounding noise only, (m eps)^2, and drop out
    # of the poles; the curvature oracle counts sub-floor weights as zero too
    points = [(0.5 * golden.lx, golden.ly / 3.0),
              (0.5 * golden.lx, GENERIC_Y_FRACTION * golden.ly)]
    ev = make_evaluator(golden, big_table, points, [0.3, -0.4])
    dropped = ~_pole_mask(ev)
    assert dropped.sum() > 0.4 * ev.n_eff
    assert np.all(ev.phi_values[dropped] == 0.0)
    for column in ev._columns:
        assert np.all(column[dropped] == 0.0)
    f = independent_curvature(golden, ev.table, points[0], ev.n_eff)
    e = ev.energies
    phi_sq = ev.phi_values[:, 0] ** 2
    pole = float(e[np.flatnonzero(dropped)[600]])
    for omega in (gap_midpoint(ev, 400), gap_midpoint(ev, 1_500),
                  pole + 1e-6 * ev.mean_spacing, pole - 1e-6 * ev.mean_spacing):
        curv = ev.secular_orders(omega, 2)[0][0, 0]
        scale = np.abs(2.0 * phi_sq / (omega - e) ** 3).sum()
        assert abs(curv - f(omega)) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_series_do_not_depend_on_the_couplings(golden, big_table, data):
    # the series hold the geometry alone: two evaluators that differ only in
    # their inverse couplings sum the same G, bit for bit, at orders 0 to 3,
    # directly and through a near/far view
    n = data.draw(st.integers(1, 4))
    unit = st.floats(0.01, 0.99)
    fractions = data.draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n, unique=True))
    positions = [(fx * golden.lx, fy * golden.ly) for fx, fy in fractions]
    couplings = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    a = make_evaluator(golden, big_table, positions, data.draw(couplings))
    b = make_evaluator(golden, big_table, positions, data.draw(couplings))
    first = data.draw(st.integers(100, 2_600))
    lo, hi = float(a.energies[first]), float(a.energies[first + 40])
    omegas = np.linspace(lo, hi, 7)[1:-1]
    omegas = omegas[~np.isin(omegas, a.energies)]
    views = a.local(lo, hi), b.local(lo, hi)
    assert isinstance(views[0], LocalGreens) and isinstance(views[1], LocalGreens)
    for x, y in ((a, b), views):
        for k, (g, h) in enumerate(zip(x.secular_orders(omegas, 0, 4),
                                       y.secular_orders(omegas, 0, 4))):
            assert np.array_equal(g, h), k


def test_with_inv_couplings_shares_the_series(ev2):
    inv = (1.5, -0.25)
    twin = ev2.with_inv_couplings(inv)
    assert twin.scatterers == ScattererSet(ev2.scatterers.positions, inv, ev2.lam)
    assert ev2.scatterers.inv_couplings == (0.3, -0.4)
    for name in ("table", "energies", "_phi", "_columns", "_counterterm"):
        assert getattr(twin, name) is getattr(ev2, name)
    omega = gap_midpoint(ev2, 420)
    assert np.array_equal(twin.secular_matrix(omega), ev2.secular_orders(omega)[0] - np.diag(inv))
    # and its levels are those of an evaluator built for the couplings
    fresh = GreensEvaluator(ev2.billiard, twin.scatterers, ev2.accuracy, table=ev2.table)
    window = EnergyWindow(float(ev2.energies[400]), float(ev2.energies[420]))
    assert solve_multi(twin, window) == solve_multi(fresh, window)
    for bad in ((0.3,), (math.nan, 0.0)):
        with pytest.raises(ValidationError):
            ev2.with_inv_couplings(bad)


def test_secular_matrix_entries_and_batch(ev2):
    omega = gap_midpoint(ev2, 420)
    m = ev2.secular_matrix(omega)
    assert m.shape == (2, 2)
    assert np.allclose(m, m.T, rtol=0, atol=0)
    for i in range(2):
        assert m[i, i] == ev2.diag(i, omega) - ev2.scatterers.inv_couplings[i]
    assert m[0, 1] == ev2.offdiag(0, 1, omega)

    # a batch, and the checked form on the same array, is bit for bit the scalar loop
    omegas = np.array([gap_midpoint(ev2, k) for k in (100, 200, 300)])
    for points in (omegas, np.array([omegas, omegas[::-1] + 0.25 * ev2.mean_spacing])):
        batch = ev2.secular_matrix_batch(points)
        assert batch.shape == points.shape + (2, 2)
        assert np.array_equal(ev2.secular_matrix(points), batch)
        loop = np.array([ev2.secular_matrix(float(w)) for w in points.ravel()])
        assert np.array_equal(batch, loop.reshape(batch.shape))


def test_diag_batch_equals_scalar_loop(ev1):
    omegas = np.array([gap_midpoint(ev1, k) for k in (50, 150, 250, 350)])
    for points in (omegas, omegas.reshape(2, 2)):
        batch = ev1.diag_batch(0, points)
        assert batch.shape == points.shape
        assert np.array_equal(ev1.diag(0, points), batch)
        loop = np.array([ev1.diag(0, float(w)) for w in points.ravel()])
        assert np.array_equal(batch, loop.reshape(batch.shape))


def _checked_calls(ev, omega):
    """Every checked public series entry point at omega, on a 2-scatterer evaluator."""
    return (
        lambda: ev.diag(0, omega),
        lambda: ev.diag_derivative(1, omega),
        lambda: ev.offdiag(0, 1, omega),
        lambda: ev.secular_matrix(omega),
        lambda: ev.diag_batch(0, [omega]),
        lambda: ev.secular_matrix_batch([omega]),
    )


def test_pole_exclusion_raises(ev2):
    pole = float(ev2.energies[123])
    inside = pole + 0.1 * ev2.pole_exclusion
    for call in _checked_calls(ev2, inside):
        with pytest.raises(PoleProximityError):
            call()
    # just outside the exclusion zone is fine
    for call in _checked_calls(ev2, pole + 10.0 * ev2.pole_exclusion):
        assert np.all(np.isfinite(call()))
    # the unchecked entry points of the root finders sum inside the band
    assert all(np.all(np.isfinite(m)) for m in ev2.secular_orders(inside, 0, 2))


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf,
                                   complex(math.nan, 1.0), complex(1.0, math.nan),
                                   complex(math.inf, 1.0), complex(0.0, math.inf)])
def test_non_finite_energy_is_rejected(ev2, omega):
    # nan sits at no distance from any pole, so the pole gate let it through
    # and every entry point returned nan (inf for diag at -inf); off the real
    # axis it let every point through, and (1, nan) it took for the real 1.0
    if isinstance(omega, complex):  # the batch forms and reduce_full take real omegas
        calls = _checked_calls(ev2, omega)[:4]
    else:
        calls = (*_checked_calls(ev2, omega), lambda: reduce_full(ev2, omega))
    for call in calls:
        with pytest.raises(ValidationError, match="must be finite"):
            call()


def test_real_energy_at_or_above_the_cutoff_is_rejected(ev2):
    # the mean-field tail holds below the cutoff only: above it diag_derivative
    # came out positive and truncation_shift_bound answered
    top, band = ev2.cutoff_energy, ev2.pole_exclusion
    for omega in (top + 0.3 * ev2.mean_spacing, 2.0 * top):
        calls = (
            *_checked_calls(ev2, omega),
            lambda: ev2.unregularized_partial_sums(0, omega, [50]),
            lambda: truncation_shift_bound(ev2, 0, omega),
            lambda: reduce_full(ev2, omega),
        )
        for call in calls:
            with pytest.raises(ValidationError, match="series cutoff"):
                call()
    # in the top pole's band the pole check still answers first
    for omega in (top, top + 0.5 * band):
        with pytest.raises(PoleProximityError):
            ev2.check_pole_distance(omega)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_check_raises_as_its_points_do(ev2, data):
    # an array raises for its first non-finite point, else its first point in
    # a pole band, else its first at or above the cutoff: the error that point
    # raises alone; an array of points that each pass, passes
    e, band, top = ev2.energies, ev2.pole_exclusion, ev2.cutoff_energy
    level = st.integers(0, ev2.n_eff - 1)
    good = st.builds(lambda k, f: float(e[k] + f * (e[k + 1] - e[k])),
                     st.integers(0, ev2.n_eff - 2), st.floats(0.01, 0.99))
    in_band = st.builds(lambda k, f: float(e[k] + f * band), level, st.floats(-0.99, 0.99))
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
    above = st.builds(lambda f: top + (1.0 + f) * band, st.floats(0.0, 1e12))
    points = data.draw(st.lists(st.one_of(good, in_band, non_finite, above), max_size=6))

    def outcome(call):
        try:
            call()
        except (ValidationError, PoleProximityError) as exc:
            if "must be finite" in str(exc):
                return 0, type(exc), str(exc)
            return 1 if isinstance(exc, PoleProximityError) else 2, type(exc), str(exc)
        return None

    alone = [r for r in (outcome(lambda w=w: ev2.check_pole_distance(w)) for w in points) if r]
    expected = min(alone, key=lambda r: r[0]) if alone else None  # min keeps the first of a rank
    assert outcome(lambda: ev2.check_pole_distance(np.array(points))) == expected
    assert outcome(lambda: ev2.diag_batch(0, points)) == expected


def test_unregularized_sums_take_integer_counts_only(ev1):
    # a fractional or boolean count was truncated by int(): [1.5, True] gave the
    # one-mode sum twice
    omega = gap_midpoint(ev1, 100)
    sums = ev1.unregularized_partial_sums(0, omega, [50, 300])
    assert ev1.unregularized_partial_sums(0, omega, np.array([50, 300])) == sums
    for counts in ([1.5, True], [True], [50.0], [np.bool_(True)]):
        with pytest.raises(ValidationError, match="not an integer"):
            ev1.unregularized_partial_sums(0, omega, counts)
    for counts in ([0], [50, ev1.n_eff + 1]):
        with pytest.raises(ValidationError, match="outside the table"):
            ev1.unregularized_partial_sums(0, omega, counts)


def test_unregularized_sums_match_bruteforce(golden, generic_point, big_table):
    ev = make_evaluator(golden, big_table, [generic_point], [0.3], n_max=300)
    omega = gap_midpoint(ev, 100)
    sums = ev.unregularized_partial_sums(0, omega, [50, 300])
    oracle = 0.0
    partial = {}
    for i in range(300):
        phi = eval_eigenfunction(golden, (ev.table.mx[i], ev.table.my[i]), generic_point)
        oracle += phi * phi / (omega - float(ev.energies[i]))
        if i + 1 in (50, 300):
            partial[i + 1] = oracle
    assert sums[0] == pytest.approx(partial[50], rel=1e-12)
    assert sums[1] == pytest.approx(partial[300], rel=1e-12)


def test_bare_sums_fall_along_log_slope(golden, generic_point, big_table):
    ev = make_evaluator(golden, big_table, [generic_point], [0.3],
                        n_max=100_000)
    omega = gap_midpoint(ev, 99)
    truncations = [12_500, 25_000, 50_000, 100_000]
    sums = ev.unregularized_partial_sums(0, omega, truncations)
    assert all(b < a for a, b in zip(sums, sums[1:]))
    log_cut = [math.log(float(ev.energies[k - 1])) for k in truncations]
    slope = np.polyfit(log_cut, sums, 1)[0]
    target = -golden.mass / (2.0 * math.pi)
    assert slope == pytest.approx(target, rel=0.1)


def test_scatterer_set_validation():
    with pytest.raises(ValidationError):
        ScattererSet(((0.1, 0.2), (0.1, 0.2)), (1.0, 2.0))
    with pytest.raises(ValidationError):
        ScattererSet(((0.1, 0.2),), (1.0, 2.0))
    with pytest.raises(ValidationError):
        ScattererSet(((0.1, math.nan),), (1.0,))
    with pytest.raises(ValidationError):
        ScattererSet(((0.1, 0.2),), (1.0,), lambda_scale=-2.0)
    with pytest.raises(ValidationError, match="lambda_scale"):
        ScattererSet(((0.1, 0.2),), (1.0,), lambda_scale=1e160)
    with pytest.raises(ValidationError):
        ScattererSet.from_couplings(((0.1, 0.2),), (0.0,))
    sc = ScattererSet.from_couplings(((0.1, 0.2),), (4.0,))
    assert sc.inv_couplings == (0.25,)
    assert sc.couplings() == (4.0,)
    assert ScattererSet(sc.positions, (0.0,)).couplings() == (math.inf,)


def test_accuracy_validation():
    with pytest.raises(ValidationError):
        GreensAccuracy(n_max=0)


def test_scatterer_outside_rectangle_rejected(golden):
    sc = ScattererSet(((2.0, 0.5),), (0.3,))
    with pytest.raises(ValidationError):
        GreensEvaluator(golden, sc, GreensAccuracy(n_max=100))


def test_evaluator_without_scatterers_rejected(golden, big_table):
    with pytest.raises(ValidationError, match="at least one scatterer"):
        GreensEvaluator(golden, ScattererSet((), ()), GreensAccuracy(n_max=100),
                        table=big_table)


@settings(max_examples=30, deadline=None)
@given(level=st.integers(20, 2800), frac=st.floats(0.05, 0.95))
def test_diag_derivative_always_negative(ev1, level, frac):
    e = ev1.energies
    omega = float(e[level] + frac * (e[level + 1] - e[level]))
    if min(omega - e[level], e[level + 1] - omega) < 2.0 * ev1.pole_exclusion:
        return
    assert ev1.diag_derivative(0, omega) < 0.0


def _block_average_share(e, cutoff, width):
    """Mean share of the last three one-spacing windows below the cutoff in
    which a partial sum ending at energy E already holds the mode at e."""
    share = 0.0
    for m in range(3):
        hi = cutoff - m * width
        lo = hi - width
        share += min(max((hi - max(lo, e)) / width, 0.0), 1.0)
    return share / 3.0


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_secular_matrix_core_properties(golden, big_table, data):
    unit = st.floats(0.01, 0.99)
    fractions = data.draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=8,
                                   unique=True))
    n = len(fractions)
    positions = [(fx * golden.lx, fy * golden.ly) for fx, fy in fractions]
    inv = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    ev = make_evaluator(golden, big_table, positions, inv)
    e = ev.energies
    omegas = []
    for _ in range(3):
        level = data.draw(st.integers(20, 2800))
        omega = float(e[level] + data.draw(unit) * (e[level + 1] - e[level]))
        assume(min(omega - e[level], e[level + 1] - omega) > 2.0 * ev.pole_exclusion)
        omegas.append(omega)
    omega = omegas[0]

    m = ev.secular_matrix(omega)
    assert np.array_equal(m, m.T)
    for i in range(n):
        assert m[i, i] == ev.diag(i, omega) - inv[i]
        for j in range(n):
            if j != i:
                assert m[i, j] == ev.offdiag(i, j, omega)
    batch = ev.secular_matrix_batch(omegas)
    assert np.array_equal(batch, np.stack([ev.secular_matrix(w) for w in omegas]))
    up = ev.secular_matrix(1j * ev.lam)
    assert np.array_equal(ev.secular_matrix(-1j * ev.lam), np.conj(up))

    # derivative: symmetric, diagonal = diag_derivative, negative definite,
    # and the slope of secular_matrix by a central difference well inside
    # the distance to the nearest pole
    (d,) = ev.secular_orders(omega, 1)
    assert np.array_equal(d, d.T)
    for i in range(n):
        assert d[i, i] == ev.diag_derivative(i, omega)
    assert np.all(np.linalg.eigvalsh(d) < 0.0)
    # both orders from one kernel, bit for bit the checked single-order calls;
    # the series hold no coupling, secular_matrix subtracts it
    m_fused, d_fused = ev.secular_orders(omega, 0, 2)
    assert np.array_equal(m_fused - np.diag(inv), m) and np.array_equal(d_fused, d)
    for i in range(n):
        assert [g[..., i, i] for g in ev.secular_orders(omega, 0, 2)] == [
            ev.diag(i, omega), ev.diag_derivative(i, omega)]
    h = 1e-4 * np.min(np.abs(ev.energies - omega))
    # divide by the step actually taken: omega +- h rounds to the grid of
    # omega, which is coarse against h when omega sits close to a level
    up, down = omega + h, omega - h
    central = (ev.secular_matrix(up) - ev.secular_matrix(down)) / (up - down)
    assert np.max(np.abs(central - d)) <= 1e-6 * np.max(np.abs(d))

    # oracle: per-mode loop for one entry; the tail has its own quadrature test
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    lam2 = ev.lam ** 2
    oracle = 0.0
    scale = 0.0  # sum of |terms|, the size the rounding error scales with
    for k in range(ev.n_eff):
        mode = (ev.table.mx[k], ev.table.my[k])
        ek = float(e[k])
        pi = eval_eigenfunction(golden, mode, positions[i])
        pj = eval_eigenfunction(golden, mode, positions[j])
        if i == j:
            term = pi * pj * (1.0 / (omega - ek) + ek / (ek * ek + lam2))
        else:
            share = _block_average_share(ek, ev.cutoff_energy, ev.mean_spacing)
            term = pi * pj * share / (omega - ek)
        oracle += term
        scale += abs(term)
    got = m[i, j]
    if i == j:
        got = got + inv[i] - ev.tail_correction(omega)
    assert abs(got - oracle) <= 1e-12 * scale


def _local_case(golden, big_table, data):
    """An evaluator and a block [lo, hi] of 1 to 40 gaps, both poles, below the
    0.9 cutoff fraction where diag_error, and with it the view, is defined."""
    kind = data.draw(st.sampled_from(["one", "two", "eight", "nodal", "square"]))
    unit = st.floats(0.01, 0.99)
    if kind == "square":
        spec = BilliardSpec(1.0, 1.0)
        fractions = data.draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=2,
                                       unique=True))
        sc = ScattererSet(tuple(fractions), (0.3,) * len(fractions))
        ev = GreensEvaluator(spec, sc, GreensAccuracy(n_max=3_000),
                             table=mode_table_with_count(spec, 3_000))
        # both block edges on exactly degenerate levels
        e = ev.energies
        ties = np.flatnonzero(np.diff(e) == 0.0)
        ties = ties[(ties > 100) & (ties < 2_600)]
        first = data.draw(st.sampled_from(list(ties)))
        later = [t for t in ties if first < t <= first + 40 and e[t] > e[first]]
        assume(later)
        return ev, float(e[first]), float(e[data.draw(st.sampled_from(later))])
    if kind == "nodal":
        # 3e-7 off the nodal line x = 1/2: every even-mx mode has a tiny weight
        fractions = [(0.5 + 3e-7, GENERIC_Y_FRACTION)]
    elif kind == "eight":
        fractions = data.draw(st.lists(st.tuples(unit, unit), min_size=8, max_size=8,
                                       unique=True))
    else:
        fractions = [(GENERIC_X, GENERIC_Y_FRACTION),
                     (SECOND_X, SECOND_Y_FRACTION)][:1 if kind == "one" else 2]
    positions = [(fx * golden.lx, fy * golden.ly) for fx, fy in fractions]
    ev = make_evaluator(golden, big_table, positions, [0.3] * len(positions))
    first = data.draw(st.integers(100, 2_600))
    last = first + data.draw(st.integers(1, 40))
    return ev, float(ev.energies[first]), float(ev.energies[last])


def test_diagonal_entry_does_not_depend_on_other_scatterers(golden, generic_point, second_point,
                                                           big_table):
    # every series sums each weight column on its own, so adding a second
    # scatterer leaves the first one's diagonal entry unchanged, bit for bit,
    # in the direct sums and through a near/far view of the same block
    one = make_evaluator(golden, big_table, [generic_point], [0.3], n_max=30_000)
    two = make_evaluator(golden, big_table, [generic_point, second_point], [0.3, -0.4],
                         n_max=30_000)
    assert one.counterterm(0) == two.counterterm(0)
    assert one.deficiency_norm_sq(0) == two.deficiency_norm_sq(0)
    e = one.energies
    lo, hi = float(e[5_000]), float(e[5_040])
    view_one, view_two = one.local(lo, hi), two.local(lo, hi)
    assert isinstance(view_one, LocalGreens) and isinstance(view_two, LocalGreens)
    for (a, b), points in (((one, two), 50), ((view_one, view_two), 1_000)):
        omegas = np.linspace(lo, hi, points + 2)[1:-1]
        for w in omegas[:50]:
            assert ([g[..., 0, 0] for g in a.secular_orders(w, 0, 2)]
                    == [g[..., 0, 0] for g in b.secular_orders(w, 0, 2)])
        for x, y in zip(a.secular_orders(omegas, 0, 2), b.secular_orders(omegas, 0, 2)):
            assert np.array_equal(x[..., 0, 0], y[..., 0, 0])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_local_view_matches_direct_sums(golden, big_table, data):
    # oracle: the evaluator's own full-length sums; the view's far part may
    # differ by its stated bound, and both by rounding on the scale of the
    # series' terms, which next to a pole is the near term's size
    ev, lo, hi = _local_case(golden, big_table, data)
    view = ev.local(lo, hi)
    assert isinstance(view, LocalGreens)
    e = ev.energies
    poles = e[(e >= lo) & (e <= hi)]
    if data.draw(st.booleans()):
        omega = lo + data.draw(st.floats(0.0, 1.0)) * (hi - lo)
    else:
        pole = float(data.draw(st.sampled_from(list(poles))))
        side = data.draw(st.sampled_from([-1.0, 1.0]))
        side = 1.0 if pole == lo else -1.0 if pole == hi else side
        omega = pole + side * 4.0 * math.ulp(pole)
    omega = min(max(omega, lo), hi)
    assume(not np.any(omega == e))
    columns = range(len(ev._columns))
    kern = np.abs(1.0 / (omega - e))
    allowed = [[view.far_bound[k] + 1e3 * np.finfo(float).eps * math.factorial(k)
                * (np.abs(ev._columns[c]) @ kern ** (k + 1)) for c in columns] for k in range(4)]
    for k, (local, direct) in enumerate(zip(view._series(omega, 0, 4),
                                            ev._series(omega, 0, 4))):
        for c in columns:
            assert abs(local[c] - direct[c]) <= allowed[k][c]
    # the public forms add the same constant and tail terms to those sums
    for k, (local, direct) in enumerate(zip(view.secular_orders(omega, 0, 2),
                                            ev.secular_orders(omega, 0, 2))):
        assert abs(local[0, 0] - direct[0, 0]) <= 2.0 * allowed[k][ev._column[0, 0]]
