"""Root finding against scipy brackets, dense determinant scans, and limits."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from pointbilliard import ValidationError, greens
from pointbilliard.basis import BilliardSpec, mode_table_with_count
from pointbilliard.errors import PoleProximityError
from pointbilliard.solver import (
    EnergyWindow,
    PerturbedLevel,
    _block_series,
    _gaps,
    _hybrid_root,
    _pole_mask,
    _pole_probe,
    _solve_block,
    build_eigenfunction,
    solve_multi,
    solve_single,
    truncation_shift_bound,
)

from conftest import (
    GENERIC_X,
    GENERIC_Y_FRACTION,
    SECOND_X,
    SECOND_Y_FRACTION,
    make_evaluator,
)


def window_over_levels(evaluator, lo_level, hi_level):
    e = evaluator.energies
    return EnergyWindow(float(e[lo_level]), float(e[hi_level]))


def assert_interlaced(evaluator, levels, window):
    roots = np.array([lv.omega for lv in levels if lv.kind == "between-poles"])
    assert np.all(np.diff(roots) > 0.0)
    slots = np.searchsorted(evaluator.energies, roots)
    # strictly one root per unperturbed gap, none sharing a gap
    assert np.all(np.diff(slots) >= 1)
    for r, s in zip(roots, slots):
        assert evaluator.energies[s - 1] < r < evaluator.energies[s]


def test_single_scatterer_interlacing_and_residuals(ev1):
    window = window_over_levels(ev1, 200, 280)
    levels = solve_single(ev1, window)
    assert len(levels) == 80
    assert_interlaced(ev1, levels, window)
    for lv in levels:
        assert lv.residual <= 1e-8
        assert lv.bracket[0] < lv.omega < lv.bracket[1]


def test_roots_match_scipy_brentq(ev1):
    # oracle first: scipy brentq inside each gap, shrinking toward the
    # poles until the signs differ
    inv = ev1.scatterers.inv_couplings[0]

    def f(w):
        return ev1.diag(0, w) - inv

    oracle_roots = []
    for k in range(400, 410):
        a, b = float(ev1.energies[k]), float(ev1.energies[k + 1])
        d = 1e-3 * (b - a)
        while f(a + d) < 0.0 or f(b - d) > 0.0:
            d /= 32.0
        oracle_roots.append(optimize.brentq(f, a + d, b - d, xtol=1e-12))

    window = window_over_levels(ev1, 400, 410)
    levels = solve_single(ev1, window, tol=1e-11)
    assert len(levels) == len(oracle_roots)
    for lv, oracle in zip(levels, oracle_roots):
        assert lv.omega == pytest.approx(oracle, abs=1e-9)


def test_root_moves_monotonically_with_coupling(golden, generic_point, big_table):
    # diag decreases across the gap, so a larger inverse coupling pins the
    # root closer to the left pole
    roots = []
    for inv in (-3.0, 0.3, 5.0):
        ev = make_evaluator(golden, big_table, [generic_point], [inv])
        window = window_over_levels(ev, 300, 301)
        (level,) = solve_single(ev, window)
        roots.append(level.omega)
    assert roots[0] > roots[1] > roots[2]


def test_attractive_coupling_has_below_ground_root(golden, generic_point,
                                                   big_table):
    ev = make_evaluator(golden, big_table, [generic_point], [-0.5])
    ground = float(ev.energies[0])
    window = EnergyWindow(-50.0, float(ev.energies[5]))
    levels = solve_single(ev, window)
    below = [lv for lv in levels if lv.kind == "below-ground"]
    assert len(below) == 1
    assert below[0].omega < ground

    # a point interaction in two dimensions binds at every coupling: the
    # repulsive sign too has one state below the ground level, the zero of
    # diag - inv there
    ev_rep = make_evaluator(golden, big_table, [generic_point], [0.5])
    below_rep = [lv for lv in solve_single(ev_rep, window) if lv.kind == "below-ground"]
    near_ground = ground - 1e-6 * (float(ev_rep.energies[1]) - ground)
    oracle = optimize.brentq(lambda w: ev_rep.diag(0, w) - 0.5, -50.0, near_ground,
                             xtol=1e-12)
    assert len(below_rep) == 1
    assert below_rep[0].omega == pytest.approx(oracle, abs=1e-8)


def test_solve_multi_agrees_with_solve_single(ev1):
    window = window_over_levels(ev1, 350, 380)
    singles = solve_single(ev1, window, tol=1e-9)
    multis = solve_multi(ev1, window, tol=1e-9)
    assert len(singles) == len(multis)
    for a, b in zip(singles, multis):
        assert b.omega == pytest.approx(a.omega, abs=1e-8)


def test_solve_multi_matches_determinant_scan(ev2):
    # oracle first: dense determinant sign scan over a fine grid plus
    # bisection, written with no knowledge of the curve tracker
    window = window_over_levels(ev2, 300, 320)
    grid_STEP = ev2.mean_spacing / 40.0
    energies = ev2.energies
    oracle_roots = []
    k0 = int(np.searchsorted(energies, window.lo))
    for k in range(k0 - 1, len(energies) - 1):
        a, b = float(energies[k]), float(energies[k + 1])
        if a > window.hi:
            break
        margin = 1e-7 * (b - a)
        pts = np.linspace(a + margin, b - margin,
                          max(int((b - a) / grid_STEP), 8))
        signs = np.array([np.sign(np.linalg.det(ev2.secular_matrix(float(w))))
                          for w in pts])
        for j in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
            lo, hi = float(pts[j]), float(pts[j + 1])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.sign(np.linalg.det(ev2.secular_matrix(mid))) == signs[j]:
                    lo = mid
                else:
                    hi = mid
            root = 0.5 * (lo + hi)
            if window.contains(root):
                oracle_roots.append(root)

    levels = solve_multi(ev2, window, tol=1e-9)
    mine = np.array([lv.omega for lv in levels])
    assert mine.size == len(oracle_roots)
    assert np.max(np.abs(mine - np.array(oracle_roots))) < 1e-8


def test_solve_multi_decoupling_reduces_to_single(golden, generic_point,
                                                  second_point, big_table):
    window_levels = (300, 340)
    ev_single = make_evaluator(golden, big_table, [generic_point], [0.3])
    window = window_over_levels(ev_single, *window_levels)
    singles = solve_single(ev_single, window, tol=1e-9)

    for huge in (1e9, -1e9):
        ev_pair = make_evaluator(golden, big_table,
                                 [generic_point, second_point], [0.3, huge])
        multis = solve_multi(ev_pair, window, tol=1e-9)
        assert len(multis) == len(singles)
        for a, b in zip(singles, multis):
            assert b.omega == pytest.approx(a.omega, abs=1e-7)


def test_root_count_conservation(ev2):
    window = window_over_levels(ev2, 500, 540)
    levels = solve_multi(ev2, window, tol=1e-9)
    n_poles = int(np.sum((ev2.energies >= window.lo)
                         & (ev2.energies <= window.hi)))
    assert abs(len(levels) - n_poles) <= ev2.scatterers.n


def test_solve_single_roots_hugging_weak_poles(golden, big_table):
    # 3e-7 of lx off the nodal line x = 25/63 lx, the mx = 126 modes in
    # this window keep a weight of 4e-10 to 6e-9 of the mean, so their roots
    # sit inside the pole-exclusion band; the bracketed iteration must not
    # trip the pole check there
    pos = ((25.0 / 63.0 + 3e-7) * golden.lx, 0.6180339887498949 * golden.ly)
    ev = make_evaluator(golden, big_table, [pos], [0.3], n_max=100_000)
    window = window_over_levels(ev, 20_000, 20_040)
    levels = solve_single(ev, window)
    e = ev.energies
    assert len(levels) == 40
    for k, lv in enumerate(levels, start=20_000):
        assert e[k] < lv.omega < e[k + 1]


@pytest.mark.parametrize("inv", [-3.0, 0.3])
def test_solve_single_root_within_ulps_of_a_pole(golden, big_table, inv):
    # mode (90, 205), level 30 490 at 119 185.94, keeps 1.7e-11 of the mean
    # weight here: a root hugs its pole within 4 ulps on the left (-3.0) or
    # about 50 ulps on the right (0.3); no probe may land on the pole itself
    fx = 86.0 / 90.0 + math.asin(math.sqrt(2.5e-11)) / (90.0 * math.pi)
    pos = (fx * golden.lx, 0.6180339887498949 * golden.ly)
    ev = make_evaluator(golden, big_table, [pos], [inv], n_max=100_000)
    e = ev.energies
    assert (ev.table.mx[30_490], ev.table.my[30_490]) == (90, 205)
    with np.errstate(divide="raise"):
        levels = solve_single(ev, window_over_levels(ev, 30_485, 30_495))
    assert len(levels) == 10
    for k, lv in enumerate(levels, start=30_485):
        assert e[k] < lv.omega < e[k + 1]
        assert lv.residual <= 1e-9


def test_solve_multi_resolves_gap_narrower_than_grid_margin(
        golden, generic_point, second_point, big_table):
    # levels 4026 and 4027 lie 7e-4 mean spacings apart: the old grid put
    # its first point inside their pole-exclusion bands and raised
    ev = make_evaluator(golden, big_table, [generic_point, second_point],
                        [0.3, -0.4], n_max=30_000)
    e = ev.energies
    assert e[4027] - e[4026] < 1e-3 * ev.mean_spacing
    levels = solve_multi(ev, window_over_levels(ev, 4024, 4048))
    roots = np.array([lv.omega for lv in levels])

    def negative_count(w):
        return int(np.sum(np.linalg.eigvalsh(ev.secular_matrix(float(w))) < 0.0))

    # oracle: inside each gap the negative-eigenvalue count rises once per root
    eps = 3.0 * ev.pole_exclusion
    found = 0
    for a, b in zip(e[4024:4048], e[4025:4049]):
        inside = int(np.sum((roots > a) & (roots < b)))
        assert inside == negative_count(b - eps) - negative_count(a + eps)
        found += inside
    assert found == roots.size


def test_solve_multi_counts_roots_next_to_strong_poles(golden, big_table):
    # four scatterers drawn by the benchmark (multi-30k, seed 49, config 2,
    # window 1): an off-diagonal profile of 0.9999999999995842 deep in the
    # table put a spurious root 5e-9 above a strong pole.  Oracle: the
    # negative count of secular matrices summed here, from the sines, with
    # every mode term exactly rank one
    positions = [(0.7891527562460194, 0.618558348058572),
                 (0.5650014302250267, 0.3972540587042524),
                 (0.7177720379230803, 1.465590411898022),
                 (0.07343224062697558, 0.8516807412261415)]
    inv = [-0.4226875162315933, 0.9273379433369453, 1.1521208141708896, 0.47417287489132454]
    n_max = 30_000
    ev = make_evaluator(golden, big_table, positions, inv, n_max=n_max)
    window = window_over_levels(ev, 4_008, 4_016)
    roots = np.array([lv.omega for lv in solve_multi(ev, window)])

    e = big_table.energies[:n_max]
    mx, my = big_table.mx[:n_max, None], big_table.my[:n_max, None]
    x, y = np.array(positions).T
    phi = (2.0 / math.sqrt(golden.area)) * (np.sin(np.pi * mx * x / golden.lx)
                                            * np.sin(np.pi * my * y / golden.ly))
    cover = np.minimum(1.0, (e[-1] - e) / (3.0 * golden.mean_spacing))
    scale = golden.mass / (2.0 * math.pi)
    constant = (phi ** 2 * (e / (e * e + 1.0))[:, None]).sum(axis=0) - inv

    def negative_count(w):
        kern = 1.0 / (w - e)
        m = (phi * (kern * cover)[:, None]).T @ phi
        tail = scale * math.log((e[-1] - w) / math.sqrt(e[-1] ** 2 + 1.0))
        m[np.diag_indices(4)] = (phi ** 2 * kern[:, None]).sum(axis=0) + constant + tail
        return int(np.sum(np.linalg.eigvalsh(m) < 0.0))

    placed = 0
    for a, b in zip(e[4_008:4_016], e[4_009:4_017]):
        inside = int(np.sum((roots > a) & (roots < b)))
        eps = 1e-8 * (b - a)
        assert inside == negative_count(b - eps) - negative_count(a + eps)
        placed += inside
    assert placed == roots.size


@pytest.fixture(scope="module")
def square_table():
    spec = BilliardSpec(1.0, 1.0)
    return mode_table_with_count(spec, 3_000)


_UNIT = st.floats(0.05, 0.95)


@settings(max_examples=20, deadline=None)
@given(square=st.booleans(), c4_orbit=st.booleans(),
       fractions=st.lists(st.tuples(_UNIT, _UNIT), min_size=2, max_size=5, unique=True),
       inv=st.lists(st.floats(-1.0, 2.0), min_size=5, max_size=5),
       start=st.integers(20, 2400), span=st.integers(10, 30))
# both scatterers on x = lx/2: mode (3, 6) keeps 6e-7 of the mean weight at
# one of them, and its root hugs the pole at 112.27 closer than 1e-6 gap widths
@example(square=False, c4_orbit=False, fractions=[(0.5, 0.5), (0.5, 0.8333749456967101)],
         inv=[0.0] * 5, start=20, span=10)
# a curve flat at one end of its gap and plunging into the pole at the
# other, where a secant alone creeps
@example(square=False, c4_orbit=False,
         fractions=[(0.873046875, 0.3008078578342021), (0.875, 0.873046875)],
         inv=[0.3125] + [0.0] * 4, start=20, span=10)
# an eigenvalue that stays finite at the pole 730.35 crosses zero 5e-6 below it
@example(square=True, c4_orbit=False,
         fractions=[(0.7379038909555893, 0.42595153197415986),
                    (0.4111983700488618, 0.8900398176739504),
                    (0.14213324638727026, 0.5), (0.3333333333333333, 0.05)],
         inv=[-1.0, 0.03355020496885186, -0.49850510258237246, 0.0, 0.0], start=74, span=30)
# C4 orbit on the unit square: the iteration for the root at 888.264 stops
# on its bracket while |f/f'| is still above tol
@example(square=True, c4_orbit=True, fractions=[(0.8359375, 0.66796875), (0.5, 0.5)],
         inv=[0.0] * 5, start=97, span=30)
def test_solve_multi_counts_roots_through_degeneracies(big_table, square_table, square,
                                                       c4_orbit, fractions, inv, start,
                                                       span):
    # the unit square has exactly degenerate poles; the C4 orbit of one
    # scatterer about its centre, at one coupling, adds exactly coincident
    # perturbed levels
    table = square_table if square else big_table
    inv = inv[:len(fractions)]
    if square and c4_orbit:
        x, y = fractions[0]
        fractions = [(x, y), (1.0 - y, x), (1.0 - x, 1.0 - y), (y, 1.0 - x)]
        inv = [inv[0]] * 4
    spec = table.spec
    positions = [(fx * spec.lx, fy * spec.ly) for fx, fy in fractions]
    assume(len(set(positions)) == len(positions))
    ev = make_evaluator(spec, table, positions, inv)
    window = window_over_levels(ev, start, start + span)
    tol = 1e-9
    levels = solve_multi(ev, window, tol=tol)
    assert all(lv.residual <= tol for lv in levels)
    roots = np.array([lv.omega for lv in levels])

    def negative_count(w):
        m = ev.secular_orders(float(w))[0] - np.diag(ev.scatterers.inv_couplings)
        return int(np.sum(np.linalg.eigvalsh(m) < 0.0))

    placed = 0
    for a, b in _gaps(ev, ev.energies[_pole_mask(ev)], window):
        inside = np.sort(roots[(roots > a) & (roots < b)])
        placed += inside.size

        def between(lo, hi):
            return int(np.sum((inside > lo) & (inside < hi)))

        if window.lo <= a and b <= window.hi:
            # the count sees the roots between its two probes, give or take
            # the roots within 10 tol of a probe
            eps, slack = 1e-8 * (b - a), 10.0 * tol
            rise = negative_count(b - eps) - negative_count(a + eps)
            assert between(a + eps + slack, b - eps - slack) <= rise
            assert rise <= between(a + eps - slack, b - eps + slack)
        # each cluster of coincident roots flips the count by its size, seen
        # 10 tol away or a quarter of the way to the next root or pole; a
        # root within a few tol of a pole is placed only to within tol, so
        # probes closer than 2 tol cannot check it
        clusters = np.split(inside, np.flatnonzero(np.diff(inside) > 20.0 * tol) + 1)
        for k, cluster in enumerate(clusters if inside.size else []):
            left = clusters[k - 1][-1] if k else a
            right = clusters[k + 1][0] if k + 1 < len(clusters) else b
            step = min(10.0 * tol, 0.25 * (cluster[0] - left), 0.25 * (right - cluster[-1]))
            if step >= 2.0 * tol:
                rise = negative_count(cluster[-1] + step) - negative_count(cluster[0] - step)
                assert rise == cluster.size
    assert placed == roots.size


@settings(max_examples=20, deadline=None)
@given(fractions=st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=4, unique=True),
       inv=st.lists(st.floats(-1.0, 3.0), min_size=4, max_size=4),
       lo=st.sampled_from([-1e12, -1e6, -1e3, -50.0, 0.0, 5.0]))
@example(fractions=[(GENERIC_X, GENERIC_Y_FRACTION), (SECOND_X, SECOND_Y_FRACTION)],
         inv=[0.3, 0.5, 0.0, 0.0], lo=-50.0)
@example(fractions=[(GENERIC_X, GENERIC_Y_FRACTION), (SECOND_X, SECOND_Y_FRACTION)],
         inv=[-0.5, 0.3, 0.0, 0.0], lo=-50.0)
# the strongest bound state sits near -2.95e8, where 4 ulps exceed tol
@example(fractions=[(GENERIC_X, GENERIC_Y_FRACTION), (SECOND_X, SECOND_Y_FRACTION)],
         inv=[3.0, 2.0, 0.0, 0.0], lo=-1e12)
def test_below_ground_roots_match_dense_count(golden, big_table, fractions, inv, lo):
    # oracle: the dense negative-eigenvalue count rises once per root
    # between the window edge and a probe next to the ground level
    positions = [(fx * golden.lx, fy * golden.ly) for fx, fy in fractions]
    ev = make_evaluator(golden, big_table, positions, inv[:len(positions)])
    e = ev.energies
    first_pole = float(e[0])
    window = EnergyWindow(lo, float(e[5]))
    tol = 1e-9
    below = [lv for lv in solve_multi(ev, window, tol=tol) if lv.kind == "below-ground"]

    def negative_count(w):
        return int(np.sum(np.linalg.eigvalsh(ev.secular_matrix(float(w))) < 0.0))

    probe = first_pole - 1e-8 * (float(e[1]) - first_pole)
    assert len(below) == negative_count(probe) - negative_count(lo)
    for lv in below:
        assert lo < lv.omega < first_pole
        assert lv.bracket == (lo, first_pole)
        assert lv.residual <= max(tol, 4.0 * math.ulp(lv.omega))


def test_eigenfunction_normalized_and_zero_on_boundary(ev1_30k):
    window = window_over_levels(ev1_30k, 250, 252)
    levels = solve_single(ev1_30k, window)
    rep = build_eigenfunction(ev1_30k, levels[0])
    total = float(np.sum(rep.coefficients ** 2)) + rep.tail_weight
    assert total == pytest.approx(1.0, abs=1e-12)
    assert rep.tail_weight < 1e-4
    spec = ev1_30k.billiard
    boundary = [(0.0, 0.5), (spec.lx, 1.0), (0.3, 0.0), (0.9, spec.ly)]
    for point in boundary:
        assert abs(rep.evaluate(ev1_30k, point)) < 1e-9


def test_eigenfunction_evaluates_arrays_of_points(ev1_30k):
    # points of shape (..., 2) give values of shape points.shape[:-1], each
    # the value the point has alone
    levels = solve_single(ev1_30k, window_over_levels(ev1_30k, 250, 252))
    rep = build_eigenfunction(ev1_30k, levels[0])
    spec = ev1_30k.billiard
    rng = np.random.default_rng(7)
    for shape in ((2, 2), (3, 2), (2, 3, 2), (0, 2)):
        points = rng.uniform(0.0, 1.0, shape) * (spec.lx, spec.ly)
        values = rep.evaluate(ev1_30k, points)
        assert values.shape == shape[:-1]
        alone = [rep.evaluate(ev1_30k, p) for p in points.reshape(-1, 2)]
        assert np.array_equal(values.ravel(), np.array(alone, dtype=float))
    assert np.shape(rep.evaluate(ev1_30k, (0.3, 0.7))) == ()
    with pytest.raises(ValidationError):
        rep.evaluate(ev1_30k, [0.3, 0.7, 0.1])


def test_eigenfunction_rejects_near_pole_level(ev1):
    pole = float(ev1.energies[100])
    fake = solve_single(ev1, window_over_levels(ev1, 100, 101))[0]
    shifted = type(fake)(omega=pole + 0.1 * ev1.pole_exclusion,
                         bracket=fake.bracket, kind=fake.kind,
                         residual=fake.residual)
    with pytest.raises(PoleProximityError):
        build_eigenfunction(ev1, shifted)


def test_eigenfunction_and_diag_name_the_same_pole(ev1):
    # both report the 1-based rank of the pole whose band holds omega
    pole = float(ev1.energies[100])
    omega = pole - 0.5 * ev1.pole_exclusion
    level = PerturbedLevel(omega, (float(ev1.energies[99]), pole), "between-poles", 0.0)
    with pytest.raises(PoleProximityError) as from_diag:
        ev1.diag(0, omega)
    with pytest.raises(PoleProximityError) as from_eigenfunction:
        build_eigenfunction(ev1, level)
    assert from_eigenfunction.value.pole_index == from_diag.value.pole_index == 101


@pytest.mark.parametrize("n_max, first, span", [(30_000, 199, 1001), (100_000, 50_000, 40)])
def test_block_roots_match_one_gap_windows(golden, generic_point, big_table, n_max, first,
                                           span):
    # the whole window runs through the near/far views of 40-gap blocks; a
    # one-gap window has too few roots to repay a view and keeps the direct sums
    ev = make_evaluator(golden, big_table, [generic_point], [0.3], n_max=n_max)
    window = window_over_levels(ev, first, first + span)
    blocked = np.array([lv.omega for lv in solve_single(ev, window)])
    gaps = list(_gaps(ev, ev.energies[_pole_mask(ev)], window))
    assert blocked.size == len(gaps) == span
    direct = np.array([lv.omega for a, b in gaps for lv in solve_single(ev, EnergyWindow(a, b))])
    assert np.max(np.abs(blocked - direct)) <= 1e-10


NODAL = (0.5 + 3e-7, GENERIC_Y_FRACTION)


@pytest.mark.parametrize("first, others, start", [
    ((GENERIC_X, GENERIC_Y_FRACTION), [], 1_500),
    ((GENERIC_X, GENERIC_Y_FRACTION), [(SECOND_X, SECOND_Y_FRACTION)], 1_500),
    (NODAL, [], 2_400),
    (NODAL, [(SECOND_X, SECOND_Y_FRACTION)], 2_400),
])
def test_block_roots_do_not_depend_on_batch(golden, big_table, first, others, start):
    # a 40-gap block solved at once through one near/far view against each of
    # its gaps solved alone, as a batch of one, through the same view.  3e-7
    # off the nodal line x = 1/2 every even-mx mode keeps a tiny weight, so
    # the probes next to those poles shrink toward them; at N = 2 a few steps
    # also fall back to bisection
    positions = [(fx * golden.lx, fy * golden.ly) for fx, fy in [first] + others]
    ev = make_evaluator(golden, big_table, positions, [0.3] * len(positions))
    poles = ev.energies[_pole_mask(ev)]
    window = EnergyWindow(float(poles[start]), float(poles[start + 40]))
    block = [(a, b, "between-poles") for a, b in _gaps(ev, poles, window)]
    series = _block_series(ev, block[0][0], block[-1][1], len(block))
    assert len(block) == 40 and isinstance(series, greens.LocalGreens)
    together = _solve_block(ev, series, block, 1e-9)
    alone = [lv for gap in block for lv in _solve_block(ev, series, [gap], 1e-9)]
    assert together
    assert [(lv.omega, lv.residual) for lv in together] == [(lv.omega, lv.residual)
                                                          for lv in alone]
    # the block's pole ends, probed as _solve_block probes them: alone, the
    # nodal scatterer's probes shrink toward weak poles; beside a second
    # scatterer none shrinks, but the count at the pole decides some ends
    a, b = np.array([gap[:2] for gap in block]).T
    ends, signs = np.concatenate([a, b]), np.repeat([1.0, -1.0], a.size)
    offsets = np.tile(np.minimum(ev.pole_exclusion, 1e-3 * (b - a)), 2)
    x, vals, _ = _pole_probe(ev, series, ends, offsets, signs)
    shrunk = np.abs(x - ends) < offsets
    counted = np.count_nonzero(vals < 0.0, axis=1) != np.where(signs > 0.0, 0, ev.n)
    assert first != NODAL or (counted.any() if others else shrunk.any())


class _LinearSeries:
    """A stand-in series: M(x) = A_k + (x - pole_k) B_k next to pole k."""

    def __init__(self, poles, a, b):
        self.n, self.poles, self.a, self.b = a.shape[-1], poles, a, b

    def secular_orders(self, x, first=0, count=1):
        k = np.abs(x[:, None] - self.poles).argmin(axis=1)
        orders = [self.a[k] + (x - self.poles[k])[:, None, None] * self.b[k], self.b[k]]
        return orders[first:first + count]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1),
       ends=st.lists(st.tuples(st.lists(st.sampled_from(["random", "zero", "scaled"]),
                                        min_size=1, max_size=3), st.booleans()),
                     min_size=1, max_size=4), start=st.floats(1e-6, 3.0))
def test_pole_count_matches_compression_oracle(n, seed, ends, start):
    # every end of one batched _pole_probe call against its own count at the
    # pole: neg(q^T R q), q the complement of the span of the pole's weight
    # rows from their SVD, R = M + (pole - x) M', plus the rank on a left end.
    # Weight rows may be zero or multiples of an earlier row, so ranks differ
    # between the ends; a mode of another energy follows each pole
    rng = np.random.default_rng(seed)
    floor = 1e-20
    poles = 100.0 + 10.0 * np.arange(len(ends))
    energies, phi, pole_rows = [], [], []
    for pole, (kinds, _) in zip(poles, ends):
        rows = []
        for kind in kinds:
            if kind == "zero":
                rows.append(np.zeros(n))
            elif kind == "scaled" and rows:
                rows.append(rng.uniform(-2.0, 2.0) * rows[0])
            else:
                rows.append(rng.normal(size=n))
        pole_rows.append(np.array(rows))
        energies += [pole] * len(rows) + [pole + 5.0]
        phi += rows + [rng.normal(size=n)]
    a, b = rng.normal(size=(2, len(ends), n, n))
    inv = rng.normal(size=n)  # the solver subtracts the couplings from the series' G
    evaluator = SimpleNamespace(n=n, energies=np.array(energies), phi_values=np.array(phi),
                                pole_weight_floor=floor,
                                scatterers=SimpleNamespace(inv_couplings=tuple(inv)))
    series = _LinearSeries(poles, a + a.mT, b + b.mT)
    signs = np.array([-1.0 if left else 1.0 for _, left in ends])
    x, vals, missing = _pole_probe(evaluator, series, poles, np.full(len(ends), start), signs)
    g, m_slope = series.secular_orders(x, 0, 2)
    m = g - np.diag(inv)
    for k, sign in enumerate(signs):
        count = int(np.count_nonzero(vals[k] < 0.0))
        if count == (0 if sign > 0.0 else n):
            assert missing[k] == 0
            continue
        _, sv, vt = np.linalg.svd(pole_rows[k])
        assume(not np.any((floor / 100.0 < sv ** 2) & (sv ** 2 < 100.0 * floor)))
        rank = int(np.sum(sv ** 2 > floor))
        q = vt[rank:].T
        regular = np.linalg.eigvalsh(q.T @ (m[k] + (poles[k] - x[k]) * m_slope[k]) @ q)
        assume(np.all(np.abs(regular) > 1e-9))
        at_pole = int(np.sum(regular < 0.0)) + (rank if sign < 0.0 else 0)
        assert missing[k] == sign * (count - at_pole)


def test_pole_probe_count_costs_two_series_passes(golden, big_table):
    # 8 scatterers: most pole ends of a 40-gap block have a negative count
    # off its extreme, and all are counted at the pole together, with one M
    # pass for the first probes and one M' pass, whatever their number
    rng = np.random.default_rng(3)
    positions = [(fx * golden.lx, fy * golden.ly) for fx, fy in rng.uniform(0.05, 0.95, (8, 2))]
    ev = make_evaluator(golden, big_table, positions, rng.uniform(-0.5, 1.5, 8))
    poles = ev.energies[_pole_mask(ev)]
    block = list(_gaps(ev, poles, EnergyWindow(float(poles[1_500]), float(poles[1_540]))))
    series = _block_series(ev, block[0][0], block[-1][1], len(block))
    assert len(block) == 40 and isinstance(series, greens.LocalGreens)
    calls = []
    orders = series.secular_orders
    series.secular_orders = lambda *args: calls.append(args) or orders(*args)
    a, b = np.array(block).T
    ends, signs = np.concatenate([a, b]), np.repeat([1.0, -1.0], a.size)
    offsets = np.tile(np.minimum(ev.pole_exclusion, 1e-3 * (b - a)), 2)
    x, vals, missing = _pole_probe(ev, series, ends, offsets, signs)
    counted = np.count_nonzero(vals < 0.0, axis=1) != np.where(signs > 0.0, 0, 8)
    assert counted.sum() >= 40
    assert np.all(x == ends + signs * np.maximum(offsets, 4.0 * np.spacing(ends)))  # no shrink
    assert not missing.any()
    assert len(calls) == 2


def test_wide_nodal_block_keeps_its_near_far_view(golden, big_table):
    # the README configuration moved onto the nodal line x = 1/2: every
    # even-mx mode has no weight, so the first 40-gap block of the README
    # window spans [689.47, 1021.22], about 85 mean spacings, and its far
    # part's error bound must still fit within 1% of diag_error
    ev = make_evaluator(golden, big_table, [(0.5, 0.5922415440691261)], [0.3],
                        n_max=30_000)
    poles = ev.energies[_pole_mask(ev)]
    block = list(_gaps(ev, poles, EnergyWindow(700.0, 1200.0)))[:40]
    lo, hi = block[0][0], block[-1][1]
    assert (round(lo, 2), round(hi, 2)) == (689.47, 1021.22)
    view = _block_series(ev, lo, hi, len(block))
    assert isinstance(view, greens.LocalGreens)
    assert max(view.far_bound) <= greens.LOCAL_ERROR_SHARE * ev.diag_error(0, 0.5 * (lo + hi))


def test_truncation_shift_bound_is_positive_and_small(ev1_30k):
    window = window_over_levels(ev1_30k, 300, 301)
    (level,) = solve_single(ev1_30k, window)
    bound = truncation_shift_bound(ev1_30k, 0, level.omega)
    assert 0.0 < bound < 1e-4 * ev1_30k.mean_spacing


def test_window_and_argument_validation(ev1):
    with pytest.raises(ValidationError):
        EnergyWindow(5.0, 5.0)
    with pytest.raises(ValidationError):
        EnergyWindow(math.nan, 10.0)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            solve_single(ev1, window_over_levels(ev1, 100, 120), tol=tol)
    # windows reaching into the truncation-dominated top of the table
    with pytest.raises(ValidationError):
        solve_single(ev1, EnergyWindow(100.0, 0.99 * ev1.cutoff_energy))


def test_solve_single_rejects_multi_scatterer(ev2):
    with pytest.raises(ValidationError):
        solve_single(ev2, window_over_levels(ev2, 100, 105))


@settings(max_examples=12, deadline=None)
@given(start=st.integers(50, 2600), span=st.integers(3, 12))
def test_interlacing_property_random_windows(ev1, start, span):
    window = window_over_levels(ev1, start, start + span)
    levels = solve_single(ev1, window)
    assert len(levels) == span
    assert_interlaced(ev1, levels, window)


# ------------------------------------------------------ rational step ---


@settings(max_examples=200, deadline=None)
@given(models=st.lists(st.tuples(st.floats(-1e3, 1e4), st.floats(0.1, 100.0),
                                 st.floats(-100.0, 100.0), st.floats(1e-3, 100.0),
                                 st.floats(1e-3, 100.0)), min_size=1, max_size=8),
       one_pole=st.booleans())
def test_hybrid_root_solves_its_own_model_within_two_evaluations(models, one_pole):
    # f = C + S_a/(x - a) + S_b/(x - b) is the step's model: the first
    # evaluation gives value and slope, and the fit through them and one
    # end value is exact; below ground (no left pole) S_a = 0.  Each model
    # of a batch converges on its own, as it does in a batch of one.
    a, width, c, r_a, r_b = (np.array(col) for col in zip(*models))
    b = a + width
    s_a, s_b = (0.0 * r_a if one_pole else r_a * width), r_b * width

    def f(x, k):
        pole_a = s_a[k] / (x - a[k]) if not one_pole else 0.0
        return c[k] + pole_a + s_b[k] / (x - b[k])

    lo, hi = (a if one_pole else a + 1e-6 * width), b - 1e-6 * width
    every = np.arange(len(models))
    keep = (f(lo, every) > 1e-6) & (f(hi, every) < -1e-6)
    assume(keep.any())
    a, b, c, s_a, s_b, lo, hi = (v[keep] for v in (a, b, c, s_a, s_b, lo, hi))
    tol = 1e-9

    def solve(k):
        calls = []

        def f_and_slope(x, active):
            calls.extend(k[active].tolist())
            pole_a = s_a[k][active] / (x - a[k][active]) ** 2 if not one_pole else 0.0
            return f(x, k[active]), -pole_a - s_b[k][active] / (x - b[k][active]) ** 2

        root, resid = _hybrid_root(f_and_slope, None if one_pole else a[k], b[k],
                                   lo[k], f(lo[k], k), hi[k], f(hi[k], k), tol)
        return root, resid, calls

    batch = np.arange(a.size)
    roots, resids, calls = solve(batch)
    for k in batch:
        assert calls.count(k) <= 2
        alone_root, alone_resid, _ = solve(np.array([k]))
        assert (alone_root[0], alone_resid[0]) == (roots[k], resids[k])
    assert np.all((lo < roots) & (roots < hi))
    assert np.all(resids <= tol)


def test_single_scatterer_levels_cost_few_series_sums(golden, generic_point, big_table,
                                                      monkeypatch):
    # the two end probes of a gap sum G, each step sums value and slope
    # together (a fused call, two orders), whether through the evaluator or
    # a near/far view; the checked entry points go through secular_orders
    # too.  A call evaluates an array of points at once, so each counts its
    # points, by the number of orders it returns.
    counts = {1: 0, 2: 0}
    method = greens._SeriesForms.secular_orders

    def counted(self, omega, *args, **kwargs):
        result = method(self, omega, *args, **kwargs)
        counts[len(result)] += np.size(omega)
        return result

    monkeypatch.setattr(greens._SeriesForms, "secular_orders", counted)
    # and the series terms summed, in units of one pass over all the modes
    terms = []
    kernel = greens._sums

    def summed(omega, energies, *args, **kwargs):
        terms.append(np.size(omega) * energies.size)
        return kernel(omega, energies, *args, **kwargs)

    monkeypatch.setattr(greens, "_sums", summed)
    ev = make_evaluator(golden, big_table, [generic_point], [0.3], n_max=100_000)
    levels = solve_single(ev, window_over_levels(ev, 30_000, 30_120))
    assert len(levels) == 120
    assert len(levels) <= counts[2] <= 6.0 * len(levels)
    assert sum(counts.values()) / len(levels) <= 8.0
    assert sum(terms) / ev.n_eff / len(levels) <= 1.0


def independent_secular_sum(spec, table, point, inv, n_max):
    """diag - inv at one scatterer, summed from the sines, in its own order."""
    mx, my = table.mx[:n_max].astype(float), table.my[:n_max].astype(float)
    e = table.energies[:n_max]
    phi_sq = (4.0 / spec.area) * (np.sin(np.pi * mx * point[0] / spec.lx)
                                  * np.sin(np.pi * my * point[1] / spec.ly)) ** 2
    constant = math.fsum(phi_sq * e / (e * e + 1.0)) - inv
    e_cut = float(e[-1])
    scale = spec.mass / (2.0 * math.pi)

    def f(w):
        tail = scale * math.log((e_cut - w) / math.sqrt(e_cut ** 2 + 1.0))
        return math.fsum(phi_sq / (w - e)) + constant + tail

    return f


@settings(max_examples=25, deadline=None)
@given(q=st.integers(2, 12), p=st.integers(1, 11), log_eps=st.floats(-9.0, -4.0),
       above=st.booleans(), on_x=st.booleans(), inv=st.floats(-1.0, 2.0),
       start=st.integers(50, 2400), span=st.integers(3, 10),
       edge_lo=st.floats(-1e-9, 1e-9), edge_hi=st.floats(-1e-9, 1e-9))
@example(q=7, p=3, log_eps=-9.0, above=True, on_x=True, inv=0.3, start=700, span=10,
         edge_lo=1e-9, edge_hi=-1e-9)
@example(q=2, p=1, log_eps=-7.0, above=False, on_x=True, inv=0.0, start=58, span=10,
         edge_lo=0.0, edge_hi=0.0)
def test_single_roots_match_brentq_near_nodal_lines(golden, big_table, q, p, log_eps,
                                                   above, on_x, inv, start, span,
                                                   edge_lo, edge_hi):
    # a scatterer eps off the nodal line p/q of one side leaves every mode
    # with a multiple of q on that side a tiny weight, so its roots hug
    # their poles; window edges sit within 1e-9 spacings of a pole
    assume(p < q and math.gcd(p, q) == 1)
    frac = p / q + (10.0 ** log_eps if above else -(10.0 ** log_eps))
    fx, fy = (frac, GENERIC_Y_FRACTION) if on_x else (GENERIC_X, frac)
    point = (fx * golden.lx, fy * golden.ly)
    n_max = 3_000
    ev = make_evaluator(golden, big_table, [point], [inv], n_max=n_max)
    e = ev.energies
    spacing = ev.mean_spacing
    window = EnergyWindow(float(e[start]) + edge_lo * spacing,
                          float(e[start + span]) + edge_hi * spacing)
    tol = 1e-9
    roots = np.array([lv.omega for lv in solve_single(ev, window, tol=tol)])

    # oracle: brentq inside each gap on the independent sum, shrinking toward
    # the poles until the signs differ; the last try is 4 ulps from both
    # poles, so a shrink step cannot jump past a root that hugs a pole, and
    # a root closer to its pole than that is the pole itself
    f = independent_secular_sum(golden, big_table, point, inv, n_max)
    oracle = []
    for k in range(start - 1, start + span + 1):
        a, b = float(e[k]), float(e[k + 1])
        d = 1e-3 * (b - a)
        floor = 4.0 * math.ulp(b)
        while d > floor and (f(a + d) <= 0.0 or f(b - d) >= 0.0):
            d = max(d / 32.0, floor)
        if f(a + d) > 0.0 > f(b - d):
            oracle.append(optimize.brentq(f, a + d, b - d, xtol=1e-13))
        else:
            oracle.append(a if f(a + floor) <= 0.0 else b)
    oracle = np.array(oracle)

    slack = 10.0 * tol
    assert np.all((roots >= window.lo) & (roots <= window.hi))
    for r in roots:
        assert np.min(np.abs(oracle - r)) <= slack
    for r in oracle[(oracle > window.lo + slack) & (oracle < window.hi - slack)]:
        assert np.min(np.abs(roots - r)) <= slack
