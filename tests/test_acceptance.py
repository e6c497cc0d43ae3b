"""End-to-end checks of the advertised guarantees at production accuracy.

Each test prints one numbered verdict line (shown under ``pytest -rA``)
before asserting, so a failing run still reports every measured number.
These are the slow tests of the suite; all of them share the session
mode table, and none of them stubs or shortcuts the code under test.
"""

import cmath
import math

import numpy as np
import pytest

from pointbilliard.extension import (
    ExtensionAngle,
    conjugate_samples,
    hermitian_conjugation_defect,
    inv_coupling_from_angle,
    u_phase,
)
from pointbilliard.rankone import _absorptions, _decompose_arrays, reduce_full_batch
from pointbilliard.solver import EnergyWindow, solve_multi, solve_single
from pointbilliard.stats import (
    gbar_inflection_survey,
    ks_distance,
    predict_strong_coupling,
    unfold,
)

from conftest import gap_midpoint, make_evaluator

ROOT_TOL = 1e-9


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[{num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------- 1 ---


def test_roots_stay_pinned_inside_unperturbed_gaps(ev1_30k):
    e = ev1_30k.energies
    window = EnergyWindow(float(e[199]), float(e[1200]))
    roots = np.array([lvl.omega for lvl in solve_single(ev1_30k, window,
                                                        tol=ROOT_TOL)])
    slots = np.searchsorted(e, roots)
    ok = (
        roots.size == 1001
        and np.array_equal(slots, np.arange(200, 1201))
        and bool(np.all(e[slots - 1] < roots))
        and bool(np.all(roots < e[slots]))
    )
    assert verdict(
        1, ok,
        f"{roots.size} perturbed levels across levels 200..1200, each "
        f"strictly inside its own unperturbed gap, none skipped or doubled",
    )


# ------------------------------------------------------------- 2, 3 ---


@pytest.fixture(scope="module")
def high_gap_survey(ev1_30k):
    e = ev1_30k.energies
    window = EnergyWindow(float(e[700]), float(e[850]))
    return gbar_inflection_survey(ev1_30k, window, min_gaps=50)


def test_resolvent_tracks_log_law_at_inflection_points(high_gap_survey,
                                                       golden):
    med = float(np.median(high_gap_survey.log_offsets()))
    band = math.pi * golden.mass / 8.0
    ok = len(high_gap_survey) >= 50 and abs(med) <= band
    assert verdict(
        2, ok,
        f"median resolvent offset from the log law {med:+.4f} over "
        f"{len(high_gap_survey)} gaps, allowed half-band {band:.4f}",
    )


def test_inflection_slope_matches_width_estimate(high_gap_survey, golden):
    med = float(np.median(high_gap_survey.slope_spacings()))
    target = 0.5 * math.pi * golden.mass
    ratio = med / target
    ok = 0.7 <= ratio <= 1.3
    assert verdict(
        3, ok,
        f"median |slope| per mean spacing {med:.4f} is {ratio:.4f} times "
        f"the width estimate pi*M/2, allowed ratio 0.7..1.3",
    )


# ---------------------------------------------------------------- 4 ---


def test_band_centre_coupling_shifts_spacings_toward_goe(golden,
                                                         generic_point,
                                                         big_table):
    def semi(s):
        # in-between reference, reported for context only
        return 1.0 - (1.0 + 2.0 * s) * np.exp(-2.0 * s)

    def spacing_stats(inv):
        ev = make_evaluator(golden, big_table, [generic_point], [inv],
                            n_max=30_000)
        e = ev.energies
        window = EnergyWindow(float(e[200]), float(e[1452]))
        roots = np.array([lvl.omega for lvl in solve_single(ev, window,
                                                            tol=ROOT_TOL)])
        sp = unfold(roots, golden).spacings()
        return (sp, ks_distance(sp, "poisson"), ks_distance(sp, "goe"),
                ks_distance(sp, semi))

    e = big_table.energies[:30_000]
    omega_c = 0.5 * (float(e[200]) + float(e[1452]))
    inv_star = golden.mass / (2.0 * math.pi) * math.log(omega_c)
    detune = 3.0 * (0.5 * math.pi * golden.mass)

    from pointbilliard.greens import ScattererSet

    centred = ScattererSet((generic_point,), (inv_star,))
    shifted = ScattererSet((generic_point,), (inv_star + detune,))
    assert predict_strong_coupling(centred, golden, omega_c).in_strong_band[0]
    assert not predict_strong_coupling(shifted, golden, omega_c).in_strong_band[0]

    sp_c, pois_c, goe_c, semi_c = spacing_stats(inv_star)
    sp_d, pois_d, goe_d, semi_d = spacing_stats(inv_star + detune)
    ok_centre = goe_c < pois_c
    ok_detuned = pois_d < goe_d
    ok = sp_c.size >= 1000 and sp_d.size >= 1000 and ok_centre and ok_detuned
    assert verdict(
        4, ok,
        f"{sp_c.size} spacings; at the band centre KS(goe) {goe_c:.4f} vs "
        f"KS(poisson) {pois_c:.4f} [KS(semi) {semi_c:.4f}] -> "
        f"{'goe' if ok_centre else 'poisson'}-closer; detuned by 3*pi*M/2 "
        f"KS(poisson) {pois_d:.4f} vs KS(goe) {goe_d:.4f} "
        f"[KS(semi) {semi_d:.4f}] -> "
        f"{'poisson' if ok_detuned else 'goe'}-closer",
    )


# ---------------------------------------------------------------- 5 ---


def test_extension_phase_free_of_cutoff_scale(golden, generic_point,
                                              big_table):
    theta = 2.4
    target = -cmath.exp(1j * theta)
    scales = (0.5, 1.0, 5.0, 20.0)
    phases = []
    bounds = []
    herm = []
    for lam in scales:
        probe = make_evaluator(golden, big_table, [generic_point], [0.0],
                               n_max=30_000, lambda_scale=lam)
        inv = inv_coupling_from_angle(probe, ExtensionAngle(theta), 0)
        ev = make_evaluator(golden, big_table, [generic_point], [inv],
                            n_max=30_000, lambda_scale=lam)
        phases.append(u_phase(*conjugate_samples(ev)))
        # first-order propagation of the truncation error through the
        # phase map: d(phase) <= 2 (lam*dC + dG) / |lam*C + i*inv|
        c_norm = ev.deficiency_norm_sq(0)
        d_c = 2.0 * golden.mass / (2.0 * math.pi) / ev.cutoff_energy
        d_g = ev.diag_error(0, 0.0)
        bounds.append(2.0 * (lam * d_c + d_g) / math.hypot(lam * c_norm, inv))
        herm.append(hermitian_conjugation_defect(
            ev, gap_midpoint(ev, 500) + 0.5j))

    defect = max(abs(ph - target) for ph in phases)
    spread = 0.0
    ok_pairs = True
    for i in range(len(scales)):
        for j in range(i + 1, len(scales)):
            gap = abs(phases[i] - phases[j])
            spread = max(spread, gap)
            ok_pairs = ok_pairs and gap <= bounds[i] + bounds[j]
    ok = defect <= 1e-6 and ok_pairs and max(herm) <= 1e-12
    assert verdict(
        5, ok,
        f"phase defect vs -exp(i*theta) {defect:.2e} (cap 1e-6); spread "
        f"across cutoff scales 0.5..20 is {spread:.2e} within the "
        f"propagated bounds {min(bounds):.2e}..{max(bounds):.2e}; "
        f"hermitian-conjugation defect {max(herm):.2e} (cap 1e-12)",
    )


# ---------------------------------------------------------------- 6 ---


def test_mode_reduction_reproduces_dense_eigenvalues(golden, big_table):
    rng = np.random.default_rng(2026)
    worst_dense = 0.0
    worst_interlace = -math.inf
    for _ in range(100):
        n = int(rng.integers(1, 9))
        fracs = rng.uniform(0.03, 0.97, size=(n, 2))
        positions = [(fx * golden.lx, fy * golden.ly) for fx, fy in fracs]
        inv = rng.uniform(-2.0, 3.0, size=n)
        level = int(rng.integers(30, 701))
        ev = make_evaluator(golden, big_table, positions, inv, n_max=800)
        w = gap_midpoint(ev, level)

        # the engine's own steps, as reduce_full_batch runs them
        d0, vectors, weights = _decompose_arrays(ev, np.array([w]))
        scale = float(np.max(np.abs(d0))) + 1.0
        old = np.sort(d0[0])
        for k, (d, _) in enumerate(_absorptions(d0, vectors, weights)):
            new = d[0]
            c = float(weights[0, k])
            # eigenvalues may only move toward the sign of the update,
            # and never past the next old eigenvalue on that side
            if c >= 0.0:
                viol = max(np.max(old - new, initial=-math.inf),
                           np.max(new[:-1] - old[1:], initial=-math.inf))
            else:
                viol = max(np.max(new - old, initial=-math.inf),
                           np.max(old[:-1] - new[1:], initial=-math.inf))
            worst_interlace = max(worst_interlace, viol / scale)
            old = new

        oracle = np.linalg.eigvalsh(ev.secular_matrix(w))
        worst_dense = max(worst_dense, float(np.max(np.abs(old - oracle))))

    ok = worst_dense <= 1e-8 and worst_interlace <= 1e-11
    assert verdict(
        6, ok,
        f"100 random configurations (1..8 scatterers): reduction vs dense "
        f"eigensolve deviates by {worst_dense:.2e} (cap 1e-8); worst scaled "
        f"interlacing violation {worst_interlace:.2e} (cap 1e-11)",
    )


# ---------------------------------------------------------------- 7 ---


def test_independent_root_finders_agree(golden, generic_point, second_point,
                                        big_table):
    ev = make_evaluator(golden, big_table, [generic_point, second_point],
                        [0.3, -0.4], n_max=2_000)
    e = ev.energies
    spacing = golden.mean_spacing
    lo = float(e[300])
    hi = lo + 100.0 * spacing
    window = EnergyWindow(lo, hi)

    roots_solver = np.array([lvl.omega for lvl in solve_multi(ev, window,
                                                              tol=ROOT_TOL)])

    # the same gap segmentation the solver uses, so every route scans
    # identical intervals and blind spots cannot hide a disagreement
    min_width = 4.0 * ev.pole_exclusion
    gaps = []
    j0 = max(0, int(np.searchsorted(e, lo)) - 1)
    for j in range(j0, e.size - 1):
        a, b = float(e[j]), float(e[j + 1])
        if a > hi:
            break
        if b < lo or b - a <= min_width:
            continue
        gaps.append((a, b))

    def m_counts(omegas):
        diag = reduce_full_batch(ev, np.asarray(omegas, dtype=float))
        return np.sum(diag < 0.0, axis=1)

    # route two: negative-count scan through the rank-one reduction, every
    # gap's grid in one batch
    grids = []
    for a, b in gaps:
        gap = b - a
        margin = min(1e-6 * gap, 0.45 * gap)
        pts = max(int(math.ceil(16.0 * gap / spacing)), 4)
        grids.append(np.linspace(a + margin, b - margin, pts + 2))
    all_counts = m_counts(np.concatenate(grids))
    ends = np.cumsum([grid.size for grid in grids])
    br_lo, br_hi, br_target = [], [], []
    for grid, counts in zip(grids, np.split(all_counts, ends[:-1])):
        for g in range(grid.size - 1):
            for target in range(counts[g] + 1, counts[g + 1] + 1):
                br_lo.append(grid[g])
                br_hi.append(grid[g + 1])
                br_target.append(target)
    lo_arr = np.array(br_lo)
    hi_arr = np.array(br_hi)
    targets = np.array(br_target)
    for _ in range(46):
        mid = 0.5 * (lo_arr + hi_arr)
        hit = m_counts(mid) >= targets
        hi_arr = np.where(hit, mid, hi_arr)
        lo_arr = np.where(hit, lo_arr, mid)
    roots_counts = 0.5 * (lo_arr + hi_arr)

    # route three: determinant sign scan on the dense secular matrix
    def det_signs(omegas):
        mats = ev.secular_matrix_batch(np.asarray(omegas, dtype=float))
        sign, _ = np.linalg.slogdet(mats)
        return sign

    br_lo, br_hi, br_sign = [], [], []
    for a, b in gaps:
        gap = b - a
        margin = min(1e-6 * gap, 0.45 * gap)
        pts = max(int(math.ceil(64.0 * gap / spacing)), 8)
        grid = np.linspace(a + margin, b - margin, pts + 2)
        signs = det_signs(grid)
        flips = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
        for g in flips:
            br_lo.append(grid[g])
            br_hi.append(grid[g + 1])
            br_sign.append(signs[g])
    lo_arr = np.array(br_lo)
    hi_arr = np.array(br_hi)
    sign_lo = np.array(br_sign)
    for _ in range(46):
        mid = 0.5 * (lo_arr + hi_arr)
        same = det_signs(mid) * sign_lo > 0.0
        lo_arr = np.where(same, mid, lo_arr)
        hi_arr = np.where(same, hi_arr, mid)
    roots_dets = 0.5 * (lo_arr + hi_arr)

    def inside(roots):
        roots = np.sort(roots)
        return roots[(roots >= lo) & (roots <= hi)]

    sets = [np.sort(roots_solver), inside(roots_counts), inside(roots_dets)]
    sizes = tuple(s.size for s in sets)
    same_size = sizes[0] == sizes[1] == sizes[2]
    dev = (max(float(np.max(np.abs(sets[0] - sets[1]))),
               float(np.max(np.abs(sets[0] - sets[2]))),
               float(np.max(np.abs(sets[1] - sets[2]))))
           if same_size and sizes[0] > 0 else math.inf)
    ok = same_size and dev <= 10.0 * ROOT_TOL
    assert verdict(
        7, ok,
        f"production solver / count scan / determinant scan found "
        f"{sizes} roots over a 100-spacing window; max pairwise "
        f"deviation {dev:.2e} (cap {10.0 * ROOT_TOL:.0e})",
    )


# ---------------------------------------------------------------- 8 ---


def test_bare_series_diverges_regularised_series_converges(golden,
                                                           generic_point,
                                                           big_table):
    truncations = [12_500, 25_000, 50_000, 100_000]
    evs = {n: make_evaluator(golden, big_table, [generic_point], [0.3],
                             n_max=n) for n in truncations}
    full = evs[100_000]
    e = full.energies
    w = 0.5 * (float(e[99]) + float(e[100]))

    naive = np.asarray(full.unregularized_partial_sums(0, w, truncations),
                       dtype=float)
    sinking = bool(np.all(np.diff(naive) < 0.0))
    log_cutoffs = np.log(e[np.array(truncations) - 1])
    slope = float(np.polyfit(log_cutoffs, naive, 1)[0])
    target = -golden.mass / (2.0 * math.pi)
    rel = abs(slope - target) / abs(target)

    ladder = np.array([evs[n].diag(0, w) for n in truncations])
    gaps = np.abs(np.diff(ladder))

    ok = sinking and rel <= 0.10 and gaps[-1] <= 1e-6
    assert verdict(
        8, ok,
        f"bare partial sums sink {naive[0]:.3f} -> {naive[-1]:.3f} with "
        f"log-cutoff slope {slope:.5f} vs -M/(2 pi) = {target:.5f} "
        f"(rel dev {rel:.4f}, cap 0.10); regularised value moves by "
        f"{gaps[0]:.2e} -> {gaps[-1]:.2e} per doubling (final cap 1e-6)",
    )


# ---------------------------------------------------------------- 9 ---


def test_huge_detuning_decouples_a_scatterer(golden, generic_point,
                                             second_point, big_table, ev1):
    e = ev1.energies
    window = EnergyWindow(float(e[300]), float(e[500]))
    singles = np.array([lvl.omega for lvl in solve_single(ev1, window,
                                                          tol=ROOT_TOL)])
    results = {}
    for huge in (1e12, -1e12):
        ev = make_evaluator(golden, big_table,
                            [generic_point, second_point], [0.3, huge],
                            n_max=3_000)
        roots = np.array([lvl.omega for lvl in solve_multi(ev, window,
                                                           tol=ROOT_TOL)])
        dev = (float(np.max(np.abs(roots - singles)))
               if roots.size == singles.size else math.inf)
        results[huge] = (roots.size, dev)

    ok = all(size == singles.size and dev <= 10.0 * ROOT_TOL
             for size, dev in results.values())
    assert verdict(
        9, ok,
        f"{singles.size} single-scatterer levels; with a second scatterer "
        f"at inverse coupling +1e12 the spectrum deviates by "
        f"{results[1e12][1]:.2e} ({results[1e12][0]} roots), at -1e12 by "
        f"{results[-1e12][1]:.2e} ({results[-1e12][0]} roots), "
        f"cap {10.0 * ROOT_TOL:.0e}",
    )
