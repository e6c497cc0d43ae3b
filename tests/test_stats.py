"""Unfolding, spacing statistics, coupling bands, and the inflection survey."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize, stats as sps

from pointbilliard import ValidationError
from pointbilliard.basis import BilliardSpec, mode_table_with_count
from pointbilliard.greens import POLE_WEIGHT_FLOOR
from pointbilliard.solver import EnergyWindow
from pointbilliard.stats import (
    coupling_band_range,
    gbar_inflection_survey,
    ks_distance,
    predict_strong_coupling,
    reference_cdf,
    spacing_distribution,
    unfold,
)

from conftest import GENERIC_X, GENERIC_Y_FRACTION, make_evaluator


# ------------------------------------------------------------- unfolding ---


def test_unfold_mean_spacing_exactly_one(golden, big_table):
    levels = big_table.energies[200:1200]
    spec = unfold(levels, golden)
    assert spec.n == 1000
    assert np.mean(spec.spacings()) == pytest.approx(1.0, abs=1e-13)
    assert spec.window.lo == levels[0] and spec.window.hi == levels[-1]
    assert np.all(spec.spacings() >= 0.0)


def test_unfold_validation(golden):
    with pytest.raises(ValidationError):
        unfold([1.0], golden)
    with pytest.raises(ValidationError):
        unfold([1.0, math.inf], golden)
    with pytest.raises(ValidationError):
        unfold([2.0, 1.0], golden)
    with pytest.raises(ValidationError):
        unfold([3.0, 3.0, 3.0], golden)


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(1e-3, 1e3),
    shift=st.floats(0.0, 50.0),
)
def test_unfold_affine_invariance(golden, scale, shift):
    # spacing RATIOS survive any affine map of the raw levels, because the
    # unfolding is itself affine with the window-matched normalization
    base = np.cumsum(np.array([1.0, 0.5, 2.0, 0.25, 1.75, 1.0, 3.0]))
    a = unfold(base, golden).spacings()
    b = unfold(scale * base + shift, golden).spacings()
    assert np.allclose(a / a.sum(), b / b.sum(), rtol=0.0, atol=1e-12)


# ------------------------------------------------------------- histogram ---


def test_histogram_integrates_to_one(golden, big_table):
    spectrum = unfold(big_table.energies[200:800], golden)
    hist = spacing_distribution(spectrum, bins=20)
    width = hist.bin_edges[1] - hist.bin_edges[0]
    assert float(np.sum(hist.densities) * width) == pytest.approx(1.0, abs=1e-12)
    assert hist.sample_size == 599
    assert int(hist.counts.sum()) == hist.sample_size


def test_histogram_warns_on_small_samples(golden, big_table):
    spectrum = unfold(big_table.energies[200:240], golden)
    with pytest.warns(UserWarning, match="noisy"):
        spacing_distribution(spectrum)
    with pytest.raises(ValidationError):
        spacing_distribution(spectrum, bins=0)


# ------------------------------------------------------------ references ---


def test_reference_cdf_pins():
    assert reference_cdf("poisson", 0.0) == 0.0
    assert reference_cdf("goe", 0.0) == 0.0
    assert reference_cdf("poisson", 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    # the Wigner surmise has median 2 sqrt(ln 2 / pi)
    median = 2.0 * math.sqrt(math.log(2.0) / math.pi)
    assert reference_cdf("goe", median) == pytest.approx(0.5, abs=1e-14)
    arr = reference_cdf("goe", np.array([0.5, 1.0, 2.0]))
    assert arr.shape == (3,) and np.all(np.diff(arr) > 0.0)


def test_reference_cdf_rejects_bad_input():
    with pytest.raises(ValidationError):
        reference_cdf("poisson", -0.1)
    with pytest.raises(ValidationError):
        reference_cdf("gue", 1.0)


def test_reference_sampling_roundtrip():
    # inverse-transform samples from each reference must sit close to their
    # own CDF and far from the other one
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 1.0, size=100_000)
    poisson = -np.log1p(-u)
    goe = np.sqrt(-4.0 / math.pi * np.log1p(-u))
    assert ks_distance(poisson, "poisson") < 0.01
    assert ks_distance(goe, "goe") < 0.01
    assert ks_distance(poisson, "goe") > 0.1
    assert ks_distance(goe, "poisson") > 0.1


def test_ks_distance_matches_scipy(golden, big_table):
    # oracle first: scipy's exact one-sample statistic on the same data
    spacings = unfold(big_table.energies[200:700], golden).spacings()
    oracle = float(sps.kstest(spacings, lambda s: 1.0 - np.exp(-s)).statistic)
    assert ks_distance(spacings, "poisson") == pytest.approx(oracle, abs=1e-15)


def test_ks_metric_properties():
    rng = np.random.default_rng(3)
    a = rng.exponential(size=200)
    assert 0.0 < ks_distance(a, "poisson") < 1.0
    # a callable reference is the same statistic as its named kind
    assert ks_distance(a, lambda s: 1.0 - np.exp(-s)) == ks_distance(a, "poisson")
    # a sample beyond all of the reference's mass sits at distance one
    assert ks_distance(a + 50.0, "poisson") == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        ks_distance([], "poisson")


def test_unperturbed_rectangle_spacings_are_poisson_like(golden, big_table):
    # an integrable billiard's levels are uncorrelated: the empirical
    # spacing law must sit closer to the exponential than to the surmise
    spectrum = unfold(big_table.energies[200:5200], golden)
    d_poisson = ks_distance(spectrum.spacings(), "poisson")
    d_goe = ks_distance(spectrum.spacings(), "goe")
    print(f"unperturbed: KS poisson {d_poisson:.4f}  KS goe {d_goe:.4f}")
    assert d_poisson < d_goe
    assert d_poisson < 0.1


# ---------------------------------------------------------- band predict ---


def test_band_prediction_closed_boundaries(golden, generic_point):
    from pointbilliard.greens import ScattererSet

    omega = 900.0
    m = golden.mass
    star = m / (2.0 * math.pi) * math.log(omega)
    half = math.pi * m / 4.0
    for inv, expected in [
        (star, True),
        (star + half, True),          # boundary counts as inside
        (star - half, True),
        (star + 1.0001 * half, False),
        (star - 1.0001 * half, False),
    ]:
        sc = ScattererSet.from_couplings([generic_point], [1.0 / inv])
        pred = predict_strong_coupling(sc, golden, omega)
        assert pred.vbar_inv_star == pytest.approx(star, abs=1e-14)
        assert pred.half_width == pytest.approx(half, abs=1e-15)
        assert pred.in_strong_band == (expected,)

    with pytest.raises(ValidationError):
        predict_strong_coupling(sc, golden, -3.0)


def test_band_energy_range_ratio(golden):
    lo, centre, hi = coupling_band_range(0.7, golden)
    assert lo < centre < hi
    assert centre == pytest.approx(math.exp(2.0 * math.pi * 0.7 / golden.mass), abs=1e-9)
    # the band's energy extent is a fixed multiplicative factor
    assert hi / lo == pytest.approx(math.exp(math.pi ** 2), rel=1e-12)
    with pytest.raises(ValidationError, match="inverse coupling 200"):
        coupling_band_range(200.0, golden)
    assert coupling_band_range(-200.0, golden) == (0.0, 0.0, 0.0)


# ------------------------------------------------------------ inflection ---


def test_inflection_survey_rows_are_bracketed(ev1_30k):
    e = ev1_30k.energies
    window = EnergyWindow(float(e[700]), float(e[762]))
    survey = gbar_inflection_survey(ev1_30k, window, min_gaps=30)
    assert len(survey) >= 30
    for row in survey.rows:
        assert row.gap_lo < row.omega < row.gap_hi
        assert row.abs_slope > 0.0
    # the inflection hugs the middle of its gap, not the pole edges
    offsets = [abs(r.omega - 0.5 * (r.gap_lo + r.gap_hi)) / (r.gap_hi - r.gap_lo)
               for r in survey.rows]
    assert float(np.median(offsets)) < 0.25
    assert survey.mean_spacing == ev1_30k.billiard.mean_spacing


def test_inflection_survey_validation(ev1_30k, ev2):
    e = ev1_30k.energies
    tiny = EnergyWindow(float(e[700]), float(e[705]))
    with pytest.raises(ValidationError):
        gbar_inflection_survey(ev1_30k, tiny, min_gaps=30)
    with pytest.raises(ValidationError):
        gbar_inflection_survey(ev2, EnergyWindow(float(e[700]), float(e[762])))
    with pytest.raises(ValidationError):
        gbar_inflection_survey(ev1_30k, EnergyWindow(-5.0, float(e[50])))


def test_inflection_survey_reports_degenerate_levels():
    # in the unit square the modes (m, n) and (n, m) coincide: the empty gap
    # between them has no room for probes and is reported, and no probe
    # divides by zero; every other gap is surveyed
    spec = BilliardSpec(1.0, 1.0)
    ev = make_evaluator(spec, mode_table_with_count(spec, 3_000),
                        [(GENERIC_X, GENERIC_Y_FRACTION)], [0.3])
    e = ev.energies
    window = EnergyWindow(float(e[200]), float(e[300]))
    inside = e[(e >= window.lo) & (e <= window.hi)]
    ties = int(np.count_nonzero(np.diff(inside) == 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        survey = gbar_inflection_survey(ev, window, min_gaps=30)
    assert ties > 0
    assert len(survey.skipped) == ties
    assert all("too narrow to probe" in reason for reason in survey.skipped)
    assert len(survey) == inside.size - 1 - ties


def independent_curvature(spec, table, point, n_max):
    """Second omega-derivative of diag at one scatterer: the mode sum
    2 phi^2/(w - e)^3, phi from the sines, plus the tail's -(M/2pi)/(e_cut - w)^2.
    Weights below the documented pole weight floor are a node's rounding
    noise and count as zero, as in the package."""
    mx, my = table.mx[:n_max].astype(float), table.my[:n_max].astype(float)
    e = table.energies[:n_max]
    phi_sq = (4.0 / spec.area) * (np.sin(np.pi * mx * point[0] / spec.lx)
                                  * np.sin(np.pi * my * point[1] / spec.ly)) ** 2
    phi_sq[phi_sq <= POLE_WEIGHT_FLOOR * 4.0 / spec.area] = 0.0
    e_cut = float(e[-1])
    scale = spec.mass / (2.0 * math.pi)

    def f(w):
        d = w - e
        return 2.0 * float(np.sum(phi_sq / (d * d * d))) - scale / (e_cut - w) ** 2

    return f


def assert_survey_matches_brentq(ev, point, window):
    """Every gap whose end probes bracket a zero of the independent second
    derivative is surveyed, at brentq's zero to 2e-9; no other gap is."""
    survey = gbar_inflection_survey(ev, window, min_gaps=30)
    f = independent_curvature(ev.billiard, ev.table, point, ev.n_eff)
    rows = {row.gap_lo: row for row in survey.rows}
    e = ev.energies
    inside = e[(e >= window.lo) & (e <= window.hi)]
    for a, b in zip(inside[:-1].tolist(), inside[1:].tolist()):
        start = min(ev.pole_exclusion, 1e-3 * (b - a))
        lo, hi = a + start, b - start
        if a < lo < hi < b and f(lo) > 0.0 > f(hi):
            assert a in rows, f"gap [{a}, {b}] brackets an inflection but was skipped"
            root = optimize.brentq(f, lo, hi, xtol=1e-13)
            assert abs(rows.pop(a).omega - root) <= 2e-9
    assert not rows


_FRACTION = st.floats(0.02, 0.98)


@settings(max_examples=25, deadline=None)
@given(fx=_FRACTION, fy=_FRACTION, nodal=st.booleans(), q=st.integers(2, 12),
       p=st.integers(1, 11), log_eps=st.floats(-9.0, -4.0), above=st.booleans(),
       on_x=st.booleans(), start=st.integers(50, 2400), span=st.integers(30, 60))
@example(fx=0.5, fy=1 / 3, nodal=False, q=2, p=1, log_eps=-4.0, above=False, on_x=False,
         start=2370, span=60)
def test_survey_inflections_match_brentq(golden, big_table, fx, fy, nodal, q, p, log_eps,
                                         above, on_x, start, span):
    # a scatterer eps off the nodal line p/q of one side gives every mode
    # with a multiple of q on that side a tiny weight, so the inflection of
    # such a gap sits close to the weak pole; the example sits on two nodal
    # lines, where the weight of mode (21, 63) is rounding noise, 1e-28
    if nodal:
        assume(p < q and math.gcd(p, q) == 1)
        frac = p / q + (10.0 ** log_eps if above else -(10.0 ** log_eps))
        fx, fy = (frac, fy) if on_x else (fx, frac)
    point = (fx * golden.lx, fy * golden.ly)
    ev = make_evaluator(golden, big_table, [point], [0.3], n_max=3_000)
    e = ev.energies
    assert_survey_matches_brentq(ev, point, EnergyWindow(float(e[start]),
                                                         float(e[start + span])))


@pytest.mark.parametrize("gap_lo", [850.946, 3173.374])
def test_survey_inflections_match_brentq_at_30k_modes(ev1_30k, generic_point, gap_lo):
    # the README configuration: a difference stencil placed the inflection of
    # the gap at 850.946 about 1e-3 off, and reported the gap at 3173.374,
    # whose inflection lies within 1e-2 spacings of a pole, as having none
    e = ev1_30k.energies
    k = int(np.argmin(np.abs(e - gap_lo)))
    assert abs(e[k] - gap_lo) < 1e-3
    assert_survey_matches_brentq(ev1_30k, generic_point,
                                 EnergyWindow(float(e[k - 15]), float(e[k + 16])))


# -------------------------------------------------- constant-weight model ---


def test_constant_weight_scatterer_mixes_toward_goe(golden, big_table):
    """A scatterer with position-averaged mode weights drives the spacing
    law toward level repulsion when its coupling sits at the band centre.

    With every mode weight pinned to the area average 1/S the spectral
    condition keeps the full pole structure but drops the wavefunction
    amplitude fluctuations; the resulting spacings are the cleanest
    strong-coupling test bed.
    """
    energies = big_table.energies[:30_000]
    area = golden.lx * golden.ly
    m = golden.mass
    weight = 1.0 / area
    e_cut = float(energies[-1])
    counter = float(np.sum(weight * energies / (energies ** 2 + 1.0)))

    def gbar(w):
        series = float(np.sum(weight / (w - energies)))
        tail = m / (2.0 * math.pi) * (
            math.log(e_cut - w) - 0.5 * math.log(e_cut ** 2 + 1.0))
        return series + counter + tail

    lo_level, hi_level = 200, 1300
    omega_c = 0.5 * (energies[lo_level] + energies[hi_level])
    inv_star = m / (2.0 * math.pi) * math.log(omega_c)

    roots = []
    for k in range(lo_level, hi_level):
        a, b = float(energies[k]), float(energies[k + 1])
        delta = 1e-9 * (b - a)
        roots.append(optimize.brentq(
            lambda w: gbar(w) - inv_star, a + delta, b - delta, xtol=1e-10))

    spacings = unfold(np.array(roots), golden).spacings()
    d_poisson = ks_distance(spacings, "poisson")
    d_goe = ks_distance(spacings, "goe")
    print(f"constant-weight model: KS poisson {d_poisson:.4f}  KS goe {d_goe:.4f}")
    assert d_goe < d_poisson
