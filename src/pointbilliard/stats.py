"""Spectral statistics for billiard level sequences.

Covers the bookkeeping around the physics questions the rest of the
package answers: unfolding a raw spectrum to unit mean spacing, binning
nearest-neighbour spacings, measuring Kolmogorov-Smirnov distances to the
Poisson and GOE references, predicting the logarithmically drifting
coupling window where a point scatterer mixes levels strongly, and
surveying the inflection point of the regularised diagonal resolvent
inside each unperturbed gap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BilliardSpec
from .errors import ValidationError
from .greens import GreensEvaluator, ScattererSet
from .solver import (DEFAULT_ROOT_TOL, LOCAL_BLOCK_GAPS, EnergyWindow, _block_series,
                     _check_window_top, _hybrid_root)

__all__ = [
    "REFERENCE_KINDS",
    "UnfoldedSpectrum",
    "SpacingHistogram",
    "CouplingPrediction",
    "InflectionRow",
    "InflectionSurvey",
    "unfold",
    "spacing_distribution",
    "reference_cdf",
    "ks_distance",
    "predict_strong_coupling",
    "coupling_band_range",
    "gbar_inflection_survey",
]

REFERENCE_KINDS = ("poisson", "goe")

# Minimum spacing count before KS distances stop being noise-dominated.
SMALL_SAMPLE = 100


@dataclass(frozen=True)
class UnfoldedSpectrum:
    """A level sequence mapped to unit mean spacing.

    ``unfolded`` is the raw sequence scaled by the smoothed density and
    then rescaled once more so the mean spacing is exactly one; the
    second factor absorbs the finite-window deviation from the
    asymptotic density.
    """

    raw: np.ndarray
    unfolded: np.ndarray
    window: EnergyWindow

    @property
    def n(self) -> int:
        return int(self.raw.size)

    def spacings(self) -> np.ndarray:
        # from the raw differences: differencing the large unfolded values
        # would cost digits when the window sits far from zero
        raw = self.raw
        return np.diff(raw) * (raw.size - 1) / (raw[-1] - raw[0])


@dataclass(frozen=True)
class SpacingHistogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    densities: np.ndarray
    sample_size: int


@dataclass(frozen=True)
class CouplingPrediction:
    """Strong-coupling band test at a single energy.

    ``vbar_inv_star`` is the band centre in inverse-coupling units and
    ``half_width`` its half-width; a scatterer is flagged in-band when
    its inverse coupling lies within the closed interval.
    """

    omega: float
    vbar_inv_star: float
    half_width: float
    in_strong_band: tuple


@dataclass(frozen=True)
class InflectionRow:
    """One gap of an inflection survey.

    ``gbar`` is the regularised diagonal resolvent at the inflection
    energy ``omega``, ``log_reference`` the logarithmic law it is
    expected to straddle, ``abs_slope`` the magnitude of its derivative
    there, and ``gap_lo``/``gap_hi`` the bracketing unperturbed levels.
    """

    omega: float
    gbar: float
    log_reference: float
    abs_slope: float
    gap_lo: float
    gap_hi: float


@dataclass(frozen=True)
class InflectionSurvey:
    rows: tuple
    skipped: tuple
    mean_spacing: float

    def __len__(self) -> int:
        return len(self.rows)

    def log_offsets(self) -> np.ndarray:
        """Resolvent value minus the logarithmic reference, per gap."""
        return np.array([r.gbar - r.log_reference for r in self.rows])

    def slope_spacings(self) -> np.ndarray:
        """Dimensionless slope |dGbar/dw| per mean level spacing."""
        return np.array([r.abs_slope * self.mean_spacing for r in self.rows])


def unfold(levels, billiard: BilliardSpec) -> UnfoldedSpectrum:
    """Map a sorted level sequence to unit mean spacing.

    The smoothed counting function of the rectangle is linear to leading
    order, so unfolding is multiplication by the average density followed
    by an exact rescale to mean spacing one.  Spacing ratios are
    therefore invariant under affine transformations of the raw levels.
    """
    raw = np.asarray(levels, dtype=float).ravel()
    if raw.size < 2:
        raise ValidationError(f"need at least 2 levels to unfold, got {raw.size}")
    if not np.all(np.isfinite(raw)):
        raise ValidationError("levels must be finite")
    if np.any(np.diff(raw) < 0.0):
        raise ValidationError("levels must be sorted in nondecreasing order")
    if raw[-1] == raw[0]:
        raise ValidationError("all levels coincide; nothing to unfold")
    scaled = billiard.weyl_density * raw
    mean_gap = (scaled[-1] - scaled[0]) / (raw.size - 1)
    unfolded = scaled / mean_gap
    return UnfoldedSpectrum(raw=raw, unfolded=unfolded,
                            window=EnergyWindow(float(raw[0]), float(raw[-1])))


def spacing_distribution(spectrum: UnfoldedSpectrum, bins: int = 24) -> SpacingHistogram:
    """Histogram of nearest-neighbour spacings of an unfolded spectrum.

    Densities are normalised so the histogram integrates to one over its
    own support.  Small samples are allowed but warned about.
    """
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    spacings = spectrum.spacings()
    total = spacings.size
    if total < SMALL_SAMPLE:
        warnings.warn(
            f"only {total} spacings; histogram and KS distances will be noisy",
            UserWarning, stacklevel=2)
    hi = float(spacings.max())
    if hi <= 0.0:
        hi = 1.0
    edges = np.linspace(0.0, hi, bins + 1)
    counts, _ = np.histogram(spacings, edges)
    width = edges[1] - edges[0]
    densities = counts / (total * width)
    return SpacingHistogram(bin_edges=edges, counts=counts,
                            densities=densities, sample_size=int(total))


def reference_cdf(kind: str, s):
    """Cumulative spacing distribution of a reference ensemble.

    ``poisson`` is the uncorrelated sequence, ``goe`` the Wigner surmise
    for the Gaussian orthogonal ensemble.  Spacings are nonnegative by
    construction, so negative arguments are rejected rather than clipped.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0.0):
        raise ValidationError("spacings are nonnegative; got a negative argument")
    if kind == "poisson":
        out = 1.0 - np.exp(-arr)
    elif kind == "goe":
        out = 1.0 - np.exp(-0.25 * math.pi * arr * arr)
    else:
        raise ValidationError(
            f"unknown reference {kind!r}; expected one of {REFERENCE_KINDS}")
    return float(out) if np.isscalar(s) else out


def ks_distance(spacings, reference) -> float:
    """One-sample Kolmogorov-Smirnov distance.

    ``reference`` is either a kind accepted by :func:`reference_cdf` or a
    vectorised CDF callable.  Uses the exact two-sided statistic over the
    empirical step function, not a grid approximation.
    """
    sample = np.sort(np.asarray(spacings, dtype=float).ravel())
    n = sample.size
    if n == 0:
        raise ValidationError("cannot compute a KS distance from an empty sample")
    if callable(reference):
        cdf = np.asarray(reference(sample), dtype=float)
    else:
        cdf = np.asarray(reference_cdf(reference, sample), dtype=float)
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (steps - 1.0 / n)))
    return max(d_plus, d_minus)


def predict_strong_coupling(scatterers: ScattererSet, billiard: BilliardSpec,
                            omega: float) -> CouplingPrediction:
    """Locate each scatterer relative to the strong-coupling band at ``omega``.

    The band centre drifts logarithmically with energy, so a fixed
    coupling can only satisfy the strong-mixing condition over a finite
    energy range; the in-band test uses the closed interval.
    """
    omega = float(omega)
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValidationError(
            f"band prediction needs a positive energy, got {omega!r}")
    m = billiard.mass
    star = m / (2.0 * math.pi) * math.log(omega / scatterers.lambda_scale)
    half = 0.25 * math.pi * m
    in_band = tuple(bool(abs(v - star) <= half) for v in scatterers.inv_couplings)
    return CouplingPrediction(omega=omega, vbar_inv_star=star,
                              half_width=half, in_strong_band=in_band)


def coupling_band_range(inv_coupling: float, billiard: BilliardSpec,
                        lambda_scale: float = 1.0) -> tuple:
    """Energy range over which a fixed inverse coupling stays in-band.

    Returns ``(lo, centre, hi)``.  Inverting the logarithmic band centre
    gives a geometric interval: the edges sit a factor exp(pi^2 / 2) on
    either side of the centre energy, independent of the coupling.
    """
    if not math.isfinite(inv_coupling):
        raise ValidationError(f"inverse coupling must be finite, got {inv_coupling!r}")
    if not (math.isfinite(lambda_scale) and lambda_scale > 0.0):
        raise ValidationError(f"lambda_scale must be positive, got {lambda_scale!r}")
    stretch = math.exp(0.5 * math.pi * math.pi)
    try:
        centre = lambda_scale * math.exp(2.0 * math.pi * inv_coupling / billiard.mass)
    except OverflowError:
        centre = math.inf
    if not math.isfinite(centre * stretch):
        raise ValidationError(
            f"the band of inverse coupling {inv_coupling!r} lies beyond the float range")
    return (centre / stretch, centre, centre * stretch)


def gbar_inflection_survey(evaluator: GreensEvaluator, window: EnergyWindow,
                           min_gaps: int = 30) -> InflectionSurvey:
    """Locate the inflection of the diagonal resolvent in each gap.

    For a single scatterer the regularised diagonal resolvent rises from
    -inf to +inf across every gap between consecutive unperturbed levels
    it couples to. Its third derivative is negative everywhere, so the
    second derivative falls from +inf to -inf across the gap and the
    inflection is its one zero: probed next to both poles as the level
    solver does, and found by the solver's root iteration to
    DEFAULT_ROOT_TOL, with the series summed through one near/far view per
    block of gaps, as in the solver. Each block is surveyed at once: one
    evaluation for its edge probes, one root iteration for its zeros and one
    for the values there. The survey records the resolvent value and slope
    there next to the logarithmic law they are predicted to follow.

    Gaps whose probes do not bracket a zero (a mode with no weight at the
    scatterer, as the evaluator counts one at or below its pole weight floor)
    or leave no room between them (degenerate levels) are reported in
    ``skipped`` rather than silently dropped.
    """
    if evaluator.scatterers.n != 1:
        raise ValidationError(
            f"inflection survey is defined for a single scatterer, got "
            f"{evaluator.scatterers.n}")
    if window.lo <= 0.0:
        raise ValidationError(
            "survey window must be positive so the logarithmic reference exists")
    _check_window_top(evaluator, window)
    energies = evaluator.energies
    first = int(np.searchsorted(energies, window.lo, side="left"))
    last = int(np.searchsorted(energies, window.hi, side="right"))
    inside = energies[first:last]
    n_gaps = max(0, inside.size - 1)
    if n_gaps < min_gaps:
        raise ValidationError(
            f"window holds {n_gaps} gaps; need at least {min_gaps}")

    lam = evaluator.scatterers.lambda_scale
    m = evaluator.billiard.mass

    rows = []
    skipped = []
    for k0 in range(0, n_gaps, LOCAL_BLOCK_GAPS):
        ends = inside[k0:k0 + LOCAL_BLOCK_GAPS + 1]
        a, b = ends[:-1], ends[1:]
        series = _block_series(evaluator, float(a[0]), float(b[-1]), a.size)
        start = np.minimum(evaluator.pole_exclusion, 1e-3 * (b - a))
        lo, hi = a + start, b - start
        probed = (a < lo) & (lo < hi) & (hi < b)
        f_lo, f_hi = np.split(series.secular_orders(np.concatenate([lo[probed], hi[probed]]),
                                                    2)[0][:, 0, 0], 2)
        # zero-weight mode on one side: no pole, no curvature flip
        flips = np.zeros(a.size, dtype=bool)
        flips[probed] = (f_lo > 0.0) & (f_hi < 0.0)
        for k in np.flatnonzero(~flips):
            reason = "too narrow to probe inside" if not probed[k] else "shows no curvature sign change"
            skipped.append(f"gap [{a[k]:.9g}, {b[k]:.9g}] {reason}")
        solved = flips[probed]
        omega, _ = _hybrid_root(lambda x, _: [g[:, 0, 0] for g in series.secular_orders(x, 2, 2)],
                                a[flips], b[flips], lo[flips], f_lo[solved], hi[flips],
                                f_hi[solved], DEFAULT_ROOT_TOL)
        gbar, slope = (g[:, 0, 0] for g in series.secular_orders(omega, 0, 2))
        for w, g, slope_w, gap_a, gap_b in zip(omega.tolist(), gbar.tolist(),
                                               np.abs(slope).tolist(), a[flips].tolist(),
                                               b[flips].tolist()):
            rows.append(InflectionRow(omega=w, gbar=g,
                                      log_reference=m / (2.0 * math.pi) * math.log(w / lam),
                                      abs_slope=slope_w, gap_lo=gap_a, gap_hi=gap_b))
    return InflectionSurvey(rows=tuple(rows), skipped=tuple(skipped),
                            mean_spacing=evaluator.mean_spacing)
