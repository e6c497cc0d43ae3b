"""Perturbed-spectrum root finding and eigenfunction assembly.

Single scatterer: the spectral condition is a scalar equation, regularized
diagonal = inverse coupling, with exactly one root per gap between distinct
unperturbed levels (a second branch below the ground state opens for
negative inverse coupling). Several scatterers: roots of the secular
determinant. The derivative of the secular matrix is negative definite, so
each sorted eigenvalue curve decreases strictly in energy and crosses zero
at most once per gap; the negative-eigenvalue counts at the two ends of a
gap name the curves that cross, and root multiplicity is the number of
curves crossing at the same energy. Both cases find every root with the
same bracketed iteration.

All roots are reported with their bracketing gap, a scaled residual (the
estimated root displacement, |f| / |f'|), and a kind tag.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator

import numpy as np

from .basis import basis_column
from .errors import (
    PoleProximityError,
    RootBracketError,
    ValidationError,
)
from .greens import GreensEvaluator

DEFAULT_ROOT_TOL = 1e-9
# modes whose weight at every scatterer falls below this (relative to the
# uniform value 4/area) contribute no resolvable pole; their gaps are merged
POLE_WEIGHT_FLOOR = 1e-22

_BETWEEN = "between-poles"
_BELOW = "below-ground"


@dataclasses.dataclass(frozen=True)
class EnergyWindow:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError("window bounds must be finite")
        if self.lo >= self.hi:
            raise ValidationError(f"window must satisfy lo < hi, got {self.lo}..{self.hi}")

    def contains(self, omega: float) -> bool:
        return self.lo <= omega <= self.hi


@dataclasses.dataclass(frozen=True)
class PerturbedLevel:
    """One root of the spectral condition.

    bracket is the pole pair enclosing the root (for the below-ground branch,
    the final search bracket). residual is |f|/|f'| at the accepted root, an
    estimate of the remaining root displacement in energy units; a root
    reported 4 ulps from its pole, the closest probe, carries that distance.
    """

    omega: float
    bracket: tuple[float, float]
    kind: str
    residual: float

    def __post_init__(self):
        if self.kind not in (_BETWEEN, _BELOW):
            raise ValidationError(f"unknown level kind {self.kind!r}")


@dataclasses.dataclass(frozen=True)
class EigenfunctionRep:
    """Mode-basis expansion of a single-scatterer perturbed eigenfunction.

    coefficients[k] multiplies basis mode k (table order, truncated); the
    stored tail_weight is the norm share of the dropped modes, so
    sum(coefficients**2) + tail_weight = 1 to rounding.
    """

    level: PerturbedLevel
    coefficients: np.ndarray
    normalization: float
    tail_weight: float

    def evaluate(self, evaluator: GreensEvaluator, points) -> np.ndarray:
        """Value of the eigenfunction at points, shape (..., 2)."""
        pts = np.asarray(points, dtype=float)
        cols = basis_column(evaluator.table, pts)[: self.coefficients.size]
        return np.tensordot(self.coefficients, cols, axes=(0, 0))


def _pole_mask(evaluator: GreensEvaluator) -> np.ndarray:
    """True for modes that carry a resolvable pole at some scatterer."""
    phi_sq = evaluator.phi_values ** 2
    floor = POLE_WEIGHT_FLOOR * 4.0 / evaluator.billiard.area
    return phi_sq.max(axis=1) > floor


def _gaps(evaluator: GreensEvaluator, window: EnergyWindow) -> Iterator[tuple[float, float]]:
    """Pole gaps overlapping the window, tiny-weight poles merged away.

    Yields (left_pole, right_pole) pairs with positive width. Gaps narrower
    than four pole-exclusion widths are unresolvable and skipped.
    """
    energies = evaluator.energies
    mask = _pole_mask(evaluator)
    poles = energies[mask]
    if poles.size == 0:
        return
    min_width = 4.0 * evaluator.pole_exclusion
    # first pole index whose gap [poles[j], poles[j+1]] can still reach lo
    j0 = max(0, int(np.searchsorted(poles, window.lo)) - 1)
    for j in range(j0, poles.size - 1):
        a, b = float(poles[j]), float(poles[j + 1])
        # roots lie strictly inside their gap, so edge gaps hold none in the window
        if a >= window.hi:
            break
        if b <= window.lo or b - a <= min_width:
            continue
        yield a, b


def _descend_from_pole(f, pole: float, start: float, sign: float, missing):
    """First probe x = pole + sign * offset with no missing(f(x)); returns (x, f(x)).

    missing(f(x)) counts the roots between x and the pole. The offset
    starts at start and shrinks toward the pole; microscopic mode weights
    push roots very close in. The last probe sits 4 ulps from the pole,
    never closer: roots still missing there lie within those 4 ulps.
    """
    d = start
    floor = 4.0 * math.ulp(pole)
    while True:
        x = pole + sign * max(d, floor)
        val = f(x)
        if not missing(val) or d <= floor:
            return x, val
        d /= 32.0


def _hybrid_root(f_and_slope, lo: float, f_lo: float, hi: float, f_hi: float, tol: float):
    """Bracketed root of decreasing f: bisection with secant acceleration.

    f_and_slope(x) returns (f(x), f'(x)); the true slope serves the
    stopping test |f/f'| <= tol. Returns (root, scaled_residual). The
    bracket invariant f(lo) > 0 > f(hi) is maintained; secant proposals
    outside the open bracket, and every step after the 48th, fall back to
    bisection, so convergence is guaranteed.
    """
    if not (f_lo > 0.0 > f_hi):
        raise RootBracketError(
            f"invalid bracket [{lo}, {hi}]: f = ({f_lo:.3e}, {f_hi:.3e})"
        )
    x_prev, f_prev = lo, f_lo
    x_cur, f_cur = hi, f_hi
    for step in range(200):
        denom = f_cur - f_prev
        x_new = x_cur - f_cur * (x_cur - x_prev) / denom if denom != 0.0 else lo
        # a secant still running after 48 steps has stalled (one iterate deep
        # in a pole's plunge, the other creeping): bisection takes over
        if step >= 48 or not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        f_new, slope = f_and_slope(x_new)
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
        if f_new > 0.0:
            lo, f_lo = x_new, f_new
        elif f_new < 0.0:
            hi, f_hi = x_new, f_new
        else:
            return x_new, 0.0
        resid = abs(f_cur / slope) if slope != 0.0 else math.inf
        if resid <= tol or hi - lo <= tol:
            return x_cur, resid
    raise RootBracketError(f"root iteration did not converge in [{lo}, {hi}]")


def solve_single(
    evaluator: GreensEvaluator,
    window: EnergyWindow,
    tol: float = DEFAULT_ROOT_TOL,
) -> list[PerturbedLevel]:
    """All perturbed levels of a one-scatterer configuration in the window.

    One root per pole gap overlapping the window (kept only if the root
    itself lands inside), plus the below-ground root when the inverse
    coupling is negative and the window reaches below the first pole.
    """
    if evaluator.scatterers.n != 1:
        raise ValidationError("solve_single requires exactly one scatterer")
    _check_inputs(evaluator, window, tol)
    inv = float(evaluator.scatterers.inv_couplings[0])

    def f(w: float) -> float:
        return evaluator.diag(0, w, check_pole=False) - inv

    def f_and_slope(w: float):
        return f(w), evaluator.diag_derivative(0, w, check_pole=False)

    levels = []
    for a, b in _gaps(evaluator, window):
        start = min(evaluator.pole_exclusion, 1e-3 * (b - a))
        lo, f_lo = _descend_from_pole(f, a, start, +1.0, lambda v: v < 0.0)
        hi, f_hi = _descend_from_pole(f, b, start, -1.0, lambda v: v >= 0.0)
        if f_lo <= 0.0:  # root within 4 ulps of the left pole
            root, resid = lo, lo - a
        elif f_hi >= 0.0:  # ... or of the right one
            root, resid = hi, b - hi
        else:
            root, resid = _hybrid_root(f_and_slope, lo, f_lo, hi, f_hi, tol)
        if window.contains(root):
            levels.append(PerturbedLevel(root, (a, b), _BETWEEN, resid))

    first_pole = float(evaluator.energies[_pole_mask(evaluator).argmax()])
    if inv < 0.0 and window.lo < first_pole:
        lvl = _below_ground_root(evaluator, f, f_and_slope, first_pole, tol)
        if window.contains(lvl.omega):
            levels.insert(0, lvl)
    return levels


def _below_ground_root(evaluator, f, f_and_slope, first_pole: float, tol: float) -> PerturbedLevel:
    spacing = evaluator.billiard.mean_spacing
    hi = first_pole - min(evaluator.pole_exclusion, 1e-3 * spacing)
    f_hi = f(hi)
    step = spacing
    for _ in range(70):
        lo = hi - step
        f_lo = f(lo)
        if f_lo > 0.0:
            root, resid = _hybrid_root(f_and_slope, lo, f_lo, hi, f_hi, tol)
            return PerturbedLevel(root, (lo, first_pole), _BELOW, resid)
        step *= 2.0
    raise RootBracketError("no below-ground sign change found (coupling too weak?)")


def _check_inputs(evaluator: GreensEvaluator, window: EnergyWindow, tol: float) -> None:
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    e_top = float(evaluator.energies[-1])
    if window.hi > 0.9 * e_top:
        raise ValidationError(
            f"window top {window.hi:.6g} is beyond 90% of the truncated spectrum "
            f"({e_top:.6g}); raise n_max"
        )


# ---------------------------------------------------------------- multi ---


def _pole_probe(evaluator: GreensEvaluator, pole: float, start: float, sign: float):
    """Probe the secular matrix M next to a pole until no root lies closer.

    Returns (x, sorted eigenvalues of M(x), number of roots between x and
    the pole). The pole's weight rows U, one per mode at its energy, make
    rank U eigenvalues of M diverge, to +inf on its right and -inf on its
    left; the others tend to those of the regular part of M at the pole,
    compressed onto the complement of the span of U. That compression of M
    itself holds no pole term, so its first-order extrapolation from x
    fixes the negative count at the pole, and the probe closes in until
    M(x) has that count.
    """
    e = evaluator.energies
    rows = evaluator.phi_values[np.searchsorted(e, pole):np.searchsorted(e, pole, "right")]
    _, sv, vt = np.linalg.svd(rows)
    rank = int(np.sum(sv ** 2 > POLE_WEIGHT_FLOOR * 4.0 / evaluator.billiard.area))
    q = vt[rank:].T

    def probe(w: float):
        m = evaluator.secular_matrix(w, check_pole=False)
        regular = q.T @ (m + (pole - w) * evaluator.secular_matrix_derivative(w)) @ q
        at_pole = int(np.sum(np.linalg.eigvalsh(regular) < 0.0)) + (rank if sign < 0.0 else 0)
        return np.linalg.eigvalsh(m), at_pole

    def missing(probed) -> int:
        vals, at_pole = probed
        return int(sign * (np.sum(vals < 0.0) - at_pole))

    x, probed = _descend_from_pole(probe, pole, start, sign, missing)
    return x, probed[0], missing(probed)


def _eigenvalue_curve(evaluator: GreensEvaluator, t: int):
    """Sorted eigenvalue t of the secular matrix and its Hellmann-Feynman slope v^T M' v."""

    def curve(w: float):
        vals, vecs = np.linalg.eigh(evaluator.secular_matrix(w, check_pole=False))
        v = vecs[:, t]
        return float(vals[t]), float(v @ evaluator.secular_matrix_derivative(w) @ v)

    return curve


def solve_multi(
    evaluator: GreensEvaluator,
    window: EnergyWindow,
    tol: float = DEFAULT_ROOT_TOL,
) -> list[PerturbedLevel]:
    """All secular-determinant roots in the window for N >= 1 scatterers.

    Each sorted eigenvalue curve of the real symmetric secular matrix
    decreases strictly, so the curves that cross zero in a pole gap are
    those indexed from the negative count at its left end up to the one at
    its right end, each once. _pole_probe places both ends, at least two
    exclusion widths in; the bracketed iteration of solve_single then
    follows each crossing curve. Coincident roots (degenerate zero
    eigenvalues) are reported once per crossing curve.
    """
    _check_inputs(evaluator, window, tol)

    levels = []
    for a, b in _gaps(evaluator, window):
        # _gaps drops gaps narrower than four exclusion widths, so the
        # margin stays below half the gap
        margin = max(1e-6 * (b - a), 2.0 * evaluator.pole_exclusion)
        lo, vals_lo, missing_lo = _pole_probe(evaluator, a, margin, +1.0)
        hi, vals_hi, missing_hi = _pole_probe(evaluator, b, margin, -1.0)
        roots = [(lo, lo - a)] * missing_lo + [(hi, b - hi)] * missing_hi
        for t in range(int(np.sum(vals_lo < 0.0)), int(np.sum(vals_hi < 0.0))):
            if vals_lo[t] == 0.0:  # a zero is not yet negative: the root is lo
                roots.append((lo, 0.0))
            else:
                roots.append(_hybrid_root(_eigenvalue_curve(evaluator, t), lo, float(vals_lo[t]),
                                          hi, float(vals_hi[t]), tol))
        levels += [PerturbedLevel(root, (a, b), _BETWEEN, resid) for root, resid in roots]

    levels = [lvl for lvl in levels if window.contains(lvl.omega)]
    levels.sort(key=lambda lvl: lvl.omega)
    return levels


# ------------------------------------------------------- eigenfunctions ---


def build_eigenfunction(
    evaluator: GreensEvaluator, level: PerturbedLevel, tol_scale: float = 1.0
) -> EigenfunctionRep:
    """Mode expansion of the perturbed eigenfunction at a one-scatterer root.

    Coefficients are normalization * phi_k(x1) / (omega - eps_k) over the
    truncated basis; the dropped high-mode share of the norm is estimated
    from the average density and stored as tail_weight.
    """
    if evaluator.scatterers.n != 1:
        raise ValidationError("eigenfunctions are built for one-scatterer spectra only")
    omega = level.omega
    dist, k = evaluator.nearest_level(omega)
    width = tol_scale * evaluator.pole_exclusion
    if dist <= width:
        raise PoleProximityError(omega, float(evaluator.energies[k]), int(k), width)
    phi = evaluator.phi_values[:, 0]
    raw = phi / (omega - evaluator.energies)
    norm_sq = float(raw @ raw)
    e_top = float(evaluator.energies[-1])
    spec = evaluator.billiard
    tail = spec.mass / (2.0 * math.pi) / (e_top - omega) if omega < e_top else 0.0
    normalization = 1.0 / math.sqrt(norm_sq + tail)
    coeff = normalization * raw
    return EigenfunctionRep(
        level=level,
        coefficients=coeff,
        normalization=normalization,
        tail_weight=tail * normalization ** 2,
    )


def truncation_shift_bound(evaluator: GreensEvaluator, i: int, omega: float) -> float:
    """Estimated root displacement due to series truncation at this energy."""
    err = evaluator.diag_error(i, omega)
    slope = evaluator.diag_derivative(i, omega)
    return err / abs(slope) if slope != 0.0 else math.inf
