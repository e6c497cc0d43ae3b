"""Perturbed-spectrum root finding and eigenfunction assembly.

Single scatterer: the spectral condition is a scalar equation, regularized
diagonal = inverse coupling, with exactly one root per gap between distinct
unperturbed levels (a second branch below the ground state opens for
negative inverse coupling). Several scatterers: roots of the secular
determinant. The derivative of the secular matrix is negative definite, so
its sorted eigenvalue curves all decrease strictly in energy and the count
of negative eigenvalues can only grow across a gap; every root is localized
by bisecting that count, which needs no eigenvector bookkeeping and handles
root multiplicity exactly.

All roots are reported with their bracketing gap, a scaled residual (the
estimated root displacement, |f| / |f'|), and a kind tag.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, Sequence

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
    estimate of the remaining root displacement in energy units.
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
        if a > window.hi:
            break
        if b < window.lo or b - a <= min_width:
            continue
        yield a, b


def _descend_from_pole(f, pole: float, gap: float, sign: float, excl: float):
    """First offset from a pole at which f has the pole-dominated sign.

    Starts at min(exclusion width, gap/1000) and shrinks toward the pole;
    microscopic mode weights push the sign flip very close in.
    """
    d = min(excl, 1e-3 * gap)
    floor = max(1e-15 * gap, 1e-13 * excl)
    while d >= floor:
        x = pole + sign * d
        val = f(x)
        if math.copysign(1.0, val) == sign:
            return x, val
        d /= 32.0
    raise RootBracketError(
        f"no sign change detected within {gap:.3e}-wide gap at pole {pole!r}; "
        "mode weight at the scatterer is below numerical resolution"
    )


def _hybrid_root(f, fprime, lo: float, f_lo: float, hi: float, f_hi: float, tol: float):
    """Bracketed root of decreasing f: bisection with secant acceleration.

    Returns (root, scaled_residual). The bracket invariant f(lo) > 0 > f(hi)
    is maintained; secant proposals outside the open bracket fall back to
    bisection, so convergence is guaranteed.
    """
    if not (f_lo > 0.0 > f_hi):
        raise RootBracketError(
            f"invalid bracket [{lo}, {hi}]: f = ({f_lo:.3e}, {f_hi:.3e})"
        )
    x_prev, f_prev = lo, f_lo
    x_cur, f_cur = hi, f_hi
    for _ in range(200):
        denom = f_cur - f_prev
        x_new = x_cur - f_cur * (x_cur - x_prev) / denom if denom != 0.0 else lo
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        f_new = f(x_new)
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
        if f_new > 0.0:
            lo, f_lo = x_new, f_new
        elif f_new < 0.0:
            hi, f_hi = x_new, f_new
        else:
            return x_new, 0.0
        slope = fprime(x_cur)
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
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    _check_window_vs_table(evaluator, window)
    inv = float(evaluator.scatterers.inv_couplings[0])
    excl = evaluator.pole_exclusion

    def f(w: float) -> float:
        return evaluator.diag(0, w, check_pole=False) - inv

    def fprime(w: float) -> float:
        return evaluator.diag_derivative(0, w, check_pole=False)

    levels = []
    for a, b in _gaps(evaluator, window):
        gap = b - a
        lo, f_lo = _descend_from_pole(f, a, gap, +1.0, excl)
        hi, f_hi = _descend_from_pole(f, b, gap, -1.0, excl)
        root, resid = _hybrid_root(f, fprime, lo, f_lo, hi, f_hi, tol)
        if window.contains(root):
            levels.append(PerturbedLevel(root, (a, b), _BETWEEN, resid))

    first_pole = float(evaluator.energies[_pole_mask(evaluator).argmax()])
    if inv < 0.0 and window.lo < first_pole:
        lvl = _below_ground_root(evaluator, f, fprime, first_pole, tol)
        if window.contains(lvl.omega):
            levels.insert(0, lvl)
    return levels


def _below_ground_root(evaluator, f, fprime, first_pole: float, tol: float) -> PerturbedLevel:
    spacing = evaluator.billiard.mean_spacing
    hi = first_pole - min(evaluator.pole_exclusion, 1e-3 * spacing)
    f_hi = f(hi)
    step = spacing
    lo = hi
    for _ in range(70):
        lo = hi - step
        f_lo = f(lo)
        if f_lo > 0.0:
            root, resid = _hybrid_root(f, fprime, lo, f_lo, hi, f_hi, tol)
            return PerturbedLevel(root, (lo, first_pole), _BELOW, resid)
        step *= 2.0
    raise RootBracketError("no below-ground sign change found (coupling too weak?)")


def _check_window_vs_table(evaluator: GreensEvaluator, window: EnergyWindow) -> None:
    e_top = float(evaluator.energies[-1])
    if window.hi > 0.9 * e_top:
        raise ValidationError(
            f"window top {window.hi:.6g} is beyond 90% of the truncated spectrum "
            f"({e_top:.6g}); raise n_max"
        )


# ---------------------------------------------------------------- multi ---


def _sorted_eigenvalues(evaluator: GreensEvaluator, omega: float) -> np.ndarray:
    return np.linalg.eigvalsh(evaluator.secular_matrix(omega))


def _refine_count_step(
    evaluator: GreensEvaluator,
    lo: float,
    vals_lo: np.ndarray,
    hi: float,
    vals_hi: np.ndarray,
    target: int,
    tol: float,
):
    """Locate the energy where the negative-eigenvalue count reaches target.

    Every sorted eigenvalue curve of the secular matrix decreases strictly,
    so the count is a monotone step function of energy and the target-th
    crossing is the zero of the sorted eigenvalue with index target - 1.
    Returns (root, residual estimate).
    """
    idx = target - 1
    v_lo, v_hi = float(vals_lo[idx]), float(vals_hi[idx])
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid in (lo, hi):
            break
        vals = _sorted_eigenvalues(evaluator, mid)
        v_mid = float(vals[idx])
        if int(np.sum(vals < 0.0)) >= target:
            hi, v_hi = mid, v_mid
        else:
            lo, v_lo = mid, v_mid
    root = 0.5 * (lo + hi)
    slope = (v_hi - v_lo) / (hi - lo) if hi > lo else 0.0
    resid = abs(0.5 * (v_lo + v_hi) / slope) if slope != 0.0 else 0.0
    return root, resid


def _gap_grid(a: float, b: float, spacing: float, points_per_spacing: int,
              excl: float) -> np.ndarray:
    gap = b - a
    # no point within two exclusion widths of a pole; _gaps drops gaps
    # narrower than four widths, so the margin stays below half the gap
    margin = max(1e-6 * gap, 2.0 * excl)
    inner = max(int(math.ceil(points_per_spacing * gap / spacing)), 4)
    base = np.linspace(a + margin, b - margin, inner + 2)
    # extra points hugging each pole catch curves that plunge late
    edges = np.maximum(np.array([1e-4, 1e-3, 1e-2]) * gap, margin)
    pts = np.concatenate((a + edges, base, b - edges[::-1]))
    return np.unique(pts)


def solve_multi(
    evaluator: GreensEvaluator,
    window: EnergyWindow,
    tol: float = DEFAULT_ROOT_TOL,
    points_per_spacing: int | None = None,
) -> list[PerturbedLevel]:
    """All secular-determinant roots in the window for N >= 1 scatterers.

    Samples the negative-eigenvalue count of the real symmetric secular
    matrix on a dense grid across each pole gap (at least 8 points per
    scatterer per mean spacing). The count is non-decreasing in energy, so
    each unit increase between neighboring grid points marks one root,
    located by bisecting the count; coincident roots (degenerate zero
    eigenvalues) raise the count by their multiplicity and are reported
    once per unit step.
    """
    n = evaluator.scatterers.n
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    _check_window_vs_table(evaluator, window)
    if points_per_spacing is None:
        points_per_spacing = 8 * n
    elif points_per_spacing < 8 * n:
        raise ValidationError(f"grid density must be >= {8 * n} points per spacing")
    spacing = evaluator.billiard.mean_spacing

    levels = []
    for a, b in _gaps(evaluator, window):
        grid = _gap_grid(a, b, spacing, points_per_spacing, evaluator.pole_exclusion)
        vals = [_sorted_eigenvalues(evaluator, float(w)) for w in grid]
        counts = [int(np.sum(v < 0.0)) for v in vals]
        for g in range(len(grid) - 1):
            # a zero exactly at a grid point is not yet negative there, so
            # it belongs to this cell's count step and is never double counted
            for target in range(counts[g] + 1, counts[g + 1] + 1):
                root, resid = _refine_count_step(
                    evaluator,
                    float(grid[g]),
                    vals[g],
                    float(grid[g + 1]),
                    vals[g + 1],
                    target,
                    tol,
                )
                levels.append(PerturbedLevel(root, (a, b), _BETWEEN, resid))

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
