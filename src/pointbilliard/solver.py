"""Perturbed-spectrum root finding and eigenfunction assembly.

Every level is a root of the secular determinant: a zero eigenvalue of
the N x N secular matrix M = G - diag(inv), the inverse T-matrix; the
series give G, and the solver subtracts the inverse couplings. M' is
negative definite, so each sorted eigenvalue curve decreases strictly in
energy and crosses zero at most once between consecutive poles, and once
more at most below the first pole, where one to N states are always
bound. The
negative-eigenvalue counts at the two ends of such a gap name the curves
that cross, and one bracketed iteration finds each root; root multiplicity
is the number of curves crossing at the same energy. Each step of that
iteration moves to the zero of a rational model holding the gap's two
poles, C + S_a/(x - a) + S_b/(x - b), fitted to the curve's value and
slope (one series pass for both) and one earlier value, so a curve that
plunges into a pole costs no more steps than a flat one. One scatterer
is the case N = 1, with exactly one root per gap between distinct
unperturbed levels and one bound state below them.

The gaps are independent problems, solved a block at a time through one
near/far view of the Green sums (GreensEvaluator.local): one evaluation
probes every pole end of the block, one more per round counts the roots
next to all its open ends, and one vectorised iteration follows every
crossing curve, each element stepping exactly as it would alone and
leaving the batch when it converges.

All roots are reported with their bracketing gap, an estimate of the
remaining root displacement as residual, and a kind tag.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator

import numpy as np

from .basis import basis_column
from .errors import RootBracketError, ValidationError
from .greens import GreensEvaluator

DEFAULT_ROOT_TOL = 1e-9
# gaps per near/far block (GreensEvaluator.local); a block whose gap count
# times N is below LOCAL_MIN_ROOTS keeps the direct sums, since at about six
# series passes per root it would not repay the view's build, which costs
# about ten passes
LOCAL_BLOCK_GAPS = 40
LOCAL_MIN_ROOTS = 4

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

    bracket is the pole pair enclosing the root; for a below-ground root it
    is (window.lo, first pole). residual is the remaining root displacement
    in energy units: estimated as |f|/|f'| at the accepted root, or bounded
    by the width of the final bracket when the iteration stopped on that
    instead; a root reported 4 ulps from its pole, the closest probe,
    carries that distance.
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
        """Values of the eigenfunction at points of shape (..., 2), of shape
        points.shape[:-1]: each point's value is the one it has alone."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1:] != (2,):
            raise ValidationError(f"points must have shape (..., 2), got {pts.shape}")
        size = self.coefficients.size
        return np.reshape([self.coefficients @ basis_column(evaluator.table, p)[:size]
                           for p in pts.reshape(-1, 2)], pts.shape[:-1])


def _pole_mask(evaluator: GreensEvaluator) -> np.ndarray:
    """True for modes that carry a pole: a nonzero value at some scatterer
    (the evaluator zeroes those at or below its pole weight floor)."""
    return evaluator.phi_values.any(axis=1)


def _gaps(evaluator: GreensEvaluator, poles: np.ndarray,
          window: EnergyWindow) -> Iterator[tuple[float, float]]:
    """Gaps between the given poles (the energies of _pole_mask, so the levels
    of zero-weight modes are merged away) that overlap the window.

    Yields (left_pole, right_pole) pairs with positive width. Gaps narrower
    than four pole-exclusion widths are unresolvable and skipped.
    """
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


def _model_root(a, b, x, f, slope, x_p, f_p):
    """Zeros of f ~ C + S_a / (x - a) + S_b / (x - b) fitted to f's samples,
    one per element of the arrays.

    With a slope, the model matches f and f' at x and f at x_p; without
    one (the first step, x and x_p the bracket ends) it matches the two
    values with C = 0. When a is None there is no left pole, and the model
    C + S_b / (x - b) matches either two values or value and slope. In the
    offset t = x - a over the gap width w = b - a, the zero solves
    C t^2 + (S_a + S_b - C w) t - S_a w = 0; the root taken is the one in
    (0, w) when S_a, S_b > 0, written without cancellation. An element is
    nan where its model has no real zero.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        v, v_p = x - b, x_p - b
        if a is None:
            s_b = -slope * v * v if slope is not None else (f - f_p) * v * v_p / (x_p - x)
            c = f - s_b / v
            return np.where(c > 0.0, b - s_b / c, np.nan)
        width = b - a
        u, u_p = x - a, x_p - a
        if slope is None:
            s_a = u * u_p * (f * v - f_p * v_p) / (width * (x - x_p))
            s_b = v * v_p * (f_p * u_p - f * u) / (width * (x - x_p))
            c = 0.0
        else:
            # the model's slopes S / (x - pole)^2 at x split f' in two parts
            secant = (f - f_p) / (x - x_p)
            part_a = u_p * (slope * v - secant * v_p) / (width * (x_p - x))
            part_b = -slope - part_a
            s_a, s_b = part_a * u * u, part_b * v * v
            c = f - part_a * u - part_b * v
        bq = s_a + s_b - c * width
        root = np.sqrt(bq * bq + 4.0 * c * s_a * width)  # nan: the model has no real zero
        return np.where(bq > 0.0, a + 2.0 * s_a * width / (bq + root),
                        np.where(c != 0.0, a + (root - bq) / (2.0 * c), np.nan))


def _hybrid_root(f_and_slope, a, b, lo, f_lo, hi, f_hi, tol: float):
    """Bracketed roots of decreasing functions, one per element: element k
    has its root in (lo[k], hi[k]), between poles a[k] < b[k].

    f_and_slope(x, k) returns (f(x), f'(x)) for the elements indexed by the
    array k at their points x; a is None when no pole bounds the intervals
    on the left (below ground). Each step moves to the zero of the rational
    model of _model_root, which contains the gap's poles: the first from
    the two bracket values, every later one from value and slope at the
    latest iterate and the value at the one before. Returns the arrays
    (roots, residuals): a residual is |f/f'| when that falls to tol, else
    the bracket width once the bracket is narrower than tol, or than 4 ulps
    where floats are coarser (the root lies inside it). The bracket
    invariant f(lo) > 0 > f(hi) is maintained; a model zero outside the
    open bracket, or none, and every step after the 48th, fall back to
    bisection, so convergence is guaranteed. Every element takes the steps
    it would take alone, in the same arithmetic, and leaves the batch when
    it converges.
    """
    lo, f_lo, hi, f_hi, b = (np.array(v, dtype=float) for v in (lo, f_lo, hi, f_hi, b))
    bad = np.flatnonzero(~((f_lo > 0.0) & (f_hi < 0.0)))
    if bad.size:
        k = bad[0]
        raise RootBracketError(
            f"invalid bracket [{lo[k]}, {hi[k]}]: f = ({f_lo[k]:.3e}, {f_hi[k]:.3e})"
        )
    a = None if a is None else np.array(a, dtype=float)
    roots, residuals = np.empty(lo.size), np.empty(lo.size)
    active = np.arange(lo.size)
    x_prev, f_prev = lo, f_lo
    x_cur, f_cur, slope = hi, f_hi, None
    for step in range(200):
        if not active.size:
            return roots, residuals
        # a model still running after 48 steps has stalled: bisection takes over
        x_new = _model_root(a, b, x_cur, f_cur, slope, x_prev, f_prev) if step < 48 else np.nan
        x_new = np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
        f_new, slope = f_and_slope(x_new, active)
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
        lo = np.where(f_new > 0.0, x_new, lo)
        hi = np.where(f_new < 0.0, x_new, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            resid = np.abs(f_new / slope)  # inf where the slope is 0
        resid[f_new == 0.0] = 0.0
        converged = resid <= tol
        width = hi - lo
        narrow = ~converged & (width <= np.maximum(tol, 4.0 * np.spacing(np.abs(x_new))))
        done = converged | narrow
        roots[active[done]] = x_new[done]
        residuals[active[done]] = np.where(converged, resid, width)[done]
        keep = ~done
        active, lo, hi, b = active[keep], lo[keep], hi[keep], b[keep]
        x_prev, f_prev, x_cur, f_cur, slope = (x_prev[keep], f_prev[keep], x_cur[keep],
                                               f_cur[keep], slope[keep])
        if a is not None:
            a = a[keep]
    if not active.size:
        return roots, residuals
    raise RootBracketError(f"root iteration did not converge in [{lo[0]}, {hi[0]}]")


def _block_series(evaluator: GreensEvaluator, lo: float, hi: float, n_gaps: int):
    """The series source for a block of n_gaps gaps spanning [lo, hi]: the
    evaluator's near/far view of the block, or the evaluator itself when the
    block is too small to repay the view."""
    if n_gaps * evaluator.n < LOCAL_MIN_ROOTS:
        return evaluator
    return evaluator.local(lo, hi)


def _eigenvalues(series, inv, x):
    """(sorted eigenvalues of M(x), M(x)) for an array of points x, with M =
    G - diag(inv), G summed by series (the evaluator or a near/far view)
    without the pole check: probes come within 4 ulps of a pole. For one
    scatterer M is its own eigenvalue (see _curves)."""
    m = series.secular_orders(x)[0] - np.diag(inv)
    return (m[..., 0] if series.n == 1 else np.linalg.eigvalsh(m)), m


def _curves(series, inv, curve):
    """f_and_slope of _hybrid_root for the sorted eigenvalue curves of M:
    element k follows curve[k]. M = G - diag(inv) and M' come from one
    kernel, and the slope is the Hellmann-Feynman v^T M' v of eigenvector v;
    all points share one eigh on the stack of their matrices. For one
    scatterer M is the curve and M' its slope, with no eigh: going through
    eigh makes a 40-gap block at 100k modes 27 % slower through a prebuilt
    view (0.82 to 1.04 ms), and a solve_single call 5 % slower."""

    def f_and_slope(x, k):
        m, m_slope = series.secular_orders(x, 0, 2)
        m -= np.diag(inv)
        if series.n == 1:
            return m[:, 0, 0], m_slope[:, 0, 0]
        vals, vecs = np.linalg.eigh(m)
        rows, t = np.arange(x.size), curve[k]
        v = vecs[rows, :, t]
        return vals[rows, t], np.vecdot(np.vecmat(v, m_slope), v)

    return f_and_slope


def _pole_probe(evaluator: GreensEvaluator, series, poles, starts, signs):
    """Probe M at x = pole + sign * offset until no root lies closer, for
    every pole end of a block at once.

    Returns (x, sorted eigenvalues of M(x), number of roots between x and
    the pole), one row per end. The offset starts at start and shrinks
    32-fold toward the pole, to 4 ulps from it at most; microscopic mode
    weights push roots very close in, and roots still missing at 4 ulps lie
    within them. A probe whose negative count is at its extreme (none right
    of the pole, all N left of it) misses nothing, and most stop there.
    Otherwise the count at the pole decides: the pole's weight rows U, one
    per mode at its energy, make rank U eigenvalues of M diverge, to +inf on
    its right and -inf on its left; the others tend to those of the regular
    part of M at the pole, compressed onto the complement of span U. That
    compression holds no pole term, so its first-order extrapolation from
    x, R = M + (pole - x) M', fixes the rest of the count. Each round counts
    all open ends at once, with one M' pass and one eigvalsh: in the
    singular basis of U (one SVD of all ends' rows, zero-padded to the
    largest degeneracy), R with unit pivots in place of the span's rows and
    columns has the compression's eigenvalues and positive ones. evaluator
    gives the mode values, energies and pole weight floor; series (the
    evaluator or its near/far view) supplies M and M'.
    """
    floor, inv = 4.0 * np.spacing(np.abs(poles)), evaluator.scatterers.inv_couplings
    x = poles + signs * np.maximum(starts, floor)
    vals, m = _eigenvalues(series, inv, x)
    missing, offset = np.zeros(x.size, dtype=int), starts.copy()
    extreme = np.where(signs > 0.0, 0, evaluator.n)
    k = np.flatnonzero(np.count_nonzero(vals < 0.0, axis=1) != extreme)  # the open ends
    if not k.size:
        return x, vals, missing
    e, i = evaluator.energies, np.arange(evaluator.n)
    first, stop = (np.searchsorted(e, poles, side)[:, None] for side in ("left", "right"))
    index = first + np.arange(np.max(stop - first))
    rows = np.where((index < stop)[..., None], evaluator.phi_values[index % e.size], 0.0)
    sv, vt = np.linalg.svd(rows)[1:]
    rank = np.count_nonzero(sv ** 2 > evaluator.pole_weight_floor, axis=1)
    while k.size:
        r = m[k] + (poles[k] - x[k])[:, None, None] * series.secular_orders(x[k], 1)[0]
        pivot = np.minimum.outer(i, i) < rank[k, None, None]  # in the span's rows or columns
        regular = np.where(pivot, np.eye(evaluator.n), vt[k] @ r @ vt[k].mT)
        at_pole = (np.count_nonzero(np.linalg.eigvalsh(regular) < 0.0, axis=1)
                   + np.where(signs[k] < 0.0, rank[k], 0))
        missing[k] = signs[k] * (np.count_nonzero(vals[k] < 0.0, axis=1) - at_pole)
        k = k[(missing[k] != 0) & (offset[k] > floor[k])]
        if k.size:
            offset[k] /= 32.0
            x[k] = poles[k] + signs[k] * np.maximum(offset[k], floor[k])
            vals[k], m[k] = _eigenvalues(series, inv, x[k])
            missing[k] = 0
            k = k[np.count_nonzero(vals[k] < 0.0, axis=1) != extreme[k]]
    return x, vals, missing


def _solve_block(evaluator: GreensEvaluator, series, block: list, tol: float) -> list:
    """The roots of one block of (a, b, kind) gaps, gap by gap, summed through
    series: one _pole_probe for all its pole ends and one _hybrid_root for all
    its crossing curves. A below-ground block is that one gap."""
    a, b = np.array([gap[0] for gap in block]), np.array([gap[1] for gap in block])
    kind, inv = block[0][2], evaluator.scatterers.inv_couplings
    start = np.minimum(evaluator.pole_exclusion, 1e-3 * (b - a))
    n = a.size
    if kind == _BELOW:  # a is the window edge, not a pole
        lo, (vals_lo, _), missing_lo = a, _eigenvalues(series, inv, a), np.zeros(1, dtype=int)
        hi, vals_hi, missing_hi = _pole_probe(evaluator, series, b, start, np.full(1, -1.0))
    else:
        x, vals, missing = _pole_probe(evaluator, series, np.concatenate([a, b]),
                                       np.tile(start, 2), np.repeat([1.0, -1.0], n))
        lo, hi, vals_lo, vals_hi = x[:n], x[n:], vals[:n], vals[n:]
        missing_lo, missing_hi = missing[:n], missing[n:]
    first = np.count_nonzero(vals_lo < 0.0, axis=1)
    stop = np.count_nonzero(vals_hi < 0.0, axis=1)
    # (gap, curve) of every crossing curve, gap by gap
    g, t = np.array([(k, c) for k in range(n) for c in range(first[k], stop[k])],
                    dtype=int).reshape(-1, 2).T
    f_lo, f_hi = vals_lo[g, t], vals_hi[g, t]
    # a zero is not yet negative: the root is lo
    roots, resids, run = lo[g], np.zeros(g.size), f_lo != 0.0
    roots[run], resids[run] = _hybrid_root(
        _curves(series, inv, t[run]), None if kind == _BELOW else a[g[run]], b[g[run]],
        lo[g[run]], f_lo[run], hi[g[run]], f_hi[run], tol)
    crossings = iter(zip(roots.tolist(), resids.tolist()))
    levels = []
    for (gap_a, gap_b, _), lo_k, hi_k, m_lo, m_hi, crossing in zip(
            block, lo.tolist(), hi.tolist(), missing_lo.tolist(), missing_hi.tolist(),
            (stop - first).tolist()):
        found = ([(lo_k, lo_k - gap_a)] * m_lo + [(hi_k, gap_b - hi_k)] * m_hi
                 + [next(crossings) for _ in range(crossing)])
        levels += [PerturbedLevel(root, (gap_a, gap_b), kind, resid) for root, resid in found]
    return levels


def _check_window_top(evaluator: GreensEvaluator, window: EnergyWindow) -> None:
    """Reject a window reaching past 90% of the truncated spectrum, where
    diag_error, and with it every root's accuracy, is unbounded."""
    if window.hi > 0.9 * evaluator.cutoff_energy:
        raise ValidationError(f"window top {window.hi:.6g} is beyond 90% of the truncated "
                              f"spectrum ({evaluator.cutoff_energy:.6g}); raise n_max")


def _solve(evaluator: GreensEvaluator, window: EnergyWindow, tol: float) -> list[PerturbedLevel]:
    """Every root in the window, for any number of scatterers.

    The gaps are those between resolvable poles, plus (window.lo, first
    pole) when the window reaches below it. Each gap is probed at both
    ends, next to a pole by _pole_probe; the sorted eigenvalue curves
    indexed from the negative count at the lower end up to the one at the
    upper end cross zero in it, each once, and _hybrid_root follows each.
    Coincident roots (degenerate zero eigenvalues) come once per curve.
    The gaps are walked in blocks of LOCAL_BLOCK_GAPS, each summed through
    its own near/far view (_block_series); the below-ground gap is a block
    of its own, and each block is solved at once (_solve_block).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be finite and positive, got {tol!r}")
    _check_window_top(evaluator, window)
    poles = evaluator.energies[_pole_mask(evaluator)]
    gaps = [(a, b, _BETWEEN) for a, b in _gaps(evaluator, poles, window)]
    blocks = [gaps[k:k + LOCAL_BLOCK_GAPS] for k in range(0, len(gaps), LOCAL_BLOCK_GAPS)]
    if poles.size and window.lo < poles[0] - 4.0 * evaluator.pole_exclusion:
        # a block of its own: it may reach far below the first pole
        blocks.insert(0, [(window.lo, float(poles[0]), _BELOW)])
    del poles  # a float per mode, not to be held through the view builds

    levels = []
    for block in blocks:
        series = _block_series(evaluator, block[0][0], block[-1][1], len(block))
        levels += _solve_block(evaluator, series, block, tol)

    levels = [lvl for lvl in levels if window.contains(lvl.omega)]
    levels.sort(key=lambda lvl: lvl.omega)
    return levels


def solve_single(
    evaluator: GreensEvaluator,
    window: EnergyWindow,
    tol: float = DEFAULT_ROOT_TOL,
) -> list[PerturbedLevel]:
    """All levels of a one-scatterer configuration in the window; see _solve."""
    if evaluator.scatterers.n != 1:
        raise ValidationError("solve_single requires exactly one scatterer")
    return _solve(evaluator, window, tol)


def solve_multi(
    evaluator: GreensEvaluator,
    window: EnergyWindow,
    tol: float = DEFAULT_ROOT_TOL,
) -> list[PerturbedLevel]:
    """All secular-determinant roots in the window for N >= 1 scatterers; see _solve."""
    return _solve(evaluator, window, tol)


# ------------------------------------------------------- eigenfunctions ---


def build_eigenfunction(evaluator: GreensEvaluator, level: PerturbedLevel) -> EigenfunctionRep:
    """Mode expansion of the perturbed eigenfunction at a one-scatterer root.

    Coefficients are normalization * phi_k(x1) / (omega - eps_k) over the
    truncated basis; the dropped high-mode share of the norm is estimated
    from the average density and stored as tail_weight.
    """
    if evaluator.scatterers.n != 1:
        raise ValidationError("eigenfunctions are built for one-scatterer spectra only")
    omega = level.omega
    evaluator.check_pole_distance(omega)
    phi = evaluator.phi_values[:, 0]
    raw = phi / (omega - evaluator.energies)
    norm_sq = float(raw @ raw)
    tail = -evaluator.tail_correction(omega, 1)
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
