"""Rank-one reduction of the secular matrix.

Independent second route to the eigenvalues of the N x N secular matrix:
start from the mode-free diagonal and absorb the mode terms, one rank-one
update per mode. Each absorption solves a secular equation whose roots
interlace the previous diagonal, so every root is bracketed by known poles
and the pass never loses one. A safeguarded rational iteration that models
the two bracketing poles exactly (R.-C. Li's middle way, the method of
LAPACK's dlaed4) finds all roots of an absorption in about five steps; with
one scatterer an absorption is a plain shift.

The engine is batched over energies: reductions at many omega run in
lockstep, so every array operation of a step serves all of them, which
keeps whole-window eigenvalue curves affordable despite the
O(n_max * N^3) work per energy. `solver.solve_multi` remains the
production path; this module is the cross-check and the home of the
near-window approximation.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import PointBilliardError, ValidationError
from .greens import GreensEvaluator

# rational steps before the iteration falls back to plain bisection
_RATIONAL_STEPS = 40
_EPS = np.finfo(float).eps
# a rank-one term with |weight| * z^2 below this cannot move any eigenvalue
# at double precision; such coordinates are deflated exactly
DEFLATE_ABS = 1e-30


@dataclasses.dataclass(frozen=True)
class SigmaDecomposition:
    """Secular matrix split into a bare diagonal plus one term per mode.

    vectors[n] already carries the off-diagonal block-average weight, so
    assemble() reproduces the secular matrix entry-wise; the diagonal's
    unweighted remainder and the integral tail are folded into
    unperturbed_diag. Coordinates are permuted so the diagonal ascends.
    """

    omega: float
    unperturbed_diag: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray
    permutation: np.ndarray

    @property
    def n(self) -> int:
        return self.unperturbed_diag.size

    @property
    def n_modes(self) -> int:
        return self.weights.size

    def assemble(self) -> np.ndarray:
        """Dense matrix in the permuted coordinate order."""
        m = np.diag(self.unperturbed_diag).astype(float)
        m += (self.vectors * self.weights[:, None]).T @ self.vectors
        return m


@dataclasses.dataclass(frozen=True)
class ReductionState:
    """Progress of the reduction after absorbing the first k modes."""

    decomposition: SigmaDecomposition
    k: int
    diag: np.ndarray
    rotation: np.ndarray

    @property
    def residual_vectors(self) -> np.ndarray:
        """Remaining mode rows expressed in the current eigenbasis."""
        return self.decomposition.vectors[self.k:] @ self.rotation


def decompose(evaluator: GreensEvaluator, omega: float) -> SigmaDecomposition:
    """Split the secular matrix at omega into diagonal plus mode terms."""
    omega = float(omega)
    evaluator.check_pole_distance(omega)
    d0, vectors, weights = _decompose_arrays(evaluator, np.array([omega]))
    perm = np.argsort(d0[0], kind="stable")
    return SigmaDecomposition(
        omega=omega,
        unperturbed_diag=d0[0][perm],
        vectors=vectors[:, perm],
        weights=weights[0],
        permutation=perm,
    )


def _decompose_arrays(evaluator: GreensEvaluator, omegas: np.ndarray):
    """(B, N) bare diagonals, (n_modes, N) weighted rows, (B, n_modes) weights."""
    energies = evaluator.energies
    phi = evaluator.phi_values
    what = evaluator.offdiag_weights()
    vectors = np.sqrt(what)[:, None] * phi
    weights = 1.0 / (omegas[:, None] - energies)
    inv = np.asarray(evaluator.scatterers.inv_couplings, dtype=float)
    ct = np.array([evaluator.counterterm(i) for i in range(evaluator.n)])
    tail = np.array([evaluator.tail_correction(w) for w in omegas])
    # diagonal keeps full per-mode weight 1; the averaged rows only carry
    # what, so the shortfall (1 - what) * phi^2 returns to the diagonal
    short = 1.0 - what
    live = short > 0.0
    d0 = ct[None, :] - inv[None, :] + tail[:, None]
    if live.any():
        d0 = d0 + weights[:, live] @ (short[live, None] * phi[live] ** 2)
    return d0, vectors, weights


def initial_state(decomp: SigmaDecomposition) -> ReductionState:
    n = decomp.n
    return ReductionState(decomp, 0, decomp.unperturbed_diag.copy(), np.eye(n))


def reduce_step(state: ReductionState) -> ReductionState:
    """Absorb the next mode term and return the new state."""
    decomp = state.decomposition
    if state.k >= decomp.n_modes:
        raise ValidationError("all mode terms are already absorbed")
    z = decomp.vectors[state.k] @ state.rotation
    c = float(decomp.weights[state.k])
    d_new, omega_step = _absorb(state.diag[None, :], z[None, :], np.array([c]))
    return ReductionState(
        decomposition=decomp,
        k=state.k + 1,
        diag=d_new[0],
        rotation=state.rotation @ omega_step[0],
    )


def reduce_full(evaluator: GreensEvaluator, omega: float) -> np.ndarray:
    """Sorted eigenvalues of the secular matrix at omega via the reduction."""
    return reduce_full_batch(evaluator, np.array([float(omega)]))[0]


def reduce_full_batch(evaluator: GreensEvaluator, omegas) -> np.ndarray:
    """Sorted secular-matrix eigenvalues at every omega, shape (B, N).

    All energies advance through the mode absorptions in lockstep. Energies
    must keep the usual pole-exclusion distance from every unperturbed level.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    for w in omegas:
        evaluator.check_pole_distance(float(w))
    d, vectors, weights = _decompose_arrays(evaluator, omegas)
    b, n = d.shape
    perm = np.argsort(d, axis=1, kind="stable")
    d = np.take_along_axis(d, perm, axis=1)
    # rotation starts as the sorting permutation so rows enter presorted
    q = np.zeros((b, n, n))
    np.put_along_axis(q, perm[:, None, :], 1.0, axis=1)
    for k in range(vectors.shape[0]):
        z = np.einsum("bji,j->bi", q, vectors[k])
        d, omega_step = _absorb(d, z, weights[:, k])
        q = q @ omega_step
    return d


# ------------------------------------------------------------ the engine ---


def _absorb(d: np.ndarray, z: np.ndarray, c: np.ndarray):
    """Eigen-decomposition of diag(d) + c * z z^T, batched over rows.

    d must ascend along axis 1. Returns (new_d ascending, rotation) with
    rotation orthogonal per row: diag(d) + c zz^T = R diag(new_d) R^T.

    Negligible weights are deflated and exact ties collapsed, so each root
    of f(x) = sum_j z_j^2 / (x - d_j) - 1/c lies between two distinct live
    poles, or between the outermost pole and the shift bound c * |z|^2.
    A midpoint probe anchors each root at its nearer bracket end; the root
    is then iterated as an offset s from that anchor, so the distances
    x - d_j keep full relative accuracy however close it sits to a pole.
    Each step fits the terms with poles at or left of the root's left pole,
    and separately the rest, by one pole at the bracket end on their side,
    matching value and slope (Li's middle way, as in dlaed4), and moves to
    the zero of that two-pole model; a root bounded by the shift uses the
    one-pole model, whose zero is linear. A step that leaves the sign
    bracket is replaced by the bracket midpoint, and after _RATIONAL_STEPS
    steps all rows bisect. A row stops when |f| is within its rounding
    bound, when its step falls below one ulp of s, or, while bisecting,
    when its bracket is narrower than 2**-62 of its gap. Recomputing the
    update weights from the located roots (Gu and Eisenstat) keeps the
    eigenvector columns mutually orthogonal to rounding.
    """
    b, n = d.shape
    if n == 1:
        return d + c[:, None] * z * z, np.ones((b, 1, 1))
    z = z.copy()
    scale = np.maximum(1.0, np.abs(d).max(axis=1))
    z[np.abs(c)[:, None] * z * z <= DEFLATE_ABS * scale[:, None]] = 0.0
    pre = _collapse_ties(d, z)

    # pack active coordinates (z != 0) to the left, original order otherwise
    inactive = z == 0.0
    packed = bool(inactive.any())
    if packed:
        pack = np.argsort(inactive, axis=1, kind="stable")
        d_c = np.take_along_axis(d, pack, axis=1)
        z_c = np.take_along_axis(z, pack, axis=1)
    else:
        d_c, z_c = d, z
    m = (~inactive).sum(axis=1)

    idx = np.arange(n)
    slot = idx[None, :] < m[:, None]  # real root slots
    z2 = z_c * z_c
    total = (z2 * slot).sum(axis=1)
    shift = c * total
    # the shift bounds the outermost root only up to rounding: widen it
    pad = 4.0 * n * _EPS * (np.abs(d_c).max(axis=1) + np.abs(shift))
    reach = shift + np.copysign(pad, c)

    neg = (c < 0.0)[:, None]
    d_lo = np.concatenate((d_c[:, :1], d_c[:, :-1]), axis=1)
    d_hi = np.concatenate((d_c[:, 1:], d_c[:, -1:]), axis=1)
    left = np.where(neg, d_lo, d_c)
    right = np.where(neg, d_c, d_hi)
    is_top = (~neg) & (idx[None, :] == (m - 1)[:, None])
    is_bottom = neg & (idx[None, :] == 0)
    left = np.where(is_bottom, d_c + reach[:, None], left)
    right = np.where(is_top, d_c + reach[:, None], right)
    left = np.where(slot, left, 0.0)
    right = np.where(slot, right, 1.0)

    # masked entries sit infinitely far away, so they contribute exactly 0
    inv_c = np.where(c != 0.0, 1.0 / c, np.inf)[:, None]
    base_left = left[:, :, None] - d_c[:, None, :]
    base_right = right[:, :, None] - d_c[:, None, :]
    guard = slot[:, :, None] & slot[:, None, :]
    base_left = np.where(guard, base_left, np.inf)
    base_right = np.where(guard, base_right, np.inf)
    z2row = np.where(slot, z2, 0.0)[:, None, :]
    # sides[b, t, j, 0] marks the poles at or left of root t's left pole
    at_or_left = idx[None, None, :] <= (idx[None, :] - neg)[:, :, None]
    sides = np.stack((at_or_left, ~at_or_left), axis=3).astype(float)
    parts = np.empty((b, n, 2, n))

    def evaluate(base, s):
        """Sums of the terms and of their slopes over either side, (B, N, 2, 2)."""
        gap = base + s[:, :, None]
        np.divide(z2row, gap, out=parts[:, :, 0])
        np.divide(parts[:, :, 0], gap, out=parts[:, :, 1])
        return parts @ sides

    # anchor each root at the nearer bracket pole: probe the midpoint sign
    delta = right - left
    mid0 = 0.5 * delta
    sums = evaluate(base_left, mid0)
    anchor_right = (sums[..., 0, 0] + sums[..., 0, 1] - inv_c > 0.0) & ~is_top
    anchor_right |= is_bottom
    base = np.where(anchor_right[:, :, None], base_right, base_left)
    anchor_val = np.where(anchor_right, right, left)

    # from here on side 0 is the anchor's side and side 1 the other one; in
    # the anchored frame the model's poles sit at s = 0 and s = far
    flip = anchor_right[:, :, None, None]
    sides = np.where(flip, sides[..., ::-1], sides)
    sums = np.where(flip, sums[..., ::-1], sums)
    sgn = np.where(anchor_right, -1.0, 1.0)
    far = sgn * delta
    lo = np.minimum(far, 0.0)
    hi = np.maximum(far, 0.0)
    s = 0.5 * far
    end = is_top | is_bottom
    closed = 2.0 ** -62 * delta
    floor_c = 8.0 * _EPS * np.abs(inv_c)
    active = slot.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(_RATIONAL_STEPS + 64):
            w_a, w_o = sums[..., 0, 0], sums[..., 0, 1]
            f = w_a + w_o - inv_c
            pos = f > 0.0
            np.copyto(lo, s, where=pos)
            np.copyto(hi, s, where=~pos)
            # dlaed4's rounding bound: the two sides carry opposite signs
            active &= np.abs(f) > 8.0 * _EPS * np.abs(w_a - w_o) + floor_c
            mid = 0.5 * (lo + hi)
            if step < _RATIONAL_STEPS:
                # model C + S_a / s + S_o / (s - far), with S = gap^2 * slope
                # of its side; t = |s| solves c_a t^2 + bq t - S_a delta = 0
                dw_a, dw_o = sums[..., 1, 0], sums[..., 1, 1]
                g_o = s - far
                s_a = s * s * dw_a
                s_o = g_o * g_o * dw_o
                cc = f - s * dw_a - g_o * dw_o
                c_a = sgn * cc
                bq = s_a + s_o - c_a * delta
                root = np.sqrt(bq * bq + 4.0 * delta * c_a * s_a)
                t = 2.0 * delta * s_a / (bq + root)
                np.copyto(t, (root - bq) / (2.0 * c_a), where=bq <= 0.0)
                cand = sgn * t
                # the shift end is no pole: the one-pole model's zero
                np.copyto(cand, -s_a / cc, where=end)
                np.copyto(cand, mid, where=~((cand > lo) & (cand < hi)))
            else:
                active &= hi - lo > closed
                cand = mid
            active &= np.abs(cand - s) > _EPS * np.abs(cand)
            np.copyto(s, cand, where=active)
            if not np.count_nonzero(active):
                break
            sums = evaluate(base, s)
        else:
            raise PointBilliardError("rank-one absorption exhausted its step budget")

    # recompute the update weights from the located roots; this is what
    # makes the eigenvector columns mutually orthogonal to rounding
    gaps = base + s[:, :, None]  # gaps[b, t, j] = root_t - d_j, stable form
    gaps = np.where(guard, gaps, 1.0)
    numer = np.prod(gaps, axis=1)
    dd = d_c[:, :, None] - d_c[:, None, :]
    np.einsum("bjj->bj", dd)[:] = 1.0
    dd = np.where(guard, dd, 1.0)
    denom = np.prod(dd, axis=1) * np.where(c != 0.0, c, 1.0)[:, None]
    zhat2 = np.where(slot, np.abs(numer / denom), 0.0)
    zhat = np.copysign(np.sqrt(zhat2), z_c)

    vec = np.where(guard, zhat[:, None, :] / gaps, 0.0)  # vec[b, t, j]
    norm = np.sqrt((vec * vec).sum(axis=2))
    norm = np.where(norm > 0.0, norm, 1.0)
    vec /= norm[:, :, None]
    u_c = np.transpose(vec, (0, 2, 1))  # columns are eigenvectors
    eye = np.eye(n)[None, :, :]
    keep = ~(slot[:, None, :] & slot[:, :, None])
    u_c = np.where(keep, np.broadcast_to(eye, u_c.shape), u_c)

    val_c = np.where(slot, anchor_val + s, d_c)

    # with every coordinate live the roots already ascend; otherwise scatter
    # compressed coordinates back, then sort eigenvalues ascending
    if not packed:
        return val_c, u_c
    u_full = np.zeros_like(u_c)
    np.put_along_axis(u_full, pack[:, :, None] * np.ones((1, 1, n), dtype=int), u_c, axis=1)
    order = np.argsort(val_c, axis=1, kind="stable")
    d_new = np.take_along_axis(val_c, order, axis=1)
    u_full = np.take_along_axis(u_full, order[:, None, :] * np.ones((1, n, 1), dtype=int), axis=2)
    rotation = pre @ u_full if pre is not None else u_full
    return d_new, rotation


def _collapse_ties(d: np.ndarray, z: np.ndarray):
    """Rotate exactly degenerate coordinates so only one keeps weight.

    Mutates z in place; returns the accumulated (B, N, N) rotation or None
    when no row had an exact tie. Within a tied pair the weight moves to
    the lower coordinate; swaps bubble live weights together across runs.
    """
    b, n = d.shape
    if n == 1:
        return None
    tied = (np.diff(d, axis=1) == 0.0)
    if not tied.any():
        return None
    pre = np.broadcast_to(np.eye(n), (b, n, n)).copy()
    for _ in range(2 * n):
        changed = False
        for start in (0, 1):
            for j in range(start, n - 1, 2):
                pair = tied[:, j]
                if not pair.any():
                    continue
                zl, zr = z[:, j], z[:, j + 1]
                both = pair & (zl != 0.0) & (zr != 0.0)
                if both.any():
                    r = np.hypot(zl[both], zr[both])
                    cs, sn = zl[both] / r, zr[both] / r
                    cols = pre[both][:, :, [j, j + 1]]
                    # columns combine by G = [[cs, -sn], [sn, cs]]: G^T z = (r, 0)
                    rot = np.stack(
                        (np.stack((cs, -sn), axis=1), np.stack((sn, cs), axis=1)),
                        axis=1,
                    )
                    pre[np.ix_(both.nonzero()[0], np.arange(n), [j, j + 1])] = cols @ rot
                    z[both, j] = r
                    z[both, j + 1] = 0.0
                    changed = True
                swap = pair & (zl == 0.0) & (zr != 0.0)
                if swap.any():
                    z[swap, j], z[swap, j + 1] = z[swap, j + 1], 0.0
                    rows = swap.nonzero()[0]
                    pre[np.ix_(rows, np.arange(n), [j, j + 1])] = pre[
                        np.ix_(rows, np.arange(n), [j + 1, j])
                    ]
                    changed = True
        if not changed:
            break
    return pre


# ------------------------------------------------------- approximation ---


@dataclasses.dataclass(frozen=True)
class ApproximateSigma:
    """Near-window approximation of the secular matrix at one energy.

    Modes outside the retained window contribute only their diagonal parts,
    folded into diag; the kept modes stay as full rank-one terms. The
    closed_form field is the flat-spectrum estimate of the folded diagonal.
    """

    omega: float
    diag: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray
    kept_indices: np.ndarray
    closed_form: np.ndarray

    def assemble(self) -> np.ndarray:
        m = np.diag(self.diag).astype(float)
        if self.weights.size:
            m += (self.vectors * self.weights[:, None]).T @ self.vectors
        return m

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.assemble())


def approximate_sigma(
    evaluator: GreensEvaluator, omega: float, near_window: int
) -> ApproximateSigma:
    """Keep only the near_window modes closest to omega as rank-one terms.

    The discarded modes' diagonal contributions are folded exactly, so
    near_window = n_max reproduces the full secular matrix bit for bit.
    """
    if near_window < 1:
        raise ValidationError("near_window must be at least 1")
    omega = float(omega)
    if omega <= 0.0:
        raise ValidationError("the flat-spectrum comparison needs omega > 0")
    evaluator.check_pole_distance(omega)
    d0, vectors, weights = _decompose_arrays(evaluator, np.array([omega]))
    d0, weights = d0[0], weights[0]
    n_modes = weights.size
    near_window = min(near_window, n_modes)
    dist = np.abs(evaluator.energies - omega)
    kept = np.sort(np.argsort(dist, kind="stable")[:near_window])
    mask = np.zeros(n_modes, dtype=bool)
    mask[kept] = True
    folded = d0 + weights[~mask] @ (vectors[~mask] ** 2)
    spec = evaluator.billiard
    flat = spec.mass / (2.0 * math.pi) * math.log(omega / evaluator.scatterers.lambda_scale)
    inv = np.asarray(evaluator.scatterers.inv_couplings, dtype=float)
    return ApproximateSigma(
        omega=omega,
        diag=folded,
        vectors=vectors[mask],
        weights=weights[mask],
        kept_indices=kept,
        closed_form=flat - inv,
    )
