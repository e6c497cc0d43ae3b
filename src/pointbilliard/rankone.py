"""Rank-one reduction of the secular matrix.

Independent second route to the eigenvalues of the N x N secular matrix:
start from the mode-free diagonal and absorb the mode terms, one rank-one
update per mode. Each absorption solves a bracketed secular equation whose
roots interlace the previous diagonal, so the pass never loses a root.

The engine is batched over energies: reductions at many omega run in
lockstep (the per-step cost is a handful of vector operations), which keeps
whole-window eigenvalue curves affordable despite the O(n_max * N^3) work
per energy. `solver.solve_multi` remains the production path; this module
is the cross-check and the home of the near-window approximation.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ValidationError
from .greens import GreensEvaluator

BISECT_ITERS = 62
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
    """
    b, n = d.shape
    z = z.copy()
    scale = np.maximum(1.0, np.abs(d).max(axis=1))
    z[np.abs(c)[:, None] * z * z <= DEFLATE_ABS * scale[:, None]] = 0.0
    pre = _collapse_ties(d, z)

    # pack active coordinates (z != 0) to the left, original order otherwise
    inactive = z == 0.0
    pack = np.argsort(inactive, axis=1, kind="stable")
    d_c = np.take_along_axis(d, pack, axis=1)
    z_c = np.take_along_axis(z, pack, axis=1)
    m = (~inactive).sum(axis=1)

    slot = np.arange(n)[None, :] < m[:, None]  # real root slots
    z2 = z_c * z_c
    total = (z2 * slot).sum(axis=1)
    shift = c * total

    neg = (c < 0.0)[:, None]
    d_lo = np.concatenate((d_c[:, :1], d_c[:, :-1]), axis=1)
    d_hi = np.concatenate((d_c[:, 1:], d_c[:, -1:]), axis=1)
    left = np.where(neg, d_lo, d_c)
    right = np.where(neg, d_c, d_hi)
    is_top = (~neg) & (np.arange(n)[None, :] == (m - 1)[:, None])
    is_bottom = neg & (np.arange(n)[None, :] == 0)
    left = np.where(is_bottom, d_c + shift[:, None], left)
    right = np.where(is_top, d_c + shift[:, None], right)
    left = np.where(slot, left, 0.0)
    right = np.where(slot, right, 1.0)

    # anchor each root at the nearer bracket pole: probe the midpoint sign
    inv_c = np.where(c != 0.0, 1.0 / c, np.inf)
    base_left = left[:, :, None] - d_c[:, None, :]
    base_right = right[:, :, None] - d_c[:, None, :]
    guard = slot[:, :, None] & slot[:, None, :]
    base_left = np.where(guard, base_left, 1.0)
    base_right = np.where(guard, base_right, 1.0)
    z2row = np.where(slot, z2, 0.0)[:, None, :]

    def secular(base, s):
        return (z2row / (base + s[:, :, None])).sum(axis=2) - inv_c[:, None]

    mid0 = 0.5 * (right - left)
    f_mid = secular(base_left, mid0)
    anchor_right = (f_mid > 0.0) & ~is_top
    anchor_right |= is_bottom
    base = np.where(anchor_right[:, :, None], base_right, base_left)
    anchor_val = np.where(anchor_right, right, left)
    lo = np.where(anchor_right, left - right, 0.0)
    hi = np.where(anchor_right, 0.0, right - left)
    lo = np.where(slot, lo, 0.0)
    hi = np.where(slot, hi, 0.0)

    for _ in range(BISECT_ITERS):
        s_mid = 0.5 * (lo + hi)
        pos = secular(base, s_mid) > 0.0
        lo = np.where(pos, s_mid, lo)
        hi = np.where(pos, hi, s_mid)
    s = 0.5 * (lo + hi)

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

    # scatter compressed coordinates back, then sort eigenvalues ascending
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
