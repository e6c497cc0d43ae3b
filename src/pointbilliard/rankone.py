"""Rank-one reduction of the secular matrix.

Independent second route to the eigenvalues of the N x N secular matrix:
start from the mode-free diagonal and absorb the mode terms, one rank-one
update per mode. Each absorption is the eigen-decomposition of the small
matrix diag(d) + c z z^T in the current eigenbasis, done by one LAPACK
symmetric eigensolve; with one scatterer an absorption is a plain shift.
The route never assembles the dense secular matrix, so it stays separate
from the one-shot assembly it is checked against.

The engine is batched over energies: reductions at many omega run in
lockstep, so each absorption is one eigensolve of a (B, N, N) stack for
all of them, which keeps whole-window eigenvalue curves affordable
despite the O(n_max * N^3) work per energy. `solver.solve_multi` remains
the production path; this module is the cross-check.
"""

from __future__ import annotations

import numpy as np

from .greens import GreensEvaluator


def _decompose_arrays(evaluator: GreensEvaluator, omegas: np.ndarray):
    """(B, N) bare diagonals, (n_modes, N) weighted rows, (B, n_modes) weights.

    The secular matrix at omegas[b] is diag(d0[b]) + sum over modes n of
    weights[b, n] * outer(vectors[n], vectors[n]): each row already carries
    the off-diagonal block-average weight, and the diagonal's unweighted
    remainder and the integral tail are folded into d0.
    """
    energies = evaluator.energies
    phi = evaluator.phi_values
    what = evaluator.offdiag_weights()
    vectors = np.sqrt(what)[:, None] * phi
    weights = 1.0 / (omegas[:, None] - energies)
    inv = np.asarray(evaluator.scatterers.inv_couplings, dtype=float)
    ct = np.array([evaluator.counterterm(i) for i in range(evaluator.n)])
    # diagonal keeps full per-mode weight 1; the averaged rows only carry
    # what, so the shortfall (1 - what) * phi^2 returns to the diagonal (the
    # top mode's weight is 0, so some mode always falls short)
    short = 1.0 - what
    live = short > 0.0
    d0 = (ct[None, :] - inv[None, :] + evaluator.tail_correction(omegas)[:, None]
          + weights[:, live] @ (short[live, None] * phi[live] ** 2))
    return d0, vectors, weights


def reduce_full(evaluator: GreensEvaluator, omega: float) -> np.ndarray:
    """Sorted eigenvalues of the secular matrix at omega via the reduction."""
    return reduce_full_batch(evaluator, np.array([float(omega)]))[0]


def reduce_full_batch(evaluator: GreensEvaluator, omegas) -> np.ndarray:
    """Sorted secular-matrix eigenvalues at every omega, shape (B, N).

    All energies advance through the mode absorptions in lockstep. Energies
    must keep the usual pole-exclusion distance from every unperturbed level.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    evaluator.check_pole_distance(omegas)
    d, vectors, weights = _decompose_arrays(evaluator, omegas)
    for d, _ in _absorptions(d, vectors, weights):
        pass
    return d


# ------------------------------------------------------------ the engine ---


def _absorptions(d: np.ndarray, vectors: np.ndarray, weights: np.ndarray):
    """Absorb the mode terms in order, yielding (d, q) after each one.

    d is (B, N), vectors (n_modes, N) and weights (B, n_modes). After k
    modes, q[b] diag(d[b]) q[b]^T equals diag(d0[b]) plus the first k
    terms weights[b, n] * outer(vectors[n], vectors[n]), with d[b] ascending.
    """
    b, n = d.shape
    q = np.broadcast_to(np.eye(n), (b, n, n))
    for k in range(vectors.shape[0]):
        z = np.einsum("bji,j->bi", q, vectors[k])
        d, omega_step = _absorb(d, z, weights[:, k])
        q = q @ omega_step
        yield d, q


def _absorb(d: np.ndarray, z: np.ndarray, c: np.ndarray):
    """Eigen-decomposition of diag(d) + c * z z^T, batched over rows.

    Returns (new_d ascending, rotation) with rotation orthogonal per row:
    diag(d) + c zz^T = R diag(new_d) R^T. With N = 1 the update is the
    shift d + c z^2; otherwise the (B, N, N) stack goes to one LAPACK
    symmetric eigensolve. Interlacing of new_d with d therefore holds to
    the eigensolver's backward error, not by construction, and an
    eigenvalue next to one of the d_j is accurate to about eps times the
    matrix norm, not relative to its distance from d_j.
    """
    b, n = d.shape
    if n == 1:
        return d + c[:, None] * z * z, np.ones((b, 1, 1))
    a = z[:, :, None] * (c[:, None] * z)[:, None, :]
    a[:, np.arange(n), np.arange(n)] += d
    return np.linalg.eigh(a)
