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
the production path; this module is the cross-check and the home of the
near-window approximation.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ValidationError
from .greens import GreensEvaluator


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
    q = np.broadcast_to(np.eye(n), (b, n, n))
    for k in range(vectors.shape[0]):
        z = np.einsum("bji,j->bi", q, vectors[k])
        d, omega_step = _absorb(d, z, weights[:, k])
        q = q @ omega_step
    return d


# ------------------------------------------------------------ the engine ---


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
