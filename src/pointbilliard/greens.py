"""Truncated Green-function series for point scatterers in a rectangle.

Three series matter.  The bare diagonal series sum phi_n(x)^2/(omega - e_n)
diverges logarithmically with the cutoff; the renormalised diagonal adds the
counterterm e_n/(e_n^2 + lam^2) per mode, which makes the sum converge and
encodes the self-adjoint (coupling-strength) renormalisation.  Off-diagonal
entries between distinct scatterers need no counterterm but converge only
conditionally, so they are evaluated as block-averaged partial sums.

Truncation handling:

* diagonal, tail_mode="integral": the discarded high modes are replaced by a
  mean-field integral with density rho_av and mean intensity 1/area.  The
  antiderivative of 1/(omega-E) + E/(E^2+lam^2) is log(sqrt(E^2+lam^2)) -
  log|omega-E| (up to sign), giving the closed tail
  (mass/2pi) * log((E_c - omega)/sqrt(E_c^2 + lam^2)), negative for
  0 < omega < E_c.  The complex-log form of the same expression serves
  evaluations off the real axis.

* off-diagonal: the running partial sum is averaged over the last three
  energy windows of one mean spacing each.  That average is algebraically a
  fixed per-mode weight profile (1 deep in the table, tapering to 0 at the
  cutoff), so evaluation stays a single dot product and the weights are
  shared by every omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BilliardSpec, ModeTable, basis_column, mode_table_with_count
from .errors import PoleProximityError, ValidationError

TAIL_MODES = ("none", "integral")

# Default half-width of the exclusion band around each unperturbed level,
# in units of the mean spacing.
POLE_EXCLUSION_FACTOR = 1e-9


@dataclass(frozen=True)
class ScattererSet:
    """Positions and inverse couplings of the point scatterers.

    The renormalised coupling enters every formula through its inverse, and
    inv_coupling = 0 (boundary angle pi) is a legitimate scatterer, so the
    inverse is the stored quantity.  A zero bare coupling (empty billiard)
    is not representable here by design.
    """

    positions: tuple
    inv_couplings: tuple
    lambda_scale: float = 1.0

    def __post_init__(self):
        positions = tuple((float(x), float(y)) for x, y in self.positions)
        inv = tuple(float(v) for v in self.inv_couplings)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "inv_couplings", inv)
        if len(positions) != len(inv):
            raise ValidationError(
                f"{len(positions)} positions but {len(inv)} inverse couplings")
        if not (math.isfinite(self.lambda_scale) and self.lambda_scale > 0.0):
            raise ValidationError(
                f"lambda_scale must be finite and positive, got {self.lambda_scale!r}")
        for p in positions:
            if not all(math.isfinite(c) for c in p):
                raise ValidationError(f"position {p!r} is not finite")
        for v in inv:
            if not math.isfinite(v):
                raise ValidationError(f"inverse coupling {v!r} is not finite")
        for a in range(len(positions)):
            for b in range(a + 1, len(positions)):
                if positions[a] == positions[b]:
                    raise ValidationError(
                        f"scatterers {a} and {b} share the position {positions[a]!r}")

    @classmethod
    def from_couplings(cls, positions, couplings, lambda_scale: float = 1.0):
        couplings = tuple(float(v) for v in couplings)
        for v in couplings:
            if v == 0.0 or not math.isfinite(v):
                raise ValidationError(f"coupling {v!r} must be finite and nonzero")
        return cls(positions, tuple(1.0 / v for v in couplings), lambda_scale)

    @property
    def n(self) -> int:
        return len(self.positions)

    def couplings(self) -> tuple:
        return tuple(math.inf if v == 0.0 else 1.0 / v for v in self.inv_couplings)

    def with_inv_coupling(self, index: int, value: float) -> "ScattererSet":
        inv = list(self.inv_couplings)
        inv[index] = float(value)
        return ScattererSet(self.positions, tuple(inv), self.lambda_scale)


@dataclass(frozen=True)
class GreensAccuracy:
    """Series truncation and tail policy shared by all evaluations."""

    n_max: int = 100_000
    tail_mode: str = "integral"
    offdiag_block_average: bool = True

    def __post_init__(self):
        if self.n_max < 1:
            raise ValidationError(f"n_max must be >= 1, got {self.n_max}")
        if self.tail_mode not in TAIL_MODES:
            raise ValidationError(
                f"tail_mode must be one of {TAIL_MODES}, got {self.tail_mode!r}")


def _is_complex(omega) -> bool:
    return isinstance(omega, complex) or np.iscomplexobj(omega)


class GreensEvaluator:
    """Caches per-scatterer basis values and serves all series evaluations.

    Construction validates the scatterer geometry against the billiard,
    builds (or truncates) the mode table, and precomputes the counterterm
    sums and the weight matrix from which every series is summed.  Instances
    are immutable in practice and safe to share across threads.
    """

    def __init__(self, billiard: BilliardSpec, scatterers: ScattererSet,
                 accuracy: GreensAccuracy | None = None,
                 table: ModeTable | None = None):
        self.billiard = billiard
        self.scatterers = scatterers
        self.accuracy = accuracy if accuracy is not None else GreensAccuracy()
        for k, (x, y) in enumerate(scatterers.positions):
            if not billiard.contains(x, y, strict=True):
                raise ValidationError(
                    f"scatterer {k} at {(x, y)!r} is not strictly inside the rectangle")
        if table is None:
            table = mode_table_with_count(billiard, self.accuracy.n_max)
        elif table.spec != billiard:
            raise ValidationError("mode table was built for a different billiard")
        elif len(table) < self.accuracy.n_max:
            table = mode_table_with_count(billiard, self.accuracy.n_max)
        self.table = table.truncated(self.accuracy.n_max)
        self.energies = self.table.energies
        self.cutoff_energy = float(self.energies[-1])
        self.mean_spacing = billiard.mean_spacing
        self.pole_exclusion = POLE_EXCLUSION_FACTOR * self.mean_spacing
        self.lam = scatterers.lambda_scale

        # phi[n, i] = eigenfunction n at scatterer i; shared by every series.
        self._phi = np.column_stack(
            [basis_column(self.table, p) for p in scatterers.positions])
        lam2 = self.lam ** 2
        denom = self.energies ** 2 + lam2
        self._counterterm = (self._phi ** 2 * (self.energies / denom)[:, None]).sum(axis=0)
        self._deficiency = (self._phi ** 2 / denom[:, None]).sum(axis=0)
        self._block_weights = self._build_block_weights()
        self._weights, self._column = self._build_weight_matrix()

    # -- bookkeeping -----------------------------------------------------

    @property
    def n(self) -> int:
        return self.scatterers.n

    @property
    def n_eff(self) -> int:
        return len(self.table)

    @property
    def phi_values(self) -> np.ndarray:
        """Eigenfunction values at the scatterers, shape (n_eff, N)."""
        return self._phi

    def _block_cover(self, m: int) -> np.ndarray:
        """Share of each mode inside the m-th one-spacing window below the cutoff."""
        width = self.mean_spacing
        hi = self.cutoff_energy - m * width
        lo = hi - width
        return np.clip(hi - np.maximum(lo, self.energies), 0.0, width) / width

    def _build_block_weights(self):
        """Per-mode weights realising the 3-block partial-sum average."""
        if not self.accuracy.offdiag_block_average:
            return None
        if self.energies[0] > self.cutoff_energy - 3.0 * self.mean_spacing:
            return None  # table too short to average; plain sums instead
        return (self._block_cover(0) + self._block_cover(1) + self._block_cover(2)) / 3.0

    def _build_weight_matrix(self):
        """One contiguous column per upper-triangle entry of the secular matrix.

        Column column[i, j] holds phi_i * phi_j, times the block-average
        profile off the diagonal; columns run over the upper triangle row
        by row, the order secular_matrix fills it in.
        """
        n = self.n
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        weights = np.empty((self.n_eff, len(pairs)), order="F")
        column = np.empty((n, n), dtype=int)
        for k, (i, j) in enumerate(pairs):
            weights[:, k] = self._phi[:, i] * self._phi[:, j]
            if i != j and self._block_weights is not None:
                weights[:, k] *= self._block_weights
            column[i, j] = column[j, i] = k
        return weights, column

    def _entry(self, i: int, j: int) -> np.ndarray:
        """Weight column of secular-matrix entry (i, j)."""
        return self._weights[:, self._column[i, j]]

    def _series(self, omega, weights, derivative: bool = False, partial: bool = False):
        """sum_n w[n] / (omega - e_n) for each per-mode weight vector w.

        derivative squares the kernel (the sign is the caller's); partial
        gives running sums over the modes.  One 1-D dot per vector, never a
        matrix product, so no entry depends on which others come with it.
        """
        kern = 1.0 / (omega - self.energies)
        if derivative:
            kern = kern * kern
        if partial:
            return [np.cumsum(w * kern) for w in weights]
        return [w @ kern for w in weights]

    def nearest_level(self, omega: float):
        """(distance, 0-based index) of the closest unperturbed level."""
        pos = int(np.searchsorted(self.energies, omega))
        best = None
        for k in (pos - 1, pos):
            if 0 <= k < self.n_eff:
                d = abs(omega - self.energies[k])
                if best is None or d < best[0]:
                    best = (d, k)
        return best

    def check_pole_distance(self, omega):
        """Reject real evaluation points inside the pole exclusion band."""
        if _is_complex(omega):
            if abs(omega.imag) > 0.0:
                return
            omega = omega.real
        hit = self.nearest_level(float(omega))
        if hit is not None and hit[0] < self.pole_exclusion:
            raise PoleProximityError(
                omega, float(self.energies[hit[1]]), hit[1] + 1, self.pole_exclusion
            )

    # -- diagonal (renormalised) series ----------------------------------

    def _log_tail(self, omega):
        """Mean-field integral over the modes above the cutoff."""
        ec = self.cutoff_energy
        scale = self.billiard.mass / (2.0 * math.pi)
        half_log = 0.5 * math.log(ec * ec + self.lam * self.lam)
        if _is_complex(omega):
            return scale * (np.log(ec - omega) - half_log)
        if omega >= ec:
            raise ValidationError(
                f"omega={omega!r} is not below the series cutoff {ec:g}")
        return scale * (math.log(ec - omega) - half_log)

    def tail_correction(self, omega):
        """Integral tail added to the diagonal series (0 when disabled)."""
        if self.accuracy.tail_mode != "integral":
            return 0.0
        return self._log_tail(omega)

    def diag(self, i: int, omega, check_pole: bool = True):
        """Renormalised diagonal Green function at scatterer i."""
        if check_pole:
            self.check_pole_distance(omega)
        value = self._series(omega, [self._entry(i, i)])[0]
        return value + self._counterterm[i] + self.tail_correction(omega)

    def counterterm(self, i: int) -> float:
        """The subtraction constant sum phi^2 * eps/(eps^2+lam^2) at scatterer i."""
        return float(self._counterterm[i])

    def offdiag_weights(self) -> np.ndarray:
        """Per-mode weights of the block-averaged off-diagonal sums (all 1 when off)."""
        if self._block_weights is None:
            return np.ones(self.n_eff)
        return self._block_weights

    def diag_error(self, i: int, omega) -> float:
        """Estimated absolute truncation error of diag().

        With the integral tail the residual is set by the discreteness of
        the modes near the cutoff; a few times the largest discarded term
        covers it.  Without the tail the dropped integral itself dominates.
        """
        ec = self.cutoff_energy
        w = abs(omega)
        if w >= 0.9 * ec:
            return math.inf
        lam2 = self.lam ** 2
        top_term = (4.0 / self.billiard.area) * (w * ec + lam2) / ((ec - w) * (ec * ec + lam2))
        err = 8.0 * top_term
        if self.accuracy.tail_mode == "none":
            err += abs(self._log_tail(w))
        return err

    def diag_derivative(self, i: int, omega, check_pole: bool = True):
        """d/domega of the renormalised diagonal series (always negative)."""
        if check_pole:
            self.check_pole_distance(omega)
        value = -self._series(omega, [self._entry(i, i)], derivative=True)[0]
        return value + self._tail_slope(omega)

    def _tail_slope(self, omega):
        """d/domega of tail_correction: the ln(e_cut - omega) tail keeps falling."""
        if self.accuracy.tail_mode != "integral":
            return 0.0
        return -self.billiard.mass / (2.0 * math.pi) / (self.cutoff_energy - omega)

    def derivative_error(self, omega) -> float:
        """Remainder bound for diag_derivative (series decays like 1/n^2)."""
        gap = self.cutoff_energy - abs(omega)
        if gap <= 0.0:
            return math.inf
        return self.billiard.mass / (2.0 * math.pi) / gap

    def deficiency_norm_sq(self, i: int) -> float:
        """sum phi_n(x_i)^2/(e_n^2 + lam^2), tail-corrected when enabled.

        This is the squared norm of the deficiency vector attached to
        scatterer i and the series behind the angle <-> coupling map.
        """
        value = float(self._deficiency[i])
        if self.accuracy.tail_mode == "integral":
            scale = self.billiard.mass / (2.0 * math.pi)
            value += scale * math.atan2(self.lam, self.cutoff_energy) / self.lam
        return value

    # -- off-diagonal series ----------------------------------------------

    def offdiag(self, i: int, j: int, omega, check_pole: bool = True):
        """Free Green function between scatterers i and j (i != j)."""
        if i == j:
            raise ValidationError(
                "off-diagonal series requires distinct scatterer indices; "
                "the i == j case is the renormalised diagonal diag()")
        if check_pole:
            self.check_pole_distance(omega)
        return self._series(omega, [self._entry(i, j)])[0]

    def offdiag_with_spread(self, i: int, j: int, omega):
        """(value, spread of the last three block averages)."""
        value = self.offdiag(i, j, omega)
        p = self._phi[:, i] * self._phi[:, j]
        if self._block_weights is None:
            return value, 3.0 * abs(p[-1] * (1.0 / (omega - self.cutoff_energy)))
        blocks = self._series(omega, [p * self._block_cover(m) for m in range(3)])
        spread = max(abs(a - b) for a in blocks for b in blocks)
        return value, spread

    # -- secular matrix ----------------------------------------------------

    def secular_matrix(self, omega, check_pole: bool = True) -> np.ndarray:
        """Inverse T-matrix: diagonal diag_i - inv_coupling_i, off-diagonal
        the free Green function between scatterers."""
        if check_pole:
            self.check_pole_distance(omega)
        out = np.array(self._series(omega, self._weights.T))[self._column]
        # one term at a time, in diag()'s order, so the diagonal is diag() - inv exactly
        diagonal = np.diag_indices(self.n)
        out[diagonal] += self._counterterm
        out[diagonal] += self.tail_correction(omega)
        out[diagonal] -= self.scatterers.inv_couplings
        return out

    def secular_matrix_derivative(self, omega) -> np.ndarray:
        """d/domega of secular_matrix at real omega (negative definite; no pole check)."""
        out = -np.array(self._series(omega, self._weights.T, derivative=True))[self._column]
        out[np.diag_indices(self.n)] += self._tail_slope(omega)
        return out

    def secular_matrix_batch(self, omegas, check_pole: bool = True) -> np.ndarray:
        """Stacked secular matrices for a vector of real omegas."""
        omegas = np.asarray(omegas, dtype=float)
        mats = [self.secular_matrix(float(w), check_pole) for w in omegas.ravel()]
        return np.array(mats).reshape(omegas.shape + (self.n, self.n))

    def diag_batch(self, i: int, omegas, check_pole: bool = True) -> np.ndarray:
        """diag(i, omega) for a vector of real omegas."""
        omegas = np.asarray(omegas, dtype=float)
        values = [self.diag(i, float(w), check_pole) for w in omegas.ravel()]
        return np.array(values).reshape(omegas.shape)

    # -- divergence witnesses ----------------------------------------------

    def unregularized_partial_sums(self, i: int, omega, truncations):
        """Bare diagonal partial sums at the given truncation counts.

        For omega below the ground state these decrease without bound; the
        decrement between cutoffs K1 < K2 tracks the mean-field logarithm
        -(mass/2pi) * log((E_K2 - omega)/(E_K1 - omega)).
        """
        self.check_pole_distance(omega)
        counts = [int(k) for k in truncations]
        for k in counts:
            if not 1 <= k <= self.n_eff:
                raise ValidationError(
                    f"truncation {k} outside the table (1..{self.n_eff})")
        csum = self._series(omega, [self._entry(i, i)], partial=True)[0]
        return [float(csum[k - 1]) for k in counts]
