"""Truncated Green-function series for point scatterers in a rectangle.

Three series matter.  The bare diagonal series sum phi_n(x)^2/(omega - e_n)
diverges logarithmically with the cutoff; the renormalised diagonal adds the
counterterm e_n/(e_n^2 + lam^2) per mode, which makes the sum converge and
encodes the self-adjoint (coupling-strength) renormalisation.  Off-diagonal
entries between distinct scatterers need no counterterm but converge only
conditionally, so they are evaluated as block-averaged partial sums.

Truncation handling, one policy for every evaluation:

* diagonal: the discarded high modes are replaced by a mean-field integral
  with density rho_av and mean intensity 1/area.  The antiderivative of
  1/(omega-E) + E/(E^2+lam^2) is log(sqrt(E^2+lam^2)) - log|omega-E| (up to
  sign), giving the closed tail (mass/2pi) * log((E_c - omega)/sqrt(E_c^2 +
  lam^2)), negative for 0 < omega < E_c.  The complex-log form of the same
  expression serves evaluations off the real axis.  The bare series without
  it diverges; unregularized_partial_sums shows that.

* off-diagonal: the running partial sum is averaged over the last three
  energy windows of one mean spacing each.  That average is algebraically a
  fixed per-mode weight profile, min(1, (E_c - e)/(3 mean_spacing)), for a
  table of any length: exactly 1 for every mode at least three spacings
  below the cutoff, tapering to 0 at it.  Evaluation stays a single dot
  product, the weights are shared by every omega, and every pole term deep
  in the table is exactly rank one.

A mode value phi with phi^2 at or below pole_weight_floor is a node's rounding
noise, not a pole; the evaluator zeroes it once, so every series, the solver's
poles and the survey's curvature see the same weights.

Every series is a pass of one kernel, _sums, giving omega-derivatives of chosen
orders over a slice of the modes.  The series hold no coupling: the secular
matrix is G - diag(inv_couplings), and only secular_matrix and the solver
subtract the couplings, so one evaluator or view serves any of them.  diag,
diag_derivative, offdiag, secular_matrix and the two _batch forms first reject
a non-finite omega or one inside the pole exclusion band; the unchecked
secular_orders, of G, serves the root finders, whose probes come within a few
ulps of a pole, and takes an array of omegas, one kernel row per point.  Every
sum is a row reduction, one BLAS dot per point and weight column (np.vecdot),
never a matrix product, so an entry is the same bit for bit whichever other
points and columns are evaluated with it: a point alone or in a batch, a
scatterer alone or among others.  The evaluator's own full-length sums take
the points one at a time, so no points x n_eff kernel is formed.

Near/far split (GreensEvaluator.local): over a block [lo, hi] of gaps the
series splits at the modes in [lo, hi] plus LOCAL_NEIGHBOURS on each side.
The near part is summed exactly, by _sums on that short slice.  The far part
has no pole within R of the block centre c, so it is the Taylor series sum_j
D_j t^j/j! about c, t = omega - c, and its order-k derivative is the same
series shifted by k: one table of D_m serves every order, with LOCAL_TERMS = P
terms.  With x = (hi-lo)/(2R) the error at order k is at most k! sum_far |w| /
R^(k+1) * C(k+P, P) x^P / (1 - x (k+P+1)/(P+1)), the binomial series tail of
1/(omega - e)^(k+1).  When that exceeds 1% of diag_error at the block midpoint
(a block far wider than R, such as one reaching far below the first pole), or
no mode is far, local returns the evaluator itself and the block keeps the
direct sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BilliardSpec, ModeTable, basis_column, mode_table_with_count
from .errors import PoleProximityError, ValidationError

# Default half-width of the exclusion band around each unperturbed level,
# in units of the mean spacing.
POLE_EXCLUSION_FACTOR = 1e-9
# modes whose weight at every scatterer falls below this (relative to the
# uniform value 4/area) contribute no resolvable pole: such a weight is the
# rounding noise of a node (about (m eps)^2 for mode number m), not a pole
POLE_WEIGHT_FLOOR = 1e-22
# near/far split of GreensEvaluator.local: modes summed exactly on each side of
# the block, Taylor terms of the far part, the highest order a view serves (the
# survey's third), the far-part error allowed, relative to diag_error at the
# block midpoint, and far modes per chunk of a view build (OpenBLAS runs a dot
# of up to 10 000 on one thread, so no chunk is spread over the cores and back)
LOCAL_NEIGHBOURS = 80
LOCAL_TERMS = 24
LOCAL_MAX_ORDER = 3
LOCAL_ERROR_SHARE = 0.01
LOCAL_CHUNK = 10_000


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
        if not (math.isfinite(self.lambda_scale * self.lambda_scale) and self.lambda_scale > 0.0):
            raise ValidationError("lambda_scale must be positive with a finite square, "
                                  f"got {self.lambda_scale!r}")
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
    """Series truncation shared by all evaluations: the n_max lowest modes."""

    n_max: int = 100_000

    def __post_init__(self):
        if self.n_max < 1:
            raise ValidationError(f"n_max must be >= 1, got {self.n_max}")


def _is_complex(omega) -> bool:
    return isinstance(omega, complex) or np.iscomplexobj(omega)


def _sums(omega, energies, weights, first: int = 0, count: int = 1):
    """Order-k omega-derivatives of sum_n w[n] / (omega - e_n) over the given
    energies for each row w of the (columns, energies) array weights, one
    array of shape omega.shape + (columns,) per order k = first ..
    first+count-1.  omega is a scalar or an array of points.

    The kernel, of shape omega.shape + energies.shape, holds one row per
    point.  Its powers 1/(omega - e_n)^(k+1) are products taken elementwise
    (pow() is 100x slower on these kernels), in place where no sum needs the
    factor any more, and all of them before the first sum: with several BLAS
    threads a dot spreads the kernel over the cores, and an elementwise step
    after it pays to gather it back.  Each sum is a row reduction, np.vecdot:
    one BLAS dot per (point, weight row) pair, the same dot a single point
    and column take alone, never a matrix product, so no entry depends on
    which other points or columns come with it.  The factor (-1)^k k!
    multiplies the sum.
    """
    kern = 1.0 / (np.asarray(omega)[..., None] - energies)
    powers, term = [kern] if first == 0 else [], kern
    for order in range(1, first + count):
        if first and order == first + count - 1:
            term = np.multiply(term, kern, out=kern)  # the kernel's last use
        elif order - 1 < first and term is not kern:
            term *= kern  # the previous power has no sum of its own
        else:
            term = term * kern
        if order >= first:
            powers.append(term)
    out = []
    for order, term in enumerate(powers, first):
        sums = np.vecdot(weights, term[..., None, :])
        out.append(sums if order == 0 else (-1) ** order * math.factorial(order) * sums)
    return out


class _SeriesForms:
    """The unchecked series form of GreensEvaluator and of its local views.

    Both sum every weight column through self._series(omega, first, count),
    which returns, per order, the sums of shape omega.shape + (columns,);
    column self._column[i, j] holds the weights of entry (i, j), one per
    upper-triangle entry, column i that of diagonal entry (i, i).  omega is
    a scalar or an array of points, and each point's values are those it has
    alone.
    """

    def secular_orders(self, omega, first: int = 0, count: int = 1) -> list:
        """Omega-derivatives of the Green matrix G of orders first ..
        first+count-1, from one kernel and without the pole check, each of
        shape omega.shape + (N, N).  G is diag_i on the diagonal and the free
        Green function off it, with no coupling; every order is symmetric, and
        order 1 is negative definite at real omega."""
        n = self.n
        mats = []
        for order, sums in enumerate(self._series(omega, first, count), first):
            diagonal = sums[..., :n]  # a view of the diagonal entries' columns
            # one term at a time: the sums, the counterterm, then the tail
            if order == 0:
                diagonal += self._counterterm
            diagonal += np.asarray(self.tail_correction(omega, order))[..., None]
            mats.append(sums[..., self._column])
        return mats


class GreensEvaluator(_SeriesForms):
    """Caches per-scatterer basis values and serves all series evaluations.

    Construction validates the scatterer geometry against the billiard,
    builds (or truncates) the mode table, and precomputes the counterterm
    sums and the weight columns from which every series is summed.  Instances
    are immutable in practice and safe to share across threads.
    """

    def __init__(self, billiard: BilliardSpec, scatterers: ScattererSet,
                 accuracy: GreensAccuracy | None = None,
                 table: ModeTable | None = None):
        self.billiard = billiard
        self.scatterers = scatterers
        self.accuracy = accuracy if accuracy is not None else GreensAccuracy()
        if scatterers.n == 0:
            raise ValidationError("a Green-function evaluator needs at least one scatterer")
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
        # a mode weight phi^2 at or below this is a node's rounding noise, no pole
        self.pole_weight_floor = POLE_WEIGHT_FLOOR * 4.0 / billiard.area
        self.lam = scatterers.lambda_scale

        # phi[n, i] = eigenfunction n at scatterer i, shared by every series and
        # zeroed once where phi^2 is at or below the floor
        phi = np.column_stack([basis_column(self.table, p) for p in scatterers.positions])
        phi[phi ** 2 <= self.pole_weight_floor] = 0.0
        self._phi = phi
        lam2 = self.lam ** 2
        denom = self.energies ** 2 + lam2
        # one 1-D sum per scatterer, so an entry does not depend on the others
        self._counterterm = np.array([(p ** 2 * (self.energies / denom)).sum() for p in phi.T])
        self._deficiency = np.array([(p ** 2 / denom).sum() for p in phi.T])
        self._profile = self._block_profile()
        # weight column c of the series, row c here, one per upper-triangle entry
        # (i, j) of the secular matrix, the N diagonal ones first: phi_i phi_j,
        # times the block-average profile off the diagonal
        entries = [(i, i) for i in range(self.n)] + [
            (i, j) for i in range(self.n) for j in range(i + 1, self.n)]
        self._column = np.empty((self.n, self.n), dtype=int)
        self._columns = np.empty((len(entries), self.n_eff))
        for c, (i, j) in enumerate(entries):
            self._column[i, j] = self._column[j, i] = c
            np.multiply(phi[:, i], phi[:, j], out=self._columns[c])
            if i != j:
                self._columns[c] *= self._profile

    # -- bookkeeping -----------------------------------------------------

    @property
    def n(self) -> int:
        return self.scatterers.n

    @property
    def n_eff(self) -> int:
        return len(self.table)

    @property
    def phi_values(self) -> np.ndarray:
        """Eigenfunction values at the scatterers, shape (n_eff, N); those with
        phi^2 at or below pole_weight_floor are 0."""
        return self._phi

    def _block_profile(self) -> np.ndarray:
        """Per-mode weights realising the 3-block partial-sum average: each mode's
        mean share of the last three one-spacing windows below the cutoff, in
        closed form min(1, (E_c - e)/(3 mean_spacing))."""
        span = 3.0 * self.mean_spacing
        return np.minimum(1.0, (self.cutoff_energy - self.energies) / span)

    def _entry(self, i: int, j: int) -> np.ndarray:
        """Weight column of secular-matrix entry (i, j)."""
        return self._columns[self._column[i, j]]

    def _series(self, omega, first: int = 0, count: int = 1):
        """_sums of the weight columns over every mode, for an array of points
        one point at a time: a points x n_eff kernel would not fit the cache,
        and a row per point sums alike either way."""
        weights = self._columns
        if np.ndim(omega) == 0:
            return _sums(omega, self.energies, weights, first, count)
        sums = [_sums(w, self.energies, weights, first, count) for w in np.ravel(omega)]
        return [np.reshape([point[k] for point in sums], (*np.shape(omega), len(weights)))
                for k in range(count)]

    def with_inv_couplings(self, inv_couplings) -> "GreensEvaluator":
        """This evaluator with other inverse couplings, validated by
        ScattererSet.  No series reads them, so the table, phi, the weight
        columns, the counterterm and the deficiency arrays are shared, not
        copied; only secular_matrix and the solver see the new couplings."""
        twin = object.__new__(GreensEvaluator)
        twin.__dict__.update(self.__dict__, scatterers=ScattererSet(
            self.scatterers.positions, inv_couplings, self.scatterers.lambda_scale))
        return twin

    def local(self, lo: float, hi: float):
        """secular_orders for omega in [lo, hi], orders up to LOCAL_MAX_ORDER,
        from the near/far split of the module docstring.

        Returns a LocalGreens view, or the evaluator itself when the block is
        empty, no mode is far, or a far part's error bound exceeds LOCAL_ERROR_SHARE
        of diag_error at the block midpoint (or that is infinite).  The view is
        the caller's: nothing is stored on the evaluator.
        """
        e = self.energies
        n0 = max(int(np.searchsorted(e, lo)) - LOCAL_NEIGHBOURS, 0)
        n1 = min(int(np.searchsorted(e, hi, "right")) + LOCAL_NEIGHBOURS, self.n_eff)
        if not lo < hi or n0 == 0 and n1 == self.n_eff:
            return self
        centre = 0.5 * (lo + hi)
        radius = min(centre - e[n0 - 1] if n0 else math.inf,
                     e[n1] - centre if n1 < self.n_eff else math.inf)
        # |phi_i phi_j| <= (phi_i^2 + phi_j^2)/2, so the largest far sum of phi_i^2
        # bounds sum_far |w| for every column
        far_weight = max(float(w[:n0].sum() + w[n1:].sum())
                         for w in (self._entry(i, i) for i in range(self.n)))
        x, p = 0.5 * (hi - lo) / radius, LOCAL_TERMS
        if x * (p + LOCAL_MAX_ORDER + 1) >= p + 1:  # a binomial tail diverges
            return self
        bound = tuple(math.factorial(k) * far_weight / radius ** (k + 1) * math.comb(k + p, p)
                      * x ** p / (1.0 - x * (k + p + 1) / (p + 1))
                      for k in range(LOCAL_MAX_ORDER + 1))
        allowed = LOCAL_ERROR_SHARE * self.diag_error(0, centre)
        if not (math.isfinite(allowed) and max(bound) <= allowed):
            return self
        return LocalGreens(self, lo, hi, n0, n1, bound)

    def nearest_level(self, omega: float):
        """(distance, 0-based index) of the closest unperturbed level."""
        pos = int(np.searchsorted(self.energies, omega))
        return min((abs(omega - self.energies[k]), k) for k in (pos - 1, pos)
                   if 0 <= k < self.n_eff)

    def check_pole_distance(self, omega):
        """Reject non-finite real evaluation points and those inside the pole
        exclusion band."""
        if _is_complex(omega):
            if abs(omega.imag) > 0.0:
                return
            omega = omega.real
        omega = float(omega)
        if not math.isfinite(omega):
            raise ValidationError(f"omega {omega!r} must be finite")
        hit = self.nearest_level(omega)
        if hit is not None and hit[0] < self.pole_exclusion:
            raise PoleProximityError(
                omega, float(self.energies[hit[1]]), hit[1] + 1, self.pole_exclusion
            )

    # -- diagonal (renormalised) series ----------------------------------

    def tail_correction(self, omega, order: int = 0):
        """Integral tail added to the diagonal series, or its order-th
        omega-derivative: the mean-field integral over the modes above the
        cutoff, (mass/2pi) log((e_cut - omega)/sqrt(e_cut^2 + lam^2)), then
        -(mass/2pi) (order-1)!/(e_cut - omega)^order."""
        ec = self.cutoff_energy
        scale = self.billiard.mass / (2.0 * math.pi)
        if order:
            return -scale * math.factorial(order - 1) / (ec - omega) ** order
        if not _is_complex(omega) and (np.asarray(omega) >= ec).any():
            raise ValidationError(
                f"omega={omega!r} is not below the series cutoff {ec:g}")
        return scale * (np.log(ec - omega) - 0.5 * math.log(ec * ec + self.lam * self.lam))

    def diag(self, i: int, omega):
        """Renormalised diagonal Green function at scatterer i."""
        self.check_pole_distance(omega)
        return self.secular_orders(omega)[0][i, i]

    def diag_derivative(self, i: int, omega):
        """d/domega of the renormalised diagonal series (always negative)."""
        self.check_pole_distance(omega)
        return self.secular_orders(omega, 1)[0][i, i]

    def counterterm(self, i: int) -> float:
        """The subtraction constant sum phi^2 * eps/(eps^2+lam^2) at scatterer i."""
        return float(self._counterterm[i])

    def offdiag_weights(self) -> np.ndarray:
        """Per-mode weights of the block-averaged off-diagonal sums,
        min(1, (E_c - e)/(3 mean_spacing))."""
        return self._profile

    def diag_error(self, i: int, omega) -> float:
        """Estimated absolute truncation error of diag(), integral tail
        included: the residual is set by the discreteness of the modes near
        the cutoff, and a few times the largest discarded term covers it.
        """
        ec = self.cutoff_energy
        w = abs(omega)
        if w >= 0.9 * ec:
            return math.inf
        lam2 = self.lam ** 2
        top_term = (4.0 / self.billiard.area) * (w * ec + lam2) / ((ec - w) * (ec * ec + lam2))
        return 8.0 * top_term

    def deficiency_norm_sq(self, i: int) -> float:
        """sum phi_n(x_i)^2/(e_n^2 + lam^2) plus its mean-field tail above the
        cutoff, (mass/2pi) atan2(lam, E_c)/lam.

        This is the squared norm of the deficiency vector attached to
        scatterer i and the series behind the angle <-> coupling map.
        """
        tail = self.billiard.mass / (2.0 * math.pi) * math.atan2(self.lam, self.cutoff_energy)
        return float(self._deficiency[i]) + tail / self.lam

    # -- off-diagonal series ----------------------------------------------

    def offdiag(self, i: int, j: int, omega):
        """Free Green function between scatterers i and j (i != j)."""
        if i == j:
            raise ValidationError(
                "off-diagonal series requires distinct scatterer indices; "
                "the i == j case is the renormalised diagonal diag()")
        self.check_pole_distance(omega)
        return self.secular_orders(omega)[0][i, j]

    # -- secular matrix ----------------------------------------------------

    def secular_matrix(self, omega) -> np.ndarray:
        """Inverse T-matrix: diagonal diag_i - inv_coupling_i, off-diagonal
        the free Green function between scatterers."""
        self.check_pole_distance(omega)
        return self.secular_orders(omega)[0] - np.diag(self.scatterers.inv_couplings)

    def secular_matrix_batch(self, omegas) -> np.ndarray:
        """Stacked secular matrices for a vector of real omegas."""
        omegas = np.asarray(omegas, dtype=float)
        mats = [self.secular_matrix(float(w)) for w in omegas.ravel()]
        return np.array(mats).reshape(omegas.shape + (self.n, self.n))

    def diag_batch(self, i: int, omegas) -> np.ndarray:
        """diag(i, omega) for a vector of real omegas."""
        omegas = np.asarray(omegas, dtype=float)
        values = [self.diag(i, float(w)) for w in omegas.ravel()]
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
        csum = np.cumsum(self._entry(i, i) * (1.0 / (omega - self.energies)))
        return [float(csum[k - 1]) for k in counts]


class LocalGreens(_SeriesForms):
    """secular_orders of an evaluator for omega in [lo, hi] and orders up to
    LOCAL_MAX_ORDER, built by GreensEvaluator.local.  Like the evaluator's
    series it holds no coupling, so it serves every set of inverse couplings.

    Each series is the near sum, by _sums over modes n0 .. n1-1, plus the far
    part's Taylor series, whose error is at most far_bound[k] at order k.  A
    column's table holds h^(m+1) D_m, h = (hi-lo)/2, so it stays in float range.
    One pass over chunks of the far modes, views of e[:n0] and e[n1:], builds
    it: each power of the kernel h/(c - e), taken in place, is summed by a row
    reduction, one dot per column, as each evaluation is, so like the near sums
    no column's value depends on which others come with it.  The table facts
    stay on the evaluator.  Immutable in practice.
    """

    def __init__(self, evaluator: GreensEvaluator, lo: float, hi: float, n0: int, n1: int,
                 far_bound: tuple):
        self.n = evaluator.n
        self.tail_correction = evaluator.tail_correction
        self.far_bound = far_bound
        self._column = evaluator._column
        self._counterterm = evaluator._counterterm
        self._centre, self._half = 0.5 * (hi + lo), 0.5 * (hi - lo)

        weights, e = evaluator._columns, evaluator.energies
        self._near_energies = e[n0:n1]
        self._near = weights[:, n0:n1]
        # table[col, m] = sum_far w_col (h/(c - e))^(m+1), c the centre: a contiguous
        # row per column, so its dots take the same strides whichever others come
        table = np.zeros((len(weights), LOCAL_TERMS + LOCAL_MAX_ORDER))
        for start, stop in ((0, n0), (n1, len(e))):
            for first in range(start, stop, LOCAL_CHUNK):
                chunk = slice(first, min(first + LOCAL_CHUNK, stop))
                kern = self._half / (self._centre - e[chunk])
                term = np.ones_like(kern)
                for m in range(table.shape[1]):
                    term *= kern
                    table[:, m] += np.vecdot(weights[:, chunk], term)
        # d^m/domega^m 1/(omega - e) = (-1)^m m!/(omega - e)^(m+1)
        factorials = np.array([math.factorial(m) for m in range(table.shape[1])], dtype=float)
        self._table = table * factorials * (-1.0) ** np.arange(table.shape[1])

    def _series(self, omega, first: int = 0, count: int = 1):
        """_sums of the weight columns: the near slice exactly, the far modes
        by their Taylor expansion."""
        near = _sums(omega, self._near_energies, self._near, first, count)
        s = (np.asarray(omega)[..., None, None] - self._centre) / self._half
        steps = np.ones((*np.shape(omega), 1, LOCAL_TERMS))  # s^j/j! as a running product
        np.cumprod(s / np.arange(1.0, LOCAL_TERMS), axis=-1, out=steps[..., 1:])
        return [sums + np.vecdot(steps, self._table[:, k:k + LOCAL_TERMS]) / self._half ** (k + 1)
                for k, sums in enumerate(near, first)]
