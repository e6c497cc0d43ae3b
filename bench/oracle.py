"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls into ``pointbilliard``: the unperturbed levels are
enumerated from the quantum numbers (mx, my), and the renormalised secular
function and matrix are summed from the formulas in the package docstrings
with their own loop order.  The checks compare the program's outputs with
these values or with properties the method guarantees (interlacing, count
monotonicity), never with a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# Resolution limits the package documents (solver.POLE_WEIGHT_FLOOR and
# greens.POLE_EXCLUSION_FACTOR).  A gap narrower than four exclusion widths,
# or a pole whose weight is below the floor at every scatterer, cannot hold a
# resolvable root, so the checks expect none there.
POLE_WEIGHT_FLOOR = 1e-22
POLE_EXCLUSION_FACTOR = 1e-9

# Terms per chunk when summing series for many energies at once.
CHUNK_TERMS = 4_000_000


class Rectangle:
    """Dirichlet rectangle geometry, recomputed from first principles."""

    def __init__(self, lx: float, ly: float, mass: float = 1.0):
        self.lx, self.ly, self.mass = float(lx), float(ly), float(mass)
        self.area = self.lx * self.ly
        self.mean_spacing = 2.0 * math.pi / (self.mass * self.area)

    def lowest_modes(self, count: int):
        """(energies, mx, my) of the `count` lowest modes, ties kept whole.

        Walks the quantum-number lattice column by column below an energy
        cap that grows until it holds enough modes, then orders by energy.
        """
        scale = math.pi ** 2 / (2.0 * self.mass)
        cap = (count + 10.0 * math.sqrt(count) + 100.0) / (self.mass * self.area / (2.0 * math.pi))
        while True:
            mx = np.arange(1, int(self.lx * math.sqrt(cap / scale)) + 1)
            room = np.maximum(cap / scale - (mx / self.lx) ** 2, 0.0)
            per_column = np.floor(self.ly * np.sqrt(room)).astype(np.int64)
            if per_column.sum() >= count:
                break
            cap *= 1.25
        mx_all = np.repeat(mx, per_column)
        starts = np.repeat(np.cumsum(per_column) - per_column, per_column)
        my_all = np.arange(mx_all.size) - starts + 1
        energies = scale * ((mx_all.astype(float) / self.lx) ** 2
                            + (my_all.astype(float) / self.ly) ** 2)
        order = np.lexsort((my_all, mx_all, energies))
        energies, mx_all, my_all = energies[order], mx_all[order], my_all[order]
        keep = count
        while keep < energies.size and energies[keep] == energies[count - 1]:
            keep += 1
        return energies[:keep], mx_all[:keep], my_all[:keep]

    def phi(self, mx, my, point) -> np.ndarray:
        """Normalised eigenfunction values of the given modes at one point."""
        x, y = point
        norm = 2.0 / math.sqrt(self.area)
        return (norm * np.sin(mx * (math.pi * x / self.lx))
                * np.sin(my * (math.pi * y / self.ly)))


class SecularOracle:
    """Renormalised secular matrix of N point scatterers, summed directly.

    M_ii(w) = sum_n phi_i^2 [1/(w - e_n) + e_n/(e_n^2 + lam^2)] + tail(w) - v_i
    M_ij(w) = sum_n phi_i phi_j c(e_n) / (w - e_n)

    with tail(w) = (mass/2pi) [log(E_c - w) - log(E_c^2 + lam^2)/2], E_c the
    top retained level, and c(e) = clip((E_c - e) / (3 s), 0, 1): the
    off-diagonal partial sum averaged over cutoffs spread evenly across the
    top three mean spacings s.
    """

    def __init__(self, rect: Rectangle, modes, positions, inv_couplings,
                 lambda_scale: float = 1.0):
        """``modes`` is the (energies, mx, my) triple of Rectangle.lowest_modes."""
        self.rect = rect
        self.energies, mx, my = modes
        self.phi = np.column_stack([rect.phi(mx, my, p) for p in positions])
        self.inv = np.asarray(inv_couplings, dtype=float)
        self.lam = float(lambda_scale)
        e = self.energies
        self.cutoff = float(e[-1])
        self.counterterm = (self.phi ** 2 * (e / (e * e + self.lam ** 2))[:, None]).sum(axis=0)
        self.cover = np.clip((self.cutoff - e) / (3.0 * rect.mean_spacing), 0.0, 1.0)
        self.tail_scale = rect.mass / (2.0 * math.pi)

    def _tail(self, w: np.ndarray) -> np.ndarray:
        c = self.cutoff
        return self.tail_scale * (np.log(c - w) - 0.5 * math.log(c * c + self.lam ** 2))

    def _chunks(self, omegas: np.ndarray):
        step = max(1, CHUNK_TERMS // self.energies.size)
        for lo in range(0, omegas.size, step):
            w = omegas[lo:lo + step]
            yield lo, w, 1.0 / (w[:, None] - self.energies[None, :])

    def scalar(self, omegas) -> np.ndarray:
        """M_00 for a one-scatterer set: the secular function, decreasing."""
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        out = np.empty(omegas.size)
        weight = self.phi[:, 0] ** 2
        for lo, w, kern in self._chunks(omegas):
            out[lo:lo + w.size] = (kern * weight[None, :]).sum(axis=1)
        return out + self.counterterm[0] + self._tail(omegas) - self.inv[0]

    def matrices(self, omegas) -> np.ndarray:
        """Stacked secular matrices, shape (B, N, N)."""
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        n = self.phi.shape[1]
        out = np.empty((omegas.size, n, n))
        sq = self.phi ** 2
        for lo, w, kern in self._chunks(omegas):
            for b in range(w.size):
                k = kern[b]
                m = (self.phi * (k * self.cover)[:, None]).T @ self.phi
                m[np.diag_indices(n)] = (sq * k[:, None]).sum(axis=0)
                out[lo + b] = m
        diag = self.counterterm[None, :] + self._tail(omegas)[:, None] - self.inv[None, :]
        out[:, np.arange(n), np.arange(n)] += diag
        return out

    def eigenvalues(self, omegas) -> np.ndarray:
        """Sorted eigenvalues from a dense LAPACK solve, shape (B, N)."""
        return np.linalg.eigvalsh(self.matrices(omegas))

    def negative_count(self, omegas) -> np.ndarray:
        return (self.eigenvalues(omegas) < 0.0).sum(axis=1)

    def poles(self) -> np.ndarray:
        """Levels carrying a resolvable pole at some scatterer."""
        floor = POLE_WEIGHT_FLOOR * 4.0 / self.rect.area
        return self.energies[(self.phi ** 2).max(axis=1) > floor]

    def gaps_within(self, lo: float, hi: float) -> list:
        """Resolvable pole gaps (a, b) with lo <= a < b <= hi."""
        poles = self.poles()
        min_width = 4.0 * POLE_EXCLUSION_FACTOR * self.rect.mean_spacing
        inside = poles[(poles >= lo) & (poles <= hi)]
        return [(float(a), float(b)) for a, b in zip(inside[:-1], inside[1:])
                if b - a > min_width]


def unit_spacings(levels) -> np.ndarray:
    """Nearest-neighbour spacings rescaled to unit mean.

    The smoothed level density of a rectangle is constant, so unfolding is
    an affine map and the rescaled spacings follow from the raw ones.
    """
    levels = np.asarray(levels, dtype=float)
    return np.diff(levels) * (levels.size - 1) / (levels[-1] - levels[0])


def ks_statistics(spacings) -> tuple:
    """(KS to Poisson, KS to the GOE Wigner surmise) from scipy's kstest."""
    from scipy import stats as sps  # imported lazily: heavy, checks only

    poisson = sps.kstest(spacings, lambda s: 1.0 - np.exp(-s)).statistic
    goe = sps.kstest(spacings, lambda s: 1.0 - np.exp(-0.25 * math.pi * s * s)).statistic
    return float(poisson), float(goe)
