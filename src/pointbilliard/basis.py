"""Dirichlet eigenbasis of a rectangular billiard.

The unperturbed problem separates: eigenfunctions are products of sines
indexed by a positive integer pair (mx, my), and the spectrum is

    energy(mx, my) = (pi^2 / 2 mass) * ((mx / lx)^2 + (my / ly)^2).

Everything downstream (Green functions, secular equations, statistics)
consumes the mode table built here, so ordering and completeness are
load-bearing: modes are sorted by energy with lexicographic (mx, my)
tie-breaking, and a table always contains *every* mode up to its cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

# Refuse to enumerate tables that would not fit comfortably in memory.
DEFAULT_MODE_BUDGET = 20_000_000


@dataclass(frozen=True)
class BilliardSpec:
    """Rectangle side lengths and particle mass (hbar = 1 throughout)."""

    lx: float = 1.0
    ly: float = GOLDEN_RATIO
    mass: float = 1.0

    def __post_init__(self):
        for name in ("lx", "ly", "mass"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be finite and positive, got {value!r}")

    @property
    def area(self) -> float:
        return self.lx * self.ly

    @property
    def weyl_density(self) -> float:
        """Mean density of states; energy independent in two dimensions."""
        return self.mass * self.area / (2.0 * math.pi)

    @property
    def mean_spacing(self) -> float:
        return 1.0 / self.weyl_density

    def mode_energy(self, mx, my):
        """Energy of mode (mx, my); accepts scalars or arrays."""
        mx = np.asarray(mx, dtype=float)
        my = np.asarray(my, dtype=float)
        scale = math.pi ** 2 / (2.0 * self.mass)
        return scale * ((mx / self.lx) ** 2 + (my / self.ly) ** 2)

    def contains(self, x, y, strict: bool = False) -> bool:
        if strict:
            return 0.0 < x < self.lx and 0.0 < y < self.ly
        return 0.0 <= x <= self.lx and 0.0 <= y <= self.ly


def golden_rectangle(lx: float = 1.0, mass: float = 1.0) -> BilliardSpec:
    """Default geometry: unit width, golden-ratio aspect."""
    return BilliardSpec(lx=lx, ly=lx * GOLDEN_RATIO, mass=mass)


class ModeTable:
    """All modes with energy <= e_cut, sorted by (energy, mx, my), as flat arrays."""

    def __init__(self, spec: BilliardSpec, mx: np.ndarray, my: np.ndarray,
                 energies: np.ndarray, e_cut: float):
        self.spec = spec
        self.mx = mx
        self.my = my
        self.energies = energies
        self.e_cut = e_cut

    def __len__(self) -> int:
        return self.energies.size

    def truncated(self, n: int) -> "ModeTable":
        """First n modes, extended to keep degenerate families whole.

        If the cut would split a set of exactly degenerate modes, every mode
        tied with the boundary energy is retained so the completeness
        guarantee (no missing mode below the top energy) survives.
        """
        if n < 1:
            raise ValidationError(f"truncation count must be >= 1, got {n}")
        if n >= len(self):
            return self
        top = self.energies[n - 1]
        while n < len(self) and self.energies[n] == top:
            n += 1
        return ModeTable(self.spec, self.mx[:n], self.my[:n], self.energies[:n],
                         float(self.energies[n - 1]))


def build_mode_table(spec: BilliardSpec, e_cut: float) -> ModeTable:
    """Enumerate every mode with energy <= e_cut.

    The quantum numbers are bounded by mx <= lx*sqrt(2*mass*e_cut)/pi (and
    the analogue for my), so a rectangular sweep over that box is exhaustive.
    """
    if not (math.isfinite(e_cut) and e_cut > 0.0):
        raise ValidationError(f"e_cut must be finite and positive, got {e_cut!r}")
    expected = spec.weyl_density * e_cut
    if expected > DEFAULT_MODE_BUDGET:
        raise ValidationError(
            f"e_cut={e_cut:g} implies ~{expected:.3g} modes, above the budget "
            f"of {DEFAULT_MODE_BUDGET}"
        )
    root = math.sqrt(2.0 * spec.mass * e_cut) / math.pi
    mx_hi = int(math.floor(spec.lx * root + 1e-12))
    my_hi = int(math.floor(spec.ly * root + 1e-12))
    if mx_hi < 1 or my_hi < 1:
        raise ValidationError(f"e_cut={e_cut:g} lies below the ground mode energy")
    mx, my = np.meshgrid(np.arange(1, mx_hi + 1), np.arange(1, my_hi + 1),
                         indexing="ij")
    mx = mx.ravel()
    my = my.ravel()
    energies = spec.mode_energy(mx, my)
    keep = energies <= e_cut
    mx, my, energies = mx[keep], my[keep], energies[keep]
    # Energy-major sort with lexicographic (mx, my) tie-breaking.
    order = np.lexsort((my, mx, energies))
    return ModeTable(spec, mx[order].astype(np.int32), my[order].astype(np.int32),
                     energies[order], e_cut)


def mode_table_with_count(spec: BilliardSpec, n: int) -> ModeTable:
    """Table holding at least the n lowest modes (ties kept whole)."""
    if n < 1:
        raise ValidationError(f"mode count must be >= 1, got {n}")
    # Weyl estimate plus margin covers counting fluctuations; grow if short.
    e_cut = (n + 4.0 * math.sqrt(n) + 16.0) / spec.weyl_density
    table = build_mode_table(spec, e_cut)
    while len(table) < n:
        e_cut *= 1.3
        table = build_mode_table(spec, e_cut)
    return table.truncated(n)


def eval_eigenfunction(spec: BilliardSpec, mode, point) -> float | np.ndarray:
    """Normalised eigenfunction value(s) at a point inside the rectangle.

    ``mode`` is an (mx, my) pair of scalars or arrays; the cached
    per-scatterer tables are produced by this same code path, so both agree
    bit for bit.
    """
    x, y = point
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError(f"point {point!r} is not finite")
    if not spec.contains(x, y):
        raise ValidationError(f"point {point!r} lies outside the {spec.lx} x {spec.ly} rectangle")
    mx, my = mode
    mx = np.asarray(mx, dtype=float)
    my = np.asarray(my, dtype=float)
    norm = 2.0 / math.sqrt(spec.lx * spec.ly)
    values = norm * np.sin(mx * (math.pi * x / spec.lx)) * np.sin(my * (math.pi * y / spec.ly))
    if values.ndim == 0:
        return float(values)
    return values


def basis_column(table: ModeTable, point) -> np.ndarray:
    """Eigenfunction values of every table mode at one point."""
    return np.asarray(eval_eigenfunction(table.spec, (table.mx, table.my), point))
