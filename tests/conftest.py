"""Shared fixtures: one big mode table, evaluators derived from it.

Everything heavy is session-scoped; evaluators built from the shared
table cost milliseconds, so individual tests can spin up variants freely.
"""

import numpy as np
import pytest

from pointbilliard import golden_rectangle, mode_table_with_count
from pointbilliard.greens import GreensAccuracy, GreensEvaluator, ScattererSet

# Irrational fractions of both side lengths, far from every symmetry line.
GENERIC_X = 0.4142135623730951        # sqrt(2) - 1
GENERIC_Y_FRACTION = 0.3660254037844386   # (sqrt(3) - 1) / 2

SECOND_X = 0.7357588823428847         # 1 - 1/e, again irrational
SECOND_Y_FRACTION = 0.2182818284590452


@pytest.fixture(scope="session")
def golden():
    return golden_rectangle()


@pytest.fixture(scope="session")
def generic_point(golden):
    return (GENERIC_X * golden.lx, GENERIC_Y_FRACTION * golden.ly)


@pytest.fixture(scope="session")
def second_point(golden):
    return (SECOND_X * golden.lx, SECOND_Y_FRACTION * golden.ly)


@pytest.fixture(scope="session")
def big_table(golden):
    return mode_table_with_count(golden, 100_000)


@pytest.fixture(scope="session")
def ev1(golden, generic_point, big_table):
    """Single scatterer, 3000 modes: the cheap workhorse."""
    sc = ScattererSet((generic_point,), (0.3,))
    return GreensEvaluator(golden, sc, GreensAccuracy(n_max=3_000),
                           table=big_table)


@pytest.fixture(scope="session")
def ev1_30k(golden, generic_point, big_table):
    """Single scatterer, 30000 modes: for accuracy-sensitive checks."""
    sc = ScattererSet((generic_point,), (0.3,))
    return GreensEvaluator(golden, sc, GreensAccuracy(n_max=30_000),
                           table=big_table)


@pytest.fixture(scope="session")
def ev2(golden, generic_point, second_point, big_table):
    """Two scatterers, mixed coupling signs, 3000 modes."""
    sc = ScattererSet((generic_point, second_point), (0.3, -0.4))
    return GreensEvaluator(golden, sc, GreensAccuracy(n_max=3_000),
                           table=big_table)


def make_evaluator(golden, big_table, positions, inv_couplings, n_max=3_000,
                   lambda_scale=1.0):
    sc = ScattererSet(tuple(positions), tuple(inv_couplings), lambda_scale)
    return GreensEvaluator(golden, sc, GreensAccuracy(n_max=n_max), table=big_table)


def gap_midpoint(evaluator, k: int) -> float:
    e = evaluator.energies
    return float(0.5 * (e[k] + e[k + 1]))
