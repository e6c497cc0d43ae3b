"""Rank-one reduction against dense eigensolves and update identities."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointbilliard.basis import BilliardSpec
from pointbilliard.errors import PoleProximityError
from pointbilliard.greens import GreensAccuracy, GreensEvaluator, ScattererSet
from pointbilliard.rankone import (
    _absorb,
    _absorptions,
    _decompose_arrays,
    reduce_full,
    reduce_full_batch,
)

from conftest import GENERIC_X, GENERIC_Y_FRACTION, SECOND_X, SECOND_Y_FRACTION, gap_midpoint, make_evaluator

THIRD_X, THIRD_Y_FRACTION = 0.3183098861837907, 0.5641895835477563
FOURTH_X, FOURTH_Y_FRACTION = 0.6065306597126334, 0.7071067811865476
# four more irrational fraction pairs: 3 - 2 sqrt 2, sqrt 3 / 2, Euler's
# gamma, 2 - sqrt 3, sin 1, log10 e, ln 2, pi / 4
MORE_FRACTIONS = [(0.1715728752538099, 0.8660254037844386),
                  (0.5772156649015329, 0.2679491924311227),
                  (0.8414709848078965, 0.4342944819032518),
                  (0.6931471805599453, 0.7853981633974483)]
INV_COUPLINGS = [0.3, -0.4, 1.1, 0.05, -0.7, 0.6, -0.2, 0.9]


def positions_for(golden, count):
    fracs = [
        (GENERIC_X, GENERIC_Y_FRACTION),
        (SECOND_X, SECOND_Y_FRACTION),
        (THIRD_X, THIRD_Y_FRACTION),
        (FOURTH_X, FOURTH_Y_FRACTION),
        *MORE_FRACTIONS,
    ][:count]
    return [(fx * golden.lx, fy * golden.ly) for fx, fy in fracs]


@pytest.fixture(scope="module")
def ev3(golden, big_table):
    return make_evaluator(golden, big_table, positions_for(golden, 3),
                          INV_COUPLINGS[:3])


def _assemble(d0, vectors, weights):
    """diag(d0) plus every mode term weights[n] * outer(vectors[n], vectors[n])."""
    return np.diag(d0) + (vectors * weights[:, None]).T @ vectors


def test_decompose_reassembles_secular_matrix(ev2):
    w = gap_midpoint(ev2, 321)
    d0, vectors, weights = _decompose_arrays(ev2, np.array([w]))
    sec = ev2.secular_matrix(w)
    scale = np.max(np.abs(sec))
    assert np.allclose(_assemble(d0[0], vectors, weights[0]), sec,
                       rtol=0.0, atol=1e-12 * scale)
    assert np.array_equal(weights[0], 1.0 / (w - ev2.energies))
    assert d0.shape == (1, 2) and vectors.shape == (ev2.n_eff, 2)


def test_reduce_full_matches_dense_eigh(ev3):
    # oracle first: dense symmetric eigensolve of the assembled matrix
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in sorted(rng.choice(np.arange(50, 900), size=5, replace=False)):
        w = gap_midpoint(ev3, int(k))
        oracle = np.linalg.eigvalsh(ev3.secular_matrix(w))
        mine = reduce_full(ev3, w)
        worst = max(worst, float(np.max(np.abs(mine - oracle))))
    assert worst < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_batch_matches_single_calls(golden, big_table, n):
    # N = 1 takes the shift branch; N >= 2 one eigensolve of a (B, N, N) stack
    ev = make_evaluator(golden, big_table, positions_for(golden, n), INV_COUPLINGS[:n])
    omegas = np.array([gap_midpoint(ev, k) for k in (60, 61, 450, 700)])
    batch = reduce_full_batch(ev, omegas)
    singles = np.vstack([reduce_full(ev, float(w)) for w in omegas])
    scale = np.max(np.abs(singles))
    assert np.allclose(batch, singles, rtol=0.0, atol=1e-13 * scale)


def test_step_chain_identities(golden, big_table):
    ev = make_evaluator(golden, big_table, positions_for(golden, 4),
                        INV_COUPLINGS[:4], n_max=500)
    w = gap_midpoint(ev, 120)
    d0, vectors, weights = _decompose_arrays(ev, np.array([w]))
    scale = float(np.max(np.abs(d0))) + 1.0
    eps = 1e-11 * scale
    # the eigenvalues of the bare diagonal are its entries, ascending
    old, q = np.sort(d0[0]), np.eye(4)
    steps = 0
    for k, (d, q_new) in enumerate(_absorptions(d0, vectors, weights)):
        new = d[0]
        z = vectors[k] @ q
        c = float(weights[0, k])
        assert np.all(np.diff(new) >= -eps)
        # trace moves by exactly the rank-one weight
        assert np.sum(new) - np.sum(old) == pytest.approx(c * float(z @ z),
                                                          abs=1e-9 * scale)
        # interlacing around the old diagonal, shifted side set by the sign
        if c >= 0.0:
            assert np.all(new >= old - eps)
            assert np.all(new[:-1] <= old[1:] + eps)
            assert new[-1] <= old[-1] + c * float(z @ z) + eps
        else:
            assert np.all(new <= old + eps)
            assert np.all(new[1:] >= old[:-1] - eps)
            assert new[0] >= old[0] + c * float(z @ z) - eps
        old, q = new, q_new[0]
        steps += 1
    assert steps == ev.n_eff

    dense = _assemble(d0[0], vectors, weights[0])
    assert np.max(np.abs(q.T @ q - np.eye(4))) < 1e-12
    recon = q @ np.diag(old) @ q.T
    assert np.allclose(recon, dense, rtol=0.0, atol=1e-10 * scale)
    oracle = np.linalg.eigvalsh(dense)
    assert np.allclose(old, oracle, rtol=0.0, atol=1e-10 * scale)


def test_exactly_degenerate_levels(golden):
    # a square rectangle carries exact eigenvalue ties (m, n) <-> (n, m)
    square = BilliardSpec(lx=1.0, ly=1.0, mass=golden.mass)
    positions = [(0.31830988618379069, 0.36602540378443865),
                 (0.73575888234288467, 0.21828182845904523)]
    ev = GreensEvaluator(square, ScattererSet.from_couplings(positions, (2.0, -1.5)),
                         GreensAccuracy(n_max=400))
    assert np.any(np.diff(ev.energies) == 0.0)
    open_gaps = np.nonzero(np.diff(ev.energies) > 0.0)[0]
    for k in (open_gaps[80], open_gaps[150]):
        w = gap_midpoint(ev, int(k))
        oracle = np.linalg.eigvalsh(ev.secular_matrix(w))
        assert np.allclose(reduce_full(ev, w), oracle, rtol=0.0, atol=1e-9)


def test_validation_and_pole_guard(ev1):
    w = gap_midpoint(ev1, 100)
    with pytest.raises(PoleProximityError):
        reduce_full(ev1, float(ev1.energies[50]))
    # one energy on a pole refuses the whole batch
    with pytest.raises(PoleProximityError):
        reduce_full_batch(ev1, [w, float(ev1.energies[50])])


# ------------------------------------------------- the absorption engine ---


def _dense(d, z, c):
    return np.diag(d) + c * np.outer(z, z)


def test_absorb_small_integer_cases_match_eigvalsh():
    # masked coordinates once carried a finite placeholder distance, so an
    # iterate landing exactly on it divided 0 by 0 and closed the bracket on
    # the wrong side: d = [0, 2, 5], z = [1, 1, 0], c = -1 returned 1.0 for
    # the middle eigenvalue, not sqrt(2)
    got, _ = _absorb(np.array([[0.0, 2.0, 5.0]]), np.array([[1.0, 1.0, 0.0]]),
                     np.array([-1.0]))
    assert got[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-14)
    worst = 0.0
    for gap in (1.0, 2.0, 3.0):
        for pattern in itertools.product((0.0, 1.0), repeat=3):
            if not any(pattern):
                continue
            for c in (-1.0, -2.0, 1.0):
                d = np.array([0.0, gap, 5.0])
                z = np.array(pattern)
                got, _ = _absorb(d[None, :], z[None, :], np.array([c]))
                oracle = np.linalg.eigvalsh(_dense(d, z, c))
                worst = max(worst, float(np.max(np.abs(got[0] - oracle))))
    assert worst < 1e-13


@st.composite
def _diagonal(draw, n):
    """Ascending diagonal with clear gaps, exact ties and near ties."""
    d = [draw(st.floats(-100.0, 100.0))]
    for _ in range(n - 1):
        prev = d[-1]
        kind = draw(st.sampled_from(("gap", "tie", "ulps", "near")))
        if kind == "gap":
            d.append(prev + draw(st.floats(1e-3, 50.0)))
        elif kind == "tie":
            d.append(prev)
        elif kind == "ulps":
            ulp = float(np.spacing(max(abs(prev), 1.0)))
            d.append(prev + draw(st.integers(1, 4)) * ulp)
        else:
            d.append(prev + max(abs(prev), 1.0) * draw(st.floats(1e-15, 1e-12)))
    return np.array(d)


@st.composite
def _update(draw, d):
    """Update vector with zeros, entries either side of |c| z^2 = 1e-30 * scale,
    below which a term cannot move any eigenvalue at double precision, and
    entries that put a root a few ulps from its pole."""
    sign = draw(st.sampled_from((-1.0, 1.0)))
    c = sign * 10.0 ** draw(st.floats(-10.0, 6.0))
    threshold = np.sqrt(1e-30 * max(1.0, float(np.max(np.abs(d)))) / abs(c))
    z = []
    for dj in d:
        kind = draw(st.sampled_from(("plain", "plain", "zero", "below", "above", "ulps")))
        if kind == "plain":
            z.append(draw(st.floats(-3.0, 3.0)))
        elif kind == "zero":
            z.append(0.0)
        elif kind == "below":
            z.append(0.5 * threshold)
        elif kind == "above":
            z.append(2.0 * threshold)
        else:
            ulps = draw(st.integers(1, 4)) * float(np.spacing(abs(dj)))
            z.append(np.sqrt(ulps / abs(c)))
    return np.array(z), c


def _check_update(d, z, c, new, rot, tol):
    """Eigenvalues, orthogonality, reconstruction and interlacing."""
    n = d.size
    a = _dense(d, z, c)
    assert np.max(np.abs(new - np.linalg.eigvalsh(a))) <= tol
    assert np.max(np.abs(rot.T @ rot - np.eye(n))) <= 1e-12
    assert np.max(np.abs(rot @ np.diag(new) @ rot.T - a)) <= tol
    if c >= 0.0:
        assert np.all(new >= d - tol)
        assert np.all(new[:-1] <= d[1:] + tol)
    else:
        assert np.all(new <= d + tol)
        assert np.all(new[1:] >= d[:-1] - tol)


@st.composite
def _batch(draw):
    """One to four rows of (d, z, c), all of one size N = 1..8."""
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(_diagonal(n))
        z, c = draw(_update(d))
        rows.append((d, z, c))
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=_batch())
# a placeholder distance of 1.0 for masked coordinates gave 0/0 here
@example(rows=[([0.0, 2.0, 5.0], [1.0, 1.0, 0.0], -1.0)])
# a shift bound that rounded onto its pole left a zero-width bracket, a
# root at zero distance from the pole and a rotation full of NaN
@example(rows=[([54.932826984746384, 54.932826984759366],
                [2.4833854153522676e-14, 0.0], 0.356290045295022)])
# a root 2.6e-31 from its pole, located only to 2**-62 of its bracket,
# reconstructed the matrix to 3e-10 instead of rounding
@example(rows=[([0.0, 1.0, 2.0, 2.03125],
                [0.0, 2.0 ** -26, 2.850438562747845e-15, 1.0], -1.0)])
def test_absorb_matches_dense_eigensolve(rows):
    d = np.array([r[0] for r in rows], dtype=float)
    z = np.array([r[1] for r in rows], dtype=float)
    c = np.array([r[2] for r in rows], dtype=float)
    new, rot = _absorb(d, z, c)
    for row in range(len(rows)):
        scale = max(1.0, np.max(np.abs(d[row]))) + abs(c[row]) * float(z[row] @ z[row])
        _check_update(d[row], z[row], c[row], new[row], rot[row], 1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), steps=st.integers(1, 3))
def test_reduce_step_chain_matches_dense_eigensolve(data, n, steps):
    d = data.draw(_diagonal(n))
    updates = [data.draw(_update(d)) for _ in range(steps)]
    vectors = np.array([z for z, _ in updates])
    weights = np.array([c for _, c in updates])
    dense = _assemble(d, vectors, weights)
    tol = 1e-12 * (max(1.0, np.max(np.abs(d)))
                   + float(np.abs(weights) @ (vectors ** 2).sum(axis=1)))
    old_d, old_q = d, np.eye(n)
    chain = _absorptions(d[None, :], vectors, weights[None, :])
    for k, (new_d, new_q) in enumerate(chain):
        _check_update(old_d, vectors[k] @ old_q, weights[k], new_d[0],
                      old_q.T @ new_q[0], tol)
        old_d, old_q = new_d[0], new_q[0]
    assert k == steps - 1
    assert np.max(np.abs(old_q.T @ old_q - np.eye(n))) <= 1e-12
    assert np.max(np.abs(old_d - np.linalg.eigvalsh(dense))) <= tol
    assert np.max(np.abs(old_q @ np.diag(old_d) @ old_q.T - dense)) <= tol
