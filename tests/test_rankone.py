"""Rank-one reduction against dense eigensolves and update identities."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointbilliard import ValidationError
from pointbilliard.basis import BilliardSpec
from pointbilliard.errors import PoleProximityError
from pointbilliard.greens import GreensAccuracy, GreensEvaluator, ScattererSet
from pointbilliard.rankone import (
    DEFLATE_ABS,
    SigmaDecomposition,
    _absorb,
    approximate_sigma,
    decompose,
    initial_state,
    reduce_full,
    reduce_full_batch,
    reduce_step,
)

from conftest import GENERIC_X, GENERIC_Y_FRACTION, SECOND_X, SECOND_Y_FRACTION, gap_midpoint, make_evaluator

THIRD_X, THIRD_Y_FRACTION = 0.3183098861837907, 0.5641895835477563
FOURTH_X, FOURTH_Y_FRACTION = 0.6065306597126334, 0.7071067811865476


def positions_for(golden, count):
    fracs = [
        (GENERIC_X, GENERIC_Y_FRACTION),
        (SECOND_X, SECOND_Y_FRACTION),
        (THIRD_X, THIRD_Y_FRACTION),
        (FOURTH_X, FOURTH_Y_FRACTION),
    ][:count]
    return [(fx * golden.lx, fy * golden.ly) for fx, fy in fracs]


@pytest.fixture(scope="module")
def ev3(golden, big_table):
    return make_evaluator(golden, big_table, positions_for(golden, 3),
                          [0.3, -0.4, 1.1])


def test_decompose_reassembles_secular_matrix(ev2):
    w = gap_midpoint(ev2, 321)
    dec = decompose(ev2, w)
    sec = ev2.secular_matrix(w)
    perm = dec.permutation
    scale = np.max(np.abs(sec))
    assert np.allclose(dec.assemble(), sec[np.ix_(perm, perm)],
                       rtol=0.0, atol=1e-12 * scale)
    assert np.all(np.diff(dec.unperturbed_diag) >= 0.0)
    assert np.array_equal(dec.weights, 1.0 / (w - ev2.energies))
    assert dec.n == 2 and dec.n_modes == ev2.n_eff


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


def test_batch_matches_single_calls(ev3):
    omegas = np.array([gap_midpoint(ev3, k) for k in (60, 61, 450, 700)])
    batch = reduce_full_batch(ev3, omegas)
    singles = np.vstack([reduce_full(ev3, float(w)) for w in omegas])
    scale = np.max(np.abs(singles))
    assert np.allclose(batch, singles, rtol=0.0, atol=1e-13 * scale)


def test_step_chain_identities(golden, big_table):
    ev = make_evaluator(golden, big_table, positions_for(golden, 4),
                        [0.3, -0.4, 1.1, 0.05], n_max=500)
    w = gap_midpoint(ev, 120)
    dec = decompose(ev, w)
    state = initial_state(dec)
    assert state.residual_vectors.shape == (dec.n_modes, dec.n)
    scale = float(np.max(np.abs(dec.unperturbed_diag))) + 1.0
    eps = 1e-11 * scale
    for k in range(dec.n_modes):
        old = state.diag
        z = dec.vectors[k] @ state.rotation
        c = float(dec.weights[k])
        state = reduce_step(state)
        new = state.diag
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
    with pytest.raises(ValidationError):
        reduce_step(state)

    q = state.rotation
    assert np.max(np.abs(q.T @ q - np.eye(dec.n))) < 1e-12
    recon = q @ np.diag(state.diag) @ q.T
    assert np.allclose(recon, dec.assemble(), rtol=0.0, atol=1e-10 * scale)
    oracle = np.linalg.eigvalsh(dec.assemble())
    assert np.allclose(state.diag, oracle, rtol=0.0, atol=1e-10 * scale)


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


def test_near_window_approximation_ladder(ev2):
    # only the off-diagonal parts of discarded modes are lost, so the error
    # shrinks as the retained window widens
    w = gap_midpoint(ev2, 400)
    full = reduce_full(ev2, w)
    devs = []
    for kept in (8, 32, 128):
        approx = approximate_sigma(ev2, w, near_window=kept)
        assert approx.kept_indices.size == kept
        # the retained modes are the nearest ones in energy
        oracle_kept = np.sort(np.argsort(np.abs(ev2.energies - w), kind="stable")[:kept])
        assert np.array_equal(approx.kept_indices, oracle_kept)
        devs.append(float(np.max(np.abs(approx.eigenvalues() - full))))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.02

    spec = ev2.billiard
    flat = spec.mass / (2.0 * np.pi) * np.log(w / ev2.scatterers.lambda_scale)
    expected = flat - np.asarray(ev2.scatterers.inv_couplings)
    assert np.allclose(approx.closed_form, expected, rtol=0.0, atol=1e-15)


def test_single_scatterer_fold_is_exact(ev1):
    # one scatterer has no off-diagonal entries: folding the discarded
    # modes' diagonals loses nothing at any window width
    w = gap_midpoint(ev1, 400)
    full = reduce_full(ev1, w)
    for kept in (1, 8):
        approx = approximate_sigma(ev1, w, near_window=kept)
        assert np.max(np.abs(approx.eigenvalues() - full)) < 1e-12


def test_near_window_full_width_reproduces_matrix(ev2):
    w = gap_midpoint(ev2, 150)
    approx = approximate_sigma(ev2, w, near_window=ev2.n_eff)
    sec = ev2.secular_matrix(w)
    scale = np.max(np.abs(sec))
    assert np.allclose(approx.assemble(), sec, rtol=0.0, atol=1e-12 * scale)


def test_validation_and_pole_guard(ev1):
    w = gap_midpoint(ev1, 100)
    with pytest.raises(ValidationError):
        approximate_sigma(ev1, w, near_window=0)
    with pytest.raises(ValidationError):
        approximate_sigma(ev1, -5.0, near_window=4)
    with pytest.raises(PoleProximityError):
        reduce_full(ev1, float(ev1.energies[50]))
    with pytest.raises(PoleProximityError):
        decompose(ev1, float(ev1.energies[50]))


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
    """Update vector with zeros, entries either side of the deflation
    threshold, and entries that put a root a few ulps from its pole."""
    sign = draw(st.sampled_from((-1.0, 1.0)))
    c = sign * 10.0 ** draw(st.floats(-10.0, 6.0))
    threshold = np.sqrt(DEFLATE_ABS * max(1.0, float(np.max(np.abs(d)))) / abs(c))
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
    dec = SigmaDecomposition(omega=0.0, unperturbed_diag=d, vectors=vectors,
                             weights=weights, permutation=np.arange(n))
    state = initial_state(dec)
    tol = 1e-12 * (max(1.0, np.max(np.abs(d)))
                   + float(np.abs(weights) @ (vectors ** 2).sum(axis=1)))
    for k in range(steps):
        old_d, old_q = state.diag, state.rotation
        state = reduce_step(state)
        _check_update(old_d, vectors[k] @ old_q, weights[k], state.diag,
                      old_q.T @ state.rotation, tol)
    q = state.rotation
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12
    assert np.max(np.abs(state.diag - np.linalg.eigvalsh(dec.assemble()))) <= tol
    assert np.max(np.abs(q @ np.diag(state.diag) @ q.T - dec.assemble())) <= tol
