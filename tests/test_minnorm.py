from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsda import GradientSet, min_norm_point
from gsda import minnorm
from gsda.errors import InvalidInput, NumericalFailure
from gsda.minnorm import _distinct_rows, _plane_hull, _wolfe

from _oracles import bary_min_norm, plane_faces_vectorized


def mk(rows):
    return GradientSet(np.array(rows, dtype=float))


class TestMinNormPoint:
    def test_single_vector_hull(self):
        res = min_norm_point(mk([[3.0, 4.0]]))
        assert np.allclose(res.point, [3.0, 4.0])
        assert res.norm == pytest.approx(5.0)
        assert np.allclose(res.weights, [1.0])

    def test_origin_inside_hull_1d(self):
        res = min_norm_point(mk([[-1.0], [2.0]]))
        assert res.norm == pytest.approx(0.0, abs=1e-12)

    def test_two_point_segment_by_symmetry(self):
        res = min_norm_point(mk([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(res.point, [0.5, 0.5], atol=1e-12)
        assert res.norm == pytest.approx(np.sqrt(2.0) / 2.0)
        assert np.allclose(res.weights, [0.5, 0.5], atol=1e-10)

    def test_triangle_vertex_minimizer(self):
        # brute-force barycentric grid at resolution 1e-3 confirms (2, 0)
        z = np.array([[2.0, 0.0], [4.0, 0.0], [3.0, 1.0]])
        res = min_norm_point(mk(z))
        assert bary_min_norm(z, 1000) == pytest.approx(2.0, abs=1e-6)
        assert np.allclose(res.point, [2.0, 0.0], atol=1e-9)
        assert res.norm == pytest.approx(2.0, abs=1e-10)

    def test_affine_min_of_affinely_dependent_rows(self):
        # the KKT system is singular, so solve raises and lstsq answers
        q = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
            u = minnorm._affine_min(q)
        assert lstsq.call_count == 1
        assert u.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(u @ q, [0.0, 1.0], atol=1e-12)

    def test_zero_vector_in_set(self):
        res = min_norm_point(mk([[1.0, 2.0], [0.0, 0.0], [-3.0, 1.0]]))
        assert res.norm == pytest.approx(0.0, abs=1e-12)

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            GradientSet(np.empty((0, 2)))
        with pytest.raises(InvalidInput):
            GradientSet([[1.0, 2.0], [1.0]])  # mismatched dimensions
        # the check sums the rows first; an overflowing sum is numpy's to
        # report (the command line ignores it), and the entries decide
        with np.errstate(over="ignore", invalid="ignore"):
            big = np.array([[1e308, 1.0], [1e308, -1.0]])
            assert GradientSet(big).vectors is big
            for bad in (np.inf, np.nan):
                with pytest.raises(InvalidInput):
                    GradientSet(np.array([[1.0, bad]]))
            with pytest.raises(InvalidInput):
                GradientSet(np.array([[np.inf, 1.0], [-np.inf, 1.0]]))

    def test_duplicate_heavy_set(self):
        rows = [[1.0]] * 40 + [[-1.0]] * 25
        res = min_norm_point(mk(rows))
        assert res.norm == pytest.approx(0.0, abs=1e-10)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_result_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 4))
            z = rng.normal(scale=3.0, size=(k, n))
            res = min_norm_point(GradientSet(z))
            assert np.all(res.weights >= -1e-12)
            assert res.weights.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.allclose(res.weights @ z, res.point, atol=1e-10)
            assert res.norm <= np.linalg.norm(z, axis=1).min() + 1e-9
            assert res.norm <= np.linalg.norm(z.mean(axis=0)) + 1e-9

    def test_norm_below_barycentric_grid_oracle(self):
        # grid resolution 1e-2 up to 3 vectors, coarser for larger sets;
        # any grid minimum upper-bounds the true minimum, which in turn
        # upper-bounds a correct solver's value
        rng = np.random.default_rng(1)
        steps_for = {1: 1, 2: 100, 3: 100, 4: 60, 5: 40}
        for _ in range(30):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 4))
            z = rng.normal(scale=2.0, size=(k, n))
            res = min_norm_point(GradientSet(z))
            assert res.norm <= bary_min_norm(z, steps_for[k]) + 1e-6


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permutation_invariance(data):
    k = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(1, 3))
    flat = data.draw(st.lists(
        st.floats(-5.0, 5.0, allow_nan=False), min_size=k * n, max_size=k * n))
    z = np.array(flat).reshape(k, n)
    perm = data.draw(st.permutations(range(k)))
    a = min_norm_point(GradientSet(z))
    b = min_norm_point(GradientSet(z[list(perm)]))
    assert np.allclose(a.point, b.point, atol=1e-8)


ROSENBROCK_BUNDLES = [
    # Wolfe's active-set solve used to end past a feasible point's norm on this one
    [[19.99984551366705, -10.0], [-19.999855033552087, 10.0],
     [-19.999862383403315, 10.0], [19.999860637937438, -10.0]],
    # unrefined barycentric weights end 1.1e-9 from 0 here, twice Wolfe's 5e-10
    [[-19.999880137738238, 10.0], [19.99988518304617, -10.0],
     [19.999847979052667, -10.0], [19.999877657215404, -10.0]],
]


@pytest.mark.parametrize("z", ROSENBROCK_BUNDLES)
def test_near_antipodal_bundles_are_solved(z):
    # nonsmooth-Rosenbrock bundles straddling the kink (minimize, seed 0)
    z = np.array(z)
    res = min_norm_point(GradientSet(z))
    assert np.all(res.weights >= 0.0)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
    point, _ = _wolfe(z[_distinct_rows(z)], cap=400)
    assert res.norm <= np.linalg.norm(point) + 1e-12 * np.abs(z).max()


def test_first_failing_bundle_meets_the_grid_oracle():
    z = np.array(ROSENBROCK_BUNDLES[0])
    assert abs(min_norm_point(GradientSet(z)).norm - bary_min_norm(z, 100)) <= 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_planar_solve_scales_exactly(seed):
    # a power-of-two scale rounds nothing, so the point and weights scale
    # bit for bit, far past where squares and cross products underflow
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(int(rng.integers(2, 25)), int(rng.integers(1, 3))))
    ref = min_norm_point(GradientSet(z))
    for s in (2.0 ** -560, 2.0 ** 500):
        got = min_norm_point(GradientSet(s * z))
        assert np.array_equal(got.point, s * ref.point)
        assert np.array_equal(got.weights, ref.weights)


# coordinates shared exactly across rows (the +-10 of the Rosenbrock
# bundles), signed zeros, and generic values
COORD = st.one_of(st.sampled_from([-10.0, 10.0, 0.0, -0.0, 1.0]),
                  st.floats(-30.0, 30.0, allow_nan=False))


@st.composite
def planar_sets(draw):
    """At most 24 distinct rows in R^1 or R^2, drawn with repeats."""
    d = draw(st.integers(1, 2))
    pool = np.array(draw(st.lists(st.lists(COORD, min_size=d, max_size=d),
                                  min_size=1, max_size=24)))
    pool *= np.array(draw(st.lists(st.sampled_from([1.0, 1e-3, 1e-150, 6.4e-224]),
                                   min_size=len(pool), max_size=len(pool))))[:, None]
    kind = draw(st.sampled_from(["plain", "zero row", "origin on an edge"]))
    if kind == "zero row":
        pool[0] = 0.0
    elif kind == "origin on an edge" and len(pool) >= 2:
        pool[1] = -draw(st.sampled_from([0.5, 1.0, 3.0])) * pool[0]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=48))
    return pool[picks]


@settings(max_examples=400, deadline=None)
@given(planar_sets())
def test_planar_solve_is_exact(z):
    scale = np.abs(z).max()
    with mock.patch.object(minnorm, "_wolfe", wraps=_wolfe) as wolfe:
        res = min_norm_point(GradientSet(z))
    assert wolfe.call_count == 0
    assert np.all(res.weights >= 0.0)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(res.weights @ z - res.point) <= 1e-12 * scale)
    uniq = z[_distinct_rows(z)]
    if uniq.shape[0] > 1:
        try:
            point, _ = _wolfe(uniq, cap=100 * z.shape[0])
        except NumericalFailure:
            return
        assert res.norm <= np.linalg.norm(point) + 1e-12 * scale


@settings(max_examples=400, deadline=None)
@given(planar_sets())
def test_planar_pass_matches_the_vectorized_pass(z):
    # the hull scores a subset of the vectorized pass's candidates (every
    # edge and every origin-holding triangle) that holds the minimizer; their
    # rounding differs, so on rows scaled below 1 the points agree to a few
    # units in the last place, and either may win a tie
    uniq = z[_distinct_rows(z)]
    if uniq.shape[0] < 2:
        return
    q = np.ldexp(uniq, -np.frexp(np.abs(uniq).max())[1])
    got, want = _plane_hull(q) @ q, plane_faces_vectorized(q) @ q
    tol = 4.0 * np.finfo(float).eps
    assert abs(np.linalg.norm(got) - np.linalg.norm(want)) <= tol
    assert np.linalg.norm(got - want) <= tol


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(3, 3), (8, 4)]))
def test_larger_sets_reach_wolfe(seed, shape):
    # rows in R^3 and up
    z = np.random.default_rng(seed).normal(size=shape)
    with mock.patch.object(minnorm, "_wolfe", wraps=_wolfe) as wolfe:
        min_norm_point(GradientSet(z))
    assert wolfe.call_count == 1


@pytest.mark.parametrize("count", [9, 24, 121])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("shift", [0.0, 3.0])
def test_planar_sets_of_any_count_skip_wolfe(count, d, shift):
    # the hull takes every planar set: about the origin (which it holds)
    # and shifted off it, where the minimizer lies on an edge
    z = np.random.default_rng(count).normal(size=(count, d)) + shift
    with mock.patch.object(minnorm, "_wolfe", wraps=_wolfe) as wolfe:
        res = min_norm_point(GradientSet(z))
    assert wolfe.call_count == 0
    point, _ = _wolfe(z[_distinct_rows(z)], cap=100 * count)
    assert res.norm <= np.linalg.norm(point) + 1e-12 * np.abs(z).max()
    assert (res.norm <= 1e-15) == (shift == 0.0)


class TestScaleEquivariance:
    @pytest.mark.parametrize("k, d, spread", [(2, 2, 0.01), (9, 3, 0.03), (121, 2, 0.1)])
    def test_scaled_rows_scale_the_point(self, k, d, spread):
        # rows clustered near a unit vector, as sampled gradients are at a
        # smooth point; Wolfe's stopping test must scale with the rows, or
        # small rows stop at a point short of the minimizer, or one past a
        # feasible point's norm (NumericalFailure)
        for seed in range(10):
            z = np.eye(d)[0] + spread * np.random.default_rng(seed).normal(size=(k, d))
            ref = min_norm_point(GradientSet(z)).point
            for s in (1.0, 1e-3, 1e-6):
                got = min_norm_point(GradientSet(s * z)).point / s
                assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


@st.composite
def hard_sets(draw):
    """Finite sets that once made the solve raise, and other awkward ones.

    Rows scaled by 1e+-150; near-antipodal bundles +-a plus 1e-6 noise;
    integer-rounded rows with zero rows and duplicates; a column shrunk
    by 1e-9.  d = 1 to 6 (2 to 6 for the bundles), N = 2 to 60.
    """
    family = draw(st.sampled_from(["scaled", "antipodal", "integer", "shrunk"]))
    d = draw(st.integers(2 if family == "antipodal" else 1, 6))
    count = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if family == "scaled":
        return rng.normal(size=(count, d)) * draw(st.sampled_from([1e-150, 1e150]))
    if family == "antipodal":
        a = rng.normal(size=d)
        return np.where(rng.random((count, 1)) < 0.5, a, -a) + 1e-6 * rng.normal(size=(count, d))
    if family == "integer":
        z = np.round(rng.normal(scale=2.0, size=(count, d)))
        z[rng.integers(0, count, count // 4 + 1)] = 0.0
        return z[rng.integers(0, count, count)]
    z = rng.normal(size=(count, d))
    z[:, draw(st.integers(0, d - 1))] *= 1e-9
    return z


@settings(max_examples=300, deadline=None)
@given(hard_sets())
def test_every_finite_set_is_solved(z):
    res = min_norm_point(GradientSet(z))  # never raises
    assert np.all(res.weights >= 0.0)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(res.weights @ z - res.point) <= 1e-10 * np.abs(z).max())
    # Wolfe's stop certifies ||x - x*||^2 <= 2*_KKT_TOL*(max_j ||z_j||^2 + ||x||^2)
    row_norms = np.linalg.norm(z, axis=1)
    slack = np.sqrt(2.0 * minnorm._KKT_TOL * (row_norms.max() ** 2 + res.norm ** 2))
    assert res.norm <= min(row_norms.min(), np.linalg.norm(z.mean(axis=0))) + slack


def test_wolfe_iteration_cap_raises():
    # the unit vectors of R^3 take a minor cycle for each of the two
    # vertices added to the first: one cycle is allowed, two are needed
    assert np.allclose(_wolfe(np.eye(3), cap=2)[0], 1.0 / 3.0)
    with pytest.raises(NumericalFailure, match="min-norm iteration cap exceeded"):
        _wolfe(np.eye(3), cap=1)


def test_a_non_minimal_wolfe_point_raises(monkeypatch):
    # a solver that stops at the longest vertex fails the feasible-norm check
    def longest_vertex(p, cap):
        w = np.zeros(p.shape[0])
        w[np.einsum("ij,ij->i", p, p).argmax()] = 1.0
        return w @ p, w

    monkeypatch.setattr(minnorm, "_wolfe", longest_vertex)
    z = np.vstack([np.eye(3), [[4.0, 4.0, 4.0]]])
    with pytest.raises(NumericalFailure, match="exceeds a feasible point's norm"):
        min_norm_point(GradientSet(z))
