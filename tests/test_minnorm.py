import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsda import GradientSet, average_fallback, min_norm_point
from gsda.errors import InvalidInput

from _oracles import bary_min_norm


def mk(rows):
    return GradientSet(np.array(rows, dtype=float))


class TestMinNormPoint:
    def test_single_vector_hull(self):
        res = min_norm_point(mk([[3.0, 4.0]]))
        assert np.allclose(res.point, [3.0, 4.0])
        assert res.norm == pytest.approx(5.0)
        assert np.allclose(res.weights, [1.0])
        assert res.method == "qp"

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

    def test_zero_vector_in_set(self):
        res = min_norm_point(mk([[1.0, 2.0], [0.0, 0.0], [-3.0, 1.0]]))
        assert res.norm == pytest.approx(0.0, abs=1e-12)

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            GradientSet(np.empty((0, 2)))
        with pytest.raises(InvalidInput):
            GradientSet(np.array([[1.0, np.nan]]))
        with pytest.raises(InvalidInput):
            GradientSet([[1.0, 2.0], [1.0]])  # mismatched dimensions
        with pytest.raises(InvalidInput):
            min_norm_point(mk([[1.0, 1.0]]), tol=0.0)

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
            avg = average_fallback(GradientSet(z))
            assert res.norm <= avg.norm + 1e-9

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


class TestAverageFallback:
    def test_examples(self):
        assert np.allclose(average_fallback(mk([[1.0, 0.0], [0.0, 1.0]])).point,
                           [0.5, 0.5])
        assert np.allclose(average_fallback(mk([[2.0], [4.0], [6.0]])).point, [4.0])
        assert np.allclose(average_fallback(mk([[-1.0], [1.0]])).point, [0.0])

    def test_uniform_weights_and_method(self):
        res = average_fallback(mk([[1.0], [2.0], [3.0]]))
        assert res.method == "average"
        assert np.allclose(res.weights, [1 / 3] * 3)


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
