import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsda import (
    FitTrace,
    GsParams,
    Objective,
    approx_subgradient,
    armijo_search,
    gsda_minimize,
    l1_norm,
    nonsmooth_rosenbrock,
    sample_unit_ball,
    sum_of_squares,
)
from gsda.engine import FIRST_DRAWS, descend, sample_rows
from gsda.minnorm import GradientSet, min_norm_point
from gsda.errors import (
    InvalidInput,
    NumericalFailure,
    SampleSizeWarning,
    SamplingExhausted,
    SingularBlock,
)


class TestSampleUnitBall:
    def test_inside_ball(self):
        u = sample_unit_ball(2, 3, np.random.default_rng(0))
        assert u.shape == (3, 2)
        assert np.all(np.linalg.norm(u, axis=1) <= 1.0)

    def test_deterministic_given_seed(self):
        a = sample_unit_ball(4, 10, np.random.default_rng(123))
        b = sample_unit_ball(4, 10, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_1d_mean_matches_uniform(self):
        # uniform on [-1, 1] has variance 1/3
        u = sample_unit_ball(1, 10_000, np.random.default_rng(7))
        assert abs(u.mean()) <= 3.0 / np.sqrt(3.0 * 10_000)

    def test_matches_allocating_form(self):
        # scaling the normals in place leaves every bit of the draw unchanged
        for n, m in ((1, 5), (7, 3), (300, 301)):
            u = sample_unit_ball(n, m, np.random.default_rng(n))
            rng = np.random.default_rng(n)
            z = rng.standard_normal((m, n))
            norms = np.linalg.norm(z, axis=1)
            norms[norms == 0.0] = 1.0
            radius = rng.random(m) ** (1.0 / n)
            assert u.tobytes() == (z * (radius / norms)[:, None]).tobytes()

    def test_marginal_second_moment(self):
        # each coordinate of the uniform ball in R^n has E u_i^2 = 1/(n+2)
        for n, a in ((50, 5), (7, 3), (3, 1), (4, 4)):
            u = sample_unit_ball(a, 40_000, np.random.default_rng(n + a), dim=n)
            assert u.shape == (40_000, a)
            sq = np.sum(u * u, axis=1)
            assert np.all(sq <= 1.0)
            se = sq.std() / np.sqrt(sq.size)
            assert abs(sq.mean() - a / (n + 2)) <= 4.0 * se

    def test_marginal_matches_full_ball(self):
        from scipy.stats import ks_2samp

        for n, a in ((40, 3), (6, 2), (5, 1)):
            part = sample_unit_ball(a, 20_000, np.random.default_rng(1), dim=n)
            full = sample_unit_ball(n, 20_000, np.random.default_rng(2))[:, :a]
            for stat in (lambda v: v[:, 0], lambda v: np.sum(v * v, axis=1)):
                assert ks_2samp(stat(part), stat(full)).pvalue > 0.01

    def test_dim_equal_to_n_is_the_whole_ball(self):
        a = sample_unit_ball(5, 9, np.random.default_rng(4), dim=5)
        b = sample_unit_ball(5, 9, np.random.default_rng(4))
        assert a.tobytes() == b.tobytes()

    def test_dim_below_n_rejected(self):
        with pytest.raises(InvalidInput):
            sample_unit_ball(5, 3, np.random.default_rng(0), dim=4)

    def test_radial_second_moment(self):
        # E||u||^2 = n/(n+2) for the uniform ball
        n = 3
        u = sample_unit_ball(n, 20_000, np.random.default_rng(11))
        assert np.mean(np.sum(u * u, axis=1)) == pytest.approx(n / (n + 2), abs=0.01)


def min_norm_of(estimate):
    """The min-norm point g of an estimate (v, gnorm, method, rest), v = -g/||g||."""
    v, gnorm, _, _ = estimate
    return -gnorm * v


class TestApproxSubgradient:
    def test_smooth_function_recovers_gradient(self):
        obj = sum_of_squares([0.0, 0.0])
        x = np.array([1.0, 0.0])
        point = min_norm_of(approx_subgradient(obj, x, 1e-6,
                                               GsParams(m=6), np.random.default_rng(0),
                                               f=obj.eval(x), g0=obj.grad(x)))
        assert np.allclose(point, [2.0, 0.0], atol=1e-4)

    def test_abs_at_kink_qp_cancels(self):
        obj = l1_norm(1)
        x = np.array([0.0])
        *_, rest = approx_subgradient(obj, x, 0.1,
                                      GsParams(m=400), np.random.default_rng(0),
                                      f=obj.eval(x), g0=obj.grad(x))
        v, gnorm, method, more = rest()  # the complete estimate, all 400 draws
        # both +1 and -1 present, hull contains 0
        assert (v, method, more) == (None, "qp", None) and gnorm <= 1e-10

    def test_average_mode_rejected(self):
        # the minimizer reduces by Wolfe's point alone; no path ignores the mode
        gs = GsParams(m=20, subgradient_mode="average")
        obj, x = l1_norm(1), np.array([0.0])
        with pytest.raises(InvalidInput, match="subgradient_mode must be 'qp'"):
            approx_subgradient(obj, x, 0.1, gs,
                               np.random.default_rng(0), f=obj.eval(x), g0=obj.grad(x))
        with pytest.raises(InvalidInput, match="subgradient_mode must be 'qp'"):
            gsda_minimize(nonsmooth_rosenbrock(), [-1.0, 1.0], gs)

    def test_abs_in_smooth_region(self):
        obj, x = l1_norm(1), np.array([1.0])
        point = min_norm_of(approx_subgradient(obj, x, 0.1, GsParams(m=20),
                                               np.random.default_rng(0), f=obj.eval(x),
                                               g0=obj.grad(x)))
        assert point[0] == pytest.approx(1.0, abs=1e-14)

    def test_smooth_eps_error_bound(self):
        # for f = ||x||^2, grad is 2-Lipschitz, so the sampled approximation
        # stays within 10 * eps * 2 of the true gradient
        obj = sum_of_squares([0.0, 0.0, 0.0])
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=3)
            eps = 1e-8
            point = min_norm_of(approx_subgradient(obj, x, eps, GsParams(m=8), rng,
                                                   f=obj.eval(x), g0=obj.grad(x)))
            assert np.linalg.norm(point - 2.0 * x) <= 10.0 * eps * 2.0

    def test_sampling_exhausted_near_domain_wall(self):
        def f(x):
            return float(x[0] ** 2) if abs(x[0]) <= 1e-4 else np.inf

        obj = Objective(f, lambda x: 2.0 * x, 1)
        x = np.array([0.0])
        with pytest.raises(SamplingExhausted):
            approx_subgradient(obj, x, 0.1, GsParams(m=8),
                               np.random.default_rng(0), f=obj.eval(x), g0=obj.grad(x))

    def test_m_override_warns(self):
        obj = sum_of_squares([0.0, 0.0, 0.0])
        x = np.zeros(3) + 1.0
        with pytest.warns(SampleSizeWarning):
            approx_subgradient(obj, x, 1e-3, GsParams(m=2),
                               np.random.default_rng(0), f=obj.eval(x), g0=obj.grad(x))

    @pytest.mark.parametrize("f, g0", [
        (np.inf, [1.0, -1.0]), (np.nan, [1.0, -1.0]),  # f not finite
        (1.5, [1.0, np.nan]), (1.5, [np.inf, 1.0]),  # g0 not finite
        (1.5, [1.0]), (1.5, [[1.0, -1.0]]), (1.5, 1.0),  # g0 not of shape (2,)
    ], ids=["f-inf", "f-nan", "g0-nan", "g0-inf", "g0-short", "g0-2d", "g0-scalar"])
    def test_bad_value_or_gradient_at_x_raises_without_evaluating(self, f, g0):
        # the caller's f and g0 are checked, not recomputed: x is never evaluated
        calls = {"eval": 0, "grad": 0}
        obj = counted(l1_norm(2), calls)
        with pytest.raises(InvalidInput, match="base point"):
            approx_subgradient(obj, np.array([1.0, -1.0]), 0.1, GsParams(),
                               np.random.default_rng(0), f=f, g0=g0)
        assert calls == {"eval": 0, "grad": 0}


BUILTINS = {
    "nsrosenbrock": nonsmooth_rosenbrock,
    "l1": lambda: l1_norm(2),
    "l1_9": lambda: l1_norm(9),
    "sumsq": lambda: sum_of_squares([0.25, -1.0]),
    "sumsq_9": lambda: sum_of_squares(np.linspace(-1.0, 1.0, 9)),
}


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestStackedBuiltins:
    """eval and grad on a stack equal the one-point calls row by row, bitwise."""

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_stack_rows_equal_one_point_calls(self, name, k):
        obj = BUILTINS[name]()
        assert obj.stacked
        rng = np.random.default_rng(k)
        for trial in range(40):
            xs = rng.uniform(-2.0, 2.0, (k, obj.dim))
            if trial % 2:  # exact kinks and zeros: halves on a coarse grid
                xs = np.round(2.0 * xs) / 2.0
                if name == "nsrosenbrock":
                    xs[:, 1] = xs[:, 0] ** 2  # on the kink x2 = x1^2
            values, grads = obj.eval(xs), obj.grad(xs)
            assert values.shape == (k,) and grads.shape == (k, obj.dim)
            for x, value, grad in zip(xs, values, grads):
                assert bits(obj.eval(x)) == bits(value)
                assert bits(obj.grad(x)) == bits(grad)

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_one_point_eval_is_a_scalar(self, name):
        # final_f in diagnostics.txt is written with {:.17g}, as a float
        obj = BUILTINS[name]()
        value = obj.eval(np.full(obj.dim, 0.75))
        assert isinstance(value, float) and np.ndim(value) == 0
        assert obj.grad(np.full(obj.dim, 0.75)).shape == (obj.dim,)


def stacked_l1(eval_fn=None, grad_fn=None):
    """A stacked ||x||_1 in R^2 with eval or grad swapped out."""
    return Objective(eval_fn or (lambda x: np.abs(x).sum(axis=-1)), grad_fn or np.sign, 2,
                     stacked=True)


class TestStackedPrecondition:
    """A stacked objective of the wrong output shape raises InvalidInput."""

    @pytest.mark.parametrize("eval_fn", [
        lambda x: np.abs(x).sum(axis=0),  # the columns' sums: (d,), not (k,)
        lambda x: np.abs(x).sum(axis=-1, keepdims=True),  # (k, 1)
        lambda x: np.abs(x).sum(),  # one scalar for the stack
    ])
    def test_eval_not_of_shape_k(self, eval_fn):
        obj, x = stacked_l1(eval_fn=eval_fn), np.array([1.0, -0.5])
        with pytest.raises(InvalidInput, match="stacked eval"):
            approx_subgradient(obj, x, 0.1,
                               GsParams(), np.random.default_rng(0),
                               f=obj.eval(x), g0=obj.grad(x))

    @pytest.mark.parametrize("grad_fn", [
        lambda x: np.sign(x).T,  # (d, k)
        lambda x: np.sign(x)[..., 0],  # (k,)
        lambda x: np.sign(x).ravel(),  # (k*d,)
    ])
    def test_grad_not_of_shape_k_d(self, grad_fn):
        # g0 is the one-point gradient np.sign(x): one of these grad_fn
        # gives shape () at a single point, which the base-point check
        # would reject before any stack is drawn
        obj, x = stacked_l1(grad_fn=grad_fn), np.array([1.0, -0.5])
        with pytest.raises(InvalidInput, match="stacked grad"):
            approx_subgradient(obj, x, 0.1,
                               GsParams(), np.random.default_rng(0),
                               f=obj.eval(x), g0=np.sign(x))


class TestPerPointPrecondition:
    """A per-point objective whose eval is not a scalar, or whose grad is
    not a dim-vector, at a drawn point raises InvalidInput."""

    @staticmethod
    def subgradient(eval_fn=None, grad_fn=None, m=4):
        # the base point's f and g0 are valid: the draws meet the bad output
        obj = Objective(eval_fn or (lambda x: float(np.abs(x).sum())), grad_fn or np.sign, 2)
        x = np.array([1.0, -0.5])
        return approx_subgradient(obj, x, 0.1, GsParams(m=m), np.random.default_rng(0),
                                  f=1.5, g0=np.sign(x))

    @pytest.mark.parametrize("eval_fn", [
        lambda x: np.abs(x),  # (d,)
        lambda x: np.abs(x).sum(keepdims=True),  # (1,)
    ], ids=["vector", "length-1"])
    def test_eval_not_a_scalar(self, eval_fn):
        with pytest.raises(InvalidInput, match="per-point eval"):
            self.subgradient(eval_fn=eval_fn)

    @pytest.mark.parametrize("grad_fn", [
        lambda x: np.sign(x)[:1],  # length 1 at dim 2
        lambda x: np.sign(x).sum(),  # a scalar
        lambda x: np.outer(np.sign(x), np.sign(x)),  # (d, d)
    ], ids=["length-1", "scalar", "matrix"])
    def test_grad_not_a_dim_vector(self, grad_fn):
        with pytest.raises(InvalidInput, match="per-point grad"):
            self.subgradient(grad_fn=grad_fn)

    # ragged: the 8 draws fall on both sides of x1 = 1, so some results
    # have the right shape and some do not, which numpy cannot stack
    def test_ragged_values(self):
        with pytest.raises(InvalidInput, match=r"per-point eval .* got \(2,\) at a point"):
            self.subgradient(eval_fn=lambda x: np.abs(x) if x[0] <= 1 else float(np.abs(x).sum()),
                             m=8)

    def test_ragged_gradients(self):
        with pytest.raises(InvalidInput, match=r"per-point grad .* got \(1,\) at a point"):
            self.subgradient(grad_fn=lambda x: np.sign(x) if x[0] > 1 else np.sign(x)[:1], m=8)


def scripted_draws(values):
    """draw(k) handing out the next k entries of values as (k, 1) rows."""
    queue = list(values)

    def draw(k):
        out, queue[:k] = queue[:k], []
        return np.array(out, dtype=float).reshape(-1, 1)
    return draw


def keep_positive(u):
    """The sampler's evaluate: draws with u > 0 are feasible, gradient 2u."""
    return 2.0 * u[u[:, 0] > 0.0]


class TestSampleRows:
    @pytest.mark.parametrize("m", [1, 31, 32, 33, 65])
    def test_rows_match_one_draw_at_a_time(self, m):
        # blocks of 32 around their edges: the rows, the rejections and
        # the draws consumed equal those of a loop over single draws
        for seed in range(4):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            first = np.array([7.0, -7.0])
            blocks = []

            def evaluate(u):
                blocks.append(u.shape[0])
                return 2.0 * u[u[:, 0] > -0.4]

            trace = FitTrace()
            rows = sample_rows(
                first, m, 0.1, lambda k: sample_unit_ball(2, k, rng_a), evaluate, trace)
            want, want_rejected = [first], 0
            while len(want) < m + 1:
                for u in sample_unit_ball(2, m + 1 - len(want), rng_b):
                    if u[0] > -0.4:
                        want.append(2.0 * u)
                    else:
                        want_rejected += 1
            assert np.array_equal(rows, np.array(want))
            assert trace.rejected_draws == want_rejected
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            assert max(blocks) <= 32 and sum(blocks) == m + want_rejected

    @pytest.mark.parametrize("m", [1, 3, 33])
    def test_ten_m_rejections_pass(self, m):
        draw = scripted_draws([-1.0] * (10 * m) + [0.5] * m)
        trace = FitTrace()
        rows = sample_rows(np.zeros(1), m, 0.1, draw, keep_positive, trace)
        assert trace.rejected_draws == 10 * m
        assert np.array_equal(rows[1:, 0], np.full(m, 1.0))

    @pytest.mark.parametrize("m", [1, 3, 33])
    def test_one_more_rejection_raises(self, m):
        draw = scripted_draws([-1.0] * (10 * m + 1) + [0.5] * m)
        trace = FitTrace()
        with pytest.raises(SamplingExhausted) as info:
            sample_rows(np.zeros(1), m, 0.1, draw, keep_positive, trace)
        assert info.value.rejected == trace.rejected_draws == 10 * m + 1
        assert str(info.value) == f"more than {10 * m} infeasible draws at eps=0.1"


def sampled_infeasible_evals(monkeypatch, obj):
    """obj whose +inf values at sampled points are tallied per estimate.

    Returns (obj, tally); each approx_subgradient call appends its count
    of infeasible draws, capped at 10*m + 1: the sampler stops at the
    draw that breaks the cap, though its block may evaluate a few more.
    """
    import gsda.engine

    tally, inside = [], [False]
    estimate = gsda.engine.approx_subgradient

    def counted(*args, **kwargs):
        inside[0] = True
        tally.append(0)
        try:
            return estimate(*args, **kwargs)
        finally:
            inside[0] = False
            tally[-1] = min(tally[-1], 10 * (args[3].m or args[0].dim + 1) + 1)

    def f(x):
        value = obj.eval(x)
        if inside[0] and not np.isfinite(value):
            tally[-1] += 1
        return value

    monkeypatch.setattr(gsda.engine, "approx_subgradient", counted)
    return Objective(f, obj.grad, obj.dim), tally


class TestRejectedDraws:
    def test_half_space(self, monkeypatch):
        # minimum on the wall of the domain x0 >= 0: about half the draws
        # near it fall outside
        half = Objective(lambda x: float(x[0] + abs(x[1])) if x[0] >= 0.0 else np.inf,
                         lambda x: np.array([1.0, np.sign(x[1])]), 2)
        obj, tally = sampled_infeasible_evals(monkeypatch, half)
        for seed in range(3):
            tally.clear()
            _, trace = gsda_minimize(obj, [0.3, 0.5], GsParams(seed=seed, max_iter=300))
            assert trace.rejected_draws == sum(tally) > 0

    def test_slab_counts_exhausted_estimates(self, monkeypatch):
        # a slab of width 2e-4: draws at eps=0.1 nearly all fall outside,
        # so early estimates end in SamplingExhausted, and they count too
        slab = Objective(lambda x: float(x[0] ** 2 + abs(x[1])) if abs(x[0]) <= 1e-4 else np.inf,
                         lambda x: np.array([2.0 * x[0], np.sign(x[1])]), 2)
        obj, tally = sampled_infeasible_evals(monkeypatch, slab)
        _, trace = gsda_minimize(obj, [0.0, 0.5], GsParams(seed=0, max_iter=300))
        exhausted = sum(r.event == "sampling_exhausted" for r in trace.records)
        assert exhausted > 0
        assert trace.rejected_draws == sum(tally)
        assert sum(t == 31 for t in tally) == exhausted


class TestArmijoSearch:
    """The search runs on a ray: phi(t) = x^2 at x = 1 - t (descent) or 1 + t."""

    def test_full_step_accepted(self):
        # phi(1) = 0 < phi(0) - 0.1*1*2 = 0.8
        hit = armijo_search(lambda t: (1.0 - t) ** 2, 1.0, 2.0, 0.1, 10)
        assert hit == (1.0, 0, 0.0)

    def test_ascent_direction_fails(self):
        calls = []

        def phi(t):
            calls.append(t)
            return (1.0 + t) ** 2

        assert armijo_search(phi, 1.0, 2.0, 0.1, 10) is None
        # every candidate 1, 1/2, ..., 2^-10 tried once, and phi(0) never
        assert calls == [0.5 ** b for b in range(11)]

    def test_backtracks_to_the_first_sufficient_decrease(self):
        # phi(t) = (1 - 4t)^2: t = 1 and 1/2 overshoot, t = 1/4 lands on 0
        hit = armijo_search(lambda t: (1.0 - 4.0 * t) ** 2, 1.0, 8.0, 0.1, 10)
        assert hit == (0.25, 2, 0.0)

    def test_domain_wall_never_accepts_infinite(self):
        # x = 0.1 - t, finite only for x >= 0
        hit = armijo_search(lambda t: 0.1 - t if t <= 0.1 else np.inf, 0.1, 1.0, 0.1, 30)
        assert hit is not None
        t = hit[0]
        assert t <= 1.0 / 16.0 and 0.1 - t >= 0.0

    def test_requires_positive_slope(self):
        for slope in (0.0, -1.0, np.nan):
            for stacked in (False, True):
                with pytest.raises(InvalidInput, match="slope must be positive"):
                    armijo_search(lambda t: (1.0 - t) ** 2, 1.0, slope, 0.1, 5, stacked)


def one_trial_per_call(phi, f, slope, beta, max_backtracks):
    """The ladder as a reference: one scalar trial per call, t halved each time."""
    t = 1.0
    for b in range(max_backtracks + 1):
        ft = phi(t)
        if np.isfinite(ft) and ft < f - beta * t * slope:
            return t, b, ft
        t *= 0.5
    return None


def ray(kind, a, b, c, wall):
    """A vectorized ray: +,-,* only, so a step's value is the same alone or stacked."""
    def phi(ts):
        ts = np.asarray(ts, dtype=float)
        if kind == "convex":
            values = a * (ts - b) * (ts - b) + c
        elif kind == "nonconvex":
            values = a * ts * (ts - b) * (ts - c) * (ts - 0.25)
        else:  # ascent: every trial fails
            values = abs(a) * ts + 1.0
        return np.where(ts > wall, np.inf, values)
    return phi


class TestStackedLadder:
    """A stacked ray, handed the ladder in blocks, and a per-point ray, one
    step a call, give the one-trial-per-call result."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["convex", "nonconvex", "ascent"]),
           a=st.floats(-4.0, 4.0), b=st.floats(-1.0, 2.0), c=st.floats(-1.0, 1.0),
           wall=st.sampled_from([np.inf, 1.0, 0.3, 1e-3, 1e-9, 1e-12]),
           f=st.floats(-1.0, 2.0), slope=st.floats(1e-6, 10.0),
           beta=st.floats(1e-4, 0.9), max_backtracks=st.sampled_from([1, 30, 70]),
           stacked=st.booleans(), block=st.integers(1, 40))
    def test_same_step_as_one_trial_per_call(self, kind, a, b, c, wall, f, slope, beta,
                                             max_backtracks, stacked, block):
        phi = ray(kind, a, b, c, wall)
        calls = []

        def stacked_phi(ts):
            calls.append(ts.tolist())
            return phi(ts)

        def per_point(t):
            calls.append([t])
            return float(phi(np.array([t]))[0])

        want = one_trial_per_call(lambda t: float(phi(np.array([t]))[0]), f, slope, beta,
                                  max_backtracks)
        got = armijo_search(stacked_phi if stacked else per_point, f, slope, beta,
                            max_backtracks, stacked=stacked, block=block)
        assert got == want
        # the ladder goes in ladder order, in blocks of at most ``block``
        # steps (one step a call, per point), and stops at the hit
        tried = [t for ts in calls for t in ts]
        assert tried == [0.5 ** b for b in range(len(tried))]
        assert all(len(ts) <= (block if stacked else 1) for ts in calls)
        needed = max_backtracks + 1 if want is None else want[1] + 1
        assert needed <= len(tried) <= max_backtracks + 1
        if not stacked or want is None:
            assert len(tried) == needed

    def test_all_fail_ray_tries_the_whole_ladder_in_two_blocks(self):
        blocks = []

        def phi(ts):
            blocks.append(ts.tolist())
            return 1.0 + ts

        assert armijo_search(phi, 1.0, 2.0, 0.1, 40, stacked=True) is None
        assert [len(b) for b in blocks] == [32, 9]
        assert blocks[0] + blocks[1] == [0.5 ** b for b in range(41)]


def counted(obj, calls):
    """obj with eval and grad counting their calls into calls["eval"] and calls["grad"]."""
    def evaluate(x):
        calls["eval"] += 1
        return obj.eval(x)

    def gradient(x):
        calls["grad"] += 1
        return obj.grad(x)
    return dataclasses.replace(obj, eval=evaluate, grad=gradient)


def test_unstacked_minimizer_evaluates_one_trial_per_call():
    # an objective left unstacked (the default for user objectives) gets
    # one evaluation at x0, m per estimate (its draws), b + 1 per step
    # found after b backtracks and b per shrink (the whole ladder after a
    # failed search); the gradient at an iterate is taken once, at x0
    # and after each accepted step, however many estimates it serves
    calls = {"eval": 0, "grad": 0}
    obj = counted(dataclasses.replace(nonsmooth_rosenbrock(), stacked=False), calls)
    _, trace = gsda_minimize(obj, np.array([-1.2, 1.0]), GsParams(seed=3, max_iter=200))
    trials = sum(r.backtracks + (r.event == "step") for r in trace.records)
    assert trace.rejected_draws == 0 and len(trace.accepted) > 0
    assert calls["eval"] == 1 + len(trace) * trace.m + trials
    assert calls["grad"] == len(trace) * trace.m + len(trace.accepted) + 1


def test_minimizer_evaluates_one_stack_per_draw_block_and_ladder():
    # a stacked objective gets one eval at x0; per estimate one eval and
    # one grad for its m < 32 draws; one eval per search, the whole
    # 31-step ladder in one block; and one grad per iterate, at x0 and
    # after each accepted step.  One call per draw or per trial would
    # make 1 + len(trace) * m + trials evals
    calls = {"eval": 0, "grad": 0}
    obj = counted(nonsmooth_rosenbrock(), calls)
    assert obj.stacked
    _, trace = gsda_minimize(obj, np.array([-1.2, 1.0]), GsParams(seed=3, max_iter=200))
    searches = sum(r.event == "step" or r.backtracks > 0 for r in trace.records)
    assert trace.rejected_draws == 0 and len(trace.accepted) > 0 and trace.m == 3
    assert calls["eval"] == 1 + len(trace) + searches
    assert calls["grad"] == len(trace) + len(trace.accepted) + 1


class TestGsdaMinimize:
    def test_smooth_quadratic(self):
        x, trace = gsda_minimize(sum_of_squares([2.0, -1.0]), [0.0, 0.0],
                                 GsParams(seed=1))
        assert np.linalg.norm(x - [2.0, -1.0]) <= 1e-2
        assert trace.converged

    def test_l1_reaches_origin(self):
        x, trace = gsda_minimize(l1_norm(2), [3.0, 4.0], GsParams(seed=2))
        assert np.linalg.norm(x) <= 1e-2
        assert trace.converged

    def test_nonsmooth_rosenbrock(self):
        x, trace = gsda_minimize(nonsmooth_rosenbrock(), [-1.0, 1.0],
                                 GsParams(seed=0))
        assert np.linalg.norm(x - [1.0, 1.0]) <= 1e-2
        assert trace.converged

    def test_descent_and_schedule_invariants(self):
        _, trace = gsda_minimize(nonsmooth_rosenbrock(), [-1.0, 1.0],
                                 GsParams(seed=3))
        f_acc = [r.f for r in trace.accepted]
        assert np.all(np.diff(f_acc) < 0.0)
        # sufficient decrease as tested by the line search
        prev_f = nonsmooth_rosenbrock().eval(np.array([-1.0, 1.0]))
        for rec in trace.records:
            if rec.event == "step":
                assert rec.f < prev_f - 0.1 * rec.t * rec.gnorm + 1e-12
                prev_f = rec.f
        eps_vals = [r.eps for r in trace.records]
        tau_vals = [r.tau for r in trace.records]
        assert np.all(np.diff(eps_vals) <= 0.0)
        assert np.all(np.diff(tau_vals) <= 0.0)
        # every shrink multiplies by exactly mu / lambda
        for seq, factor in ((eps_vals, 0.5), (tau_vals, 0.5)):
            for a, b in zip(seq, seq[1:]):
                assert b == a or b == pytest.approx(a * factor, rel=1e-15)

    def test_bitwise_reproducible_trace(self):
        params = GsParams(seed=9)
        x1, t1 = gsda_minimize(nonsmooth_rosenbrock(), [-1.0, 1.0], params)
        x2, t2 = gsda_minimize(nonsmooth_rosenbrock(), [-1.0, 1.0], params)
        assert np.array_equal(x1, x2)
        assert [r.f for r in t1.records] == [r.f for r in t2.records]
        assert [r.t for r in t1.records] == [r.t for r in t2.records]

    def test_domain_wall_recovers_via_shrink(self):
        # infeasible sampling at the initial radius must not crash the run
        def f(x):
            return float(x[0] ** 2) if abs(x[0]) <= 1e-4 else np.inf

        obj = Objective(f, lambda x: 2.0 * x, 1)
        x, trace = gsda_minimize(obj, [0.0], GsParams(seed=0, m=4))
        assert any(r.event == "sampling_exhausted" for r in trace.records)
        assert trace.converged
        assert abs(x[0]) <= 1e-4

    def test_max_iter_reported(self):
        _, trace = gsda_minimize(sum_of_squares([5.0]), [0.0],
                                 GsParams(seed=0, max_iter=3))
        assert not trace.converged
        assert trace.message == "max_iter reached"

    def test_infeasible_start_rejected(self):
        def f(x):
            return np.inf

        with pytest.raises(InvalidInput):
            gsda_minimize(Objective(f, lambda x: x, 1), [0.0], GsParams())


    def test_overflowing_gradient_norm_is_a_numerical_failure(self):
        # every gradient entry is +-1e308, so the norm of any estimate
        # overflows to inf; that is a numerical failure, not bad input
        obj = Objective(lambda x: 1e308 * float(np.sum(np.abs(x))),
                        lambda x: 1e308 * np.sign(x), 4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match="gradient norm"):
                gsda_minimize(obj, 1e-300 * np.ones(4))


def per_iterate(estimate):
    """descend's ``at`` for an estimate(x, eps) of the iterate and radius."""
    return lambda x, f: (lambda eps: estimate(x, eps))


class TestDescend:
    obj = sum_of_squares([1.0])

    def run(self, estimate, **kwargs):
        trace = FitTrace()
        x = descend(self.obj.eval, np.zeros(1), per_iterate(estimate),
                    GsParams(max_iter=50, **kwargs), trace)
        return x, trace

    @pytest.mark.parametrize("f0", [np.inf, np.nan])
    def test_non_finite_start_is_rejected_before_any_estimate(self, f0):
        def at(x, f):
            raise AssertionError("at ran at a non-finite start")

        trace = FitTrace()
        with pytest.raises(InvalidInput, match="finite at x0"):
            descend(lambda x: f0, np.zeros(1), at, GsParams(), trace)
        assert len(trace) == 0

    @pytest.mark.parametrize("gnorm", [np.nan, np.inf])
    def test_non_finite_gradient_norm(self, gnorm):
        with pytest.raises(NumericalFailure, match="gradient norm"):
            self.run(lambda x, eps: (np.ones(1), gnorm, "test", None))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_step_vector(self, bad):
        with pytest.raises(NumericalFailure, match="step vector"):
            self.run(lambda x, eps: (np.array([bad]), 2.0, "test", None))

    def test_failed_line_search_shrinks_with_every_backtrack(self):
        x, trace = self.run(lambda x, eps: (-np.ones(1), 2.0, "test", None),  # uphill
                            max_backtracks=7)
        assert x.tolist() == [0.0] and trace.converged
        assert {(r.event, r.backtracks, r.t) for r in trace.records} == {("shrink", 8, 0.0)}

    def test_no_direction_shrinks_without_a_line_search(self):
        x, trace = self.run(lambda x, eps: (None, 1.0, "test", None))
        assert x.tolist() == [0.0] and trace.converged
        assert {(r.event, r.backtracks, r.t) for r in trace.records} == {("shrink", 0, 0.0)}
        assert trace.final_f() == 1.0
        trace.records = [r._replace(f=np.inf) for r in trace.records]
        assert np.isnan(trace.final_f())  # no finite record

    @pytest.mark.parametrize("below", [True, False])
    def test_step_at_or_below_tau_is_never_searched(self, below):
        # the step x + 1 reaches the minimum, yet a gnorm at most tau
        # shrinks without one objective call past the start's; tau halves
        # each shrink, so 1e-2 * 0.5**k is tau itself at iteration k
        calls, k = [], [0]

        def objective(x):
            calls.append(x)
            return self.obj.eval(x)

        def estimate(x, eps):
            gnorm = 1e-9 if below else 1e-2 * 0.5 ** k[0]
            k[0] += 1
            return np.ones(1), gnorm, "test", None

        trace = FitTrace()
        x = descend(objective, np.zeros(1), per_iterate(estimate), GsParams(max_iter=50), trace)
        assert len(calls) == 1 and x.tolist() == [0.0] and trace.converged
        assert {(r.event, r.backtracks, r.t) for r in trace.records} == {("shrink", 0, 0.0)}

    @pytest.mark.parametrize("dim, block", [(2, 32), (300, 32), (600, 16), (4000, 2),
                                            (10_000, 1)])
    def test_stacked_ray_blocks_are_sized_to_the_point(self, dim, block):
        # min(32, 9600 // d) steps a call, at least one: an uphill ray
        # fails the whole 31-step ladder, so every block but the last is full
        sizes = []

        def objective(xs):
            if xs.ndim == 2:  # a block of the ray, not the start point
                sizes.append(xs.shape[0])
            return xs.sum(axis=-1)

        uphill = per_iterate(lambda x, eps: (np.ones(dim), 2.0, "test", None))
        descend(objective, np.zeros(dim), uphill, GsParams(max_iter=1), FitTrace(),
                stacked=True)
        assert sizes == [block] * (31 // block) + [31 % block] * (31 % block > 0)

    @pytest.mark.parametrize("m", [1, 3, 33])
    def test_exhausted_estimate_counts_its_draws_once(self, m):
        # the sampler adds 10*m + 1 as it raises; the loop adds nothing
        def estimate(x, eps):
            draw = scripted_draws([-1.0] * (10 * m + 1))
            return sample_rows(np.zeros(1), m, eps, draw, keep_positive, trace)

        trace = FitTrace()
        descend(self.obj.eval, np.zeros(1), per_iterate(estimate), GsParams(max_iter=1), trace)
        assert [r.event for r in trace.records] == ["sampling_exhausted"]
        assert trace.rejected_draws == 10 * m + 1

    def test_at_runs_at_the_start_and_after_each_accepted_step(self):
        # a fixed-length step 0.3 along -sign(g) with gnorm = |g|: steps while
        # |g| > tau, shrinks once it is not, so steps and shrinks interleave
        calls, estimates = [], []

        def at(x, f):
            calls.append((len(trace.records), x.copy(), f))
            g = self.obj.grad(x)

            def estimate(eps):
                estimates.append(x)
                return -0.3 * np.sign(g), float(np.abs(g[0])), "test", None
            return estimate

        trace = FitTrace()
        x = descend(self.obj.eval, np.zeros(1), at, GsParams(max_iter=200), trace)
        steps = [i for i, r in enumerate(trace.records) if r.event == "step"]
        assert len(steps) >= 3 and len(trace) - len(steps) >= 3
        # once at the start, then right after each step's record and never on a shrink
        assert [k for k, _, _ in calls] == [0] + [i + 1 for i in steps]
        assert [f for _, _, f in calls] == [1.0] + [trace.records[i].f for i in steps]
        assert calls[-1][1].tolist() == x.tolist()
        # every estimate of an iterate went through that iterate's at
        assert len(estimates) == len(trace)
        served = [k for k, _, _ in calls] + [len(trace)]
        for (start, point, _), end in zip(calls, served[1:]):
            assert all(e.tolist() == point.tolist() for e in estimates[start:end])

    def test_at_that_raises_after_a_step_keeps_the_step_record(self):
        # as the POT fitter's at raises SingularBlock at a new iterate
        def at(x, f):
            if x[0] != 0.0:
                raise SingularBlock("new iterate")
            return lambda eps: (np.ones(1), 2.0, "test", None)

        trace = FitTrace()
        with pytest.raises(SingularBlock):
            descend(self.obj.eval, np.zeros(1), at, GsParams(max_iter=50), trace)
        assert [(r.event, r.t, r.f) for r in trace.records] == [("step", 1.0, 0.0)]


class TestDrawsOnDemand:
    """A step comes from the first 8 draws; the other m - 8 only decide a shrink."""

    def run(self, monkeypatch, obj, x, m, fail_first_search=False, seed=4):
        """One iteration of the minimizer's descent.

        Returns (sample_rows calls as (k, rows), the row sets reduced,
        searches, rng, trace); a search is logged as the number of
        sample_rows calls before it.
        """
        import gsda.engine as engine

        calls, reduced, searches = [], [], []
        real_rows, real_search, real_reduce = (
            engine.sample_rows, engine.armijo_search, engine.min_norm_point)

        def rows(first, k, *args):
            calls.append((k, real_rows(first, k, *args)))
            return calls[-1][1]

        def reduce(gset):
            reduced.append(gset.vectors)
            return real_reduce(gset)

        def search(*args):
            searches.append(len(calls))
            return None if fail_first_search and len(searches) == 1 else real_search(*args)

        monkeypatch.setattr(engine, "sample_rows", rows)
        monkeypatch.setattr(engine, "min_norm_point", reduce)
        monkeypatch.setattr(engine, "armijo_search", search)
        rng, params, trace = np.random.default_rng(seed), GsParams(m=m, max_iter=1), FitTrace()

        def at(x, f):
            g0 = obj.grad(x)
            return lambda eps: approx_subgradient(obj, x, eps, params, rng, trace, f=f, g0=g0)

        descend(obj.eval, x, at, params, trace, stacked=obj.stacked)
        return calls, reduced, searches, rng, trace

    @pytest.mark.parametrize("m", [9, 20, 40])
    def test_subset_shrink_draws_nothing_more(self, monkeypatch, m):
        # at x = 0.01 the 8 draws of the 0.1-ball fall on both sides of the
        # kink of |x|, so the subset's hull holds 0: a shrink, decided by
        # the subset alone, since the full hull holds it too
        obj, x = l1_norm(1), np.array([0.01])
        calls, reduced, searches, rng, trace = self.run(monkeypatch, obj, x, m)
        (rec,) = trace.records
        assert (rec.event, rec.backtracks) == ("shrink", 0) and rec.gnorm <= GsParams().tau0
        assert [k for k, _ in calls] == [FIRST_DRAWS] and searches == []
        assert [rows.shape for rows in reduced] == [(FIRST_DRAWS + 1, 1)]
        assert trace.topups == 0
        after_eight = np.random.default_rng(4)
        sample_unit_ball(1, FIRST_DRAWS, after_eight)
        assert rng.bit_generator.state == after_eight.bit_generator.state

    @pytest.mark.parametrize("m", [9, 20, 40])
    def test_failed_first_search_tops_up_the_rest(self, monkeypatch, m):
        # a smooth bowl: the second search, on all m+1 rows, steps
        obj, x = sum_of_squares([1.0, -1.0]), np.zeros(2)
        calls, reduced, searches, rng, trace = self.run(
            monkeypatch, obj, x, m, fail_first_search=True)
        (k1, block), (k2, more) = calls
        assert (k1, k2) == (FIRST_DRAWS, m - FIRST_DRAWS)
        assert np.array_equal(block[0], obj.grad(x)) and block.shape == (FIRST_DRAWS + 1, 2)
        # the complete estimate keeps the first block as rows 0..8, bitwise,
        # and the m - 8 new draws behind it
        first, full = reduced
        assert first is block and full.shape == (m + 1, 2)
        assert np.array_equal(full[:FIRST_DRAWS + 1], block)
        assert np.array_equal(full[FIRST_DRAWS + 1:], more[1:])
        assert searches == [1, 2] and trace.topups == 1
        (rec,) = trace.records
        assert rec.event == "step"
        assert rec.gnorm == min_norm_point(GradientSet(full)).norm
        exact = np.random.default_rng(4)  # the whole plane is the domain: no redraw
        sample_unit_ball(2, FIRST_DRAWS, exact)
        sample_unit_ball(2, m - FIRST_DRAWS, exact)
        assert rng.bit_generator.state == exact.bit_generator.state

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_estimates_of_at_most_eight_draws_are_complete(self, monkeypatch, m):
        # one draw of m, and a failed search shrinks with no second estimate
        obj, x = sum_of_squares([1.0, -1.0]), np.zeros(2)
        calls, reduced, searches, _, trace = self.run(
            monkeypatch, obj, x, m, fail_first_search=True)
        assert [k for k, _ in calls] == [m] and searches == [1] and len(reduced) == 1
        assert [(r.event, r.backtracks) for r in trace.records] == [("shrink", 31)]
        assert trace.topups == 0


class TestGsParamsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0}, {"beta": 1.0}, {"mu": 1.5}, {"lam": 0.0},
        {"eps0": -1.0}, {"eps_min": 0.2}, {"tau_min": 1.0},
        {"max_iter": 0}, {"m": 0}, {"subgradient_mode": "newton"},
        {"m": 2.5}, {"max_iter": 2.5}, {"max_backtracks": 2.5},
        {"seed": -1}, {"seed": 1.5}, {"eps0": np.inf}, {"tau0": np.inf},
    ])
    def test_bad_values(self, kwargs):
        with pytest.raises(InvalidInput):
            GsParams(**kwargs)

    def test_numpy_integer_counts_pass(self):
        gs = GsParams(m=np.int64(3), max_iter=np.int32(5), max_backtracks=np.int64(4),
                      seed=np.uint8(2))
        _, trace = gsda_minimize(sum_of_squares([1.0]), [0.0], gs)
        assert len(trace) == 5
