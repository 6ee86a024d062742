import copy
import dataclasses
import warnings

import numpy as np
import pytest

from gsda import (
    FitTrace,
    GsParams,
    SmootherSpec,
    fit_quantile_additive,
    pinball_grad,
    pinball_loss,
    predict_quantile,
)
from gsda import _kernels, quantile
from gsda.engine import sample_unit_ball
from gsda.errors import ExtrapolationWarning, InvalidInput, SampleSizeWarning
from gsda.smoothing import AdditiveProjector, CoordinateMap

from _oracles import (
    central_diff,
    pinball_coordinate_rows,
    pinball_rows_full_ball,
    pinball_subgradient_full_ball,
)


class TestPinball:
    def test_sampled_sum_matches_allocating_form(self):
        # one reused residual buffer leaves every bit of the sum unchanged
        rng = np.random.default_rng(31)
        for n, m, alpha in ((1, 1, 0.5), (40, 17, 0.8), (300, 301, 0.9)):
            q, y = rng.normal(size=n), rng.normal(size=n)
            u = rng.uniform(-1.0, 1.0, size=(m, n))
            u[0, 0] = np.nan  # a NaN residual takes the 1 - alpha branch
            before = u.copy()
            got = _kernels.pinball_sampled_grad_sum(q, y, alpha, 0.05, u)
            resid = y[None, :] - (q[None, :] + 0.05 * u)
            want = np.where(resid > 0.0, -alpha, 1.0 - alpha).sum(axis=0)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(u, before, equal_nan=True)

    def test_loss_of_a_stack_is_its_rows_bitwise(self):
        # the line search sums a (k, n) stack of trial points in one call
        rng = np.random.default_rng(32)
        for case in range(400):
            n, k = int(rng.integers(1, 2001)), int(rng.integers(1, 33))
            alpha = float(rng.uniform(0.01, 0.99))
            y = rng.normal(size=n) * rng.uniform(0.1, 100.0)
            stack = y + rng.normal(size=(k, n)) * rng.uniform(1e-6, 10.0)
            got = _kernels.pinball_loss(stack, y, alpha)
            assert got.shape == (k,)
            want = [_kernels.pinball_loss(row, y, alpha) for row in stack]
            assert got.tobytes() == np.array(want).tobytes()

    def test_loss_examples(self):
        assert pinball_loss(np.array([3.0]), np.array([5.0]), 0.9) \
            == pytest.approx(1.8)
        assert pinball_loss(np.array([2.0, -1.0]), np.array([2.0, -1.0]), 0.3) == 0.0
        assert pinball_loss(np.array([3.0]), np.array([1.0]), 0.5) \
            == pytest.approx(1.0)

    def test_loss_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=20)
        assert pinball_loss(y, y, 0.7) == 0.0
        q = y.copy()
        q[3] += 1e-9
        assert pinball_loss(q, y, 0.7) > 0.0

    def test_grad_branch_values(self):
        # below: y - q < 0 -> 1 - alpha; above: y - q > 0 -> -alpha
        assert pinball_grad(np.array([7.0]), np.array([5.0]), 0.9)[0] \
            == pytest.approx(0.1)
        assert pinball_grad(np.array([3.0]), np.array([5.0]), 0.9)[0] \
            == pytest.approx(-0.9)

    def test_tie_convention(self):
        assert pinball_grad(np.array([5.0]), np.array([5.0]), 0.9)[0] \
            == pytest.approx(0.1)

    def test_grad_matches_finite_differences(self):
        fd = central_diff(lambda q: pinball_loss(q, np.array([5.0]), 0.9),
                          np.array([3.0]))
        assert fd[0] == pytest.approx(-0.9, abs=1e-6)
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            alpha = float(rng.uniform(0.05, 0.95))
            y = rng.normal(size=n)
            q = y + rng.choice([-1.0, 1.0], n) * rng.uniform(1e-2, 2.0, n)
            fd = central_diff(lambda v: pinball_loss(v, y, alpha), q)
            assert np.max(np.abs(pinball_grad(q, y, alpha) - fd)) <= 1e-6

    def test_shape_and_alpha_validation(self):
        with pytest.raises(InvalidInput):
            pinball_loss(np.zeros(3), np.zeros(4), 0.5)
        with pytest.raises(InvalidInput):
            pinball_loss(np.zeros(3), np.zeros(3), 1.0)


EPS = 0.125  # dyadic, so every residual below is exact
# residuals in units of EPS: ties, the ball's edge, the kink set's edge
# (+-2), inside the ball where draws can flip the sign, and outside
EDGE_UNITS = (0.0, 1.0, -1.0, 2.0, -2.0, 0.25, -0.5, 0.75, -0.9375,
              1.5, -1.75, 2.0625, -2.5, 8.0, -40.0)


def residual_design(units, seed):
    """(q, y) with y - q exactly EPS * units, q of mixed sign and size."""
    rng = np.random.default_rng(seed)
    q = rng.integers(-4096, 4096, len(units)) / 64.0
    return q, q + EPS * np.asarray(units, dtype=float)


def identity(g):
    return g


def kink_path(monkeypatch, q, y, alpha, u_full):
    """The average-mode estimate on the kink columns of one full-ball draw.

    The patched sampler checks that the fitter asks for exactly the
    columns |y - q| <= 2*EPS of the n-dimensional ball.  Returns
    ``(g_hat, gnorm, method)``: with P the identity the step is
    -g_hat/||g_hat|| and gnorm is ||g_hat||.
    """
    n, m = q.size, u_full.shape[0]
    kink = np.flatnonzero(np.abs(y - q) <= 2.0 * EPS)

    def sampler(a, count, rng, dim=None):
        assert (a, count, dim) == (kink.size, m, n)
        return u_full[:, kink].copy()

    monkeypatch.setattr(quantile, "sample_unit_ball", sampler)
    trace = FitTrace()
    v, gnorm, method, rest = quantile._sampled_subgradient(
        q, y, alpha, EPS, m, None, identity, trace, pinball_grad(q, y, alpha))
    assert trace.ball_coordinates == kink.size and rest is None
    return -v * gnorm, gnorm, method


class TestKinkCoordinates:
    DESIGNS = {
        "mixed": EDGE_UNITS,
        "empty": (2.0625, -2.5, 3.0, -8.0, 40.0, -2.0000001),
        "all": (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.25, 1.999),
    }

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_matches_full_ball_on_shared_draw(self, monkeypatch, design, alpha):
        units = self.DESIGNS[design]
        for seed, reps in ((0, 1), (1, 6)):
            q, y = residual_design(units * reps, seed)
            n = q.size
            for m in (n + 1, 3):
                u_full = sample_unit_ball(n, m, np.random.default_rng(seed))
                want = pinball_subgradient_full_ball(
                    q, y, alpha, EPS, m, np.random.default_rng(seed))
                g, gnorm, method = kink_path(monkeypatch, q, y, alpha, u_full)
                monkeypatch.undo()
                assert method == "average"
                assert np.max(np.abs(g - want[0])) <= 1e-12
                assert abs(gnorm - want[1]) <= 1e-12

    def test_draws_flip_signs_inside_the_ball(self):
        # the shared-draw test is only as strong as its draws: some sampled
        # rows must differ from the base gradient on this design
        q, y = residual_design(EDGE_UNITS, 0)
        u = sample_unit_ball(q.size, q.size + 1, np.random.default_rng(0))
        rows = pinball_rows_full_ball(q, y, 0.5, EPS, u)
        flipped = np.any(rows[1:] != rows[0], axis=0)
        assert flipped.any()
        assert np.all(np.abs((y - q)[flipped]) < EPS)

    def test_empty_kink_set_draws_nothing(self):
        q, y = residual_design(self.DESIGNS["empty"], 2)
        n = q.size
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        base = pinball_grad(q, y, 0.7)
        projector = AdditiveProjector(None, [], n)
        cases = []
        for coords in (projector.coordinate_map(), CoordinateMap(np.eye(n), np.eye(n))):
            c = coords.coef @ base
            cnorm = np.linalg.norm(c)
            cases.append((quantile._min_norm_estimate, coords,
                          coords.basis @ (-c / cnorm), cnorm))
        for apply_p in (projector.apply, identity):
            p = apply_p(base)
            cases.append((quantile._sampled_subgradient, apply_p,
                          p / -np.linalg.norm(p), np.linalg.norm(base)))
        for estimate, space, want, norm in cases:
            trace = FitTrace()
            v, gnorm, _, _ = estimate(q, y, 0.7, EPS, n + 1, rng, space, trace, base)
            assert trace.ball_coordinates == 0
            assert v.tobytes() == want.tobytes() and gnorm == norm
        assert rng.bit_generator.state == state

    def test_fit_counts_drawn_coordinates(self, monkeypatch):
        drawn = []
        real = quantile.sample_unit_ball

        def spy(a, m, rng, dim=None):
            drawn.append(a)
            return real(a, m, rng, dim=dim)

        monkeypatch.setattr(quantile, "sample_unit_ball", spy)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(60)
        model = fit_quantile_additive(
            y, None, 0.8, [], GsParams(seed=1, subgradient_mode="average"))
        assert model.trace.ball_coordinates == sum(drawn) > 0
        assert model.trace.m == 2  # the intercept's one column of U, plus one
        # far fewer than n coordinates per iteration once q is near y
        assert model.trace.ball_coordinates < 0.5 * 60 * len(model.trace)


class TestAverageModeSampleSize:
    """Average mode's default m is d+1 for the d = 1 + sum r_j columns of U."""

    @staticmethod
    def drawn_m(monkeypatch, y, W, specs, gs):
        seen = []
        real = quantile.sample_unit_ball

        def spy(a, m, rng, dim=None):
            seen.append(m)
            return real(a, m, rng, dim=dim)

        monkeypatch.setattr(quantile, "sample_unit_ball", spy)
        model = fit_quantile_additive(y, W, 0.9, specs, gs)
        assert seen and model.trace.m == seen[0]
        return set(seen), model.projector.factor_dim

    def test_two_smoothers_draw_one_more_than_the_columns_of_u(self, monkeypatch):
        y, W, specs = concurvity_design()
        seen, d = self.drawn_m(monkeypatch, y, W, specs,
                               GsParams(subgradient_mode="average", max_iter=30, seed=2))
        assert d == 1 + sum(sm.u.shape[1] for sm in AdditiveProjector(W, specs).smoothers)
        assert seen == {d + 1} and d + 1 < y.size

    def test_m_does_not_grow_with_n(self, monkeypatch):
        rng = np.random.default_rng(12)
        w = rng.uniform(0.0, 1.0, 3000)
        y = w + rng.standard_normal(3000)
        seen, d = self.drawn_m(monkeypatch, y, w[:, None], [SmootherSpec("linear", 0)],
                               GsParams(subgradient_mode="average", max_iter=20, seed=1))
        assert seen == {4} and d == 3

    def test_warns_below_the_default_only(self):
        y, W, specs = concurvity_design()
        d = AdditiveProjector(W, specs).factor_dim
        gs = GsParams(subgradient_mode="average", max_iter=5, seed=2)
        with pytest.warns(SampleSizeWarning, match=f"dimension\\+1={d + 1}"):
            fit_quantile_additive(y, W, 0.9, specs, dataclasses.replace(gs, m=d))
        with warnings.catch_warnings():
            warnings.simplefilter("error", SampleSizeWarning)
            for m in (None, d + 1):
                fit_quantile_additive(y, W, 0.9, specs, dataclasses.replace(gs, m=m))


def intercept_only_fit(y, alpha, seed):
    return fit_quantile_additive(y, None, alpha, [], GsParams(seed=seed))


class TestinterceptOnlyFit:
    def test_constant_stays_in_quantile_bracket(self):
        rng = np.random.default_rng(123)
        y = rng.random(200)
        model = intercept_only_fit(y, 0.9, seed=0)
        srt = np.sort(y)
        assert srt[177] <= model.q[0] <= srt[181]  # order stats 178..182
        assert np.allclose(model.q, model.q[0])

    def test_median_of_symmetric_sample(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(400)
        model = intercept_only_fit(y, 0.5, seed=1)
        assert abs(model.q[0] - np.median(y)) <= 2.0 / np.sqrt(400)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(300) + 2.0
        c = 3.0
        base = intercept_only_fit(y, 0.8, seed=2)
        scaled = intercept_only_fit(c * y, 0.8, seed=2)
        assert abs(scaled.q[0] - c * base.q[0]) <= 1e-2 * c


@pytest.fixture(scope="module")
def hetero_model():
    rng = np.random.default_rng(21)
    n = 500
    w = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    y = np.sin(w) + (0.5 + 0.4 * w) * rng.standard_normal(n)
    model = fit_quantile_additive(
        y, w[:, None], 0.9, [SmootherSpec("local_linear", 0)],
        GsParams(seed=3, beta=0.01))
    return w, y, model


class TestAdditiveFit:
    def test_coverage_near_nominal(self, hetero_model):
        w, y, model = hetero_model
        coverage = np.mean(y <= model.q)
        assert 0.85 <= coverage <= 0.95

    def test_trace_descent_and_schedules(self, hetero_model):
        _, _, model = hetero_model
        f_acc = [r.f for r in model.trace.accepted]
        assert len(f_acc) > 0 and np.all(np.diff(f_acc) < 0.0)
        assert np.all(np.diff([r.eps for r in model.trace.records]) <= 0.0)
        assert np.all(np.diff([r.tau for r in model.trace.records]) <= 0.0)

    def test_decomposition_invariants(self, hetero_model):
        _, _, model = hetero_model
        for comp in model.decomposition.components:
            assert abs(comp.mean()) <= 1e-6
        assert np.max(np.abs(model.decomposition.fitted - model.q)) <= 1e-6

    def test_predict_reproduces_training_fit(self, hetero_model):
        w, _, model = hetero_model
        pred = predict_quantile(model, w[:, None])
        assert np.max(np.abs(pred - model.q)) <= 1e-6

    def test_predict_single_training_point(self, hetero_model):
        w, _, model = hetero_model
        pred = predict_quantile(model, np.array([[w[17]]]))
        assert pred[0] == pytest.approx(model.q[17], abs=1e-6)

    @pytest.mark.parametrize("W_new", [None, 0.5])
    def test_predict_needs_a_covariate_column(self, hetero_model, W_new):
        with pytest.raises(InvalidInput, match="covariate columns"):
            predict_quantile(hetero_model[2], W_new)

    def test_predict_extrapolation_warns(self, hetero_model):
        w, _, model = hetero_model
        with pytest.warns(ExtrapolationWarning):
            predict_quantile(model, np.array([[w.max() + 5.0]]))


def concurvity_design():
    rng = np.random.default_rng(41)
    w1 = np.sort(rng.uniform(0.0, 2.0 * np.pi, 80))
    W = np.column_stack([w1, w1 + 0.6 * rng.standard_normal(80)])
    y = np.sin(w1) + rng.standard_normal(80)
    return y, W, [SmootherSpec("local_linear", 0), SmootherSpec("local_linear", 1)]


class TestProjectionCounters:
    def test_trace_sums_sweeps_and_unconverged(self, monkeypatch, projection_calls):
        import gsda.smoothing as smoothing_mod

        y, W, specs = concurvity_design()
        gs = GsParams(subgradient_mode="average", max_iter=30, seed=2)
        model = fit_quantile_additive(y, W, 0.9, specs, gs)
        # steps never backfit, so only the final decomposition projects
        assert len(projection_calls) == 1
        assert {c for c, _ in projection_calls} == {1}
        assert model.trace.backfit_sweeps == sum(c for c, _ in projection_calls)
        assert model.trace.projections_unconverged == 0
        # with A's component rows zeroed for the final projection only
        # (every step has read P = U A intact), its two sweeps start from
        # zero and leave the concurvity decomposition unconverged
        project = smoothing_mod.AdditiveProjector.project  # the counting spy

        def from_zero(self, g):
            self._factors[1][1:] = 0.0
            return project(self, g)

        monkeypatch.setattr(smoothing_mod.AdditiveProjector, "project", from_zero)
        projection_calls.clear()
        model = fit_quantile_additive(y, W, 0.9, specs, gs)
        assert len(projection_calls) == 1
        assert {c for c, _ in projection_calls} == {2}
        assert model.trace.backfit_sweeps == sum(c for c, _ in projection_calls)
        assert model.trace.projections_unconverged \
            == sum(not ok for _, ok in projection_calls) > 0


class TestAverageModeDirection:
    def test_step_is_the_coefficient_solve_of_the_estimate(self):
        # the step is -P g_hat/||P g_hat|| from the factors P = U A, and
        # gnorm is ||g_hat||, with g_hat read off the same draws with P = I
        y, W, specs = concurvity_design()
        projector = AdditiveProjector(W, specs, y.size)
        q = projector.project(y).fitted
        checked = 0
        for eps, alpha, seed in ((0.05, 0.9, 0), (0.3, 0.5, 1), (1.0, 0.2, 2)):
            base = pinball_grad(q, y, alpha)
            rng = np.random.default_rng(seed)
            v, gnorm, method, _ = quantile._sampled_subgradient(
                q, y, alpha, eps, y.size + 1, copy.deepcopy(rng), projector.apply,
                FitTrace(), base)
            u, unorm, _, _ = quantile._sampled_subgradient(
                q, y, alpha, eps, y.size + 1, rng, identity, FitTrace(), base)
            g = -u * unorm
            p = projector.apply(g)
            assert method == "average" and gnorm == unorm
            assert np.max(np.abs(v + p / np.linalg.norm(p))) <= 1e-12
            checked += int(np.any(g != base))
        assert checked == 3

    def test_is_the_normalized_projection_of_the_estimate(self, monkeypatch):
        # the step of a fit is -P g_hat/||P g_hat||, without a backfit
        y, W, specs = concurvity_design()
        estimates, pairs = [], []
        sampled, descend = quantile._sampled_subgradient, quantile.descend

        def spy_sampled(q, yy, alpha, eps, m, rng, apply_p, trace, base):
            # g_hat from the same draws: with P = I the step is
            # -g_hat/||g_hat|| and gnorm ||g_hat||
            v, gnorm, _, _ = sampled(q, yy, alpha, eps, m, copy.deepcopy(rng),
                                     identity, FitTrace(), base)
            estimates.append(-v * gnorm)
            return sampled(q, yy, alpha, eps, m, rng, apply_p, trace, base)

        def spy_descend(objective, x, at, *args, **kwargs):
            def spy_at(q, fq):
                estimate = at(q, fq)

                def record(eps):
                    out = estimate(eps)
                    if out[0] is not None:
                        pairs.append((estimates[-1], out[0]))
                    return out
                return record
            return descend(objective, x, spy_at, *args, **kwargs)

        monkeypatch.setattr(quantile, "_sampled_subgradient", spy_sampled)
        monkeypatch.setattr(quantile, "descend", spy_descend)
        gs = GsParams(subgradient_mode="average", max_iter=30, seed=2)
        model = fit_quantile_additive(y, W, 0.9, specs, gs)
        assert len(pairs) >= 10
        for g, v in pairs:
            assert g.shape == y.shape
            p = model.projector.project(g).fitted
            assert np.max(np.abs(v + p / np.linalg.norm(p))) <= 1e-12


@pytest.mark.parametrize("mode", ["average", "qp"])
def test_gradient_at_the_iterate_is_taken_once_per_iterate(monkeypatch, mode):
    # the pinball gradient at q serves every estimate at q: it is taken at
    # the start and after each accepted step, not once per iteration
    y, W, specs = one_smoother_design(120, 6)
    real_grad, at_iterate = _kernels.pinball_grad, []

    def grad(q, yy, alpha):
        if np.shape(q) == y.shape:
            at_iterate.append(q.copy())
        return real_grad(q, yy, alpha)

    monkeypatch.setattr(_kernels, "pinball_grad", grad)
    model = fit_quantile_additive(y, W, 0.8, specs,
                                  GsParams(seed=3, subgradient_mode=mode, max_iter=300))
    trace = model.trace
    assert len(trace) > len(trace.accepted) + 1 and len(trace.accepted) > 5
    assert len(at_iterate) == len(trace.accepted) + 1


class TestPredictInterceptOnly:
    def test_constant_prediction(self):
        rng = np.random.default_rng(2)
        model = intercept_only_fit(rng.random(50), 0.5, seed=0)
        pred = predict_quantile(model, np.zeros((7, 0)))
        assert pred.shape == (7,)
        assert np.allclose(pred, model.q[0])


def one_smoother_design(n, seed):
    rng = np.random.default_rng(seed)
    w = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    y = np.sin(w) + (0.5 + 0.2 * w) * rng.standard_normal(n)
    return y, w[:, None], [SmootherSpec("local_linear", 0)]


class TestQpMode:
    def test_rows_match_every_coordinate_evaluated(self, monkeypatch):
        # the kink test |y - q| <= 2*eps*||B_i|| must keep every coordinate
        # a draw eps*B*u can flip: rows built from the kink coordinates
        # equal M g with all n coordinates of g evaluated
        y, W, specs = one_smoother_design(200, 3)
        proj = AdditiveProjector(W, specs)
        coords, q = proj.coordinate_map(), proj.project(y).fitted
        r = coords.dim
        drawn, seen, solved = [], [], []
        real_ball, real_wolfe = quantile.sample_unit_ball, quantile.min_norm_point

        def ball(*args, **kwargs):
            drawn.append(real_ball(*args, **kwargs))
            return drawn[-1]

        def wolfe(gset):
            seen.append(gset.vectors.copy())
            solved.append(real_wolfe(gset))
            return solved[-1]

        monkeypatch.setattr(quantile, "sample_unit_ball", ball)
        monkeypatch.setattr(quantile, "min_norm_point", wolfe)
        flipped = 0
        for eps in (0.02, 0.1, 0.5):
            rng = np.random.default_rng(4)
            drawn.clear()
            seen.clear()
            solved.clear()
            trace = FitTrace()
            v, gnorm, method, rest = quantile._min_norm_estimate(
                q, y, 0.8, eps, r + 1, rng, coords, trace, pinball_grad(q, y, 0.8))
            (u,), (rows,), (res,) = drawn, seen, solved
            assert method == "qp" and rest is None
            assert u.shape == (r + 1, r) and trace.ball_coordinates == r
            want = pinball_coordinate_rows(q, y, 0.8, eps, u, coords)
            assert rows.shape == want.shape == (r + 2, r)
            assert np.max(np.abs(rows - want)) <= 1e-12
            assert gnorm == res.norm == pytest.approx(np.linalg.norm(res.point))
            assert v.tobytes() == (coords.basis @ (res.point / -res.norm)).tobytes()
            flipped += int(np.any(rows[1:] != rows[0]))
        assert flipped == 3

    def test_draws_handed_to_the_kernel_lie_in_the_subspace(self, monkeypatch):
        # each sampled point the kernel sees is q + eps*B*u, |u| <= 1, on
        # the kink coordinates, and Wolfe gets m+1 rows r long whenever the
        # kink set is non-empty
        y, W, specs = one_smoother_design(120, 5)
        coords = AdditiveProjector(W, specs).coordinate_map()
        B, r = coords.basis, coords.dim
        draws, calls, widths, current = [], [], [], []
        real_ball, real_grad = quantile.sample_unit_ball, _kernels.pinball_grad
        real_estimate, real_wolfe = quantile._min_norm_estimate, quantile.min_norm_point

        def ball(*args, **kwargs):
            draws.append(real_ball(*args, **kwargs))
            return draws[-1]

        def grad(q, yy, alpha):
            if np.ndim(q) == 2:  # the sampled points
                calls.append((*current[-1], q.copy(), yy.copy(), draws[-1]))
            return real_grad(q, yy, alpha)

        def estimate(q, *args):
            current.append((q, args[2]))  # (iterate, eps)
            return real_estimate(q, *args)

        def wolfe(gset):
            q, eps = current[-1]
            kink = np.abs(y - q) <= 2.0 * eps * coords.row_norms
            widths.append((gset.vectors.shape, bool(kink.any())))
            return real_wolfe(gset)

        monkeypatch.setattr(quantile, "sample_unit_ball", ball)
        monkeypatch.setattr(_kernels, "pinball_grad", grad)
        monkeypatch.setattr(quantile, "_min_norm_estimate", estimate)
        monkeypatch.setattr(quantile, "min_norm_point", wolfe)
        model = fit_quantile_additive(y, W, 0.7, specs,
                                      GsParams(seed=2, subgradient_mode="qp", max_iter=60))
        assert model.trace.subspace_dim == r and model.trace.m == r + 1 < y.size
        # (solve shape, kink set non-empty): every estimate of this fit draws
        assert set(widths) == {((r + 2, r), True)}
        assert len(calls) == len(draws) > 10
        for q, eps, points, yk, u in calls:
            assert u.shape == (r + 1, r) and np.all(np.linalg.norm(u, axis=1) <= 1.0)
            kink = np.flatnonzero(np.abs(y - q) <= 2.0 * eps * coords.row_norms)
            assert np.array_equal(yk, y[kink])
            assert np.max(np.abs(points - q[kink] - eps * (u @ B[kink].T))) <= 1e-15
            assert np.all(np.linalg.norm(eps * (u @ B.T), axis=1) <= eps * (1 + 1e-12))

    def test_qp_mode_runs_and_descends(self):
        rng = np.random.default_rng(11)
        y = rng.random(40)
        model = fit_quantile_additive(
            y, None, 0.75, [],
            GsParams(seed=0, subgradient_mode="qp", max_iter=200))
        assert model.trace.converged
        srt = np.sort(y)
        # 0.75 * 40 = 30; allow one order statistic either side
        assert srt[28] <= model.q[0] <= srt[31]
        assert {"qp", "average"} >= {r.method for r in model.trace.records}


class TestValidation:
    def test_needs_enough_rows(self):
        with pytest.raises(InvalidInput, match="k\\+1 observations"):
            fit_quantile_additive(np.array([1.0]), np.array([[0.0]]), 0.5,
                                  [SmootherSpec("linear", 0)])

    @pytest.mark.parametrize("kind", ["linear", "local_linear"])
    @pytest.mark.parametrize("mode", ["average", "qp"])
    def test_fits_one_row_more_than_covariates(self, mode, kind):
        # the projector's n >= k+1 is the fitter's only row bound
        y = np.array([1.0, 2.5])
        model = fit_quantile_additive(y, np.array([[0.0], [1.0]]), 0.5,
                                      [SmootherSpec(kind, 0)], GsParams(subgradient_mode=mode))
        assert model.trace.converged
        assert np.allclose(model.q, y, atol=1e-6)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            fit_quantile_additive(np.array([1.0, np.nan, 2.0]), None, 0.5, [])

    def test_rejects_an_overflowing_start(self):
        # finite responses whose pinball risk overflows at the starting
        # quantile: the descent refuses to start rather than converge at inf
        y = np.array([1e308, -1e308, 1e308, 2.0, -1e308, 3.0])
        with np.errstate(over="ignore"), pytest.raises(InvalidInput, match="finite at x0"):
            fit_quantile_additive(y, None, 0.9, [])

    def test_rejects_two_dimensional_y(self):
        with pytest.raises(InvalidInput, match="1-d"):
            fit_quantile_additive(np.arange(12.0)[:, None], None, 0.5, [])

    def test_covariate_rows_must_match_y(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InvalidInput, match="one row per observation"):
            fit_quantile_additive(rng.normal(size=50), rng.random((40, 1)), 0.5,
                                  [SmootherSpec("local_linear", 0)])

    def test_rejects_nonfinite_covariate(self):
        rng = np.random.default_rng(4)
        w = rng.random(50)
        w[7] = np.nan
        with pytest.raises(InvalidInput, match="finite"):
            fit_quantile_additive(rng.normal(size=50), w[:, None], 0.5,
                                  [SmootherSpec("local_linear", 0)])
