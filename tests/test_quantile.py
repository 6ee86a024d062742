import numpy as np
import pytest

from gsda import (
    GsParams,
    SmootherSpec,
    fit_quantile_additive,
    pinball_grad,
    pinball_loss,
    predict_quantile,
)
from gsda import _kernels
from gsda.errors import ExtrapolationWarning, InvalidInput

from _oracles import central_diff


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
        f_acc = model.trace.accepted_f()
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

    def test_predict_extrapolation_warns(self, hetero_model):
        w, _, model = hetero_model
        with pytest.warns(ExtrapolationWarning):
            predict_quantile(model, np.array([[w.max() + 5.0]]))


class TestProjectionCounters:
    def test_trace_sums_sweeps_and_unconverged(self, monkeypatch, projection_calls):
        import gsda.smoothing as smoothing_mod

        rng = np.random.default_rng(41)
        w1 = np.sort(rng.uniform(0.0, 2.0 * np.pi, 80))
        W = np.column_stack([w1, w1 + 0.6 * rng.standard_normal(80)])
        y = np.sin(w1) + rng.standard_normal(80)
        specs = [SmootherSpec("local_linear", 0), SmootherSpec("local_linear", 1)]
        gs = GsParams(subgradient_mode="average", max_iter=30, seed=2)
        model = fit_quantile_additive(y, W, 0.9, specs, gs)
        assert len(projection_calls) > 1
        assert model.trace.backfit_sweeps == sum(c for c, _ in projection_calls)
        assert model.trace.projections_unconverged == 0
        # a cap of 3 sweeps leaves concurvity projections unconverged
        monkeypatch.setattr(smoothing_mod, "BACKFIT_MAX_CYCLES", 3)
        projection_calls.clear()
        model = fit_quantile_additive(y, W, 0.9, specs, gs)
        assert model.trace.backfit_sweeps == sum(c for c, _ in projection_calls)
        assert model.trace.projections_unconverged \
            == sum(not ok for _, ok in projection_calls) > 0


class TestPredictInterceptOnly:
    def test_constant_prediction(self):
        rng = np.random.default_rng(2)
        model = intercept_only_fit(rng.random(50), 0.5, seed=0)
        pred = predict_quantile(model, np.zeros((7, 0)))
        assert pred.shape == (7,)
        assert np.allclose(pred, model.q[0])


class TestQpMode:
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
        with pytest.raises(InvalidInput):
            fit_quantile_additive(np.array([1.0, 2.0]),
                                  np.array([[0.0], [1.0]]), 0.5,
                                  [SmootherSpec("linear", 0)])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            fit_quantile_additive(np.array([1.0, np.nan, 2.0]), None, 0.5, [])

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
