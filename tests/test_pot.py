import dataclasses

import numpy as np
import pytest
import scipy.optimize

from gsda import (
    FunctionalSpec,
    GsParams,
    Lambda,
    PotState,
    SmootherSpec,
    fit_pot_additive,
    functional_map,
    gpd_loglik,
    gpd_loglik_grad,
    jacobian_blocks,
    negative_loglik_objective,
)
from gsda import _kernels, pot
from gsda.smoothing import AdditiveProjector
from gsda.datasets import gpd_inverse_cdf
from gsda.engine import _ROW_BLOCK
from gsda.minnorm import GradientSet, min_norm_point
from gsda.errors import (
    FunctionalUndefined,
    InfeasiblePoint,
    InvalidInput,
    SamplingExhausted,
    SingularBlock,
)

from _oracles import (
    blockdiag,
    central_diff,
    dense_inverse,
    gpd_mle_oracle,
    per_sample_theta_grad,
    theta_ref,
    zeta_ref,
)

VAR_ES = FunctionalSpec("var_es", (0.01,), 0.1)  # scale factor c = 0.1


def const_lambda(sigma, kappa, n=1):
    return Lambda(np.full(n, np.log(sigma)), np.full(n, kappa))


class TestLoglik:
    def test_exponential_limit(self):
        assert gpd_loglik(const_lambda(1.0, 0.0), np.array([1.0])) \
            == pytest.approx(-1.0)

    def test_unit_shape(self):
        assert gpd_loglik(const_lambda(1.0, 1.0), np.array([1.0])) \
            == pytest.approx(-2.0 * np.log(2.0))

    def test_off_support_is_minus_inf(self):
        assert gpd_loglik(const_lambda(1.0, -0.5), np.array([3.0])) == -np.inf

    def test_requires_positive_excesses(self):
        with pytest.raises(InvalidInput):
            gpd_loglik(const_lambda(1.0, 0.1), np.array([0.0]))

    def test_series_branch_continuous(self):
        y = np.array([0.7, 1.3])
        up = gpd_loglik(const_lambda(2.0, 1e-8, 2), y)
        dn = gpd_loglik(const_lambda(2.0, -1e-8, 2), y)
        mid = gpd_loglik(const_lambda(2.0, 0.0, 2), y)
        assert abs(up - mid) <= 1e-7 and abs(dn - mid) <= 1e-7


class TestLoglikGrad:
    def test_matches_finite_differences(self):
        lam = const_lambda(2.0, 0.2)
        y = np.array([1.5])

        def ll(v):
            return gpd_loglik(Lambda.from_vector(v), y)

        fd = central_diff(ll, lam.as_vector())
        g = gpd_loglik_grad(lam, y)
        assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)) <= 1e-5

    def test_random_points_against_fd(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            lam = Lambda(rng.uniform(-0.5, 1.5, n), rng.uniform(-0.25, 0.8, n))
            y = rng.uniform(0.05, 2.0, n) * lam.sigma

            def ll(v):
                return gpd_loglik(Lambda.from_vector(v), y)

            fd = central_diff(ll, lam.as_vector())
            g = gpd_loglik_grad(lam, y)
            assert np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd))) <= 1e-5

    def test_gradient_sums_vanish_at_oracle_mle(self):
        rng = np.random.default_rng(3)
        y = gpd_inverse_cdf(rng.random(400), 2.0, 0.2)
        sig, kap = gpd_mle_oracle(y)
        g = gpd_loglik_grad(const_lambda(sig, kap, y.size), y)
        n = y.size
        assert abs(g[:n].sum()) <= 1e-3 * n
        assert abs(g[n:].sum()) <= 1e-3 * n

    def test_kappa_series_limit_against_straddling_fd(self):
        y = np.array([1.0])
        g0 = gpd_loglik_grad(const_lambda(1.0, 0.0), y)
        # limit value is y^2/(2 sigma^2) - y/sigma = -1/2
        assert g0[1] == pytest.approx(-0.5, abs=1e-12)
        h = 1e-5
        fd = (gpd_loglik(const_lambda(1.0, h), y)
              - gpd_loglik(const_lambda(1.0, -h), y)) / (2.0 * h)
        assert g0[1] == pytest.approx(fd, abs=1e-4)

    def test_infeasible_point_raises(self):
        with pytest.raises(InfeasiblePoint):
            gpd_loglik_grad(const_lambda(1.0, -0.5), np.array([3.0]))


class TestFunctionalMap:
    def test_kappa_zero_return_level(self):
        th, _ = functional_map(const_lambda(2.0, 0.0), VAR_ES)
        assert th[0] == pytest.approx(-2.0 * np.log(0.1), abs=1e-12)

    def test_half_shape_values(self):
        th, ze = functional_map(const_lambda(1.0, 0.5), VAR_ES)
        assert th[0] == pytest.approx(4.32455532, abs=1e-7)
        assert ze[0] == pytest.approx(10.64911064, abs=1e-7)

    def test_scale_factor_one_gives_zero(self):
        spec = FunctionalSpec("var_es", (0.1,), 0.1)  # c = 1
        for kappa in (-0.3, 0.0, 0.4):
            th, _ = functional_map(const_lambda(1.7, kappa), spec)
            assert th[0] == pytest.approx(0.0, abs=1e-14)

    def test_continuous_across_kappa_zero(self):
        up, _ = functional_map(const_lambda(2.0, 1e-8), VAR_ES)
        dn, _ = functional_map(const_lambda(2.0, -1e-8), VAR_ES)
        mid, _ = functional_map(const_lambda(2.0, 0.0), VAR_ES)
        assert abs(up[0] - dn[0]) <= 1e-6 * abs(mid[0])

    def test_matches_reference_formulas(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            sigma = float(rng.uniform(0.3, 4.0))
            kappa = float(rng.uniform(-0.4, 0.9))
            th, ze = functional_map(const_lambda(sigma, kappa), VAR_ES)
            assert th[0] == pytest.approx(theta_ref(sigma, kappa, 0.1), rel=1e-10)
            assert ze[0] == pytest.approx(zeta_ref(sigma, kappa, 0.1), rel=1e-10)

    def test_expected_shortfall_needs_kappa_below_one(self):
        with pytest.raises(FunctionalUndefined):
            functional_map(const_lambda(1.0, 1.0), VAR_ES)

    def test_var_var_needs_distinct_factors(self):
        with pytest.raises(InvalidInput):
            FunctionalSpec("var_var", (0.01, 0.01), 0.1)


class TestJacobianBlocks:
    def test_eta_derivative_equals_return_level(self):
        lam = const_lambda(2.0, 0.0)
        jac, _ = jacobian_blocks(lam, VAR_ES)
        th, _ = functional_map(lam, VAR_ES)
        assert jac[0, 0, 0] == pytest.approx(th[0], rel=1e-12)
        assert jac[0, 0, 0] == pytest.approx(2.0 * (-np.log(0.1)), rel=1e-12)

    @pytest.mark.parametrize("pair,levels", [("var_es", (0.01,)),
                                             ("var_var", (0.01, 0.002))])
    def test_matches_finite_differences(self, pair, levels):
        spec = FunctionalSpec(pair, levels, 0.1)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(25):
            lam = const_lambda(float(rng.uniform(0.4, 3.0)),
                               float(rng.uniform(-0.4, 0.85)))
            jac, _ = jacobian_blocks(lam, spec)
            for which in range(2):
                step = np.array([h, 0.0]) if which == 0 else np.array([0.0, h])
                up = functional_map(Lambda(lam.eta + step[0], lam.kappa + step[1]),
                                    spec)
                dn = functional_map(Lambda(lam.eta - step[0], lam.kappa - step[1]),
                                    spec)
                for fidx in range(2):
                    fd = (up[fidx][0] - dn[fidx][0]) / (2.0 * h)
                    assert jac[0, fidx, which] == pytest.approx(
                        fd, rel=1e-5, abs=1e-8)

    def test_kappa_derivative_against_high_precision(self):
        # d theta/d kappa = sigma*(x*e^x - expm1(x))/kappa^2, x = -kappa*log c,
        # whose exact double form cancels to about 1e-16/|x|
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        mags = np.geomspace(1e-10, 1.0, 41)
        kappa = np.concatenate([-mags, mags[:-1]])  # var_es needs kappa < 1
        for c in (0.01, 0.1, 0.5, 0.9):
            got = _kernels.dtheta_dkappa(np.full(kappa.size, 1.7), kappa, np.log(c))
            logc = mp.log(mp.mpf(c))
            for k, g in zip(kappa, got):
                x = -mp.mpf(k) * logc
                want = mp.mpf(1.7) * (x * mp.exp(x) - mp.expm1(x)) / mp.mpf(k) ** 2
                assert abs((g - want) / want) <= 1e-11

    def test_blockwise_inverse_identity(self):
        rng = np.random.default_rng(6)
        lam = Lambda(rng.uniform(-0.5, 1.0, 20), rng.uniform(-0.3, 0.8, 20))
        jac, inv = jacobian_blocks(lam, VAR_ES)
        prod = np.einsum("nij,njk->nik", jac, inv)
        assert np.max(np.abs(prod - np.eye(2))) <= 1e-10

    def test_identical_scale_factors_singular(self):
        spec = FunctionalSpec("var_var", (0.01, 0.02), 0.1)
        object.__setattr__(spec, "levels", (0.01, 0.01))  # force c1 == c2
        with pytest.raises(SingularBlock):
            jacobian_blocks(const_lambda(1.0, 0.3), spec)


def sampled_theta_grad(lam, y, eps, m, seed, coords=None):
    """Mean of the POT fitter's coordinate rows at lam (intercept-only by default).

    With one observation B = M = 1, so each row is the functional-space
    gradient J^-T g itself.  The rows are the negative log-likelihood's,
    so the mean is negated back to the log-likelihood's.
    """
    if coords is None:
        coords = AdditiveProjector(None, [], lam.n).coordinate_map()
    state = PotState.from_lambda(lam.as_vector(), VAR_ES, y, coords)
    rows = pot._theta_grad_rows(state, y, eps, m, np.random.default_rng(seed), None,
                                _kernels.RowScratch(_ROW_BLOCK, y.size))
    return -rows.mean(axis=0)


class TestApproxSubgradientTheta:
    def test_zero_radius_limit_matches_chain_rule(self):
        for i, y in enumerate([0.3, 1.7, 6.0]):
            lam = const_lambda(2.0, 0.25 - 0.1 * i)
            got = sampled_theta_grad(lam, np.array([y]), 1e-12, 11, 0)
            _, inv = jacobian_blocks(lam, VAR_ES)
            g = gpd_loglik_grad(lam, np.array([y]))
            expect = np.array([inv[0, 0, 0] * g[0] + inv[0, 1, 0] * g[1],
                               inv[0, 0, 1] * g[0] + inv[0, 1, 1] * g[1]])
            assert np.max(np.abs(got - expect)) <= 1e-6

    def test_small_norm_at_oracle_mle(self):
        # per-observation gradients do not vanish at the MLE, only their
        # sum does, and the intercept coordinates are those sums over
        # sqrt(n): the mean row is the O(eps) change the draws make
        rng = np.random.default_rng(8)
        n = 2000
        y = gpd_inverse_cdf(rng.random(n), 2.0, 0.2)
        sig, kap = gpd_mle_oracle(y)
        at_mle = sampled_theta_grad(const_lambda(sig, kap, n), y, 1e-4, 3, 1)
        assert np.linalg.norm(at_mle) <= 1e-3
        off_mle = sampled_theta_grad(const_lambda(1.1 * sig, kap, n), y, 1e-4, 3, 1)
        assert np.linalg.norm(off_mle) >= 0.1

    def test_chain_rule_against_numerical_functional_inverse(self):
        # single observation: perturb the two functional coordinates,
        # invert the map numerically, and difference the log-likelihood
        lam = const_lambda(1.4, 0.3)
        y = np.array([1.1])
        analytic = sampled_theta_grad(lam, y, 1e-13, 3, 2)

        def lambda_of_theta(target):
            def residual(v):
                th, ze = functional_map(Lambda(v[:1], v[1:]), VAR_ES)
                return [th[0] - target[0], ze[0] - target[1]]

            sol = scipy.optimize.root(residual, lam.as_vector(), tol=1e-13)
            assert sol.success
            return Lambda(sol.x[:1], sol.x[1:])

        th, ze = functional_map(lam, VAR_ES)
        theta0 = np.array([th[0], ze[0]])
        h = 1e-6
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h * max(1.0, abs(theta0[i]))
            up = gpd_loglik(lambda_of_theta(theta0 + e), y)
            dn = gpd_loglik(lambda_of_theta(theta0 - e), y)
            fd[i] = (up - dn) / (2.0 * e[i])
        assert np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)) <= 1e-3

    def test_per_sample_jacobian_variant_agrees_for_small_eps(self):
        rng = np.random.default_rng(9)
        n = 12
        lam = Lambda(np.log(1.5) + 0.1 * rng.normal(size=n), 0.2 + 0.05 * rng.normal(size=n))
        y = gpd_inverse_cdf(rng.random(n), 1.5, 0.2)
        coords = AdditiveProjector(np.linspace(0.0, 1.0, n)[:, None],
                                   [SmootherSpec("linear", 0)]).coordinate_map()
        state = PotState.from_lambda(lam.as_vector(), VAR_ES, y, coords)
        a = sampled_theta_grad(lam, y, 1e-9, 9, 3, coords)
        b = per_sample_theta_grad(state, y, 1e-9, 9, np.random.default_rng(3), coords)
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_sampling_exhausted_near_support_boundary(self):
        # one tight constraint only halves the feasible draws (the support
        # is locally a half-space), so pin every observation against the
        # boundary and give each its own cell: a draw must then keep all
        # eight inside at once
        y = np.full(8, 4.0)
        lam = const_lambda(1.0, -0.25 + 1e-7, 8)
        assert np.isfinite(gpd_loglik(lam, y))
        coords = AdditiveProjector(np.arange(8.0)[:, None],
                                   [SmootherSpec("cell_factor", 0)]).coordinate_map()
        with pytest.raises(SamplingExhausted):
            sampled_theta_grad(lam, y, 0.3, 40, 0, coords)


class TestNegativeLoglikObjective:
    def test_definitional(self):
        y = np.array([0.5, 1.5, 0.9])
        obj = negative_loglik_objective(y, VAR_ES)
        lam = const_lambda(1.2, 0.1, 3)
        assert obj.eval(lam.as_vector()) == pytest.approx(-gpd_loglik(lam, y))
        assert obj.dim == 6

    def test_support_violation_gives_inf(self):
        y = np.array([1.0, 3.0])
        obj = negative_loglik_objective(y, VAR_ES)
        assert obj.eval(const_lambda(1.0, -0.5, 2).as_vector()) == np.inf

    def test_var_es_caps_kappa(self):
        y = np.array([1.0, 1.0])
        obj = negative_loglik_objective(y, VAR_ES)
        assert obj.eval(const_lambda(1.0, 1.2, 2).as_vector()) == np.inf

    def test_grad_matches_fd(self):
        # one fixed point, then 100 seeded ones: n in 1..4, eta ~ U(-0.5, 1.5),
        # kappa ~ U(-0.25, 0.8), y = U(0.05, 2)*sigma; central differences
        # agree to about 1e-9 here
        rng = np.random.default_rng(0)
        cases = [(np.array([0.8, 1.4]), const_lambda(1.3, 0.15, 2))]
        for _ in range(100):
            n = int(rng.integers(1, 5))
            lam = Lambda(rng.uniform(-0.5, 1.5, n), rng.uniform(-0.25, 0.8, n))
            cases.append((rng.uniform(0.05, 2.0, n) * lam.sigma, lam))
        for y, lam in cases:
            obj = negative_loglik_objective(y, VAR_ES)
            v = lam.as_vector()
            fd = central_diff(obj.eval, v)
            for grad in (obj.grad(v), -gpd_loglik_grad(lam, y)):
                assert np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))) <= 1e-6

    @pytest.mark.parametrize("spec", [VAR_ES, FunctionalSpec("var_var", (0.01, 0.002), 0.1)],
                             ids=["var_es", "var_var"])
    def test_stacked_rows_are_their_points_bitwise(self, spec):
        # a (k, 2n) stack gives k values and k gradient rows, each the
        # bytes of its point's own result: rows with some kappa >= 1
        # (capped under var_es), rows off the support, series entries
        rng = np.random.default_rng(12)
        n, k = 40, 24
        y = gpd_inverse_cdf(rng.random(n), 2.0, 0.2)
        obj = negative_loglik_objective(y, spec)
        assert obj.stacked
        stack = pot.initial_lambda(y, spec).as_vector() + rng.normal(0.0, 0.05, (k, 2 * n))
        stack[:3, n + 5] = [1.0, 1.5, 3.0]
        stack[3:6, n:] -= 2.0  # 1 + kappa * y / sigma < 0 at the largest y
        stack[6, n:n + 3] = [0.0, 4e-9, -7e-9]
        values, grads = obj.eval(stack), obj.grad(stack)
        assert values.shape == (k,) and grads.shape == (k, 2 * n)
        points = [row.copy() for row in stack]
        assert values.tobytes() == np.array([obj.eval(p) for p in points]).tobytes()
        assert grads.tobytes() == np.array([obj.grad(p) for p in points]).tobytes()
        assert np.isinf(values[3:6]).all()  # off the support
        assert (np.isinf if spec.pair == "var_es" else np.isfinite)(values[:3]).all()
        assert np.isfinite(values[6:]).all()


class TestInitialLambda:
    def test_constant_excesses_start_exponential(self):
        # zero variance: kappa = 0 and sigma = the mean
        lam = pot.initial_lambda(np.full(7, 2.5), VAR_ES)
        assert np.all(lam.kappa == 0.0)
        assert np.all(lam.sigma == 2.5)

    def test_start_raised_inside_the_support(self):
        # the moment kappa is clamped to -0.4, and 1 - 0.4*6/sigma < 0 would
        # put the 6.0 off the support: kappa is raised until it is inside
        y = np.r_[np.ones(40), 6.0]
        mean, var = y.mean(), y.var()
        assert 0.5 * (1.0 - mean * mean / var) < -0.4
        lam = pot.initial_lambda(y, VAR_ES)
        kappa, sigma = lam.kappa[0], lam.sigma[0]
        assert 1.0 - 0.4 * y.max() / sigma < 0.0
        assert -0.4 < kappa < 0.0
        assert 1.0 + kappa * y.max() / sigma == pytest.approx(0.05)
        assert np.isfinite(negative_loglik_objective(y, VAR_ES).eval(lam.as_vector()))


class TestFitConstantModel:
    def test_var_es_matches_oracle_mle(self):
        rng = np.random.default_rng(42)
        n = 1000
        y = gpd_inverse_cdf(rng.random(n), 2.0, 0.2)
        sig, kap = gpd_mle_oracle(y)
        th_o, ze_o = theta_ref(sig, kap, 0.1), zeta_ref(sig, kap, 0.1)
        model = fit_pot_additive(y, None, VAR_ES, [],
                                 GsParams(seed=0, beta=1e-4))
        th, ze = model.state.theta_pair
        assert abs(th[0] - th_o) / th_o <= 0.05
        assert abs(ze[0] - ze_o) / ze_o <= 0.05
        assert model.trace.converged

    def test_default_beta_takes_steps_to_the_mle(self):
        # stationarity and the Armijo margin use the norm of the projected
        # coordinates; with the raw 2n-row norm this fit took no step at
        # the default beta and stopped at the start
        y = gpd_inverse_cdf(np.random.default_rng(3).random(40), 2.0, 0.2)
        sig, kap = gpd_mle_oracle(y)
        model = fit_pot_additive(y, None, VAR_ES, [], GsParams(seed=1))
        assert len(model.trace.accepted) >= 1
        th, ze = model.state.theta_pair
        assert abs(th[0] - theta_ref(sig, kap, 0.1)) / theta_ref(sig, kap, 0.1) <= 0.01
        assert abs(ze[0] - zeta_ref(sig, kap, 0.1)) / zeta_ref(sig, kap, 0.1) <= 0.01

    @pytest.mark.filterwarnings("ignore::gsda.errors.SampleSizeWarning")
    def test_exponential_data(self):
        rng = np.random.default_rng(17)
        n = 2000
        y = gpd_inverse_cdf(rng.random(n), 3.0, 0.0)
        model = fit_pot_additive(y, None, VAR_ES, [],
                                 GsParams(seed=0, beta=1e-4, m=600))
        th = model.state.theta_pair[0][0]
        assert abs(th - (-3.0 * np.log(0.1))) / (3.0 * np.log(10.0)) <= 0.05

    def test_loglik_nondecreasing_and_support_kept(self):
        rng = np.random.default_rng(12)
        y = gpd_inverse_cdf(rng.random(300), 1.0, 0.1)
        model = fit_pot_additive(y, None, VAR_ES, [], GsParams(seed=1, beta=1e-3))
        f_acc = [r.f for r in model.trace.accepted]  # negative log-likelihood
        assert np.all(np.diff(f_acc) < 0.0)
        assert np.all(np.isfinite([r.f for r in model.trace.records]))
        assert np.isfinite(gpd_loglik(model.state.lam, y))


class TestFitValidation:
    def test_covariate_rows_must_match_y(self):
        y = gpd_inverse_cdf(np.random.default_rng(5).random(50), 2.0, 0.2)
        with pytest.raises(InvalidInput, match="one row per observation"):
            fit_pot_additive(y, np.linspace(0.0, 1.0, 40)[:, None], VAR_ES,
                             [SmootherSpec("local_linear", 0)])

    def test_rejects_two_dimensional_y(self):
        y = gpd_inverse_cdf(np.random.default_rng(5).random(50), 2.0, 0.2)
        with pytest.raises(InvalidInput, match="1-d"):
            fit_pot_additive(y[:, None], None, VAR_ES, [])

    def test_min_norm_point_is_the_only_reduction(self):
        y = gpd_inverse_cdf(np.random.default_rng(5).random(50), 2.0, 0.2)
        with pytest.raises(InvalidInput, match="subgradient_mode must be 'qp'"):
            fit_pot_additive(y, None, VAR_ES, [], GsParams(subgradient_mode="average"))

    def test_rejects_nonfinite_covariate(self):
        y = gpd_inverse_cdf(np.random.default_rng(6).random(50), 2.0, 0.2)
        w = np.linspace(0.0, 1.0, 50)
        w[3] = np.inf
        with pytest.raises(InvalidInput, match="finite"):
            fit_pot_additive(y, w[:, None], VAR_ES, [SmootherSpec("linear", 0)])


class TestProjectionCounters:
    def test_trace_sums_sweeps_of_both_halves(self, projection_calls):
        y = gpd_inverse_cdf(np.random.default_rng(7).random(60), 2.0, 0.2)
        w = np.linspace(0.0, 1.0, 60)
        model = fit_pot_additive(y, w[:, None], VAR_ES,
                                 [SmootherSpec("local_linear", 0)],
                                 GsParams(max_iter=20, seed=1))
        # steps move in coordinates, so only the two reported
        # decompositions project
        assert len(projection_calls) == 2
        assert model.trace.backfit_sweeps == sum(c for c, _ in projection_calls)
        assert model.trace.projections_unconverged == 0


def test_fit_evaluates_one_stack_per_ray_block(monkeypatch):
    # the objective is stacked: one call at x0, then each search takes
    # its ladder in blocks of min(32, 9600 // 120) = 32 steps (n = 60,
    # d = 120), one call a block; one trial a call made 134 calls here
    calls, rows = [0], []
    make = pot.negative_loglik_objective

    def counted(y, spec):
        obj = make(y, spec)

        def evaluate(x):
            calls[0] += 1
            rows.append(x.shape[0] if x.ndim == 2 else 0)
            return obj.eval(x)
        return dataclasses.replace(obj, eval=evaluate)

    monkeypatch.setattr(pot, "negative_loglik_objective", counted)
    y = gpd_inverse_cdf(np.random.default_rng(7).random(60), 2.0, 0.2)
    w = np.linspace(0.0, 1.0, 60)
    model = fit_pot_additive(y, w[:, None], VAR_ES, [SmootherSpec("local_linear", 0)],
                             GsParams(max_iter=40, seed=1))
    # all 40 iterations searched, each in one call of the whole 31-step ladder
    assert (calls[0], len(model.trace)) == (41, 40)
    assert rows[0] == 0 and set(rows[1:]) == {31}


class TestTwoLevelOrder:
    # d theta / dc = -sigma c^(-kappa-1) < 0 for every sigma > 0 and kappa,
    # so the var_var levels keep their order by the map alone; only a bug
    # in the map, never a fit, can make them cross
    def grid(self):
        rng = np.random.default_rng(23)
        tiny = np.logspace(-14.0, -1.0, 2_000)
        kappa = np.concatenate((np.linspace(-5.0, 5.0, 200_000), tiny, -tiny, [0.0]))
        return np.exp(rng.uniform(-5.0, 5.0, kappa.size)), kappa

    def test_return_level_decreases_in_c(self):
        sigma, kappa = self.grid()
        assert np.all(_kernels.theta_of(sigma, kappa, np.log(0.02))
                      > _kernels.theta_of(sigma, kappa, np.log(0.1)))

    def test_levels_never_cross(self):
        spec = FunctionalSpec("var_var", (0.01, 0.002), 0.1)  # c = 0.1, 0.02
        sigma, kappa = self.grid()
        th1, th2 = pot.functional_map(Lambda(np.log(sigma), kappa), spec)
        assert np.all(th2 > th1)
        assert spec.names == ("return_level_1", "return_level_2")


class TestQpSubspace:
    def design(self, n=60, seed=7):
        y = gpd_inverse_cdf(np.random.default_rng(seed).random(n), 2.0, 0.2)
        W = np.linspace(0.0, 1.0, n)[:, None]
        specs = [SmootherSpec("local_linear", 0)]
        return y, W, specs, AdditiveProjector(W, specs).coordinate_map()

    def test_rows_are_projected_functional_rows(self):
        # g @ K is the coordinate pair (M h1, M h2) of the functional-space
        # row h = J^-T g, for the draws Q u of the 2r-ball and the negative
        # log-likelihood's gradient g
        y, W, specs, coords = self.design()
        lam = Lambda(np.log(2.0) + 0.1 * np.sin(np.arange(y.size)),
                     np.full(y.size, 0.2))
        state = PotState.from_lambda(lam.as_vector(), VAR_ES, y, coords)
        n, r, m, eps = y.size, coords.dim, 2 * coords.dim + 1, 1e-3
        got = pot._theta_grad_rows(state, y, eps, m, np.random.default_rng(8), None,
                                   _kernels.RowScratch(_ROW_BLOCK, n))
        u = pot.sample_unit_ball(2 * r, m, np.random.default_rng(8))
        span, _ = np.linalg.qr(dense_inverse(state.jac_inverses) @ blockdiag(coords.basis))
        points = np.vstack([np.zeros(2 * n), eps * u @ span.T])
        want = []
        for p in points:
            g = -gpd_loglik_grad(Lambda(lam.eta + p[:n], lam.kappa + p[n:]), y)
            h = dense_inverse(state.jac_inverses).T @ g
            want.append(np.concatenate([coords.coef @ h[:n], coords.coef @ h[n:]]))
        assert got.shape == (m + 1, 2 * r)
        assert np.max(np.abs(got - np.array(want))) <= 1e-10 * np.max(np.abs(want))

    def test_fit_draws_and_rows_live_in_the_subspace(self, monkeypatch):
        y, W, specs, coords = self.design()
        r = coords.dim
        widths, draws, at = [], [], []
        real_wolfe, real_rows = pot.min_norm_point, _kernels.gpd_grad_rows
        real_estimate, real_ball = pot._theta_grad_rows, pot.sample_unit_ball

        def wolfe(gset):
            widths.append(gset.vectors.shape)
            return real_wolfe(gset)

        def estimate(state, yy, eps, m, rng, *args):
            # the state carries its iterate's frame, so this Q is the fit's
            at[:] = [state.lam.as_vector(), eps, state.draws]
            return real_estimate(state, yy, eps, m, rng, *args)

        def ball(d, k, rng):
            w = real_ball(d, k, rng)
            draws.append((*at, w, []))
            return w

        def grad_rows(eta, kappa, yy, *scratch):
            draws[-1][-1].append(np.hstack([eta, kappa]))
            return real_rows(eta, kappa, yy, *scratch)

        monkeypatch.setattr(pot, "min_norm_point", wolfe)
        monkeypatch.setattr(pot, "_theta_grad_rows", estimate)
        monkeypatch.setattr(pot, "sample_unit_ball", ball)
        monkeypatch.setattr(_kernels, "gpd_grad_rows", grad_rows)
        model = fit_pot_additive(y, W, VAR_ES, specs,
                                 GsParams(subgradient_mode="qp", seed=3, max_iter=25))
        assert model.trace.subspace_dim == 2 * r and model.trace.m == 2 * r + 1 > 8
        # a first block of 8 draws, and all m+1 rows only after a topup
        assert (9, 2 * r) in widths and set(widths) <= {(9, 2 * r), (2 * r + 2, 2 * r)}
        assert widths.count((2 * r + 2, 2 * r)) == model.trace.topups
        assert len(draws) >= 25 and len(model.trace.accepted) > 0
        for x, eps, draw_basis, w, points in draws:
            # the perturbation eps*u: |u| <= 1 and u in range(J^-1 blockdiag(B, B))
            u = w @ draw_basis.T
            assert np.all(np.linalg.norm(u, axis=1) <= 1.0 + 1e-12)
            state = PotState.from_lambda(x, VAR_ES, y, coords)
            span, _ = np.linalg.qr(dense_inverse(state.jac_inverses) @ blockdiag(coords.basis))
            assert np.max(np.abs(u - (u @ span) @ span.T)) <= 1e-12
            # and the kernel is handed the points x + eps*u, to the rounding of x
            assert np.max(np.abs(np.vstack(points) - (x + eps * u))) <= (
                1e-14 * (np.max(np.abs(x)) + eps))


class TestDrawsOnDemand:
    """A POT step comes from the first 8 draws; the other m - 8 only decide a shrink."""

    def fit(self, monkeypatch, m, fail_first_search=False, **gs):
        """One iteration of an intercept-only fit.

        Returns (``_theta_grad_rows`` calls as (count, rows), the row sets
        reduced, searches, trace); a search is logged as the number of
        row calls before it.
        """
        import gsda.engine as engine

        calls, reduced, searches = [], [], []
        real_rows, real_reduce, real_search = (
            pot._theta_grad_rows, pot.min_norm_point, engine.armijo_search)

        def rows(state, yy, eps, k, *args):
            calls.append((k, real_rows(state, yy, eps, k, *args)))
            return calls[-1][1]

        def reduce(gset):
            reduced.append(gset.vectors)
            return real_reduce(gset)

        def search(*args):
            searches.append(len(calls))
            return None if fail_first_search and len(searches) == 1 else real_search(*args)

        monkeypatch.setattr(pot, "_theta_grad_rows", rows)
        monkeypatch.setattr(pot, "min_norm_point", reduce)
        monkeypatch.setattr(engine, "armijo_search", search)
        y = gpd_inverse_cdf(np.random.default_rng(3).random(80), 2.0, 0.2)
        model = fit_pot_additive(y, None, VAR_ES, [], GsParams(m=m, max_iter=1, seed=5, **gs))
        return calls, reduced, searches, model.trace

    def test_subset_shrink_draws_nothing_more(self, monkeypatch):
        # a tau0 above any gradient norm: the first block alone shrinks
        calls, reduced, searches, trace = self.fit(monkeypatch, 40, tau0=1e6)
        assert [k for k, _ in calls] == [8] and len(reduced) == 1 and searches == []
        assert [r.event for r in trace.records] == ["shrink"] and trace.topups == 0

    @pytest.mark.parametrize("m", [9, 40])
    def test_failed_first_search_tops_up_the_rest(self, monkeypatch, m):
        # the method-of-moments start is near the MLE: at eps0 = 0.1 the
        # draws' hull holds 0, and at 1e-4 the norm is below 1e-2; a small
        # radius and tau give a step to search
        calls, reduced, searches, trace = self.fit(monkeypatch, m, fail_first_search=True,
                                                   eps0=1e-4, tau0=1e-4)
        (k1, block), (k2, more) = calls
        first, full = reduced
        assert (k1, k2) == (8, m - 8) and first is block
        assert block.shape == (9, 2) and full.shape == (m + 1, 2)
        assert np.array_equal(full[:9], block)  # rows 0..8 kept, bitwise
        assert np.array_equal(full[9:], more[1:])
        assert searches == [1, 2] and trace.topups == 1
        (rec,) = trace.records
        assert rec.event == "step" and rec.gnorm == min_norm_point(GradientSet(full)).norm
