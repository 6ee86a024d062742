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


def sampled_theta_grad(state, y, eps, m, seed, coords=None):
    """Mean of the POT fitter's coordinate rows (intercept-only by default).

    With one observation B = M = 1, so each row is the functional-space
    gradient J^-T g itself.
    """
    if coords is None:
        coords = AdditiveProjector(None, [], state.n).coordinate_map()
    rows = pot._theta_grad_rows(state, y, eps, m, np.random.default_rng(seed), coords)
    return rows.mean(axis=0)


class TestApproxSubgradientTheta:
    def test_zero_radius_limit_matches_chain_rule(self):
        for i, y in enumerate([0.3, 1.7, 6.0]):
            lam = const_lambda(2.0, 0.25 - 0.1 * i)
            state = PotState.from_lambda(lam, VAR_ES)
            got = sampled_theta_grad(state, np.array([y]), 1e-12, 11, 0)
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
        state = PotState.from_lambda(const_lambda(sig, kap, n), VAR_ES)
        assert np.linalg.norm(sampled_theta_grad(state, y, 1e-4, 3, 1)) <= 1e-3
        state = PotState.from_lambda(const_lambda(1.1 * sig, kap, n), VAR_ES)
        assert np.linalg.norm(sampled_theta_grad(state, y, 1e-4, 3, 1)) >= 0.1

    def test_chain_rule_against_numerical_functional_inverse(self):
        # single observation: perturb the two functional coordinates,
        # invert the map numerically, and difference the log-likelihood
        lam = const_lambda(1.4, 0.3)
        y = np.array([1.1])
        state = PotState.from_lambda(lam, VAR_ES)
        analytic = sampled_theta_grad(state, y, 1e-13, 3, 2)

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
        state = PotState.from_lambda(lam, VAR_ES)
        coords = AdditiveProjector(np.linspace(0.0, 1.0, n)[:, None],
                                   [SmootherSpec("linear", 0)]).coordinate_map()
        a = sampled_theta_grad(state, y, 1e-9, 9, 3, coords)
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
        state = PotState.from_lambda(lam, VAR_ES)
        coords = AdditiveProjector(np.arange(8.0)[:, None],
                                   [SmootherSpec("cell_factor", 0)]).coordinate_map()
        with pytest.raises(SamplingExhausted):
            sampled_theta_grad(state, y, 0.3, 40, 0, coords)


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
        y = np.array([0.8, 1.4])
        obj = negative_loglik_objective(y, VAR_ES)
        v = const_lambda(1.3, 0.15, 2).as_vector()
        fd = central_diff(obj.eval, v)
        assert np.max(np.abs(obj.grad(v) - fd) / np.maximum(1.0, np.abs(fd))) <= 1e-5


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

    @pytest.mark.parametrize("mode", ["qp", "average"])
    def test_default_beta_takes_steps_to_the_mle(self, mode):
        # both modes measure stationarity and the Armijo margin by the norm
        # of the projected coordinates; with the raw 2n-row norm this fit
        # took no step at the default beta and stopped at the start
        y = gpd_inverse_cdf(np.random.default_rng(3).random(40), 2.0, 0.2)
        sig, kap = gpd_mle_oracle(y)
        model = fit_pot_additive(y, None, VAR_ES, [],
                                 GsParams(subgradient_mode=mode, seed=1))
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
        f_acc = model.trace.accepted_f()  # negative log-likelihood
        assert np.all(np.diff(f_acc) < 0.0)
        assert np.all(np.isfinite([r.f for r in model.trace.records]))
        assert np.isfinite(gpd_loglik(model.state.lam, y))


class TestFitValidation:
    def test_covariate_rows_must_match_y(self):
        y = gpd_inverse_cdf(np.random.default_rng(5).random(50), 2.0, 0.2)
        with pytest.raises(InvalidInput, match="one row per observation"):
            fit_pot_additive(y, np.linspace(0.0, 1.0, 40)[:, None], VAR_ES,
                             [SmootherSpec("local_linear", 0)])

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
                                 GsParams(subgradient_mode="average",
                                          max_iter=20, seed=1))
        # steps move in coordinates, so only the two reported
        # decompositions project
        assert len(projection_calls) == 2
        assert model.trace.backfit_sweeps == sum(c for c, _ in projection_calls)
        assert model.trace.projections_unconverged == 0


class TestFitTwoLevels:
    def test_levels_never_cross(self):
        spec = FunctionalSpec("var_var", (0.01, 0.002), 0.1)  # c = 0.1, 0.02
        rng = np.random.default_rng(23)
        y = gpd_inverse_cdf(rng.random(250), 2.0, 0.15)
        w = np.linspace(0.0, 1.0, 250)
        model = fit_pot_additive(
            y, w[:, None], spec, [SmootherSpec("local_linear", 0)],
            GsParams(seed=0, beta=1e-2))
        th1, th2 = model.state.theta_pair
        assert np.all(th2 > th1)
        for decomp in model.decompositions:
            for comp in decomp.components:
                assert abs(comp.mean()) <= 1e-6
        assert model.functional_names == ("return_level_1", "return_level_2")


class TestQpSubspace:
    def design(self, n=60, seed=7):
        y = gpd_inverse_cdf(np.random.default_rng(seed).random(n), 2.0, 0.2)
        W = np.linspace(0.0, 1.0, n)[:, None]
        specs = [SmootherSpec("local_linear", 0)]
        return y, W, specs, AdditiveProjector(W, specs).coordinate_map()

    def test_rows_are_projected_functional_rows(self):
        # g @ K is the coordinate pair (M h1, M h2) of the functional-space
        # row h = J^-T g, for the draws Q u of the 2r-ball
        y, W, specs, coords = self.design()
        lam = Lambda(np.log(2.0) + 0.1 * np.sin(np.arange(y.size)),
                     np.full(y.size, 0.2))
        state = PotState.from_lambda(lam, VAR_ES)
        n, r, m, eps = y.size, coords.dim, 2 * coords.dim + 1, 1e-3
        got = pot._theta_grad_rows(state, y, eps, m, np.random.default_rng(8), coords=coords)
        u = pot.sample_unit_ball(2 * r, m, np.random.default_rng(8))
        span, _ = np.linalg.qr(dense_inverse(state.jac_inverses) @ blockdiag(coords.basis))
        points = np.vstack([np.zeros(2 * n), eps * u @ span.T])
        want = []
        for p in points:
            g = gpd_loglik_grad(Lambda(lam.eta + p[:n], lam.kappa + p[n:]), y)
            h = dense_inverse(state.jac_inverses).T @ g
            want.append(np.concatenate([coords.coef @ h[:n], coords.coef @ h[n:]]))
        assert got.shape == (m + 1, 2 * r)
        assert np.max(np.abs(got - np.array(want))) <= 1e-10 * np.max(np.abs(want))

    def test_fit_draws_and_rows_live_in_the_subspace(self, monkeypatch):
        y, W, specs, coords = self.design()
        r = coords.dim
        widths, draws = [], []
        real_wolfe, real_rows = pot.min_norm_point, _kernels.gpd_grad_rows

        def wolfe(gset):
            widths.append(gset.vectors.shape)
            return real_wolfe(gset)

        def grad_rows(eta, kappa, yy, eps, u, *scratch):
            draws.append((eta.copy(), kappa.copy(), u.copy()))
            return real_rows(eta, kappa, yy, eps, u, *scratch)

        monkeypatch.setattr(pot, "min_norm_point", wolfe)
        monkeypatch.setattr(_kernels, "gpd_grad_rows", grad_rows)
        model = fit_pot_additive(y, W, VAR_ES, specs,
                                 GsParams(subgradient_mode="qp", seed=3, max_iter=25))
        assert model.trace.subspace_dim == 2 * r and model.trace.m == 2 * r + 1
        assert set(widths) == {(2 * r + 2, 2 * r)}
        assert len(draws) >= 25 and len(model.trace.accepted) > 0
        for eta, kappa, u in draws:
            # the perturbation eps*u: |u| <= 1 and u in range(J^-1 blockdiag(B, B))
            assert np.all(np.linalg.norm(u, axis=1) <= 1.0 + 1e-12)
            state = PotState.from_lambda(Lambda(eta, kappa), VAR_ES)
            span, _ = np.linalg.qr(dense_inverse(state.jac_inverses) @ blockdiag(coords.basis))
            assert np.max(np.abs(u - (u @ span) @ span.T)) <= 1e-12
