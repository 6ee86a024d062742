import warnings

import numpy as np
import pytest

from gsda import (
    AdditiveProjector,
    SmootherSpec,
    additive_project,
    bandwidth_for_df,
    cell_factor_smooth,
    effective_df,
    local_linear_smooth,
)
from gsda import _kernels
from gsda.errors import DegenerateDesignWarning, InvalidInput, NumericalFailure

from _oracles import backfit_fixed_point, backfit_loop, backfit_sweep


def kernel_fit_reference(w, g, bandwidth, targets):
    """Point-by-point weighted degree-1 least squares (independent path)."""
    out = np.empty(targets.size)
    for i, x0 in enumerate(targets):
        k = np.exp(-0.5 * ((w - x0) / bandwidth) ** 2)
        X = np.column_stack([np.ones_like(w), w - x0])
        A = X.T @ (k[:, None] * X)
        b = X.T @ (k * g)
        out[i] = np.linalg.solve(A, b)[0]
    return out


class TestLocalLinear:
    def test_reproduces_affine(self):
        w = np.linspace(0.0, 1.0, 60)
        g = 3.0 * w + 1.0
        fit = local_linear_smooth(w, g, bandwidth=2.0)
        assert np.max(np.abs(fit - g)) <= 1e-8

    def test_reproduces_constant(self):
        w = np.linspace(-2.0, 5.0, 40)
        fit = local_linear_smooth(w, np.full(40, 3.25), bandwidth=0.4)
        assert np.allclose(fit, 3.25, atol=1e-10)

    def test_sine_fit_against_reference_and_truth(self):
        w = np.linspace(0.0, 2.0 * np.pi, 200)
        g = np.sin(w)
        fit = local_linear_smooth(w, g, bandwidth=0.3)
        ref = kernel_fit_reference(w, g, 0.3, w)
        assert np.max(np.abs(fit - ref)) <= 1e-9
        assert np.max(np.abs(fit - np.sin(w))) <= 0.05

    def test_degenerate_design_returns_mean(self):
        w = np.full(10, 2.0)
        g = np.arange(10.0)
        with pytest.warns(DegenerateDesignWarning):
            fit = local_linear_smooth(w, g, bandwidth=1.0)
        assert np.allclose(fit, g.mean())

    def test_linearity_in_response(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(size=50)
        g1, g2 = rng.normal(size=50), rng.normal(size=50)
        a, b = 1.7, -0.3
        lhs = local_linear_smooth(w, a * g1 + b * g2, 0.2)
        rhs = a * local_linear_smooth(w, g1, 0.2) + b * local_linear_smooth(w, g2, 0.2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    @pytest.mark.parametrize("df,ranks", [(15.0, (64, 160)), (40.0, (150, 300))],
                             ids=["df15", "df40"])
    def test_factors_reproduce_hat_at_small_bandwidth(self, df, ranks):
        # at df=15 a factor good only to 1e-6 would have rank about 60, and
        # the first 64-column sketch would stop there
        w = np.sort(np.random.default_rng(9).uniform(0.0, 1.0, 300))
        bw = bandwidth_for_df(w, df)
        proj = AdditiveProjector(w[:, None], [SmootherSpec("local_linear", 0, bandwidth=bw)])
        sm = proj.smoothers[0]
        assert ranks[0] <= sm.u.shape[1] < ranks[1]
        assert np.max(np.abs(sm.u @ sm.vt - _kernels.ll_weights(w, bw, w))) <= 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInput):
            local_linear_smooth(np.array([1.0]), np.array([1.0]), 0.5)
        with pytest.raises(InvalidInput):
            local_linear_smooth(np.arange(5.0), np.arange(5.0), -1.0)


class TestEffectiveDf:
    def test_wide_bandwidth_gives_affine_df(self):
        w = np.linspace(0.0, 1.0, 80)
        assert effective_df(w, 1e6) == pytest.approx(2.0, abs=1e-6)

    def test_tiny_bandwidth_interpolates(self):
        w = np.linspace(0.0, 1.0, 25)
        assert effective_df(w, 1e-7) == pytest.approx(25.0, abs=1e-8)

    def test_bisection_hits_target(self):
        w = np.linspace(0.0, 1.0, 100)
        bw = bandwidth_for_df(w, 10.0)
        assert 9.9 <= effective_df(w, bw) <= 10.1
        # independent trace: smooth each indicator vector, read its own entry
        trace = sum(kernel_fit_reference(w, np.eye(100)[i], bw,
                                         np.array([w[i]]))[0]
                    for i in range(100))
        assert trace == pytest.approx(effective_df(w, bw), abs=1e-8)

    def test_monotone_nonincreasing_in_bandwidth(self):
        w = np.linspace(0.0, 1.0, 60)
        grid = np.geomspace(1e-3, 10.0, 25)
        dfs = [effective_df(w, b) for b in grid]
        assert np.all(np.diff(dfs) <= 1e-9)


class TestCellFactor:
    def test_single_level(self):
        g = np.array([1.0, 5.0, 3.0])
        assert np.allclose(cell_factor_smooth(np.array(["A"] * 3), g), 3.0)

    def test_two_groups(self):
        fit = cell_factor_smooth(np.array(["A", "A", "B"]),
                                 np.array([1.0, 3.0, 5.0]))
        assert np.allclose(fit, [2.0, 2.0, 5.0])

    def test_matches_groupby_oracle(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 7, size=200)
        g = rng.normal(size=200)
        fit = cell_factor_smooth(labels, g)
        oracle = np.array([g[labels == lab].mean() for lab in labels])
        assert np.max(np.abs(fit - oracle)) <= 1e-12


class TestAdditiveProject:
    def test_single_covariate_equals_centered_smooth(self):
        rng = np.random.default_rng(1)
        w = np.sort(rng.uniform(size=60))
        g = rng.normal(size=60)
        fit = additive_project(g, w[:, None], [SmootherSpec("local_linear", 0,
                                                            bandwidth=0.15)])
        single = local_linear_smooth(w, g - g.mean(), 0.15)
        expect = g.mean() + (single - single.mean())
        assert np.max(np.abs(fit.fitted - expect)) <= 1e-10

    def test_linear_truth_recovered_against_ols_oracle(self):
        rng = np.random.default_rng(2)
        W = rng.uniform(size=(120, 2))
        g = 2.0 + W[:, 0]
        fit = additive_project(g, W, [SmootherSpec("linear", 0),
                                      SmootherSpec("linear", 1)])
        X = np.column_stack([np.ones(120), W])
        coef, *_ = np.linalg.lstsq(X, g, rcond=None)
        ols_comp1 = coef[1] * (W[:, 0] - W[:, 0].mean())
        assert fit.intercept == pytest.approx(g.mean(), abs=1e-9)
        assert np.max(np.abs(fit.components[0] - ols_comp1)) <= 1e-6
        assert np.max(np.abs(fit.components[1])) <= 1e-6
        assert np.max(np.abs(fit.fitted - g)) <= 1e-6

    def test_cell_factor_component_is_centered_cell_means(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 5, size=90).astype(float)
        g = rng.normal(size=90)
        fit = additive_project(g, codes[:, None], [SmootherSpec("cell_factor", 0)])
        means = cell_factor_smooth(codes, g)
        assert np.max(np.abs(fit.fitted - means)) <= 1e-9

    def test_components_mean_zero(self):
        rng = np.random.default_rng(5)
        W = np.column_stack([rng.uniform(size=100),
                             rng.integers(0, 4, 100).astype(float)])
        specs = [SmootherSpec("local_linear", 0), SmootherSpec("cell_factor", 1)]
        fit = additive_project(rng.normal(size=100), W, specs)
        for comp in fit.components:
            assert abs(comp.mean()) <= 1e-8

    def test_idempotent_for_projection_smoothers(self):
        rng = np.random.default_rng(6)
        W = np.column_stack([rng.uniform(size=100),
                             rng.integers(0, 4, 100).astype(float)])
        specs = [SmootherSpec("linear", 0), SmootherSpec("cell_factor", 1)]
        proj = AdditiveProjector(W, specs)
        first = proj.project(rng.normal(size=100))
        second = proj.project(first.fitted)
        assert np.max(np.abs(second.fitted - first.fitted)) <= 1e-6

    def test_kernel_smoother_contracts_under_reprojection(self):
        # kernel hats shrink rather than project, so exact idempotence is
        # not attainable; repeated projection must contract instead
        rng = np.random.default_rng(7)
        w = np.sort(rng.uniform(0.0, 1.0, 150))
        proj = AdditiveProjector(w[:, None], [SmootherSpec("local_linear", 0)])
        prev = proj.project(rng.normal(size=150)).fitted
        diffs = []
        for _ in range(5):
            cur = proj.project(prev).fitted
            diffs.append(np.max(np.abs(cur - prev)))
            prev = cur
        assert np.all(np.diff(diffs) < 0.0)
        # on smooth input the second application moves less than the first
        w = np.linspace(0.0, 2.0 * np.pi, 200)
        proj = AdditiveProjector(w[:, None],
                                 [SmootherSpec("local_linear", 0, bandwidth=0.3)])
        g = np.sin(w)
        first = proj.project(g)
        second = proj.project(first.fitted)
        assert np.max(np.abs(second.fitted - first.fitted)) \
            <= np.max(np.abs(first.fitted - g))

    def test_spec_validation(self):
        with pytest.raises(InvalidInput):
            SmootherSpec("local_linear", 0, bandwidth=0.1, target_df=5.0)
        with pytest.raises(InvalidInput):
            SmootherSpec("linear", 0, bandwidth=0.1)
        with pytest.raises(InvalidInput):
            SmootherSpec("spline", 0)
        with pytest.raises(InvalidInput):
            AdditiveProjector(np.ones((10, 2)),
                              [SmootherSpec("linear", 0), SmootherSpec("linear", 0)])

    def test_intercept_only(self):
        g = np.array([1.0, 2.0, 6.0])
        fit = additive_project(g, None, [])
        assert fit.intercept == pytest.approx(3.0)
        assert np.allclose(fit.fitted, 3.0)

    def test_zeroed_map_sets_nonconvergence_flag(self):
        # from zero, two sweeps on a near-collinear design stay far from
        # the fixed point, and the flag says so
        rng = np.random.default_rng(8)
        w = rng.uniform(size=(60, 2))
        W = np.column_stack([w[:, 0], w[:, 0] + 0.01 * w[:, 1]])  # near-collinear
        proj = AdditiveProjector(W, [SmootherSpec("local_linear", 0),
                                     SmootherSpec("local_linear", 1)])
        proj.coef[:] = 0.0
        fit = proj.project(rng.normal(size=60))
        assert not fit.converged
        assert fit.cycles == 2
        assert np.all(np.isfinite(fit.fitted))


def _fixed_point_designs(n=300):
    """(name, W, specs, compare components) for the fixed-point test."""
    rng = np.random.default_rng(11)
    w1 = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    w2 = w1 + 0.6 * rng.standard_normal(n)  # the quantile-additive design
    codes = rng.integers(0, 4, n).astype(float)
    ll = SmootherSpec("local_linear", 0)
    return [
        ("correlated local_linear pair", np.column_stack([w1, w2]),
         [ll, SmootherSpec("local_linear", 1)], True),
        ("local_linear + cell_factor", np.column_stack([w1, codes]),
         [ll, SmootherSpec("cell_factor", 1)], True),
        ("identical covariates", np.column_stack([w1, w1]),
         [ll, SmootherSpec("local_linear", 1)], False),
    ]


def _pinball_like(rng, n):
    return np.where(rng.random(n) < 0.9, -0.9, 0.1) + 0.05 * rng.standard_normal(n)


def _bits(fit):
    return (np.array([fit.intercept, *fit.centers]).tobytes(), fit.fitted.tobytes(),
            [c.tobytes() for c in fit.components],
            [t.tobytes() for t in fit.targets], fit.converged, fit.cycles)


def _count_applies(monkeypatch, proj):
    """A list that gets one entry per smoother application of proj."""
    applied = []

    def counted(apply):
        def wrapper(v):
            applied.append(v)
            return apply(v)
        return wrapper

    for sm in proj.smoothers:
        monkeypatch.setattr(sm, "apply", counted(sm.apply))
    return applied


class TestBackfitSolve:
    @pytest.mark.parametrize("name,W,specs,components",
                             _fixed_point_designs(),
                             ids=[d[0] for d in _fixed_point_designs()])
    def test_matches_dense_fixed_point(self, name, W, specs, components):
        proj = AdditiveProjector(W, specs)
        rng = np.random.default_rng(12)
        for _ in range(3):
            g = _pinball_like(rng, W.shape[0])
            fit = proj.project(g)
            comps, fitted = backfit_fixed_point(proj, g)
            assert fit.converged
            assert np.max(np.abs(fit.fitted - fitted)) <= 1e-10
            if components:
                assert np.max(np.abs(np.array(fit.components) - comps)) <= 1e-10

    def test_sweeps_stay_few_on_concurvity(self, monkeypatch):
        # the plain loop needs the full 100-sweep cap on this design
        name, W, specs, _ = _fixed_point_designs()[0]
        proj = AdditiveProjector(W, specs)
        g = _pinball_like(np.random.default_rng(13), W.shape[0])
        assert backfit_loop(proj, g).cycles == 100
        applied = _count_applies(monkeypatch, proj)
        fit = proj.project(g)
        assert fit.converged and fit.cycles <= 15
        assert len(applied) == fit.cycles * proj.k  # cycles counts every sweep

    def test_final_sweep_reports_predict_inputs(self):
        # targets and centers come from the final sweep, and predict at the
        # training covariates reproduces the fitted values
        name, W, specs, _ = _fixed_point_designs()[1]
        proj = AdditiveProjector(W, specs)
        fit = proj.project(_pinball_like(np.random.default_rng(14), W.shape[0]))
        for sm, t, c in zip(proj.smoothers, fit.targets, fit.centers):
            assert c == float(sm.apply(t).mean())
        assert np.max(np.abs(proj.predict(fit, W) - fit.fitted)) <= 1e-12

    @pytest.mark.parametrize("name,W,specs,components",
                             _fixed_point_designs(),
                             ids=[d[0] for d in _fixed_point_designs()])
    def test_applies_each_smoother_once(self, monkeypatch, name, W, specs, components):
        # the coefficient map lands on the fixed point, so one sweep confirms it
        proj = AdditiveProjector(W, specs)
        applied = _count_applies(monkeypatch, proj)
        fit = proj.project(_pinball_like(np.random.default_rng(15), W.shape[0]))
        assert fit.converged and fit.cycles == 1
        assert len(applied) == proj.k

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_sweeps_never_exceed_the_cap(self, monkeypatch, k):
        # with the coefficient map zeroed, project sweeps from zero on k
        # correlated covariates, where the plain loop needs more than two
        # sweeps; project stops at two
        rng = np.random.default_rng(15)
        n = 120
        w1 = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        W = np.column_stack([w1 + 0.6 * rng.standard_normal(n) * (j > 0)
                             for j in range(k)])
        proj = AdditiveProjector(W, [SmootherSpec("local_linear", j) for j in range(k)])
        g = _pinball_like(rng, n)
        assert backfit_loop(proj, g).cycles > 2
        proj.coef[:] = 0.0
        applied = _count_applies(monkeypatch, proj)
        fit = proj.project(g)
        assert fit.cycles == 2 and not fit.converged
        assert len(applied) == fit.cycles * k
        assert np.all(np.isfinite(fit.fitted))

    def test_one_sweep_moves_nothing_at_n2000(self):
        name, W, specs, _ = _fixed_point_designs(n=2000)[0]
        proj = AdditiveProjector(W, specs)
        g = _pinball_like(np.random.default_rng(20), W.shape[0])
        fit = proj.project(g)
        comps, _, _ = backfit_sweep(proj, g - g.mean(), fit.components)
        assert np.max(np.abs(np.array(comps) - fit.components)) <= 1e-10


def _single_covariate_cases():
    rng = np.random.default_rng(16)
    n = 40
    w = rng.uniform(size=n)
    codes = rng.integers(0, 3, n).astype(float)
    return [
        ("local_linear", w, SmootherSpec("local_linear", 0)),
        ("local_linear df", w, SmootherSpec("local_linear", 0, target_df=5.0)),
        ("linear", w, SmootherSpec("linear", 0)),
        ("cell_factor", codes, SmootherSpec("cell_factor", 0)),
        ("constant local_linear", np.full(n, 0.5), SmootherSpec("local_linear", 0)),
        ("constant linear", np.full(n, 0.5), SmootherSpec("linear", 0)),
        ("one-level cell_factor", np.zeros(n), SmootherSpec("cell_factor", 0)),
    ]


class TestSmallKBitwise:
    @pytest.mark.parametrize("name,w,spec", _single_covariate_cases(),
                             ids=[c[0] for c in _single_covariate_cases()])
    def test_one_covariate_equals_plain_loop(self, name, w, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateDesignWarning)
            proj = AdditiveProjector(w[:, None], [spec])
        rng = np.random.default_rng(17)
        for g in (rng.normal(size=w.size), _pinball_like(rng, w.size),
                  np.full(w.size, 0.25), np.zeros(w.size)):
            assert _bits(proj.project(g)) == _bits(backfit_loop(proj, g))

    def test_intercept_only_equals_plain_loop(self):
        proj = AdditiveProjector(None, [])
        g = np.random.default_rng(18).normal(size=25)
        assert _bits(proj.project(g)) == _bits(backfit_loop(proj, g))


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_project_raises(self, bad, k):
        rng = np.random.default_rng(19)
        W = rng.uniform(size=(30, 2))[:, :k]
        specs = [SmootherSpec("local_linear", j) for j in range(k)]
        g = rng.normal(size=30)
        g[7] = bad
        with pytest.raises(NumericalFailure):
            AdditiveProjector(W, specs).project(g)


def _coordinate_designs():
    """(name, W, specs, n) for the coordinate-map tests."""
    single = {c[0]: c for c in _single_covariate_cases()}
    cases = [("intercept only", None, [], 50)]
    for name in ("linear", "cell_factor", "local_linear"):
        _, w, spec = single[name]
        cases.append((name, w[:, None], [spec], None))
    _, W, specs, _ = _fixed_point_designs(n=2000)[0]
    cases.append(("concurvity pair n=2000", W, specs, None))
    return cases


class TestCoordinateMap:
    @pytest.mark.parametrize("name,W,specs,n", _coordinate_designs(),
                             ids=[d[0] for d in _coordinate_designs()])
    def test_basis_is_orthonormal_and_reproduces_project(self, name, W, specs, n):
        proj = AdditiveProjector(W, specs, n)
        coords = proj.coordinate_map()
        B, M = coords.basis, coords.coef
        size = B.shape[0]
        assert M.shape == (coords.dim, size) and coords.dim < size
        assert np.max(np.abs(B.T @ B - np.eye(coords.dim))) <= 1e-12
        assert np.array_equal(coords.row_norms, np.linalg.norm(B, axis=1))
        rng = np.random.default_rng(21)
        for g in (_pinball_like(rng, size), rng.normal(size=size)):
            assert np.max(np.abs(B @ (M @ g) - proj.project(g).fitted)) <= 1e-10
        assert proj.coordinate_map() is coords

    def test_rank_counts_independent_directions(self):
        # intercept, one centred slope, and levels - 1 centred cell effects
        rng = np.random.default_rng(22)
        w, codes = rng.uniform(size=40), rng.integers(0, 3, 40).astype(float)
        ranks = [AdditiveProjector(W, specs).coordinate_map().dim for W, specs in (
            (w[:, None], [SmootherSpec("linear", 0)]),
            (codes[:, None], [SmootherSpec("cell_factor", 0)]),
            (np.column_stack([w, codes]),
             [SmootherSpec("linear", 0), SmootherSpec("cell_factor", 1)]))]
        assert ranks == [2, 3, 4]

    def test_intercept_only_needs_n(self):
        with pytest.raises(InvalidInput):
            AdditiveProjector(None, []).coordinate_map()

    def test_average_mode_fits_never_build_it(self, monkeypatch):
        # the quantile fitter's average mode; the POT fitter reduces
        # coordinate rows in both modes and always builds the map
        from gsda import GsParams, fit_quantile_additive

        def refuse(self):
            raise AssertionError("coordinate map built in average mode")

        monkeypatch.setattr(AdditiveProjector, "coordinate_map", refuse)
        rng = np.random.default_rng(23)
        W, specs = rng.uniform(size=(40, 1)), [SmootherSpec("local_linear", 0)]
        gs = GsParams(subgradient_mode="average", max_iter=10, seed=0)
        fit_quantile_additive(rng.normal(size=40), W, 0.5, specs, gs)
