import warnings

import numpy as np
import pytest

from gsda import AdditiveProjector, SmootherSpec, bandwidth_for_df, effective_df
from gsda import _kernels, smoothing
from gsda.datasets import simulate_gpd_sites
from gsda.errors import DegenerateDesignWarning, InvalidInput, NumericalFailure

from _oracles import backfit_fixed_point, backfit_loop, backfit_sweep, range_basis_one_stream


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


def local_linear(w, g, bandwidth):
    """The local-linear hat the smoothers are built from, applied to g."""
    return _kernels.ll_weights(w, bandwidth, w) @ g


def group_means(codes, g):
    """Per-level means of g, scattered back to the observations (group-by)."""
    return np.array([g[codes == c].mean() for c in codes])


class TestLocalLinear:
    def test_reproduces_affine(self):
        w = np.linspace(0.0, 1.0, 60)
        g = 3.0 * w + 1.0
        fit = local_linear(w, g, bandwidth=2.0)
        assert np.max(np.abs(fit - g)) <= 1e-8

    def test_reproduces_constant(self):
        w = np.linspace(-2.0, 5.0, 40)
        fit = local_linear(w, np.full(40, 3.25), bandwidth=0.4)
        assert np.allclose(fit, 3.25, atol=1e-10)

    def test_sine_fit_against_reference_and_truth(self):
        w = np.linspace(0.0, 2.0 * np.pi, 200)
        g = np.sin(w)
        fit = local_linear(w, g, bandwidth=0.3)
        ref = kernel_fit_reference(w, g, 0.3, w)
        assert np.max(np.abs(fit - ref)) <= 1e-9
        assert np.max(np.abs(fit - np.sin(w))) <= 0.05

    def test_degenerate_design_returns_mean(self):
        w = np.full(10, 2.0)
        g = np.arange(10.0)
        with pytest.warns(DegenerateDesignWarning):
            proj = AdditiveProjector(w[:, None], [SmootherSpec("local_linear", 0,
                                                               bandwidth=1.0)])
        assert np.allclose(proj.project(g).fitted, g.mean())
        assert smoothing.rule_of_thumb_bandwidth(w) == 1.0
        with pytest.warns(DegenerateDesignWarning):
            assert effective_df(w, 0.5) == 1.0

    def test_linearity_in_response(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(size=50)
        g1, g2 = rng.normal(size=50), rng.normal(size=50)
        a, b = 1.7, -0.3
        lhs = local_linear(w, a * g1 + b * g2, 0.2)
        rhs = a * local_linear(w, g1, 0.2) + b * local_linear(w, g2, 0.2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    @pytest.mark.parametrize("bandwidth,ranks", [
        (smoothing.rule_of_thumb_bandwidth, (25, 50)),
        (lambda w: bandwidth_for_df(w, 15.0), (64, 160)),
        (lambda w: bandwidth_for_df(w, 40.0), (150, 300)),
        (lambda w: 1e-4, (300, 301)),  # the hat is near I
    ], ids=["default", "df15", "df40", "near_identity"])
    def test_factors_reproduce_hat_at_small_bandwidth(self, bandwidth, ranks):
        # at df=15 a factor good only to 1e-6 would have rank about 60, and
        # a first sketch block of 48 or 64 columns would stop there
        w = np.sort(np.random.default_rng(9).uniform(0.0, 1.0, 300))
        bw = bandwidth(w)
        proj = AdditiveProjector(w[:, None], [SmootherSpec("local_linear", 0, bandwidth=bw)])
        sm = proj.smoothers[0]
        hat = _kernels.ll_weights(w, bw, w)
        s = np.linalg.svd(hat, compute_uv=False)
        assert sm.u.shape[1] == np.count_nonzero(s > s[0] * w.size * np.finfo(float).eps)
        assert ranks[0] <= sm.u.shape[1] < ranks[1]
        assert np.max(np.abs(sm.u @ sm.vt - hat)) <= 1e-12
        # a basis that is not orthonormal lets the probe check pass early
        q = smoothing._range_basis(hat)
        assert np.linalg.norm(q.T @ q - np.eye(q.shape[1]), 2) <= 1e-13

    @pytest.mark.parametrize("bandwidth", [lambda w: bandwidth_for_df(w, 40.0),
                                           lambda w: 1e-4], ids=["df40", "near_identity"])
    def test_cached_sketch_gives_the_factors_of_a_fresh_generator(self, monkeypatch,
                                                                  bandwidth):
        # both designs take blocks after the first, which must continue the
        # stream the cached first block was drawn from
        w = np.sort(np.random.default_rng(9).uniform(0.0, 1.0, 300))
        spec = SmootherSpec("local_linear", 0, bandwidth=bandwidth(w))
        smoothing._first_sketch.cache_clear()
        built = [AdditiveProjector(w[:, None], [spec]).smoothers[0] for _ in range(2)]
        assert smoothing._first_sketch.cache_info().hits >= 1
        assert not smoothing._first_sketch(w.size)[0].flags.writeable
        monkeypatch.setattr(smoothing, "_range_basis", range_basis_one_stream)
        want = AdditiveProjector(w[:, None], [spec]).smoothers[0]
        assert want.u.shape[1] > smoothing._SKETCH_FIRST
        for sm in built:
            assert sm.u.tobytes() == want.u.tobytes()
            assert sm.vt.tobytes() == want.vt.tobytes()

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInput):
            AdditiveProjector(np.array([[1.0]]), [SmootherSpec("local_linear", 0,
                                                               bandwidth=0.5)])
        for bad in (-1.0, np.nan):
            with pytest.raises(InvalidInput):
                SmootherSpec("local_linear", 0, bandwidth=bad)
            with pytest.raises(InvalidInput):
                SmootherSpec("local_linear", 0, target_df=bad)
            with pytest.raises(InvalidInput):
                effective_df(np.linspace(0.0, 1.0, 10), bad)


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

    def test_bisection_cap_returns_the_last_bracket(self, monkeypatch):
        # with no tolerance only an exact df is accepted, and no midpoint
        # hits 7.5 exactly on this design: after DF_MAX_ITER bisections the
        # bracket's midpoint is returned, its df still on target
        monkeypatch.setattr(smoothing, "DF_TOL", 0.0)
        w = np.linspace(0.0, 1.0, 100)
        miss = abs(effective_df(w, bandwidth_for_df(w, 7.5)) - 7.5)
        assert 0.0 < miss <= 0.05

    @pytest.mark.parametrize("design, target_df, want", [
        ("sites_time", 10.0, "0x1.7e28f2fb451bcp-5"),
        ("uniform_400", 5.0, "0x1.c1749e0ec89dcp-4"),
        ("uniform_400", 10.0, "0x1.79f20f8b50d0ep-5"),
        ("uniform_400", 30.0, "0x1.cb4c1dea53ee9p-7"),
    ])
    def test_bisection_takes_each_trace_once(self, monkeypatch, design, target_df, want):
        # both bracket searches start at the rule-of-thumb bandwidth, and a
        # first midpoint can land on a bracket point; each trace is an n x n
        # hat, so none is taken twice, and the bandwidth found is unchanged
        w = (simulate_gpd_sites(200, 5).W[:, 1] if design == "sites_time"
             else np.random.default_rng(0).uniform(0.0, 1.0, 400))
        seen = []

        def spy(w, bandwidth):
            seen.append(float(bandwidth))
            return effective_df(w, bandwidth)

        monkeypatch.setattr(smoothing, "effective_df", spy)
        assert float(bandwidth_for_df(w, target_df)).hex() == want
        assert len(seen) == len(set(seen)) >= 6

    def test_trace_peaks_at_row_blocks(self):
        # the diagonal comes from ll_block(n) rows at a time, and no n x n
        # hat is formed: three (block, n) scratch arrays and O(n) more
        import tracemalloc

        n = 1000
        w = np.random.default_rng(7).uniform(size=n)
        block = 8 * _kernels.ll_block(n) * n
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            effective_df(w, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * block

    def test_monotone_nonincreasing_in_bandwidth(self):
        w = np.linspace(0.0, 1.0, 60)
        grid = np.geomspace(1e-3, 10.0, 25)
        dfs = [effective_df(w, b) for b in grid]
        assert np.all(np.diff(dfs) <= 1e-9)


def cell_factor_fit(codes, g):
    proj = AdditiveProjector(np.asarray(codes, dtype=float)[:, None],
                             [SmootherSpec("cell_factor", 0)])
    return proj.project(g).fitted


class TestCellFactor:
    def test_single_level(self):
        g = np.array([1.0, 5.0, 3.0])
        assert np.allclose(cell_factor_fit([0, 0, 0], g), 3.0)

    def test_two_groups(self):
        fit = cell_factor_fit([0, 0, 1], np.array([1.0, 3.0, 5.0]))
        assert np.allclose(fit, [2.0, 2.0, 5.0])

    def test_matches_groupby_oracle(self):
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 7, size=200)
        g = rng.normal(size=200)
        assert np.max(np.abs(cell_factor_fit(codes, g) - group_means(codes, g))) <= 1e-12

    @pytest.mark.parametrize("codes", [[-1.0, 0.0, 1.0, 1.0], [0.0, 0.5, 1.0, 1.0],
                                       [0.0, 1.0, 1.0, 1e300]],
                             ids=["negative", "fractional", "huge"])
    def test_build_rejects_codes_that_are_not_levels(self, codes):
        with pytest.raises(InvalidInput):
            AdditiveProjector(np.array(codes)[:, None], [SmootherSpec("cell_factor", 0)])

    @pytest.mark.parametrize("code", [1.9, -0.5, 3.0, 1e300],
                             ids=["fractional", "negative fraction", "unseen", "huge"])
    def test_predict_rejects_codes_that_are_not_levels(self, code):
        proj = AdditiveProjector(np.array([[0.0], [1.0], [1.0], [2.0]]),
                                 [SmootherSpec("cell_factor", 0)])
        fit = proj.project(np.array([1.0, 2.0, 4.0, 3.0]))
        assert np.array_equal(proj.predict(fit, np.array([[2.0], [0.0]])),
                              fit.fitted[[3, 0]])
        # a 1-D W and W_new are the (n, 1) forms
        flat = AdditiveProjector(np.array([0.0, 1.0, 1.0, 2.0]), [SmootherSpec("cell_factor", 0)])
        flat_fit = flat.project(np.array([1.0, 2.0, 4.0, 3.0]))
        assert np.array_equal(flat_fit.fitted, fit.fitted)
        assert np.array_equal(flat.predict(flat_fit, np.array([2.0, 0.0])), fit.fitted[[3, 0]])
        with pytest.raises(InvalidInput):
            proj.predict(fit, np.array([[1.0], [code]]))


class TestAdditiveProject:
    def test_single_covariate_equals_centered_smooth(self):
        rng = np.random.default_rng(1)
        w = np.sort(rng.uniform(size=60))
        g = rng.normal(size=60)
        fit = AdditiveProjector(w[:, None], [SmootherSpec("local_linear", 0,
                                                          bandwidth=0.15)]).project(g)
        single = local_linear(w, g - g.mean(), 0.15)
        expect = g.mean() + (single - single.mean())
        assert np.max(np.abs(fit.fitted - expect)) <= 1e-10

    def test_linear_truth_recovered_against_ols_oracle(self):
        rng = np.random.default_rng(2)
        W = rng.uniform(size=(120, 2))
        g = 2.0 + W[:, 0]
        fit = AdditiveProjector(W, [SmootherSpec("linear", 0),
                                    SmootherSpec("linear", 1)]).project(g)
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
        fit = AdditiveProjector(codes[:, None], [SmootherSpec("cell_factor", 0)]).project(g)
        assert np.max(np.abs(fit.fitted - group_means(codes, g))) <= 1e-9

    def test_components_mean_zero(self):
        rng = np.random.default_rng(5)
        W = np.column_stack([rng.uniform(size=100),
                             rng.integers(0, 4, 100).astype(float)])
        specs = [SmootherSpec("local_linear", 0), SmootherSpec("cell_factor", 1)]
        fit = AdditiveProjector(W, specs).project(rng.normal(size=100))
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
        fit = AdditiveProjector(None, [], g.size).project(g)
        assert fit.intercept == pytest.approx(3.0)
        assert np.allclose(fit.fitted, 3.0)

    def test_zero_column_design_sets_n(self):
        # a W with no columns still counts the observations
        g = np.array([1.0, 2.0, 6.0, 0.0, 1.0])
        proj = AdditiveProjector(np.zeros((5, 0)), [])
        assert proj.n == 5
        assert np.allclose(proj.apply(g), 2.0)
        assert proj.coordinate_map().dim == 1

    def test_zeroed_map_sets_nonconvergence_flag(self):
        # with A's component rows zeroed, two sweeps from zero on a
        # near-collinear design stay far from the fixed point, and the flag
        # says so
        rng = np.random.default_rng(8)
        w = rng.uniform(size=(60, 2))
        W = np.column_stack([w[:, 0], w[:, 0] + 0.01 * w[:, 1]])  # near-collinear
        proj = AdditiveProjector(W, [SmootherSpec("local_linear", 0),
                                     SmootherSpec("local_linear", 1)])
        proj._factors[1][1:] = 0.0  # A's component rows
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
        ("one local_linear", w1[:, None], [ll], True),
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
        # with A's component rows zeroed, project sweeps from zero on k
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
        proj._factors[1][1:] = 0.0  # A's component rows
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
        # the coefficient map lands on the loop's fixed point, so one sweep
        # confirms what the loop's second sweep does
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateDesignWarning)
            proj = AdditiveProjector(w[:, None], [spec])
        rng = np.random.default_rng(17)
        for g in (rng.normal(size=w.size), _pinball_like(rng, w.size),
                  np.full(w.size, 0.25), np.zeros(w.size)):
            fit = proj.project(g)
            assert _bits(fit)[:-1] == _bits(backfit_loop(proj, g))[:-1]
            assert fit.cycles == 1

    def test_intercept_only_equals_plain_loop(self):
        g = np.random.default_rng(18).normal(size=25)
        proj = AdditiveProjector(None, [], g.size)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["local_linear", "linear", "cell_factor"])
    def test_predict_rejects_non_finite_covariates(self, bad, kind):
        # the check the build makes
        w = np.repeat([0.0, 1.0, 2.0], 10)
        proj = AdditiveProjector(w[:, None], [SmootherSpec(kind, 0)])
        fit = proj.project(np.random.default_rng(24).normal(size=w.size))
        with pytest.raises(InvalidInput):
            proj.predict(fit, np.array([[1.0], [bad]]))


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
            fitted = proj.project(g).fitted
            assert np.max(np.abs(B @ (M @ g) - fitted)) <= 1e-10
            assert np.max(np.abs(proj.apply(g) - fitted)) <= 1e-10

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
        # construction raises: no projector without its factors exists
        with pytest.raises(InvalidInput, match="need at least one observation"):
            AdditiveProjector(None, [])

    @pytest.mark.parametrize("mode", ["average", "qp"])
    def test_fits_step_through_it_without_projecting(self, monkeypatch, projection_calls,
                                                     mode):
        # every quantile step is a unit vector in range(P) = range(B); only
        # the final decomposition calls project
        from gsda import GsParams, fit_quantile_additive, quantile

        steps = []
        descend = quantile.descend

        def spy_descend(objective, x, at, *args, **kwargs):
            def spy_at(q, fq):
                estimate = at(q, fq)

                def record(eps):
                    out = estimate(eps)
                    steps.append(out[0])
                    return out
                return record
            return descend(objective, x, spy_at, *args, **kwargs)

        monkeypatch.setattr(quantile, "descend", spy_descend)
        y, W, specs = _correlated_pair()
        gs = GsParams(subgradient_mode=mode, max_iter=15, seed=0)
        model = fit_quantile_additive(y, W, 0.5, specs, gs)
        assert len(projection_calls) == 1
        B = model.projector.coordinate_map().basis
        steps = [v for v in steps if v is not None]
        assert len(steps) >= 5
        for v in steps:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert np.max(np.abs(v - B @ (B.T @ v))) <= 1e-12

    @pytest.mark.parametrize("fit", ["average", "qp", "pot"])
    def test_built_once_and_only_for_the_fits_that_step_in_it(self, monkeypatch, fit):
        # average mode steps along P g = U (A g) from the factors built with
        # the projector; qp mode and the POT fitter take the orthonormal map,
        # which a projector with covariates builds on the first call
        from gsda import GsParams, fit_pot_additive, fit_quantile_additive
        from gsda.datasets import gpd_inverse_cdf
        from gsda.pot import FunctionalSpec

        built = []
        build = AdditiveProjector._build_coordinate_map

        def spy(self):
            built.append(self)
            return build(self)

        monkeypatch.setattr(AdditiveProjector, "_build_coordinate_map", spy)
        y, W, specs = _correlated_pair()
        gs = GsParams(subgradient_mode="qp" if fit == "pot" else fit, max_iter=15, seed=0)
        if fit == "pot":
            y = gpd_inverse_cdf(np.random.default_rng(7).random(y.size), 2.0, 0.2)
            model = fit_pot_additive(y, W, FunctionalSpec("var_es", (0.01,), 0.1), specs, gs)
        else:
            model = fit_quantile_additive(y, W, 0.5, specs, gs)
        assert built == ([] if fit == "average" else [model.projector])
        assert model.projector.coordinate_map() is model.projector.coordinate_map()
        assert len(built) == 1
        # an intercept-only U is one column: its map is built with it
        built.clear()
        projector = AdditiveProjector(None, [], y.size)
        assert built == [projector] and projector.coordinate_map().dim == 1
        assert built == [projector]


def _correlated_pair():
    """(y, W, specs): two correlated local_linear covariates, n = 60."""
    rng = np.random.default_rng(23)
    w1 = rng.uniform(size=60)
    W = np.column_stack([w1, w1 + 0.3 * rng.normal(size=60)])
    y = rng.normal(size=60)
    return y, W, [SmootherSpec("local_linear", 0), SmootherSpec("local_linear", 1)]
