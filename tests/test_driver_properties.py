"""Property tests of the descent driver over seeds, starts and objectives.

Whatever the draw, the driver must only accept steps that lower f by
the Armijo margin, never grow eps or tau, move f only on steps, and
report convergence only with a finite point and value.  It is checked
through all three of its adapters: ``gsda_minimize`` and small
quantile and POT fits in both subgradient modes.  With m > 8 draws the
minimizer and the POT fitter step from their first 8 and shrink only
at a norm at most tau or after a complete estimate's failed search.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsda import (
    FunctionalSpec,
    GsParams,
    Objective,
    SmootherSpec,
    fit_pot_additive,
    fit_quantile_additive,
    gsda_minimize,
    l1_norm,
    negative_loglik_objective,
    nonsmooth_rosenbrock,
    pinball_loss,
)
from gsda.datasets import gpd_inverse_cdf
from gsda.errors import SampleSizeWarning
from gsda.pot import initial_lambda


def walled_l1(dim):
    """||x - c||_1 on the half-space x_0 >= 0 and +inf off it.

    The minimizer c = (0, 0.5, ...) sits on the wall, so ball draws near
    the end of a run land outside the domain and are redrawn.
    """
    c = np.zeros(dim)
    c[1:] = 0.5

    def f(x):
        return float(np.sum(np.abs(x - c))) if x[0] >= 0.0 else np.inf

    return Objective(f, lambda x: np.sign(x - c), dim)


SLAB = (0.05, 0.1)


def off_the_slab(x0):
    """x0 with a first coordinate inside the slab moved 0.05 past it."""
    x0 = np.array(x0, dtype=float)
    if SLAB[0] < x0[0] < SLAB[1]:
        x0[0] += SLAB[1] - SLAB[0]
    return x0


def slab_walled_l1(dim, stacked=False):
    """walled_l1 with a slab 0.05 < x_0 < 0.1 of value 1e3 and NaN gradient.

    The value there tops every start's, so no step enters the slab,
    while ball draws landing in it are redrawn by the finite-gradient
    filter.  Written over ``x[..., i]``, so it serves as the scalar twin
    and, with ``stacked``, as the stacked one.
    """
    c = np.zeros(dim)
    c[1:] = 0.5

    def in_slab(x):
        return (SLAB[0] < x[..., 0]) & (x[..., 0] < SLAB[1])

    def f(x):
        value = np.where(x[..., 0] >= 0.0, np.abs(x - c).sum(axis=-1), np.inf)
        return np.where(in_slab(x), 1e3, value)[()]

    def g(x):
        return np.where(in_slab(x)[..., None], np.nan, np.sign(x - c))

    return Objective(f, g, dim, stacked=stacked)


OBJECTIVES = {
    "nsrosenbrock": lambda dim: nonsmooth_rosenbrock(),
    "l1": l1_norm,
    "walled_l1": walled_l1,
    "slab_walled_l1": slab_walled_l1,
    "slab_walled_l1_stacked": lambda dim: slab_walled_l1(dim, stacked=True),
}


def check_trace(trace, f, gs):
    """Check a run's records against its start value f; returns the last f."""
    eps, tau = gs.eps0, gs.tau0
    for rec in trace.records:
        assert rec.eps <= eps and rec.tau <= tau, "eps or tau grew"
        eps, tau = rec.eps, rec.tau
        if rec.event == "step":
            assert np.isfinite(rec.f)
            assert rec.f < f - gs.beta * rec.t * rec.gnorm, "step without Armijo decrease"
            f = rec.f
        else:
            assert rec.f == f, "f moved without a step"
    if trace.converged:
        assert np.isfinite(f)
        assert eps <= gs.eps_min and tau <= gs.tau_min
    return f


def check_shrinks(trace, gs, m):
    """A shrink at a norm above tau follows a failed search on all m draws.

    Only the minimizer and the POT fitter are held to it: the quantile
    fitter's average mode may shrink on a vanishing projected step.
    """
    tau, failed = gs.tau0, 0
    for rec in trace.records:
        if rec.event == "shrink" and rec.backtracks:
            assert rec.backtracks == gs.max_backtracks + 1
            failed += 1
        elif rec.event == "shrink":
            assert rec.gnorm <= tau, "a shrink above tau without a failed search"
        tau = rec.tau
    if m > 8:  # each failed search on a first block of 8 draws topped up first
        assert trace.topups >= failed
    else:
        assert trace.topups == 0


def check_run(obj, x0, gs):
    x, trace = gsda_minimize(obj, x0, gs)
    check_shrinks(trace, gs, trace.m)
    f = check_trace(trace, obj.eval(np.asarray(x0, dtype=float)), gs)
    assert obj.eval(x) == f, "reported f is not f at the returned x"
    if trace.converged:
        assert np.all(np.isfinite(x))
    return trace


starts = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)
modes = st.sampled_from(["qp", "average"])
# a small beta lets the fits step: their Armijo margin uses the norm of
# the unprojected gradient estimate
betas = st.sampled_from([0.1, 1e-2, 1e-4])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(OBJECTIVES)), dim=st.integers(2, 4),
       x0=st.lists(starts, min_size=4, max_size=4), seed=seeds)
def test_descent_invariants(name, dim, x0, seed):
    # the minimizer runs qp mode alone
    obj = OBJECTIVES[name](dim)
    x0 = np.array(x0[:obj.dim])
    if "walled_l1" in name:
        x0[0] = abs(x0[0])  # a feasible start
        x0 = off_the_slab(x0)
    check_run(obj, x0, GsParams(seed=seed, max_iter=300))


def record_bits(trace):
    """A trace's records with every float as its bytes, so NaN matches NaN."""
    return [(r.iteration, r.method, r.backtracks, r.event,
             np.array([r.f, r.gnorm, r.eps, r.tau, r.t]).tobytes()) for r in trace.records]


def run_twins(dim, x0, seed):
    """(scalar trace, stacked trace, NaN gradient rows the stacked grad returned)."""
    gs = GsParams(seed=seed, max_iter=300)
    stacked = slab_walled_l1(dim, stacked=True)
    nan_rows = [0]

    def grad(x):
        g = stacked.grad(x)
        nan_rows[0] += int(np.isnan(g).any(axis=-1).sum())
        return g

    x0 = off_the_slab(x0)
    _, scalar_trace = gsda_minimize(slab_walled_l1(dim), x0, gs)
    _, stacked_trace = gsda_minimize(Objective(stacked.eval, grad, dim, stacked=True), x0, gs)
    return scalar_trace, stacked_trace, nan_rows[0]


@settings(max_examples=10, deadline=None)
@given(dim=st.integers(1, 3), x0=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       seed=seeds)
def test_stacked_twin_rejects_the_draws_of_the_scalar_twin(dim, x0, seed):
    # each twin rejects the same draws, off the wall and in the slab,
    # so the two runs take the same steps
    scalar_trace, stacked_trace, _ = run_twins(dim, x0[:dim], seed)
    assert record_bits(stacked_trace) == record_bits(scalar_trace)
    assert stacked_trace.rejected_draws == scalar_trace.rejected_draws


@pytest.mark.parametrize("seed", range(3))
def test_slab_draws_are_rejected_by_the_gradient_filter(seed):
    # near the wall, draws land in the slab: its NaN rows are filtered out
    # of the stacked block and counted as rejected, as the scalar twin does
    scalar_trace, stacked_trace, nan_rows = run_twins(2, [0.3, 0.5], seed)
    assert nan_rows > 0
    assert record_bits(stacked_trace) == record_bits(scalar_trace)
    assert stacked_trace.rejected_draws == scalar_trace.rejected_draws >= nan_rows


@settings(max_examples=10, deadline=None)
@given(x0=st.floats(0.0, 1.0), seed=seeds)
def test_wall_hugging_runs_converge_feasibly(x0, seed):
    # in one dimension the minimizer is the wall itself: draws are
    # rejected at every radius, yet a converged run ends on the domain
    obj = walled_l1(1)
    trace = check_run(obj, np.array([x0]), GsParams(seed=seed, m=4, max_iter=400))
    assert trace.converged


def fit_inputs(seed, n, covariate):
    """(y, W, specs): a heteroscedastic sample with or without one smoother."""
    rng = np.random.default_rng(seed)
    w = np.sort(rng.uniform(0.0, 1.0, n))
    y = np.sin(3.0 * w) + (0.5 + w) * rng.standard_normal(n)
    if covariate:
        return y, w[:, None], [SmootherSpec("local_linear", 0, target_df=4)]
    return y, None, []


@settings(max_examples=8, deadline=None)
@given(seed=seeds, n=st.integers(20, 60), alpha=st.floats(0.1, 0.9),
       covariate=st.booleans(), mode=modes, beta=betas)
def test_quantile_fit_invariants(seed, n, alpha, covariate, mode, beta):
    y, W, specs = fit_inputs(seed % 1000, n, covariate)
    gs = GsParams(seed=seed, beta=beta, max_iter=150, subgradient_mode=mode)
    model = fit_quantile_additive(y, W, alpha, specs, gs)
    q0 = np.full(n, float(np.quantile(y, alpha)))
    check_trace(model.trace, pinball_loss(q0, y, alpha), gs)
    if model.trace.converged:
        assert np.all(np.isfinite(model.q))


@settings(max_examples=8, deadline=None)
@given(seed=seeds, n=st.integers(20, 60), covariate=st.booleans(), beta=betas)
def test_pot_fit_invariants(seed, n, covariate, beta):
    # the POT fitter runs qp mode alone
    spec = FunctionalSpec("var_es", (0.01,), 0.1)
    y = gpd_inverse_cdf(np.random.default_rng(seed % 1000).random(n), 2.0, 0.2)
    _, W, specs = fit_inputs(seed % 1000, n, covariate)
    gs = GsParams(seed=seed, beta=beta, max_iter=150)
    model = fit_pot_additive(y, W, spec, specs, gs)
    objective = negative_loglik_objective(y, spec)
    f = check_trace(model.trace, objective.eval(initial_lambda(y, spec).as_vector()), gs)
    assert objective.eval(model.state.lam.as_vector()) == f, \
        "reported f is not f at the returned (eta, kappa)"
    if model.trace.converged:
        assert all(np.all(np.isfinite(th)) for th in model.state.theta_pair)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(OBJECTIVES)), dim=st.integers(2, 4),
       x0=st.lists(starts, min_size=4, max_size=4), seed=seeds, m=st.integers(9, 24))
def test_descent_invariants_with_draws_on_demand(name, dim, x0, seed, m):
    # m > 8: steps from the first 8 draws, the rest only before a shrink
    obj = OBJECTIVES[name](dim)
    x0 = np.array(x0[:obj.dim])
    if "walled_l1" in name:
        x0[0] = abs(x0[0])
        x0 = off_the_slab(x0)
    check_run(obj, x0, GsParams(seed=seed, m=m, max_iter=300))


@settings(max_examples=8, deadline=None)
@given(seed=seeds, n=st.integers(20, 60), covariate=st.booleans(), beta=betas,
       m=st.integers(9, 40))
def test_pot_fit_invariants_with_draws_on_demand(seed, n, covariate, beta, m):
    spec = FunctionalSpec("var_es", (0.01,), 0.1)
    y = gpd_inverse_cdf(np.random.default_rng(seed % 1000).random(n), 2.0, 0.2)
    _, W, specs = fit_inputs(seed % 1000, n, covariate)
    gs = GsParams(seed=seed, beta=beta, max_iter=150, m=m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)  # m below 2r+1
        model = fit_pot_additive(y, W, spec, specs, gs)
    check_shrinks(model.trace, gs, m)
    check_trace(model.trace, negative_loglik_objective(y, spec).eval(
        initial_lambda(y, spec).as_vector()), gs)


def run_digest(x, trace):
    """16 hex digits of a run's final point and trace records, bit for bit."""
    h = hashlib.sha256(np.asarray(x, dtype=float).tobytes())
    h.update(repr(record_bits(trace)).encode())
    return h.hexdigest()[:16]


# digests of runs drawn whole (m <= 8, and both pinball modes), taken
# before estimates drew on demand: these runs must not move.  The planar
# hull re-pinned nsrosenbrock and intercept-only qp, whose min-norm points
# round differently: the same events, the same final qp fit, and a
# Rosenbrock end point 2e-6 nearer (1, 1).  Average mode's step from the
# factors P = U A, not the orthonormal B, re-pinned the covariate average
# fit: the same 88 events, q within 1.1e-15 relative
@pytest.mark.parametrize("make, x0, m, seed, want", [
    (nonsmooth_rosenbrock, [-1.0, 1.0], None, 0, "82f6e879e784ef97"),
    (lambda: l1_norm(3), [1.0, -2.0, 0.5], 8, 1, "59250649eb064ff6"),
    (lambda: walled_l1(2), [0.3, 0.5], None, 2, "b047498e3b79b640"),
], ids=["nsrosenbrock", "l1-m8", "walled_l1"])
def test_complete_minimizer_runs_are_unchanged(make, x0, m, seed, want):
    x, trace = gsda_minimize(make(), x0, GsParams(m=m, seed=seed, max_iter=300))
    assert trace.topups == 0 and run_digest(x, trace) == want


# average mode's default m is 1 + sum r_j + 1, no longer n+1: its rows
# given m=51 (n+1) are the old default fits, bitwise, and its m=None rows
# pin the new default
QUANTILE_RUNS = [
    ("average", False, 51, "77b5ce01fca947e8"), ("qp", False, None, "bc2c4c4a5a23e029"),
    ("average", True, 51, "75109f0be8c985cf"), ("qp", True, None, "cdf1367cad71e85e"),
    ("average", False, None, "b5c654ffa7f36d96"), ("average", True, None, "6ffd3650da09a7a7"),
]


@pytest.mark.parametrize("mode, covariate, m, want", QUANTILE_RUNS,
                         ids=[f"{mode}-{cov}-{want}" for mode, cov, _, want in QUANTILE_RUNS])
def test_quantile_fits_are_unchanged(mode, covariate, m, want):
    rng = np.random.default_rng(7)
    y = np.sin(3.0 * np.linspace(0, 1, 50)) + rng.standard_normal(50)
    W, specs = None, []
    if covariate:
        W, specs = np.sort(rng.uniform(0, 1, 50))[:, None], [
            SmootherSpec("local_linear", 0, target_df=4)]
    model = fit_quantile_additive(y, W, 0.7, specs, GsParams(
        seed=3, beta=1e-2, max_iter=150, subgradient_mode=mode, m=m))
    assert model.trace.topups == 0 and run_digest(model.q, model.trace) == want
