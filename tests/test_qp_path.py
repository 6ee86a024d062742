"""The POT row path and the min-norm dedupe.

Both are faster forms of a simpler loop kept in ``_oracles``.  The
dedupe must give bitwise-equal results, so a fit's trace does not move;
the batched POT coordinate rows must consume the same draws and agree
to rounding.
"""

import numpy as np
import pytest

from gsda import (
    AdditiveProjector,
    FitTrace,
    GradientSet,
    GsParams,
    SmootherSpec,
    average_fallback,
    fit_pot_additive,
    min_norm_point,
)
from gsda import _kernels
from gsda.datasets import gpd_inverse_cdf
from gsda.engine import sample_unit_ball
from gsda.errors import NumericalFailure, SamplingExhausted
from gsda.minnorm import _distinct_rows
from gsda.pot import (
    FunctionalSpec,
    Lambda,
    PotState,
    _blocks_apply,
    _theta_grad_rows,
    initial_lambda,
)

from _oracles import draw_frame, min_norm_point_unique, theta_grad_rows_loop

VAR_ES = FunctionalSpec("var_es", (0.01,), 0.1)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (SamplingExhausted, NumericalFailure) as exc:
        return type(exc), str(exc)


class TestRowKernel:
    def test_rejects_overflowing_draw(self):
        # the first draw overflows exp(-eta): a = inf passes a bare a > 0
        # test and would give a nan row; the kernel must reject it
        eta, kappa, y = np.array([-705.0]), np.array([0.2]), np.array([1.0])
        u = np.array([[-0.9, 0.0], [0.0, 0.05], [0.3, -0.01]])
        rows, feasible = _kernels.gpd_grad_rows(eta, kappa, y, 10.0, u)
        assert feasible.tolist() == [False, True, True]
        assert rows.shape == (2, 2) and np.all(np.isfinite(rows))

    def test_rows_are_per_draw_gradients(self):
        rng = np.random.default_rng(5)
        n, m = 12, 40
        eta = rng.normal(size=n) * 0.2
        kappa = rng.uniform(-0.22, 0.5, n)
        kappa[:3] = [0.0, 3e-9, -4e-9]  # series branch
        y = rng.uniform(0.05, 3.0, n) * np.exp(eta)
        u = rng.uniform(-1.0, 1.0, size=(m, 2 * n))
        scratch = _kernels.RowScratch(m, n)  # reused: no stale entries leak
        for eps in (0.4, 1e-10):  # infeasible draws; series entries kept
            for work in (None, scratch):
                rows, feasible = _kernels.gpd_grad_rows(eta, kappa, y, eps, u, work)
                expect = [_kernels.gpd_grad(eta + eps * r[:n], kappa + eps * r[n:], y)
                          for r in u[feasible]]
                assert np.array_equal(bits(rows), bits(expect))
                assert 0 < feasible.sum() < m if eps > 0.1 else feasible.all()

    def test_estimate_allocates_no_block_arrays(self):
        # a fit hands every estimate one RowScratch, so the kernel's (k, n)
        # temporaries are never allocated and freed block by block (the
        # intercept-only frame keeps the per-estimate (2n, 2r) lifts small)
        import tracemalloc

        state, y, _ = pot_state(3, 2000, boundary=False)
        coords = AdditiveProjector(None, [], state.n).coordinate_map()
        scratch = _kernels.RowScratch(32, state.n)
        block = scratch.tmp[0].nbytes
        tracemalloc.start()
        try:
            _theta_grad_rows(state, y, 1e-3, 64, np.random.default_rng(0), coords,
                             None, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block


def pot_state(seed, n, boundary):
    """A var_es state, its excesses and a coordinate map.

    With ``boundary`` some kappa sit on the support edge.  From n = 6 on
    the map is that of a 6-level cell_factor covariate (r = 6), so a draw
    must keep the tight observations of every cell inside the support:
    about 1 in 40 does, and small m reach the 10*m cap.
    """
    rng = np.random.default_rng(seed)
    if boundary:
        y = np.full(n, 4.0)
        tight = np.arange(n) < rng.integers(0, n + 1)
        lam = Lambda(np.zeros(n), np.where(tight, -0.25 + 1e-7, -0.15))
    else:
        y = gpd_inverse_cdf(rng.random(n), 2.0, 0.2)
        lam = Lambda(np.log(2.0) + 0.1 * rng.normal(size=n),
                     0.2 + 0.05 * rng.normal(size=n))
    if n < 6:
        projector = AdditiveProjector(None, [], n)
    else:
        projector = AdditiveProjector((np.arange(n) % 6.0)[:, None],
                                      [SmootherSpec("cell_factor", 0)])
    return PotState.from_lambda(lam, VAR_ES), y, projector.coordinate_map()


@pytest.mark.parametrize("boundary", [False, True])
def test_theta_grad_rows_match_per_row_loop(boundary):
    exhausted = redrawn = 0
    for seed in range(12):
        n = 1 + 7 * seed % 40
        state, y, coords = pot_state(seed, n, boundary)
        for eps in (1e-3, 0.1, 0.3):
            for m in (1, 31, 33, 90):
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                got = outcome(_theta_grad_rows, state, y, eps, m, rng_a, coords)
                want = outcome(theta_grad_rows_loop, state, y, eps, m, rng_b, coords)
                # same draws consumed, so the fit's next iteration agrees too
                assert rng_a.bit_generator.state == rng_b.bit_generator.state
                if isinstance(want, tuple):
                    assert got == want  # SamplingExhausted at the same call
                    exhausted += 1
                    continue
                assert got.shape == (m + 1, 2 * coords.dim)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
                one_batch = np.random.default_rng(seed)
                sample_unit_ball(2 * coords.dim, m, one_batch)
                redrawn += one_batch.bit_generator.state != rng_a.bit_generator.state
    if boundary:  # infeasible draws both redrawn and reaching the 10*m cap
        assert redrawn > 0 and exhausted > 0


def test_average_mode_is_the_mean_of_the_rows():
    # both modes reduce one row set: average mode's estimate is the rows'
    # mean, bit for bit, and each mode steps along -J^-1 blockdiag(B, B) c
    # for its c, so one iteration of a fit lands on that point exactly
    n = 50
    W = np.linspace(0.0, 1.0, n)[:, None]
    specs = [SmootherSpec("local_linear", 0)]
    coords = AdditiveProjector(W, specs).coordinate_map()
    for seed, mode in enumerate(["average", "qp"] * 3):
        y = gpd_inverse_cdf(np.random.default_rng(seed).random(n), 2.0, 0.2)
        gs = GsParams(subgradient_mode=mode, max_iter=1, seed=seed)
        model = fit_pot_additive(y, W, VAR_ES, specs, gs)
        state = PotState.from_lambda(initial_lambda(y, VAR_ES), VAR_ES)
        rows = GradientSet(-_theta_grad_rows(state, y, gs.eps0, 2 * coords.dim + 1,
                                             np.random.default_rng(seed), coords))
        reduce = average_fallback if mode == "average" else min_norm_point
        c = reduce(rows).point
        record = model.trace.records[0]
        assert (record.method, record.event) == (mode, "step")
        assert record.gnorm == np.linalg.norm(c)
        v = _blocks_apply(state.jac_inverses,
                          np.concatenate([coords.basis @ h
                                          for h in np.split(-c / record.gnorm, 2)]))
        x = state.lam.as_vector() + record.t * v
        assert np.array_equal(bits(model.state.lam.as_vector()), bits(x))


def infeasible_draws_one_at_a_time(state, y, eps, m, rng, coords):
    """Rejected draws of one estimate, by the log-likelihood's finiteness.

    Replays the sampler's draws eps*Q*u one at a time and stops at the
    draw that takes the rejections past 10*m.
    """
    lam, n = state.lam, state.n
    frame = draw_frame(state.jac_inverses, coords)
    got, rejected = 0, 0
    while got < m:
        for u in sample_unit_ball(2 * coords.dim, m - got, rng):
            p = frame @ u
            ll = _kernels.gpd_loglik(lam.eta + eps * p[:n], lam.kappa + eps * p[n:], y)
            if np.isfinite(ll):
                got += 1
            else:
                rejected += 1
                if rejected > 10 * m:
                    return rejected
    return rejected


def test_rejected_draws_match_a_loop_over_single_draws():
    trace, want, exhausted = FitTrace(), 0, 0
    for seed in range(12):
        state, y, coords = pot_state(seed, 1 + 7 * seed % 40, boundary=True)
        for eps in (1e-3, 0.1, 0.3):
            for m in (1, 31, 33, 90):
                want += infeasible_draws_one_at_a_time(
                    state, y, eps, m, np.random.default_rng(seed), coords)
                try:
                    _theta_grad_rows(state, y, eps, m, np.random.default_rng(seed),
                                     coords, trace)
                except SamplingExhausted as exc:
                    # the fit's descent loop adds these, as here
                    trace.rejected_draws += exc.rejected
                    exhausted += 1
    assert exhausted > 0
    assert trace.rejected_draws == want > 0


def min_norm_cases():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(6, 4))
    yield base[rng.integers(0, 6, 25)]  # heavy duplicates, shuffled
    yield np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0],
                    [-1.0, 0.5], [-0.0, -0.0], [0.0, 0.0]])
    yield np.array([[-0.0, 2.0, 1.0], [0.0, 2.0, 1.0]])  # one distinct row
    for alpha in (0.1, 0.5, 0.9):
        # pinball rows: two values per entry, ties on the leading columns
        for n, k in ((3, 9), (20, 30), (40, 80)):
            signs = rng.random((k, n)) < alpha
            signs[:, : n // 2] = signs[0, : n // 2]
            yield np.where(signs, -alpha, 1.0 - alpha)
    for _ in range(20):
        k, n = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        z = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=(k, n))
        yield z


@pytest.mark.parametrize("z", list(min_norm_cases()))
def test_min_norm_point_matches_unique_reference(z):
    assert np.array_equal(_distinct_rows(z), np.unique(z, axis=0, return_index=True)[1])
    want = outcome(min_norm_point_unique, z)
    got = outcome(min_norm_point, GradientSet(z))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    point, weights = want
    assert got.method == "qp"
    assert np.array_equal(bits(got.point), bits(point))
    assert np.array_equal(bits(got.weights), bits(weights))
