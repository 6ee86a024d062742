"""The POT row path and the min-norm dedupe.

Both are faster forms of a simpler loop kept in ``_oracles``.  The
dedupe must give bitwise-equal results, so a fit's trace does not move;
the batched POT coordinate rows must consume the same draws and agree
to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsda import (
    AdditiveProjector,
    FitTrace,
    GradientSet,
    GsParams,
    SmootherSpec,
    fit_pot_additive,
    min_norm_point,
)
from gsda import _kernels
from gsda.datasets import gpd_inverse_cdf
from gsda.engine import _ROW_BLOCK, FIRST_DRAWS, sample_unit_ball
from gsda.errors import NumericalFailure, SamplingExhausted
from gsda.minnorm import _distinct_rows
from gsda.pot import (
    FunctionalSpec,
    Lambda,
    PotState,
    _lift,
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
        u = np.array([[-0.9, 0.0], [0.0, 0.05], [0.3, -0.01]])
        grads, feasible = _kernels.gpd_grad_rows(-705.0 + 10.0 * u[:, :1], 0.2 + 10.0 * u[:, 1:],
                                                 np.array([1.0]), _kernels.RowScratch(3, 1))
        assert feasible.tolist() == [False, True, True]
        assert grads.shape == (2, 2, 1) and np.all(np.isfinite(grads))

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
            etas, kappas = eta + eps * u[:, :n], kappa + eps * u[:, n:]
            for work in (_kernels.RowScratch(m, n), scratch):  # fresh, then reused
                grads, feasible = _kernels.gpd_grad_rows(etas, kappas, y, work)
                expect = [_kernels.gpd_grad(e, k, y)
                          for e, k in zip(etas[feasible], kappas[feasible])]
                assert np.array_equal(bits(np.hstack(grads)), bits(expect))
                assert 0 < feasible.sum() < m if eps > 0.1 else feasible.all()

    def test_estimate_allocates_no_block_arrays(self):
        # a fit hands every estimate one RowScratch, so the kernel's (k, n)
        # temporaries are never allocated and freed block by block (the
        # state holds the frame, and the intercept-only map keeps the
        # estimate's (2, 2r + 1, n) point map small)
        import tracemalloc

        state, y, _ = pot_state(3, 2000, boundary=False)
        coords = AdditiveProjector(None, [], state.lam.n).coordinate_map()
        state = PotState.from_lambda(state.lam.as_vector(), VAR_ES, y, coords)
        scratch = _kernels.RowScratch(32, state.lam.n)
        block = scratch.tmp[0].nbytes
        tracemalloc.start()
        try:
            _theta_grad_rows(state, y, 1e-3, 64, np.random.default_rng(0), None, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block


def test_fit_builds_one_frame_per_iterate(monkeypatch):
    # the QR of J^-1 blockdiag(B, B) and the gradient at the iterate (the
    # frame's base row) run once per distinct iterate (the start and each
    # accepted step), however many estimates an iterate takes before a
    # step is accepted
    y = gpd_inverse_cdf(np.random.default_rng(11).random(300), 2.0, 0.2)
    real_qr, shapes = np.linalg.qr, []
    real_grad, base_grads = _kernels.gpd_grad, []

    def qr(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_qr(a, *args, **kwargs)

    def gpd_grad(eta, kappa, yy):
        base_grads.append(eta.size)
        return real_grad(eta, kappa, yy)

    monkeypatch.setattr(np.linalg, "qr", qr)
    monkeypatch.setattr(_kernels, "gpd_grad", gpd_grad)
    model = fit_pot_additive(y, None, VAR_ES, [],
                             GsParams(subgradient_mode="qp", m=120, beta=1e-4, seed=4,
                                      max_iter=300))
    trace = model.trace
    assert trace.converged
    frames = shapes.count((2 * y.size, trace.subspace_dim))
    assert frames == len(trace.accepted) + 1
    assert base_grads == [y.size] * (len(trace.accepted) + 1)
    assert frames < len(trace)  # some iterates take several estimates


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
    coords = projector.coordinate_map()
    return PotState.from_lambda(lam.as_vector(), VAR_ES, y, coords), y, coords


@pytest.mark.parametrize("boundary", [False, True])
def test_theta_grad_rows_match_per_row_loop(boundary):
    exhausted = redrawn = 0
    for seed in range(12):
        n = 1 + 7 * seed % 40
        state, y, coords = pot_state(seed, n, boundary)
        for eps in (1e-3, 0.1, 0.3):
            for m in (1, 31, 33, 90):
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                got = outcome(_theta_grad_rows, state, y, eps, m, rng_a, None,
                              _kernels.RowScratch(_ROW_BLOCK, n))
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


def test_fit_steps_along_the_min_norm_point(monkeypatch):
    # the fitter reduces its first block of rows to their min-norm point c
    # and steps along -J^-1 blockdiag(B, B) c, so one iteration of a fit
    # lands on that point exactly; a failed solve raises, with no other
    # reduction in its place
    import gsda.pot

    def wolfe_fails(rows):
        raise NumericalFailure("forced")

    n = 50
    W = np.linspace(0.0, 1.0, n)[:, None]
    specs = [SmootherSpec("local_linear", 0)]
    coords = AdditiveProjector(W, specs).coordinate_map()
    for seed, fails in enumerate([True, False] * 3):
        monkeypatch.setattr(gsda.pot, "min_norm_point", wolfe_fails if fails else min_norm_point)
        y = gpd_inverse_cdf(np.random.default_rng(seed).random(n), 2.0, 0.2)
        gs = GsParams(max_iter=1, seed=seed)
        if fails:
            with pytest.raises(NumericalFailure, match="forced"):
                fit_pot_additive(y, W, VAR_ES, specs, gs)
            continue
        model = fit_pot_additive(y, W, VAR_ES, specs, gs)
        state = PotState.from_lambda(initial_lambda(y, VAR_ES).as_vector(), VAR_ES, y, coords)
        assert 2 * coords.dim + 1 > FIRST_DRAWS
        rows = GradientSet(_theta_grad_rows(state, y, gs.eps0, FIRST_DRAWS,
                                            np.random.default_rng(seed), None,
                                            _kernels.RowScratch(_ROW_BLOCK, n)))
        c = min_norm_point(rows).point
        record = model.trace.records[0]
        assert (record.method, record.event, model.trace.topups) == ("qp", "step", 0)
        assert record.gnorm == np.linalg.norm(c)
        v = _lift(state.jac_inverses, coords.basis) @ (-c / record.gnorm)
        x = state.lam.as_vector() + record.t * v
        assert np.array_equal(bits(model.state.lam.as_vector()), bits(x))


def infeasible_draws_one_at_a_time(state, y, eps, m, rng, coords):
    """Rejected draws of one estimate, by the log-likelihood's finiteness.

    Replays the sampler's draws eps*Q*u one at a time and stops at the
    draw that takes the rejections past 10*m.
    """
    lam, n = state.lam, state.lam.n
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
                    _theta_grad_rows(state, y, eps, m, np.random.default_rng(seed), trace,
                                     _kernels.RowScratch(_ROW_BLOCK, y.size))
                except SamplingExhausted:
                    # the sampler has added its 10*m + 1 rejections
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_distinct_rows_match_unique(data):
    # rows drawn from a few values, signed zeros among them, so duplicate
    # rows and rows equal up to the sign of zero are common
    k = data.draw(st.integers(1, 40))
    n = data.draw(st.integers(1, 4))
    values = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0, 1e-300, -3e7])
    z = np.array(data.draw(st.lists(values, min_size=k * n, max_size=k * n))).reshape(k, n)
    want = np.unique(z + 0.0, axis=0, return_index=True)[1]
    assert np.array_equal(_distinct_rows(z), want)


@pytest.mark.parametrize("z", list(min_norm_cases()))
def test_min_norm_point_matches_unique_reference(z):
    assert np.array_equal(_distinct_rows(z), np.unique(z, axis=0, return_index=True)[1])
    want = outcome(min_norm_point_unique, z)
    got = outcome(min_norm_point, GradientSet(z))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    point, weights = want
    assert np.array_equal(bits(got.point), bits(point))
    assert np.array_equal(bits(got.weights), bits(weights))
