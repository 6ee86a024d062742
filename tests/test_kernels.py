"""The numpy kernels: GPD series branch, support rule, sampled sums, weights."""

import numpy as np
import pytest

from gsda import _kernels
from gsda._kernels import KAPPA_EPS

from _oracles import gpd_loglik_ref, pinball_loss_where, pinball_sampled_grad_sum_masked


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def constant(value, n):
    return np.full(n, float(value))


class TestGpdLoglik:
    def test_series_branch_against_reference(self, rng):
        # at kappa = 0 the series is the exponential log-likelihood the
        # reference evaluates; just inside |kappa| < KAPPA_EPS the
        # reference's log(1 + kappa*z)/kappa loses about 1e-8 to
        # cancellation, which bounds the tolerance there
        sigma, n = 1.7, 12
        y = rng.uniform(0.05, 3.0, n) * sigma
        eta = constant(np.log(sigma), n)
        for kappa, rel in ((0.0, 1e-14), (3e-9, 1e-7), (-7e-9, 1e-7)):
            assert abs(kappa) < KAPPA_EPS
            got = _kernels.gpd_loglik(eta, constant(kappa, n), y)
            assert got == pytest.approx(gpd_loglik_ref(sigma, kappa, y), rel=rel)

    def test_branches_meet_at_the_switch(self, rng):
        y = rng.uniform(0.05, 3.0, 12)
        eta = rng.normal(size=12) * 0.3
        for sign in (1.0, -1.0):
            edge = sign * KAPPA_EPS  # the first |kappa| of the exact branch
            inside = _kernels.gpd_loglik(eta, constant(np.nextafter(edge, 0.0), 12), y)
            outside = _kernels.gpd_loglik(eta, constant(edge, 12), y)
            assert inside == pytest.approx(outside, rel=1e-12)

    def test_exact_branch_against_reference(self, rng):
        for sigma, kappa in ((1.5, 0.3), (0.8, -0.2)):
            y = rng.uniform(0.05, 2.0, 12) * sigma
            got = _kernels.gpd_loglik(constant(np.log(sigma), 12), constant(kappa, 12), y)
            assert got == pytest.approx(gpd_loglik_ref(sigma, kappa, y), rel=1e-12)

    def test_infeasible_point_is_minus_inf(self):
        # 1 + kappa*y/sigma = 1 - 0.5*3 < 0 for the first observation
        eta, kappa, y = np.zeros(2), np.array([-0.5, 0.1]), np.array([3.0, 1.0])
        assert _kernels.gpd_loglik(eta, kappa, y) == -np.inf
        assert gpd_loglik_ref(1.0, -0.5, y[:1]) == -np.inf

    @pytest.mark.parametrize("eta0, kappa0", [
        (-800.0, 0.3), (-800.0, 0.0), (-800.0, -0.2), (-240.0, 1e-9), (800.0, 0.3)])
    def test_extreme_trial_points_never_nan(self, eta0, kappa0):
        # exp overflow or underflow at an absurd line-search trial reads
        # as off the support (-inf) or as a finite value, never nan
        value = _kernels.gpd_loglik(constant(eta0, 2), constant(kappa0, 2),
                                    np.array([1.0, 2.0]))
        assert value == -np.inf or np.isfinite(value)


class TestKappaDerivativeAccuracy:
    def test_relative_error_against_high_precision(self):
        # d/d kappa of the log-likelihood against a 50-digit evaluation of
        # log1p(kappa*z)/kappa^2 - (1 + 1/kappa)*z/(1 + kappa*z); the exact
        # double formula cancels to about 1e-16/|kappa| for small kappa
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        mags = np.geomspace(1e-10, 1.0, 41)
        worst = 0.0
        for kappa in np.concatenate([-mags, mags]):
            z = np.geomspace(0.05, 8.0, 31)
            z = z[1.0 + kappa * z > 0.0]
            got = _kernels.gpd_grad(np.zeros(z.size), constant(kappa, z.size), z)[z.size:]
            k = mp.mpf(kappa)
            for zi, gi in zip(z, got):
                zm = mp.mpf(zi)
                want = mp.log1p(k * zm) / k ** 2 - (1 + 1 / k) * zm / (1 + k * zm)
                worst = max(worst, float(abs((gi - want) / want)))
        assert worst <= 1e-11


class TestGpdGradRows:
    def test_mask_is_loglik_finiteness(self, rng):
        n, m, eps = 15, 30, 0.4
        eta = rng.normal(size=n) * 0.2
        kappa = rng.uniform(-0.22, 0.5, n)
        kappa[:2] = [0.0, 4e-9]  # series entries
        y = rng.uniform(0.05, 3.0, n) * np.exp(eta)
        u = rng.uniform(-1.0, 1.0, size=(m, 2 * n))
        grads, feasible = _kernels.gpd_grad_rows(eta + eps * u[:, :n], kappa + eps * u[:, n:], y,
                                                 _kernels.RowScratch(m, n))
        points = [(eta + eps * r[:n], kappa + eps * r[n:]) for r in u]
        expect = [np.isfinite(_kernels.gpd_loglik(e, k, y)) for e, k in points]
        assert feasible.tolist() == expect
        assert 0 < feasible.sum() < m  # both kinds of rows are exercised
        want = [_kernels.gpd_grad(e, k, y) for (e, k), ok in zip(points, feasible) if ok]
        assert np.allclose(np.hstack(grads), want, rtol=1e-12, atol=1e-12)

    def test_overflowing_rows_are_masked(self):
        # rows that send eta to -800 overflow exp(-eta); they are dropped,
        # and the rows of the rest stay finite
        y = np.array([1.0, 2.0])
        u = np.array([[-1.0, 0.0, 0.0, 0.0], [0.1, 0.1, 0.1, 0.1], [0.0, -1.0, 0.0, 0.0]])
        points = np.array([0.0, 0.0, 0.2, 0.2]) + 800.0 * u
        with np.errstate(over="ignore"):
            grads, feasible = _kernels.gpd_grad_rows(points[:, :2], points[:, 2:], y,
                                                     _kernels.RowScratch(3, 2))
        assert feasible.tolist() == [False, True, False]
        assert grads.shape == (2, 1, 2) and np.all(np.isfinite(grads))


def test_ll_weights_rows_are_local_linear(rng):
    w = np.sort(rng.uniform(0.0, 1.0, 60))
    targets = rng.uniform(-0.2, 1.2, 25)
    for bw in (0.5, 0.05, 1e-4):
        rows = _kernels.ll_weights(w, bw, targets)
        assert np.allclose(rows.sum(axis=1), 1.0)
        if bw >= 0.05:  # no fallback rows: the fit reproduces lines exactly
            assert np.allclose(rows @ w, targets, atol=1e-10)


def test_ll_weights_peaks_at_one_hat_and_row_blocks():
    # the (targets, n) output, and per block of ll_block(n) rows the
    # offsets and the kernel; everything else the kernel keeps is O(block)
    import tracemalloc

    n = 1000
    w = np.random.default_rng(7).uniform(size=n)
    hat = 8 * n * n
    block = 8 * _kernels.ll_block(n) * n
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _kernels.ll_weights(w, 0.05, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= hat + 3 * block


@pytest.mark.parametrize("n, size", [(300, 64), (1200, 54), (3000, 21)])
def test_rows_are_bitwise_the_same_in_any_block(monkeypatch, n, size):
    # the rule's blocks (a ragged last one at each n) against blocks of
    # one row: n = 3000 checks the trace's diagonal, which forms no hat
    assert _kernels.ll_block(n) == size and n % size
    w = np.random.default_rng(n).uniform(size=n)
    build = _kernels.ll_diagonal if n == 3000 else lambda w, bw: _kernels.ll_weights(w, bw, w)
    for bw in (0.05, 1e-4):  # 1e-4 takes the local-constant fallback rows
        blocked = build(w, bw)
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "ll_block", lambda n: 1)
            single = build(w, bw)
        assert blocked.tobytes() == single.tobytes()


def test_block_rule_fills_512k_between_16_and_64_rows():
    assert [_kernels.ll_block(n) for n in (2, 1024, 1025, 2048, 4000, 4097, 10**4)] \
        == [64, 64, 63, 32, 16, 16, 16]


def _tied(rng, q, y):
    """y with about a third of its entries set exactly to q's (r = 0)."""
    tie = rng.random(y.shape) < 0.3
    y[tie] = q[tie]
    return y


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.37])
def test_pinball_kernels_are_the_old_formulas_bitwise(rng, alpha):
    # the fewer-pass forms against both-branch and masked-fill forms, on
    # dyadic inputs whose residuals tie exactly at 0
    for n, m in ((1, 1), (7, 3), (300, 301)):
        q = rng.integers(-512, 512, n) / 64.0
        y = _tied(rng, q, rng.integers(-512, 512, n) / 64.0)
        assert (y == q).any() or n == 1
        assert _kernels.pinball_loss(q, y, alpha) == pinball_loss_where(q, y, alpha)
        stack = q + rng.integers(-8, 9, (5, n)) / 8.0
        stack[:, ::2] = y[::2]  # ties in every row of the stack
        assert _kernels.pinball_loss(stack, y, alpha).tobytes() \
            == pinball_loss_where(stack, y, alpha).tobytes()
        eps = 0.125
        u = rng.integers(-64, 65, (m, n)) / 64.0
        y = q + eps * u[rng.integers(0, m, n), np.arange(n)]  # a tie per column
        y[::3] += 0.25
        u[0, 0] = np.nan  # a NaN residual takes the 1 - alpha branch
        got = _kernels.pinball_sampled_grad_sum(q, y, alpha, eps, u)
        want = pinball_sampled_grad_sum_masked(q, y, alpha, eps, u)
        assert got.tobytes() == want.tobytes()
