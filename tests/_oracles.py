"""Independent reference implementations used to check the package.

Most of this is deliberately brute force (grids, enumeration, finite
differences, a dense linear solve) and shares no code with the
implementations under test; the dense solve reads its matrices off the
package's smoothers, not its backfitting.  The references at the end
are the package's earlier, slower forms of a batched, hashed,
accelerated or kink-only path, kept so the fast path can be held
bitwise equal to them (the POT coordinate rows: to rounding, since the
loop projects each row separately): they reuse the package's scalar
kernels, sampler, smoothers and Wolfe solver.  ``per_sample_theta_grad`` is the
unsimplified POT gradient (a Jacobian at every sample), which the
package's single-Jacobian pullback must approach as eps -> 0.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _compositions(k, steps):
    """Integer compositions of `steps` into k nonnegative parts, (R, k)."""
    if k == 1:
        return np.array([[steps]], dtype=np.int64)
    rows = []
    for first in range(steps + 1):
        rest = _compositions(k - 1, steps - first)
        sub = np.empty((rest.shape[0], k), dtype=np.int64)
        sub[:, 0] = first
        sub[:, 1:] = rest
        rows.append(sub)
    return np.vstack(rows)


def simplex_grid(k, steps):
    """All weight vectors on the k-simplex with entries j/steps, as (R, k)."""
    return _compositions(k, steps).astype(float) / float(steps)


def bary_min_norm(z, steps):
    """Minimum norm over the barycentric grid of resolution 1/steps."""
    z = np.asarray(z, dtype=float)
    grid = simplex_grid(z.shape[0], steps)
    best = np.inf
    for start in range(0, grid.shape[0], 200_000):
        pts = grid[start:start + 200_000] @ z
        best = min(best, float(np.min(np.einsum("ij,ij->i", pts, pts))))
    return np.sqrt(best)


def central_diff(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def gpd_loglik_ref(sigma, kappa, y):
    """Straightforward constant-parameter GPD log-likelihood."""
    z = np.asarray(y, dtype=float) / sigma
    a = 1.0 + kappa * z
    if sigma <= 0.0 or np.any(a <= 0.0):
        return -np.inf
    if abs(kappa) < 1e-9:
        return float(np.sum(-np.log(sigma) - z))
    return float(np.sum(-np.log(sigma) - (1.0 + 1.0 / kappa) * np.log(a)))


def gpd_mle_oracle(y, refinements=8, grid=25):
    """Constant-model GPD MLE by nested grid search on (sigma, kappa)."""
    y = np.asarray(y, dtype=float)
    sig_lo, sig_hi = 0.2 * y.mean(), 5.0 * y.mean()
    kap_lo, kap_hi = -0.45, 0.95
    best = (y.mean(), 0.0)
    for _ in range(refinements):
        sigs = np.linspace(sig_lo, sig_hi, grid)
        kaps = np.linspace(kap_lo, kap_hi, grid)
        vals = np.array([[gpd_loglik_ref(s, k, y) for k in kaps] for s in sigs])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = (float(sigs[i]), float(kaps[j]))
        ds, dk = sigs[1] - sigs[0], kaps[1] - kaps[0]
        sig_lo, sig_hi = max(best[0] - 2 * ds, 1e-8), best[0] + 2 * ds
        kap_lo, kap_hi = best[1] - 2 * dk, best[1] + 2 * dk
    return best


def theta_ref(sigma, kappa, c):
    """Return level at scale factor c, direct formula."""
    if abs(kappa) < 1e-12:
        return -sigma * np.log(c)
    return (c ** (-kappa) - 1.0) * sigma / kappa


def zeta_ref(sigma, kappa, c):
    return (theta_ref(sigma, kappa, c) + sigma) / (1.0 - kappa)


def backfit_fixed_point(projector, g):
    """The exact backfitting fixed point by one dense k*n linear solve.

    Each smoother's n x n matrix is read off by applying it to the unit
    vectors, and centred.  The components f_j solve
    f_j + C S_j sum_{l != j} f_l = C S_j (g - mean g).  The solve is least
    squares, so a singular system (identical covariates) still yields
    one of its fixed points; the fitted values are the same for all of
    them.  Returns ``(components (k, n), fitted)``.
    """
    g = np.asarray(g, dtype=float)
    n, k = g.size, projector.k
    centre = np.eye(n) - 1.0 / n
    hats = [centre @ np.column_stack([sm.apply(e) for e in np.eye(n)])
            for sm in projector.smoothers]
    system = np.eye(k * n)
    rhs = np.empty(k * n)
    for j in range(k):
        for l in range(k):
            if l != j:
                system[j * n:(j + 1) * n, l * n:(l + 1) * n] = hats[j]
        rhs[j * n:(j + 1) * n] = hats[j] @ (g - g.mean())
    comps = np.linalg.lstsq(system, rhs, rcond=None)[0].reshape(k, n)
    return comps, g.mean() + comps.sum(axis=0)


def backfit_sweep(projector, resid, comps):
    """One plain Gauss-Seidel backfitting sweep from ``comps`` (k, n).

    Returns the new components, each smoother's partial residual and the
    largest change of any component.
    """
    comps = [np.array(c, dtype=float) for c in comps]
    total = np.sum(comps, axis=0)
    targets = []
    delta = 0.0
    for j, sm in enumerate(projector.smoothers):
        partial = resid - (total - comps[j])
        raw = sm.apply(partial)
        new = raw - raw.mean()
        delta = max(delta, float(np.max(np.abs(new - comps[j]))))
        total += new - comps[j]
        comps[j] = new
        targets.append(partial)
    return comps, targets, delta


def backfit_loop(projector, g, max_cycles=100):
    """``AdditiveProjector.project`` as a plain Gauss-Seidel loop from zero.

    Reference for the projection: sweeps until no component moves by
    ``BACKFIT_TOL`` or ``max_cycles`` sweeps have run.
    """
    from gsda.smoothing import BACKFIT_TOL, AdditiveFit

    g = np.asarray(g, dtype=float)
    intercept = float(g.mean())
    resid = g - intercept
    k = projector.k
    if k == 0:
        return AdditiveFit(intercept, [], np.full(g.size, intercept))
    comps = [np.zeros(g.size) for _ in range(k)]
    converged = False
    cycles = 0
    for cycles in range(1, max_cycles + 1):
        comps, targets, delta = backfit_sweep(projector, resid, comps)
        if delta < BACKFIT_TOL:
            converged = True
            break
    centers = [float(sm.apply(t).mean()) for sm, t in zip(projector.smoothers, targets)]
    return AdditiveFit(intercept, comps, intercept + np.sum(comps, axis=0), targets,
                       centers, converged, cycles)


def blocks_apply_t(inv, g):
    """Blockwise (J^T)^-1 g: maps (eta, kappa) gradients to functional space.

    ``g`` is one stacked (2n,) gradient or a (k, 2n) stack of them.
    """
    n = inv.shape[0]
    g1, g2 = g[..., :n], g[..., n:]
    return np.concatenate([inv[:, 0, 0] * g1 + inv[:, 1, 0] * g2,
                           inv[:, 0, 1] * g1 + inv[:, 1, 1] * g2], axis=-1)


def dense_inverse(inv):
    """The (2n, 2n) J^-1 of blocks ``inv``, eta rows before kappa rows."""
    return np.block([[np.diag(inv[:, 0, 0]), np.diag(inv[:, 0, 1])],
                     [np.diag(inv[:, 1, 0]), np.diag(inv[:, 1, 1])]])


def blockdiag(a):
    z = np.zeros_like(a)
    return np.block([[a, z], [z, a]])


def draw_frame(inv, coords):
    """Q: an orthonormal basis of J^-1 blockdiag(B, B), from dense matrices."""
    return np.linalg.qr(dense_inverse(inv) @ blockdiag(coords.basis))[0]


def coordinate_row(inv, g, coords):
    """(M h_1, M h_2) of the functional-space gradient h = (J^T)^-1 g."""
    h = blocks_apply_t(inv, g)
    n = inv.shape[0]
    return np.concatenate([coords.coef @ h[:n], coords.coef @ h[n:]])


def theta_grad_rows_loop(state, y, eps, m, rng, coords):
    """POT coordinate rows, one draw at a time.

    Reference for ``gsda.pot._theta_grad_rows``: the same draws
    ``eps * Q u`` for u in the 2r-ball, the same support rule
    (a = 1 + kappa*y*exp(-eta) finite and positive), and per feasible
    draw one ``gpd_grad`` call, one functional-space pullback and one
    projection to coordinates.
    """
    from gsda import _kernels
    from gsda.engine import sample_unit_ball
    from gsda.errors import SamplingExhausted

    lam, inv = state.lam, state.jac_inverses
    n = lam.n
    frame = draw_frame(inv, coords)
    rows = [coordinate_row(inv, _kernels.gpd_grad(lam.eta, lam.kappa, y), coords)]
    rejected = 0
    cap = 10 * m
    while len(rows) < m + 1:
        for u in sample_unit_ball(2 * coords.dim, m + 1 - len(rows), rng):
            p = frame @ u
            pe, pk = lam.eta + eps * p[:n], lam.kappa + eps * p[n:]
            with np.errstate(all="ignore"):
                a = 1.0 + pk * (y * np.exp(-pe))
            if not np.all(np.isfinite(a) & (a > 0.0)):
                rejected += 1
                if rejected > cap:
                    raise SamplingExhausted(
                        f"more than {cap} infeasible draws at eps={eps:g}")
                continue
            rows.append(coordinate_row(inv, _kernels.gpd_grad(pe, pk, y), coords))
    return np.array(rows)


def per_sample_theta_grad(state, y, eps, m, rng, coords):
    """Mean POT coordinate row with a fresh Jacobian per sample.

    Reference for the mean of ``gsda.pot._theta_grad_rows``, which pulls
    every sampled (eta, kappa) gradient back through the iterate's
    Jacobian alone.  Here each of the m feasible draws ``eps * Q u`` has
    its gradient pulled back through the Jacobian at that point; draws
    off the support (or, under var_es, at kappa >= 1, or at a singular
    block) are redrawn, more than 10*m of them raising
    ``SamplingExhausted``.  The two agree as eps -> 0.
    """
    from gsda import _kernels
    from gsda.engine import sample_unit_ball
    from gsda.errors import SamplingExhausted, SingularBlock
    from gsda.pot import Lambda, jacobian_blocks

    lam, spec, inv = state.lam, state.spec, state.jac_inverses
    frame = draw_frame(inv, coords)
    total = coordinate_row(inv, _kernels.gpd_grad(lam.eta, lam.kappa, y), coords)
    base = lam.as_vector()
    got = 0
    rejected = 0
    cap = 10 * m
    while got < m:
        for u in sample_unit_ball(2 * coords.dim, m - got, rng):
            pert = Lambda.from_vector(base + eps * (frame @ u))
            ok = np.isfinite(_kernels.gpd_loglik(pert.eta, pert.kappa, y))
            if ok and spec.pair == "var_es":
                ok = bool(np.all(pert.kappa < 1.0))
            if ok:
                try:
                    _, pinv = jacobian_blocks(pert, spec)
                except SingularBlock:
                    ok = False
            if not ok:
                rejected += 1
                if rejected > cap:
                    raise SamplingExhausted(
                        f"more than {cap} infeasible draws at eps={eps:g}")
                continue
            total += coordinate_row(pinv, _kernels.gpd_grad(pert.eta, pert.kappa, y), coords)
            got += 1
    return total / (m + 1)


def min_norm_point_unique(z, tol=1e-10):
    """(point, weights) of ``min_norm_point`` with an ``np.unique`` dedupe.

    Wolfe's solver sees the distinct rows in ``np.unique(axis=0)`` order;
    weights go to each distinct row's first occurrence.
    """
    from gsda.minnorm import _wolfe

    z = np.asarray(z, dtype=float)
    count = z.shape[0]
    uniq, first = np.unique(z, axis=0, return_index=True)
    weights = np.zeros(count)
    if uniq.shape[0] == 1:
        weights[first[0]] = 1.0
        return uniq[0].copy(), weights
    point, w_uniq, _ = _wolfe(uniq, tol, cap=100 * count)
    weights[first] = w_uniq
    weights /= weights.sum()
    return point, weights



def pinball_rows_full_ball(q, y, alpha, eps, u):
    """Pinball gradient rows at q and at q + eps*u for every row u of u."""
    from gsda import _kernels

    rows = np.empty((u.shape[0] + 1, q.size))
    rows[0] = _kernels.pinball_grad(q, y, alpha)
    resid = y[None, :] - (q[None, :] + eps * u)
    rows[1:] = np.where(resid > 0.0, -alpha, 1.0 - alpha)
    return rows


def pinball_subgradient_full_ball(q, y, alpha, eps, m, rng):
    """Average-mode ``gsda.quantile._sampled_subgradient`` drawing the whole ball.

    Reference for the kink-coordinate path: m points uniform on the
    n-dimensional eps-ball, the average of the pinball gradients at q
    and at each, as ``(g, gnorm)``.
    """
    from gsda import _kernels
    from gsda.engine import sample_unit_ball

    u = sample_unit_ball(q.size, m, rng)
    base = _kernels.pinball_grad(q, y, alpha)
    g = (base + _kernels.pinball_sampled_grad_sum(q, y, alpha, eps, u)) / (m + 1)
    return g, float(np.linalg.norm(g))


def pinball_coordinate_rows(q, y, alpha, eps, u, coords):
    """qp-mode coordinate rows M g at q and at q + eps*B*u, every coordinate evaluated.

    Reference for ``gsda.quantile._sampled_subgradient`` in qp mode,
    which evaluates only the kink coordinates.
    """
    return pinball_rows_full_ball(q, y, alpha, eps, u @ coords.basis.T) @ coords.coef.T
