"""The numeric kernels: pinball and GPD losses and gradients, local-linear weights.

Every kernel is plain numpy.  ``ACTIVE`` names the kernel path and is
written to ``diagnostics.txt`` as ``kernel_path``.

Layout conventions: sampled ball directions arrive as a ``(m, dim)``
matrix ``U``; GPD parameters arrive as the pair ``(eta, kappa)`` with
``sigma = exp(eta)``, and 2n-vectors stack the eta block before the
kappa block.
"""

import numpy as np

ACTIVE = "numpy"

# Below this |kappa| the GPD formulas switch to second-order series in
# kappa to avoid cancellation in (c^-k - 1)/k style expressions.
KAPPA_EPS = 1e-8


def pinball_loss(q, y, alpha):
    r = y - q
    return float(np.sum(np.where(r > 0.0, alpha * r, (alpha - 1.0) * r)))


def pinball_grad(q, y, alpha):
    # tie convention: y == q takes the (1 - alpha) branch
    return np.where(y - q > 0.0, -alpha, 1.0 - alpha)


def pinball_sampled_grad_sum(q, y, alpha, eps, U):
    """Sum of pinball gradients at q + eps*U[k] over all rows k."""
    buf = np.multiply(eps, U)
    buf += q
    np.subtract(y, buf, out=buf)  # the residuals y - (q + eps*U)
    above = buf > 0.0
    buf.fill(1.0 - alpha)
    buf[above] = -alpha
    return buf.sum(axis=0)


def _gpd_feasible(a):
    """Support rule: a = 1 + kappa*y*exp(-eta) finite and positive everywhere.

    Reduces over the last axis, so a (k, n) stack gives one flag per
    row.  A non-finite a (exp overflow at an extreme trial point) is the
    sigma -> 0 limit and lies off the support.
    """
    return np.all(np.isfinite(a) & (a > 0.0), axis=-1)


def _gpd_grad_parts(kappa, z, a, geta, gkap, t):
    """Elementwise (d/d eta, d/d kappa) of the GPD log-likelihood, into geta and gkap.

    Takes z = y*exp(-eta) and a = 1 + kappa*z of any common shape, and
    t, scratch of that shape; the second-order series replaces the exact
    kappa derivative only where |kappa| < KAPPA_EPS, and is evaluated
    only when some entry needs it.
    """
    # geta = -1 + (1 + kappa)*z/a
    np.add(1.0, kappa, out=geta)
    geta *= z
    geta /= a
    np.add(-1.0, geta, out=geta)
    # gkap = log1p(kappa*z)/(kappa*kappa) - (1 + 1/kappa)*z/a
    np.multiply(kappa, z, out=gkap)
    np.log1p(gkap, out=gkap)
    np.multiply(kappa, kappa, out=t)
    gkap /= t
    np.divide(1.0, kappa, out=t)
    np.add(1.0, t, out=t)
    t *= z
    t /= a
    gkap -= t
    small = np.abs(kappa, out=t) < KAPPA_EPS
    if small.any():
        series = 0.5 * z * z - z + kappa * (z * z - 2.0 * z ** 3 / 3.0) \
            + kappa * kappa * (0.75 * z ** 4 - z ** 3)
        np.copyto(gkap, series, where=small)


def gpd_loglik(eta, kappa, y):
    with np.errstate(all="ignore"):
        z = y * np.exp(-eta)
        a = 1.0 + kappa * z
        if not _gpd_feasible(a):
            return -np.inf
        small = np.abs(kappa) < KAPPA_EPS
        exact = -eta - (1.0 + 1.0 / kappa) * np.log1p(kappa * z)
        series = -eta - z - kappa * (z - 0.5 * z * z) \
            - kappa * kappa * (z ** 3 / 3.0 - 0.5 * z * z)
        total = float(np.sum(np.where(small, series, exact)))
    return total if np.isfinite(total) else -np.inf


def gpd_grad(eta, kappa, y):
    """(d/d eta, d/d kappa) of the GPD log-likelihood, stacked (2n,)."""
    n = eta.shape[0]
    grad = np.empty(2 * n)
    with np.errstate(all="ignore"):
        z = y * np.exp(-eta)
        _gpd_grad_parts(kappa, z, 1.0 + kappa * z, grad[:n], grad[n:], np.empty(n))
    return grad


class RowScratch:
    """Arrays for :func:`gpd_grad_rows` on blocks of up to k draws of n observations.

    A POT estimate evaluates a few blocks of draws, each with several
    (k, n) temporaries.  Allocated afresh, they let glibc hand the freed
    top of the heap back to the OS and fault it in again on every block,
    in some processes and not others (fitbench pot-qp ran 35,000 page
    faults and 40% more time per fit in one checkout than in another of
    the same code).  A fit that reuses one set keeps its heap still.
    ``points`` holds the block's perturbations for the caller.
    """

    def __init__(self, k, n):
        self.points = np.empty((k, 2 * n))
        self.rows = np.empty((k, 2 * n))
        self.tmp = np.empty((4, k, n))


def gpd_grad_rows(eta, kappa, y, eps, U, scratch=None):
    """GPD gradients at (eta, kappa) + eps*u, one stacked row per feasible u.

    The perturbed point moves eta by u's first half and kappa by its
    second half.  Returns ``(rows, feasible)``: ``feasible`` flags the
    rows of U that stay on the support (:func:`_gpd_feasible`), and
    ``rows`` is (feasible.sum(), 2n), in the order of U.  Given a
    :class:`RowScratch`, the work and ``rows`` live in it, so ``rows``
    is valid until its next use.
    """
    n, k = eta.shape[0], U.shape[0]
    if scratch is None:
        scratch = RowScratch(k, n)
    pk, z, a, t = scratch.tmp[:, :k]
    with np.errstate(all="ignore"):
        np.multiply(eps, U[:, n:], out=pk)
        np.add(kappa, pk, out=pk)
        np.multiply(eps, U[:, :n], out=z)
        np.add(eta, z, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        np.multiply(y, z, out=z)
        np.multiply(pk, z, out=a)
        np.add(1.0, a, out=a)
        feasible = _gpd_feasible(a)
        if not feasible.all():
            pk, z, a = pk[feasible], z[feasible], a[feasible]
        rows = scratch.rows[:pk.shape[0]]
        _gpd_grad_parts(pk, z, a, rows[:, :n], rows[:, n:], t[:pk.shape[0]])
    return rows, feasible


def ll_weights(w, bandwidth, targets):
    """Local-linear (Gaussian kernel) weight rows, one per target point.

    Falls back to local-constant weights where the degree-1 system is
    numerically singular, and to a nearest-neighbour point mass if every
    kernel weight underflows.  Three (targets, w) arrays are live at
    most: the offsets d, the kernel k and one scratch buffer, which is
    reused in place and returned as the weights.
    """
    d = w[None, :] - targets[:, None]
    k = np.divide(d, bandwidth)
    np.square(k, out=k)
    np.multiply(-0.5, k, out=k)
    np.exp(k, out=k)
    s0 = k.sum(axis=1)
    rows = np.multiply(k, d)
    s1 = rows.sum(axis=1)
    rows *= d
    s2 = rows.sum(axis=1)
    det = s0 * s2 - s1 * s1
    bad = det <= 1e-12 * s0 * s2 + 1e-300
    safe_det = np.where(bad, 1.0, det)
    np.multiply(d, s1[:, None], out=rows)
    np.subtract(s2[:, None], rows, out=rows)
    rows *= k
    rows /= safe_det[:, None]
    if np.any(bad):
        s0_safe = np.where(s0[bad] > 0.0, s0[bad], 1.0)
        rows[bad] = k[bad] / s0_safe[:, None]
        dead = s0[bad] <= 0.0
        if np.any(dead):
            sub = rows[bad]
            nearest = np.argmin(np.abs(d[bad][dead]), axis=1)
            sub[dead] = 0.0
            sub[np.nonzero(dead)[0], nearest] = 1.0
            rows[bad] = sub
    return rows
