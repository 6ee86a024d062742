"""The numeric kernels: pinball and GPD losses and gradients, local-linear weights.

Every kernel is plain numpy.  ``ACTIVE`` names the kernel path and is
written to ``diagnostics.txt`` as ``kernel_path``.

Layout conventions: sampled ball directions arrive as a ``(m, dim)``
matrix ``U``; GPD parameters arrive as the pair ``(eta, kappa)`` with
``sigma = exp(eta)``, and 2n-vectors stack the eta block before the
kappa block.  The GPD row kernel takes a block of k points as two
contiguous (k, n) arrays and returns the two gradient halves as a
(2, k, n) stack: the same passes over strided halves of (k, 2n) rows
took twice as long.

The GPD gradient is one formula for a single point (:func:`gpd_grad`)
and for a block (:func:`gpd_grad_rows`): both halves come from the
shared h = (1 + kappa)*z/a, so a block of 13 elementwise passes gives
each row bitwise what ``gpd_grad`` gives at its point.  The series that
replace cancelling kappa -> 0 forms are evaluated only at the entries
that need them.
"""

import numpy as np

ACTIVE = "numpy"

# Below this |kappa| the GPD log-likelihood and the return level switch
# to series in kappa: their exact forms divide by kappa.
KAPPA_EPS = 1e-8
# Where |kappa| and |kappa*z| both fall below this (|kappa*log c| for
# the return level's Jacobian), the kappa derivatives switch to series:
# their exact forms cancel to a relative error of about 1e-16/|kappa|.
SERIES_EPS = 1e-2


def ll_block(n):
    """Local-linear weight rows built at once against n observations.

    A block's scratch arrays are (block, n): 64 rows up to n = 1024, then
    as many as fill 512 KB, but never fewer than 16.  Smaller blocks keep
    the scratch nearer the cache at large n (16 rows build the n = 4000
    hat in about 0.85 of the time 64 take); at small n, fewer and wider
    passes win.
    """
    return min(64, max(16, 65536 // n))


def pinball_loss(q, y, alpha):
    # a (k, n) stack of q against y of length n gives k risks, each row's
    # sum bitwise a 1-D sum's; q shaped as y gives the total.  The slope
    # times r is bitwise alpha*r or (alpha - 1)*r, in two passes fewer
    r = y - q
    loss = np.where(r > 0.0, alpha, alpha - 1.0)
    loss *= r
    return np.sum(loss, axis=-1) if q.ndim > y.ndim else float(np.sum(loss))


def pinball_grad(q, y, alpha):
    # tie convention: y == q takes the (1 - alpha) branch
    return np.where(y - q > 0.0, -alpha, 1.0 - alpha)


def pinball_sampled_grad_sum(q, y, alpha, eps, U):
    """Sum of pinball gradients at q + eps*U[k] over all rows k."""
    buf = np.multiply(eps, U)
    buf += q
    np.subtract(y, buf, out=buf)  # the residuals y - (q + eps*U)
    return np.where(buf > 0.0, -alpha, 1.0 - alpha).sum(axis=0)


def _gpd_feasible(a):
    """Support rule: a = 1 + kappa*y*exp(-eta) finite and positive everywhere.

    Reduces over the last axis, so a (k, n) stack gives one flag per
    row.  A non-finite a (exp overflow at an extreme trial point) is the
    sigma -> 0 limit and lies off the support; a nan fails the min test.
    """
    return (a.min(axis=-1, initial=1.0) > 0.0) & (a.max(axis=-1, initial=1.0) < np.inf)


def _gpd_grad_parts(kappa, z, kz, a, geta, gkap):
    """Elementwise (d/d eta, d/d kappa) of the GPD log-likelihood, into geta and gkap.

    Takes z = y*exp(-eta), kz = kappa*z and a = 1 + kz of any common
    shape.  Both halves come from h = (1 + kappa)*z/a:
    geta = h - 1 and gkap = (log1p(kappa*z)/kappa - h)/kappa.  Where
    |kappa| and |kappa*z| are below SERIES_EPS the exact gkap cancels,
    and a series in kappa*z replaces it, evaluated only at those
    entries; the mask is built only when the range of kappa meets
    (-SERIES_EPS, SERIES_EPS).
    """
    # h, in geta
    np.add(1.0, kappa, out=geta)
    geta *= z
    geta /= a
    np.log1p(kz, out=gkap)
    gkap /= kappa
    gkap -= geta
    gkap /= kappa
    geta -= 1.0
    if kappa.min(initial=SERIES_EPS) < SERIES_EPS and kappa.max() > -SERIES_EPS:
        small = (np.abs(kappa) < SERIES_EPS) & (np.abs(kz) < SERIES_EPS)
        gkap[small] = _gkap_series(kz[small], z[small])


def _gkap_series(kz, z):
    """gkap = -z * sum_j (-kappa*z)^(j-1) * (1 - j*z/(j+1)), j = 1..9.

    The first term, z^2/2 - z, is the kappa -> 0 limit.  It vanishes at
    z = 2, where the sum is of the order of its second term, so the
    tail is kept to (kappa*z)^8 to stay accurate to rounding there.
    """
    acc = 1.0 - z * 0.9
    for j in range(8, 0, -1):
        acc = (1.0 - z * (j / (j + 1.0))) - kz * acc
    return -z * acc


def gpd_loglik(eta, kappa, y):
    """GPD log-likelihood summed over the observations; -inf off the support.

    ``eta`` and ``kappa`` of length n give one total, as a float; a
    (k, n) stack of them gives the k row totals, each bitwise the total
    of its row alone: the terms are elementwise and each row is summed
    pairwise on its own.  The kappa -> 0 series is evaluated only when
    some |kappa| is below KAPPA_EPS.
    """
    with np.errstate(all="ignore"):
        neg = -eta
        z = y * np.exp(neg)
        kz = kappa * z
        feasible = _gpd_feasible(1.0 + kz)
        if eta.ndim == 1 and not feasible:
            return -np.inf
        terms = neg - (1.0 + 1.0 / kappa) * np.log1p(kz)
        if np.abs(kappa).min(initial=KAPPA_EPS) < KAPPA_EPS:
            series = neg - z - kappa * (z - 0.5 * z * z) \
                - kappa * kappa * (z ** 3 / 3.0 - 0.5 * z * z)
            terms = np.where(np.abs(kappa) < KAPPA_EPS, series, terms)
        totals = terms.sum(axis=-1)
    if eta.ndim == 1:
        return float(totals) if np.isfinite(totals) else -np.inf
    totals[~(feasible & np.isfinite(totals))] = -np.inf
    return totals


def theta_of(sigma, kappa, logc):
    """GPD return level sigma*(c^-kappa - 1)/kappa; log c is a scalar or of kappa's shape.

    Below KAPPA_EPS a series in kappa, evaluated at those entries only,
    replaces the exact form, which divides by kappa.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = sigma * np.expm1(-kappa * logc) / kappa
    small = np.abs(kappa) < KAPPA_EPS
    if small.any():
        ks, ls = kappa[small], np.broadcast_to(logc, kappa.shape)[small]
        out[small] = sigma[small] * (-ls + 0.5 * ks * ls ** 2 - ks ** 2 * ls ** 3 / 6.0)
    return out


def dtheta_dkappa(sigma, kappa, logc):
    """d/d kappa of :func:`theta_of`, for a scalar ``log c``.

    With x = -kappa*log c it is sigma*log(c)^2*(x*e^x - expm1(x))/x^2,
    whose numerator cancels to a relative error of about 1e-16/|x|;
    below SERIES_EPS the series sum_j x^j (j+1)/(j+2)! replaces it.
    """
    x = -kappa * logc
    with np.errstate(divide="ignore", invalid="ignore"):
        out = sigma * (x * np.exp(x) - np.expm1(x)) / kappa ** 2
    small = np.abs(x) < SERIES_EPS
    if small.any():
        xs = x[small]
        out[small] = sigma[small] * logc ** 2 * (
            0.5 + xs * (1.0 / 3.0 + xs * (0.125 + xs * (
                1.0 / 30.0 + xs * (1.0 / 144.0 + xs / 840.0)))))
    return out


def gpd_grad(eta, kappa, y):
    """(d/d eta, d/d kappa) of the GPD log-likelihood, stacked (2n,).

    A (k, n) stack of points gives their (k, 2n) gradients, each row
    bitwise its point's.
    """
    n = eta.shape[-1]
    grad = np.empty(eta.shape[:-1] + (2 * n,))
    with np.errstate(all="ignore"):
        z = y * np.exp(-eta)
        kz = kappa * z
        _gpd_grad_parts(kappa, z, kz, 1.0 + kz, grad[..., :n], grad[..., n:])
    return grad


class RowScratch:
    """Arrays for :func:`gpd_grad_rows` on blocks of up to k points of n observations.

    A POT estimate evaluates a few blocks of draws, each with several
    (k, n) temporaries.  Allocated afresh, they let glibc hand the freed
    top of the heap back to the OS and fault it in again on every block,
    in some processes and not others (fitbench pot-qp ran 35,000 page
    faults and 40% more time per fit in one checkout than in another of
    the same code).  A fit that reuses one set keeps its heap still.
    ``points`` holds the block's (eta, kappa) points for the caller, as
    a (2, k, n) stack.
    """

    def __init__(self, k, n):
        self.points = np.empty((2, k, n))
        self.grads = np.empty((2, k, n))
        self.tmp = np.empty((3, k, n))


def gpd_grad_rows(eta, kappa, y, scratch):
    """GPD gradients at k points (eta[i], kappa[i]), for the feasible ones.

    ``eta`` and ``kappa`` are (k, n).  Returns ``(grads, feasible)``:
    ``feasible`` flags the points on the support (:func:`_gpd_feasible`),
    and ``grads`` is the (2, feasible.sum(), n) stack of the d/d eta and
    d/d kappa halves, in the order of the points; ``grads[:, j]``
    stacked is what :func:`gpd_grad` gives at the j-th feasible point.
    The work and ``grads`` live in ``scratch``, a :class:`RowScratch`
    of at least k rows, so ``grads`` is valid until its next use.  A
    block takes 13 elementwise passes over contiguous (k, n) arrays, 5
    for z = y*exp(-eta), kz = kappa*z and a = 1 + kz and 8 for the two
    halves; the support and series tests are reductions of a and kappa.
    """
    k = eta.shape[0]
    z, kz, a = scratch.tmp[:, :k]
    with np.errstate(all="ignore"):
        np.negative(eta, out=z)
        np.exp(z, out=z)
        np.multiply(y, z, out=z)
        np.multiply(kappa, z, out=kz)
        np.add(1.0, kz, out=a)
        if _gpd_feasible(a.reshape(-1)):  # the whole block, in two reductions
            feasible = np.ones(k, dtype=bool)
        else:
            feasible = _gpd_feasible(a)
            kappa, z, kz, a = kappa[feasible], z[feasible], kz[feasible], a[feasible]
        grads = scratch.grads[:, :z.shape[0]]
        _gpd_grad_parts(kappa, z, kz, a, grads[0], grads[1])
    return grads, feasible


def ll_weights(w, bandwidth, targets):
    """Local-linear (Gaussian kernel) weight rows, one per target point.

    Falls back to local-constant weights where the degree-1 system is
    numerically singular, and to a nearest-neighbour point mass if every
    kernel weight underflows.  The rows are built :func:`ll_block`
    targets at a time into the one (targets, w) output, so besides it
    only the offsets and the kernel of one block, O(block * w) each, are
    live.  Every row's sums run over that row alone, so a row is bitwise
    the same whatever block it is built in.
    """
    size = ll_block(w.size)
    rows = np.empty((targets.size, w.size))
    d = np.empty((min(size, targets.size), w.size))
    k = np.empty_like(d)
    for start in range(0, targets.size, size):
        block = targets[start:start + size]
        m = block.size
        _ll_rows(w, bandwidth, block, d[:m], k[:m], rows[start:start + m])
    return rows


def ll_diagonal(w, bandwidth):
    """The diagonal of ``ll_weights(w, bandwidth, w)``, without forming it.

    Row i's own offset is 0 and its own kernel weight 1, so its diagonal
    entry is s2/det, or 1/s0 where it falls back to local-constant
    weights (s0 >= 1, so it never needs the point mass): bitwise the
    entry the full row holds.  The moments are taken :func:`ll_block`
    rows at a time, in three (block, w) scratch arrays.
    """
    size = ll_block(w.size)
    diag = np.empty(w.size)
    d = np.empty((min(size, w.size), w.size))
    k = np.empty_like(d)
    tmp = np.empty_like(d)
    for start in range(0, w.size, size):
        block = w[start:start + size]
        m = block.size
        s0, _, s2, det, bad = _ll_moments(w, bandwidth, block, d[:m], k[:m], tmp[:m])
        diag[start:start + m] = np.where(bad, 1.0 / s0, s2 / det)
    return diag


def _ll_moments(w, bandwidth, targets, d, k, tmp):
    """Offsets d and kernel k of a block of targets, and its rows' moments.

    Returns the row sums s0, s1, s2 of k, k*d and k*d^2, the determinant
    of the degree-1 system (1.0 where it is numerically singular) and
    the mask of those singular rows.  ``tmp`` is scratch of d's shape.
    """
    np.subtract(w[None, :], targets[:, None], out=d)
    np.divide(d, bandwidth, out=k)
    np.square(k, out=k)
    np.multiply(-0.5, k, out=k)
    np.exp(k, out=k)
    s0 = k.sum(axis=1)
    np.multiply(k, d, out=tmp)
    s1 = tmp.sum(axis=1)
    tmp *= d
    s2 = tmp.sum(axis=1)
    det = s0 * s2 - s1 * s1
    bad = det <= 1e-12 * s0 * s2 + 1e-300
    return s0, s1, s2, np.where(bad, 1.0, det), bad


def _ll_rows(w, bandwidth, targets, d, k, rows):
    """The weight rows of ``targets`` into ``rows``, with d and k as scratch."""
    s0, s1, s2, det, bad = _ll_moments(w, bandwidth, targets, d, k, rows)
    np.multiply(d, s1[:, None], out=rows)
    np.subtract(s2[:, None], rows, out=rows)
    rows *= k
    rows /= det[:, None]
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
