"""Hot numeric kernels with numba-jitted and pure-numpy twins.

The jitted path is the default whenever numba imports; set
``GSDA_DISABLE_NUMBA=1`` in the environment to force the numpy path.
Both implementations of every registered kernel are kept in the
``IMPLS`` registry so the benchmark (and the equivalence tests) can
compare them directly.  The qp-mode row kernel :func:`gpd_grad_rows` is
numpy only.

Layout conventions: sampled ball directions arrive as a ``(m, dim)``
matrix ``U``; GPD parameters arrive as the pair ``(eta, kappa)`` with
``sigma = exp(eta)``, and 2n-vectors stack the eta block before the
kappa block.
"""

import math
import os

import numpy as np

# Below this |kappa| the GPD formulas switch to second-order series in
# kappa to avoid cancellation in (c^-k - 1)/k style expressions.
KAPPA_EPS = 1e-8


def _env_disabled():
    return os.environ.get("GSDA_DISABLE_NUMBA", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------

def _pinball_loss_np(q, y, alpha):
    r = y - q
    return float(np.sum(np.where(r > 0.0, alpha * r, (alpha - 1.0) * r)))


def _pinball_grad_np(q, y, alpha):
    # tie convention: y == q takes the (1 - alpha) branch
    return np.where(y - q > 0.0, -alpha, 1.0 - alpha)


def _pinball_sampled_grad_sum_np(q, y, alpha, eps, U):
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


def _gpd_grad_parts(kappa, z, a):
    """Elementwise (d/d eta, d/d kappa) of the GPD log-likelihood.

    Takes z = y*exp(-eta) and a = 1 + kappa*z of any common shape; the
    second-order series replaces the exact kappa derivative only where
    |kappa| < KAPPA_EPS, and is evaluated only when some entry needs it.
    """
    geta = -1.0 + (1.0 + kappa) * z / a
    gkap = np.log1p(kappa * z) / (kappa * kappa) - (1.0 + 1.0 / kappa) * z / a
    small = np.abs(kappa) < KAPPA_EPS
    if small.any():
        series = 0.5 * z * z - z + kappa * (z * z - 2.0 * z ** 3 / 3.0) \
            + kappa * kappa * (0.75 * z ** 4 - z ** 3)
        gkap = np.where(small, series, gkap)
    return geta, gkap


def _gpd_perturbed(eta, kappa, y, eps, U):
    """Perturbed kappa, z, a and the support flags, one row per row u of U.

    The perturbed point is (eta, kappa) + eps*u, with u's first half
    moving eta and its second half kappa.
    """
    n = eta.shape[0]
    pk = kappa[None, :] + eps * U[:, n:]
    z = y[None, :] * np.exp(-(eta[None, :] + eps * U[:, :n]))
    a = 1.0 + pk * z
    return pk, z, a, _gpd_feasible(a)


def _gpd_loglik_np(eta, kappa, y):
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


def _gpd_grad_np(eta, kappa, y):
    """(d/d eta, d/d kappa) of the GPD log-likelihood, stacked (2n,)."""
    with np.errstate(all="ignore"):
        z = y * np.exp(-eta)
        geta, gkap = _gpd_grad_parts(kappa, z, 1.0 + kappa * z)
    return np.concatenate([geta, gkap])


def _gpd_sampled_grad_sum_np(eta, kappa, y, eps, U):
    """Accumulate GPD gradients at (eta, kappa) + eps*u over the rows of U.

    Rows whose perturbed parameters leave the GPD support contribute
    nothing; the returned mask marks the feasible rows so the caller can
    redraw the rest.
    """
    with np.errstate(all="ignore"):
        pk, z, a, feasible = _gpd_perturbed(eta, kappa, y, eps, U)
        geta, gkap = _gpd_grad_parts(pk[feasible], z[feasible], a[feasible])
    return np.concatenate([geta.sum(axis=0), gkap.sum(axis=0)]), feasible


def gpd_grad_rows(eta, kappa, y, eps, U):
    """GPD gradients at (eta, kappa) + eps*u, one stacked row per feasible u.

    Returns ``(rows, feasible)``: ``rows`` is (feasible.sum(), 2n) in the
    order of U, and ``feasible`` flags the rows of U that stay on the
    support (the rule of :func:`gpd_sampled_grad_sum`).  numpy only: this
    is the qp-mode row kernel, which has no numba twin.
    """
    with np.errstate(all="ignore"):
        pk, z, a, feasible = _gpd_perturbed(eta, kappa, y, eps, U)
        geta, gkap = _gpd_grad_parts(pk[feasible], z[feasible], a[feasible])
    return np.hstack([geta, gkap]), feasible


def _ll_weights_np(w, bandwidth, targets):
    """Local-linear (Gaussian kernel) weight rows, one per target point.

    Falls back to local-constant weights where the degree-1 system is
    numerically singular, and to a nearest-neighbour point mass if every
    kernel weight underflows.
    """
    d = w[None, :] - targets[:, None]
    k = np.exp(-0.5 * (d / bandwidth) ** 2)
    s0 = k.sum(axis=1)
    s1 = (k * d).sum(axis=1)
    s2 = (k * d * d).sum(axis=1)
    det = s0 * s2 - s1 * s1
    bad = det <= 1e-12 * s0 * s2 + 1e-300
    safe_det = np.where(bad, 1.0, det)
    rows = k * (s2[:, None] - d * s1[:, None]) / safe_det[:, None]
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


# ---------------------------------------------------------------------------
# loop forms (compiled by numba; never executed uncompiled)
# ---------------------------------------------------------------------------

def _pinball_loss_loops(q, y, alpha):
    s = 0.0
    for i in range(q.shape[0]):
        r = y[i] - q[i]
        s += alpha * r if r > 0.0 else (alpha - 1.0) * r
    return s


def _pinball_grad_loops(q, y, alpha):
    n = q.shape[0]
    out = np.empty(n)
    for i in range(n):
        out[i] = -alpha if y[i] - q[i] > 0.0 else 1.0 - alpha
    return out


def _pinball_sampled_grad_sum_loops(q, y, alpha, eps, U):
    m, n = U.shape
    out = np.zeros(n)
    for k in range(m):
        for i in range(n):
            if y[i] - (q[i] + eps * U[k, i]) > 0.0:
                out[i] -= alpha
            else:
                out[i] += 1.0 - alpha
    return out


def _gpd_loglik_loops(eta, kappa, y):
    n = eta.shape[0]
    s = 0.0
    for i in range(n):
        z = y[i] * math.exp(-eta[i])
        kp = kappa[i]
        a = 1.0 + kp * z
        if not (math.isfinite(a) and a > 0.0):
            return -np.inf
        if abs(kp) < KAPPA_EPS:
            s += -eta[i] - z - kp * (z - 0.5 * z * z) \
                - kp * kp * (z ** 3 / 3.0 - 0.5 * z * z)
        else:
            s += -eta[i] - (1.0 + 1.0 / kp) * math.log1p(kp * z)
    return s if math.isfinite(s) else -np.inf


def _gpd_grad_loops(eta, kappa, y):
    n = eta.shape[0]
    out = np.empty(2 * n)
    for i in range(n):
        z = y[i] * math.exp(-eta[i])
        kp = kappa[i]
        a = 1.0 + kp * z
        out[i] = -1.0 + (1.0 + kp) * z / a
        if abs(kp) < KAPPA_EPS:
            out[n + i] = 0.5 * z * z - z + kp * (z * z - 2.0 * z ** 3 / 3.0) \
                + kp * kp * (0.75 * z ** 4 - z ** 3)
        else:
            out[n + i] = math.log1p(kp * z) / (kp * kp) - (1.0 + 1.0 / kp) * z / a
    return out


def _gpd_sampled_grad_sum_loops(eta, kappa, y, eps, U):
    m = U.shape[0]
    n = eta.shape[0]
    gsum = np.zeros(2 * n)
    feasible = np.zeros(m, dtype=np.bool_)
    ge = np.empty(n)
    gk = np.empty(n)
    for k in range(m):
        ok = True
        for i in range(n):
            e = eta[i] + eps * U[k, i]
            kp = kappa[i] + eps * U[k, n + i]
            z = y[i] * math.exp(-e)
            a = 1.0 + kp * z
            if not (math.isfinite(a) and a > 0.0):
                ok = False
                break
            ge[i] = -1.0 + (1.0 + kp) * z / a
            if abs(kp) < KAPPA_EPS:
                gk[i] = 0.5 * z * z - z + kp * (z * z - 2.0 * z ** 3 / 3.0) \
                    + kp * kp * (0.75 * z ** 4 - z ** 3)
            else:
                gk[i] = math.log1p(kp * z) / (kp * kp) - (1.0 + 1.0 / kp) * z / a
        feasible[k] = ok
        if ok:
            for i in range(n):
                gsum[i] += ge[i]
                gsum[n + i] += gk[i]
    return gsum, feasible


def _ll_weights_loops(w, bandwidth, targets):
    n = w.shape[0]
    nt = targets.shape[0]
    rows = np.zeros((nt, n))
    k = np.empty(n)
    for t in range(nt):
        s0 = 0.0
        s1 = 0.0
        s2 = 0.0
        for j in range(n):
            d = w[j] - targets[t]
            kj = math.exp(-0.5 * (d / bandwidth) ** 2)
            k[j] = kj
            s0 += kj
            s1 += kj * d
            s2 += kj * d * d
        det = s0 * s2 - s1 * s1
        if det > 1e-12 * s0 * s2 + 1e-300:
            for j in range(n):
                rows[t, j] = k[j] * (s2 - (w[j] - targets[t]) * s1) / det
        elif s0 > 0.0:
            for j in range(n):
                rows[t, j] = k[j] / s0
        else:
            best = 0
            bestd = abs(w[0] - targets[t])
            for j in range(1, n):
                dj = abs(w[j] - targets[t])
                if dj < bestd:
                    bestd = dj
                    best = j
            rows[t, best] = 1.0
    return rows


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

IMPLS = {
    "numpy": {
        "pinball_loss": _pinball_loss_np,
        "pinball_grad": _pinball_grad_np,
        "pinball_sampled_grad_sum": _pinball_sampled_grad_sum_np,
        "gpd_loglik": _gpd_loglik_np,
        "gpd_grad": _gpd_grad_np,
        "gpd_sampled_grad_sum": _gpd_sampled_grad_sum_np,
        "ll_weights": _ll_weights_np,
    }
}

NUMBA_AVAILABLE = False
if not _env_disabled():
    try:
        from numba import njit

        NUMBA_AVAILABLE = True
    except ImportError:
        pass

if NUMBA_AVAILABLE:
    _jit = lambda f: njit(cache=True)(f)  # noqa: E731
    IMPLS["numba"] = {
        "pinball_loss": _jit(_pinball_loss_loops),
        "pinball_grad": _jit(_pinball_grad_loops),
        "pinball_sampled_grad_sum": _jit(_pinball_sampled_grad_sum_loops),
        "gpd_loglik": _jit(_gpd_loglik_loops),
        "gpd_grad": _jit(_gpd_grad_loops),
        "gpd_sampled_grad_sum": _jit(_gpd_sampled_grad_sum_loops),
        "ll_weights": _jit(_ll_weights_loops),
    }

ACTIVE = "numba" if NUMBA_AVAILABLE else "numpy"

pinball_loss = IMPLS[ACTIVE]["pinball_loss"]
pinball_grad = IMPLS[ACTIVE]["pinball_grad"]
pinball_sampled_grad_sum = IMPLS[ACTIVE]["pinball_sampled_grad_sum"]
gpd_loglik = IMPLS[ACTIVE]["gpd_loglik"]
gpd_grad = IMPLS[ACTIVE]["gpd_grad"]
gpd_sampled_grad_sum = IMPLS[ACTIVE]["gpd_sampled_grad_sum"]
ll_weights = IMPLS[ACTIVE]["ll_weights"]
