"""Minimum-norm element of the convex hull of a finite vector set.

This is the sub-problem that turns a bundle of sampled gradients into a
descent direction: project the origin onto conv{g_0, ..., g_m}, i.e.
min ||Z r|| subject to r >= 0, sum(r) = 1.  :func:`min_norm_point` drops
duplicate rows and hands the distinct ones to one of two exact solvers:
:func:`_plane_hull`, a convex-hull pass, for any count of rows in R^1 or
R^2 (on random planar sets: 11 us at 4 rows, 18 at 9, 135 at 121, against
65, 69 and 70 us for Wolfe; minimum of 7, calls interleaved, one 2-core
Xeon core), and Wolfe's active-set algorithm in R^3 and up.  Both solve
on rows scaled exactly into one range, so a failure is a solver bug and
raises :class:`NumericalFailure`; no other reduction stands in.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure

_DROP_TOL = 1e-12
# bound on the KKT residual max_j (||g||^2 - g.z_j)+ at the returned
# point, relative to max_j ||z_j||^2 + ||g||^2
_KKT_TOL = 1e-10
_ZERO = np.zeros(1)


@dataclass(frozen=True, eq=False)
class GradientSet:
    """A stack of same-dimension gradient vectors, one per row."""

    vectors: np.ndarray

    def __post_init__(self):
        v = self.vectors
        # a sampler's (s, d) float rows need no conversion, so they skip it
        if not (type(v) is np.ndarray and v.dtype == np.float64 and v.ndim == 2):
            try:
                v = np.atleast_2d(np.asarray(v, dtype=float))
            except ValueError as exc:
                raise InvalidInput(f"gradient vectors must share one dimension: {exc}")
            object.__setattr__(self, "vectors", v)
        if v.size == 0 or v.shape[0] < 1:
            raise InvalidInput("gradient set must contain at least one vector")
        # a finite sum has finite terms, so one pass clears every finite set
        if not math.isfinite(v.sum()) and not np.isfinite(v).all():
            raise InvalidInput("gradient set contains non-finite entries")


@dataclass(frozen=True, eq=False)
class MinNormResult:
    point: np.ndarray
    weights: np.ndarray
    norm: float


def min_norm_point(grad_set):
    """Projection of the origin onto the convex hull of the set, to ``_KKT_TOL``.

    The solvers see the distinct rows scaled by a power of two (rounding
    nothing) to a largest entry in [1/2, 1), and the point maps back exactly.

    Raises
    ------
    NumericalFailure
        Only on a solver bug (exit 4 on the command line; nothing stands in):
        Wolfe's iteration stalls or exceeds its cap of 100*(m+1) steps, or the
        point exceeds a feasible point's norm past what Wolfe's stop allows.
    """
    z = grad_set.vectors
    count = z.shape[0]
    first = _distinct_rows(z)
    uniq = z[first]
    weights = np.zeros(count)
    if uniq.shape[0] == 1:  # uniq is a copy of the rows, so its row is the point's own
        weights[first] = 1.0
        return MinNormResult(uniq[0], weights, math.sqrt(uniq[0].dot(uniq[0])))
    shift = math.frexp(np.abs(uniq).max())[1]
    q = np.ldexp(uniq, -shift)
    if uniq.shape[1] <= 2:
        w_uniq = _plane_hull(q)
        point = w_uniq @ uniq
    else:
        x, w_uniq = _wolfe(q, cap=100 * count)
        point = np.ldexp(x, shift)
    weights[first] = w_uniq
    weights /= weights.sum()
    # the point may not exceed the nearer of two feasible points, the
    # shortest row and the rows' mean; the squared row norms, taken once,
    # give the shortest row and the largest
    sq = (z * z).sum(axis=1)
    mean = z.sum(axis=0) / count
    norm2 = point.dot(point)
    norm = math.sqrt(norm2)
    # Wolfe's stop, resid <= _KKT_TOL*(max row norm^2 + norm^2), puts the
    # point within sqrt(2*resid) of the minimizer
    if norm > (math.sqrt(min(sq.min(), mean.dot(mean)))
               + math.sqrt(2.0 * _KKT_TOL * (sq.max() + norm2))):
        raise NumericalFailure("min-norm solution exceeds a feasible point's norm")
    return MinNormResult(point, weights, norm)


def _distinct_rows(z):
    """Index of each distinct row's first occurrence, in lexicographic row order.

    The same indices, in the same order, as ``np.unique(z + 0.0, axis=0,
    return_index=True)[1]``: one stable lexicographic sort of the rows
    (first column first; -0.0 and 0.0 compare equal), then the first
    row of each run of equal neighbours.
    """
    order = np.lexsort(z.T[::-1])
    ranked = z[order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    (ranked[1:] != ranked[:-1]).any(axis=1, out=first[1:])
    return order[first]


def _plane_hull(q):
    """Weights of the exact min-norm point over 2 or more distinct rows q.

    The rows, in R^1 or R^2, lexicographically sorted and scaled so that no
    product under- or overflows, are points (x, y).  The least of every
    hull edge's clipped projection of the origin and, where the hull holds
    the origin, a fan triangle's barycentric point wins.  In Python floats:
    on tens of rows numpy's per-call overhead outweighs the arithmetic.
    """
    x = q[:, 0].tolist()
    y = q[:, 1].tolist() if q.shape[1] == 2 else [0.0] * len(x)

    def cross(a, b):  # a x b: > 0 where the origin is left of a -> b
        return x[a] * y[b] - y[a] * x[b]
    def turn(o, a, b):  # (a - o) x (b - o): > 0 where o -> a -> b turns left
        return (x[a] - x[o]) * (y[b] - y[o]) - (y[a] - y[o]) * (x[b] - x[o])

    ring = []  # the hull's vertices, counter-clockwise from row 0
    for order in (range(len(x)), range(len(x) - 1, -1, -1)):
        chain = []  # the lower chain, then the upper: strict left turns only
        for c in order:
            while len(chain) > 1 and turn(chain[-2], chain[-1], c) <= 0.0:
                chain.pop()
            chain.append(c)
        ring += chain[:-1]
    best, hit = math.inf, None
    inside = len(ring) > 2  # and the origin is left of every edge
    for a, b in zip(ring, ring[1:] + ring[:1]):
        dx, dy = x[b] - x[a], y[b] - y[a]
        dd = dx * dx + dy * dy
        # t = clip(-a.(b - a) / |b - a|^2, 0, 1), and 0 where |b - a|^2 underflows
        t = min(max(-(x[a] * dx + y[a] * dy) / dd, 0.0), 1.0) if dd > 0.0 else 0.0
        px, py = x[a] + t * dx, y[a] + t * dy
        score = px * px + py * py
        if score < best:
            best, hit = score, ((a, b), (1.0 - t, t))
        inside = inside and cross(a, b) > 0.0
    if inside:
        # the fan's diagonals from row 0 pass the origin once
        k = next(k for k in range(1, len(ring) - 1) if cross(0, ring[k + 1]) <= 0.0)
        a, b, c = 0, ring[k], ring[k + 1]
        # the origin's barycentric coordinates are the cross products of the
        # other two vertices over their sum, det: all >= 0 here, and det > 0
        la, lb, lc = cross(b, c), cross(c, a), cross(a, b)
        det = la + lb + lc
        la, lb, lc = la / det, lb / det, lc / det
        px = la * x[a] + lb * x[b] + lc * x[c]
        py = la * y[a] + lb * y[b] + lc * y[c]
        if px * px + py * py < best:
            # one step of iterative refinement against nearly collinear vertices:
            # take off the residual's barycentric coordinates, less their constant part
            fix = [((x[op] - x[nx]) * py - (y[op] - y[nx]) * px) / det
                   for nx, op in ((b, c), (c, a), (a, b))]
            hit = ((a, b, c), [max(v - f, 0.0) for v, f in zip((la, lb, lc), fix)])
    w = np.zeros(len(x))
    w[list(hit[0])] = hit[1]
    return w


def _affine_min(q):
    """Norm minimizer over the affine hull of the rows of q (weights sum to 1)."""
    s = q.shape[0]
    kkt = np.zeros((s + 1, s + 1))
    kkt[:s, :s] = q @ q.T
    kkt[:s, s] = 1.0
    kkt[s, :s] = 1.0
    rhs = np.zeros(s + 1)
    rhs[s] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    u = sol[:s]
    if not np.isfinite(u).all() or abs(u.sum() - 1.0) > 1e-8:
        raise NumericalFailure("affine subproblem is numerically singular")
    return u


def _wolfe(p, cap):
    """Wolfe's min-norm point ``(x, weights)`` over the distinct rows of p."""
    norms2 = np.einsum("ij,ij->i", p, p)
    # a power of four (rounding nothing) puts every squared row norm below 1:
    # each affine solve's Gram block stays below the ones bordering it, and
    # the stopping floor is the largest squared row norm
    k = (int(np.frexp(norms2.max())[1]) + 1) // 2
    p, norms2 = np.ldexp(p, -k), np.ldexp(norms2, -2 * k)
    floor = float(norms2.max())
    active = [int(norms2.argmin())]
    w = np.ones(1)
    iterations = 0
    while True:
        x = w @ p[active]
        xx = float(x @ x)
        dots = p @ x
        j = int(dots.argmin())
        resid = max(0.0, xx - dots[j])
        if resid <= _KKT_TOL * (floor + xx):
            break
        if j in active:
            raise NumericalFailure("active-set iteration stalled")
        active.append(j)
        w = np.concatenate((w, _ZERO))
        # minor cycles: pull w to the affine minimizer, dropping vanishing
        # weights until the minimizer is interior to the simplex face
        while True:
            iterations += 1
            if iterations > cap:
                raise NumericalFailure("min-norm iteration cap exceeded")
            u = _affine_min(p[active])
            if (u > _DROP_TOL).all():
                w = u
                break
            shrink = u <= _DROP_TOL
            denom = w[shrink] - u[shrink]
            movable = denom > _DROP_TOL
            if not movable.any():
                raise NumericalFailure("degenerate minor cycle")
            theta = min(1.0, float((w[shrink][movable] / denom[movable]).min()))
            w = (1.0 - theta) * w + theta * u
            w[w < _DROP_TOL] = 0.0
            if (w > 0.0).all():
                w[u.argmin()] = 0.0
            keep = w > 0.0
            active = [a for a, k in zip(active, keep) if k]
            w = w[keep]
            w /= w.sum()
    w_full = np.zeros(p.shape[0])
    w_full[active] = w
    return np.ldexp(x, k), w_full
