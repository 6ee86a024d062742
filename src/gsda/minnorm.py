"""Minimum-norm element of the convex hull of a finite vector set.

This is the sub-problem that turns a bundle of sampled gradients into a
descent direction: project the origin onto conv{g_0, ..., g_m}.  The
solver is Wolfe's min-norm-point algorithm, an active-set method for

    min ||Z r||  subject to  r >= 0,  sum(r) = 1,

run directly on all input vectors (the hull of all points equals the
hull of its vertices, so no vertex enumeration is needed).  A plain
average of the vectors is available as a fallback for the iterations
where the active-set solve breaks down.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure

_DROP_TOL = 1e-12
# bound on the KKT residual max_j (||g||^2 - g.z_j)+ at the returned
# point, relative to min(1, max_j ||z_j||^2) + ||g||^2, so that rows
# scaled below unit norm scale the point with them
_KKT_TOL = 1e-10
_ZERO = np.zeros(1)


@dataclass(frozen=True, eq=False)
class GradientSet:
    """A stack of same-dimension gradient vectors, one per row."""

    vectors: np.ndarray

    def __post_init__(self):
        try:
            v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        except ValueError as exc:
            raise InvalidInput(f"gradient vectors must share one dimension: {exc}")
        if v.size == 0 or v.shape[0] < 1:
            raise InvalidInput("gradient set must contain at least one vector")
        if not np.all(np.isfinite(v)):
            raise InvalidInput("gradient set contains non-finite entries")
        object.__setattr__(self, "vectors", v)

    @property
    def n(self):
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class MinNormResult:
    point: np.ndarray
    weights: np.ndarray
    norm: float
    method: str = "qp"


def average_fallback(grad_set):
    """Arithmetic mean of the set with uniform convex weights."""
    z = grad_set.vectors
    count = z.shape[0]
    point = z.mean(axis=0)
    weights = np.full(count, 1.0 / count)
    return MinNormResult(point, weights, float(np.linalg.norm(point)), "average")


def min_norm_point(grad_set):
    """Projection of the origin onto the convex hull of the set, to ``_KKT_TOL``.

    Raises
    ------
    NumericalFailure
        When the active-set iteration stalls or exceeds its cap of
        100*(m+1) steps; callers are expected to fall back to
        :func:`average_fallback`.
    """
    z = grad_set.vectors
    count = z.shape[0]
    first = _distinct_rows(z)
    uniq = z[first]
    if uniq.shape[0] == 1:
        weights = np.zeros(count)
        weights[first[0]] = 1.0
        point = uniq[0].copy()
        return MinNormResult(point, weights, float(np.linalg.norm(point)), "qp")

    point, w_uniq = _wolfe(uniq, cap=100 * count)

    weights = np.zeros(count)
    weights[first] = w_uniq
    weights /= weights.sum()
    norm = float(np.linalg.norm(point))
    row_norms = np.linalg.norm(z, axis=1)
    mean_norm = np.linalg.norm(z.mean(axis=0))
    bound = min(row_norms.min(), mean_norm)
    if norm > bound + 1e-9 * (1.0 + bound):
        raise NumericalFailure("min-norm solution exceeds a feasible point's norm")
    return MinNormResult(point, weights, norm, "qp")


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
    """Wolfe's min-norm-point algorithm over the rows of p (all distinct)."""
    norms2 = np.einsum("ij,ij->i", p, p)
    # the residual scales with the rows; an absolute floor of _KKT_TOL
    # would stop short on small rows
    floor = min(1.0, float(norms2.max()))
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
    return x, w_full
