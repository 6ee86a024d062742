"""Additive quantile regression by sampled-subgradient descent.

The vector of quantile values moves along the negative sampled pinball
subgradient, smoothed onto the additive covariate space, by an Armijo
step on the pinball risk.  The sampling radius eps and the tolerance
tau halve whenever the subgradient norm drops below tau or no step is
accepted, and the run stops when both reach their floors.

The pinball gradient is ``-alpha`` or ``1 - alpha`` in each coordinate,
by the sign of the residual y_i - q_i, so a sampled gradient can differ
from the gradient at q only where a draw moves q_i across y_i.

Average mode draws the n-dimensional eps-ball.  A ball point moves each
q_i by at most eps, so only the kink set A = {i : |y_i - q_i| <= 2*eps}
is drawn; the factor 2 leaves room for the rounding of y - (q + eps*u).
The coordinates of A get the exact marginal law of a point uniform on
the n-dimensional ball (see :func:`~gsda.engine.sample_unit_ball`), and
every other coordinate keeps its base gradient.  The estimate g_hat is
the average of the m+1 gradients, with its raw norm as the stationarity
and Armijo measure.  The step is -P g_hat/||P g_hat||, with P g_hat
taken through the projector's factors P = U A
(:meth:`~gsda.smoothing.AdditiveProjector.apply`); a vanishing P g_hat
shrinks.

qp mode runs gradient sampling on the problem restricted to the additive
space, in the coordinates of the projector's
:class:`~gsda.smoothing.CoordinateMap` (P g = B (M g), B orthonormal
n x r).  Each draw is eps*B*u with u uniform in
the r-ball, through :func:`~gsda.engine.sample_rows`; it moves q_i by at
most eps*||B_i||, so the kink set is {i : |y_i - q_i| <= 2*eps*||B_i||}.
The min-norm point c* of the (m+1) x r coordinate rows M g gives the
step -B c*/||c*||, and ||c*|| = ||P g_hat|| is the stationarity and
Armijo measure.  Both modes draw all m at once, with no first block
(:func:`~gsda.engine.staged_estimate`).

The default m is d+1 for d the dimension of the space the step lives
in: r in qp mode, and in average mode the 1 + sum_j r_j columns of the
projector's factor U, which span range(P) and are counted without the
coordinate map's SVD (:attr:`~gsda.smoothing.AdditiveProjector.factor_dim`).
The average g_hat is a Monte-Carlo estimate of the ball-smoothed
gradient, whose m sets only its variance, so m need not grow with n.
An iteration costs O(m*a*r) in qp mode and O(m*a + n*d) in average
mode, for a = |A|, typically a few percent of n.

No iteration calls :meth:`~gsda.smoothing.AdditiveProjector.project`:
it runs once, for the final decomposition.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .engine import FitTrace, GsParams, descend, sample_rows, sample_unit_ball
from .errors import InvalidInput
from .minnorm import GradientSet, min_norm_point
from .smoothing import AdditiveProjector


def pinball_loss(q, y, alpha):
    """Total pinball risk sum_i rho_alpha(q_i; y_i); zero iff q == y."""
    q, y = _check_pair(q, y, alpha)
    return _kernels.pinball_loss(q, y, alpha)


def pinball_grad(q, y, alpha):
    """Elementwise derivative of the pinball risk in q.

    Entries are ``1 - alpha`` where ``y - q < 0`` and ``-alpha`` where
    ``y - q > 0``; exact ties take the ``1 - alpha`` branch (any
    subgradient value is admissible there).
    """
    q, y = _check_pair(q, y, alpha)
    return _kernels.pinball_grad(q, y, alpha)


def _check_pair(q, y, alpha):
    q = np.asarray(q, dtype=float)
    y = np.asarray(y, dtype=float)
    if q.shape != y.shape:
        raise InvalidInput("q and y must have identical shape")
    if not (0.0 < alpha < 1.0):
        raise InvalidInput("alpha must lie in (0, 1)")
    return q, y


@dataclass
class QuantileModel:
    """Fitted additive quantile model at one level alpha."""

    alpha: float
    q: np.ndarray
    projector: AdditiveProjector
    decomposition: object
    trace: FitTrace


def _sampled_subgradient(q, y, alpha, eps, m, rng, apply_p, trace, base):
    """The average-mode estimate at q, as :func:`~gsda.engine.descend` takes it.

    ``base`` is the pinball gradient at q, taken once per iterate, and
    ``apply_p`` maps a vector g to P g.  Draws the a = |A| kink
    coordinates of the n-ball, none for A empty, and adds a to
    ``trace.ball_coordinates``.  Returns
    ``(-P g_hat/||P g_hat||, ||g_hat||, "average", None)`` for the mean
    g_hat of the m+1 gradients; the step is None for ||P g_hat|| < 1e-15.
    """
    kink = np.flatnonzero(np.abs(y - q) <= 2.0 * eps)
    g = base.copy()
    if kink.size:
        u = sample_unit_ball(kink.size, m, rng, dim=q.size)
        sampled = _kernels.pinball_sampled_grad_sum(q[kink], y[kink], alpha, eps, u)
        g[kink] = (base[kink] + sampled) / (m + 1)
    trace.ball_coordinates += kink.size
    p = apply_p(g)
    pnorm = float(np.linalg.norm(p))
    step = p / -pnorm if pnorm >= 1e-15 else None
    return step, float(np.linalg.norm(g)), "average", None


def _min_norm_estimate(q, y, alpha, eps, m, rng, coords, trace, base):
    """The qp-mode estimate at q: the min-norm point c of the coordinate rows.

    Row 0 is M base; :func:`~gsda.engine.sample_rows` adds the rows of m
    r-ball draws, each evaluated on the kink set A alone, and adds r to
    ``trace.ball_coordinates``.  With A empty nothing is drawn and the
    solve gets row 0.  Returns ``(-B c/||c||, ||c||, "qp", None)``.
    """
    B, M = coords.basis, coords.coef
    rows = first = M @ base
    kink = np.flatnonzero(np.abs(y - q) <= 2.0 * eps * coords.row_norms)
    if kink.size:
        def evaluate(u):
            moved = _kernels.pinball_grad(q[kink] + eps * (u @ B[kink].T), y[kink], alpha)
            return first + (moved - base[kink]) @ M[:, kink].T

        rows = sample_rows(first, m, eps, lambda k: sample_unit_ball(coords.dim, k, rng),
                           evaluate, trace)
        trace.ball_coordinates += coords.dim
    res = min_norm_point(GradientSet(rows))
    return (B @ (res.point / -res.norm) if res.norm else None), res.norm, "qp", None


def fit_quantile_additive(y, W, alpha, specs, gs=None):
    """Fit q_alpha(w) = intercept + sum_j f_j(w_j) by minimizing pinball risk.

    Parameters
    ----------
    y : (n,) response vector
    W : (n, k) covariate matrix (factor columns as level codes); None or
        a zero-column matrix fits the intercept-only model
    alpha : quantile level in (0, 1)
    specs : one SmootherSpec per covariate column
    gs : GsParams; None means the defaults in average mode (qp mode
        searches the r coordinates of the additive space; module docstring)
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise InvalidInput("y must be a finite 1-d vector")
    if not (0.0 < alpha < 1.0):
        raise InvalidInput("alpha must lie in (0, 1)")
    n = y.size
    projector = AdditiveProjector(W, specs, n)
    gs = gs if gs is not None else GsParams(subgradient_mode="average")
    if gs.subgradient_mode == "average":
        estimate, space, dim = _sampled_subgradient, projector.apply, None
    else:
        estimate, space = _min_norm_estimate, projector.coordinate_map()
        dim = space.dim
    m = gs.resolve_m(projector.factor_dim if dim is None else dim)
    rng = np.random.default_rng(gs.seed)

    def at(q, f):
        base = _kernels.pinball_grad(q, y, alpha)
        return lambda eps: estimate(q, y, alpha, eps, m, rng, space, trace, base)

    def risk(q):
        return _kernels.pinball_loss(q, y, alpha)

    q = np.full(n, float(np.quantile(y, alpha)))
    trace = FitTrace(m=m, subspace_dim=dim)
    q = descend(risk, q, at, gs, trace, stacked=True)

    # report the additive decomposition of the final iterate; its fitted
    # values are the model's quantile vector, so q and its decomposition
    # agree by construction
    decomposition = trace.record_projection(projector.project(q))
    return QuantileModel(alpha, decomposition.fitted.copy(), projector,
                         decomposition, trace)


def predict_quantile(model, W_new):
    """Evaluate a fitted quantile model at new covariate values.

    Covariates outside the training range are still evaluated but flag
    :class:`~gsda.errors.ExtrapolationWarning`.
    """
    return model.projector.predict(model.decomposition, W_new)
