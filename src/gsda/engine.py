"""Gradient-sampling descent for locally Lipschitz objectives.

At each iterate the gradient is evaluated at the point itself and at m
points drawn uniformly from the surrounding eps-ball; the minimum-norm
element of the convex hull of those gradients (or their plain average)
approximates the generalized subgradient.  Its negative drives a
backtracking line search; when its norm falls below the tolerance tau,
both eps and tau are shrunk.  The run stops once eps and tau reach
their floors, which certifies approximate stationarity at that scale.

One loop, :func:`descend`, runs this schedule for every problem.  A
problem supplies its objective, a sampled-gradient estimate and a
direction map; :func:`gsda_minimize`, the quantile fitter and the POT
fitter are three thin adapters around it.

One sampler, :func:`sample_rows`, draws the ball points, rejects those
outside the domain and redraws them, up to 10*m rejections per
estimate.  :func:`approx_subgradient` and the POT fitter build their
m+1 gradient rows with it; the mode then picks only the reduction of
those rows (Wolfe's min-norm point or their mean).  The pinball
fitter's kink draw never leaves the domain and bypasses it.
"""

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInput, NumericalFailure, SampleSizeWarning, SamplingExhausted
from .minnorm import GradientSet, average_fallback, min_norm_point

SUBGRADIENT_MODES = ("qp", "average")
# draws per evaluate call in sample_rows
_ROW_BLOCK = 32


@dataclass
class GsParams:
    """Hyperparameters of the sampling descent loop.

    ``m`` is the number of ball draws per estimate, besides the iterate.
    ``None`` resolves at run time to d+1, where d is the dimension of the
    space searched: the point's for :func:`gsda_minimize` and for the
    quantile fitter's average mode (n), and the additive subspace's for
    the quantile fitter's qp mode (r, the dimension of range(P)) and for
    the POT fitter in both modes (2r).  An explicit m is honoured; one
    below d+1 raises :class:`SampleSizeWarning`, since the convergence
    theory of gradient sampling assumes m >= d+1.

    Default mode: ``GsParams()`` means ``subgradient_mode="qp"``, and
    :func:`gsda_minimize` uses it when given no params.  The additive
    fitters, given ``gs=None``, use ``GsParams(subgradient_mode="average")``
    instead; an explicit ``GsParams()`` passed to them runs qp.
    """

    m: int | None = None
    beta: float = 0.1
    mu: float = 0.5
    lam: float = 0.5
    eps0: float = 0.1
    tau0: float = 1e-2
    eps_min: float = 1e-6
    tau_min: float = 1e-6
    max_iter: int = 5000
    max_backtracks: int = 30
    subgradient_mode: str = "qp"
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise InvalidInput("beta must lie in (0, 1)")
        if not (0.0 < self.mu < 1.0):
            raise InvalidInput("mu must lie in (0, 1)")
        if not (0.0 < self.lam < 1.0):
            raise InvalidInput("lambda must lie in (0, 1)")
        if self.eps0 <= 0.0 or self.tau0 <= 0.0:
            raise InvalidInput("eps0 and tau0 must be positive")
        if not (0.0 < self.eps_min < self.eps0):
            raise InvalidInput("need 0 < eps_min < eps0")
        if not (0.0 < self.tau_min < self.tau0):
            raise InvalidInput("need 0 < tau_min < tau0")
        if self.max_iter < 1 or self.max_backtracks < 1:
            raise InvalidInput("max_iter and max_backtracks must be positive")
        if self.m is not None and self.m < 1:
            raise InvalidInput("m must be a positive integer")
        if self.subgradient_mode not in SUBGRADIENT_MODES:
            raise InvalidInput(f"subgradient_mode must be one of {SUBGRADIENT_MODES}")

    def resolve_m(self, dim):
        if self.m is None:
            return dim + 1
        if self.m < dim + 1:
            warnings.warn(
                f"sampling size m={self.m} is below dimension+1={dim + 1}; "
                "the stationarity theory assumes m >= d+1 for the d-dimensional "
                "space searched",
                SampleSizeWarning,
                stacklevel=3,
            )
        return self.m


@dataclass
class Objective:
    """A scalar objective with a gradient defined off a null set.

    ``eval`` may return +inf to mark points outside the domain; ``grad``
    is only consulted where ``eval`` is finite.
    """

    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    dim: int


@dataclass
class TraceRecord:
    iteration: int
    f: float
    gnorm: float
    eps: float
    tau: float
    t: float
    method: str
    backtracks: int
    event: str  # "step" | "shrink" | "sampling_exhausted"


@dataclass
class FitTrace:
    """Per-iteration log of a descent run, with the run's totals.

    ``m`` is the resolved sample size and ``subspace_dim`` the length of
    the coordinate rows the estimate reduces (2r for the POT fitter, r
    for the quantile fitter's qp mode; None for its average mode), both
    set by the additive fitters.  ``ball_coordinates`` sums
    the ball coordinates the pinball fitter drew per point over its
    iterations (n per iteration would be the whole n-ball).
    ``rejected_draws`` sums the infeasible draws :func:`sample_rows`
    rejected, 10*m + 1 for each estimate that ended in
    :class:`SamplingExhausted` included.
    """

    records: list = field(default_factory=list)
    converged: bool = False
    message: str = ""
    m: int | None = None
    subspace_dim: int | None = None
    backfit_sweeps: int = 0
    projections_unconverged: int = 0
    ball_coordinates: int = 0
    rejected_draws: int = 0

    COLUMNS = ("iter", "f", "gnorm", "eps", "tau", "t", "method", "backtracks", "event")

    def add(self, *args):
        self.records.append(TraceRecord(*args))

    def __len__(self):
        return len(self.records)

    def record_projection(self, fit):
        """Add an additive projection's sweeps to the run totals; returns fit."""
        self.backfit_sweeps += fit.cycles
        self.projections_unconverged += not fit.converged
        return fit

    @property
    def accepted(self):
        return [r for r in self.records if r.event == "step"]

    def accepted_f(self):
        return np.array([r.f for r in self.accepted])

    def final_f(self):
        for r in reversed(self.records):
            if np.isfinite(r.f):
                return r.f
        return np.nan

    def to_rows(self):
        return [
            (r.iteration, r.f, r.gnorm, r.eps, r.tau, r.t, r.method, r.backtracks, r.event)
            for r in self.records
        ]


def sample_unit_ball(n, m, rng, dim=None):
    """m points uniform on the solid unit ball in R^dim, first n coordinates.

    Returns an (m, n) array; ``dim`` defaults to n, the whole point.  A
    uniform point is ``U^(1/dim) z/||z||`` with z standard normal in
    R^dim, and its first n coordinates need only those n normals: the
    dim - n left out enter through their squared norm, which is
    chi-squared with dim - n degrees of freedom, that is
    ``2 * standard_gamma((dim - n)/2)``.  So the marginal law is exact
    at O(m*n) cost.  The draw order is the m*n normals, then (when
    dim > n) the m gammas, then the m radii.
    """
    if n < 1 or m < 1:
        raise InvalidInput("n and m must be >= 1")
    if dim is None:
        dim = n
    elif dim < n:
        raise InvalidInput(f"dim={dim} must be >= n={n}")
    z = rng.standard_normal((m, n))
    if dim > n:
        norms = np.sqrt(np.einsum("ij,ij->i", z, z)
                        + 2.0 * rng.standard_gamma(0.5 * (dim - n), m))
    else:
        norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    radius = rng.random(m) ** (1.0 / dim)
    z *= (radius / norms)[:, None]
    return z


def sample_rows(first, m, eps, draw, evaluate):
    """The gradient at the iterate and at m feasible ball draws, as rows.

    This is the one feasible-draw sampler.  Row 0 is ``first``, the
    gradient at the iterate; rows 1..m are the gradients at the first m
    feasible draws, in draw order.  ``draw(k)`` returns k unit-ball
    points as a (k, d) array, and ``evaluate(u)`` the gradients at the
    feasible ones among the rows of u, in order.  Each round draws only
    the rows still missing, so no draw is left over once the last row
    is filled, and hands them to ``evaluate`` in blocks of
    ``_ROW_BLOCK`` so temporaries stay O(block * d).

    Returns ``(rows, rejected)``, rejected counting the infeasible
    draws.  The draw that takes the rejections past 10*m raises
    :class:`SamplingExhausted`, whose ``rejected`` is then 10*m + 1.
    """
    rows = np.empty((m + 1, first.size))
    rows[0] = first
    got, rejected, cap = 1, 0, 10 * m
    while got < m + 1:
        u = draw(m + 1 - got)
        for start in range(0, u.shape[0], _ROW_BLOCK):
            block = u[start:start + _ROW_BLOCK]
            g = evaluate(block)
            rejected += block.shape[0] - g.shape[0]
            if rejected > cap:
                raise SamplingExhausted(
                    f"more than {cap} infeasible draws at eps={eps:g}", cap + 1)
            rows[got:got + g.shape[0]] = g
            got += g.shape[0]
    return rows, rejected


def approx_subgradient(obj, x, eps, params, rng, trace=None):
    """Sampled approximation of the generalized subgradient at x.

    Draws m ball points, rejects any that land outside the domain
    (eval +inf or non-finite gradient) and redraws them through
    :func:`sample_rows`, then reduces the m+1 gradients by the
    configured mode.  The rejected draws are added to
    ``trace.rejected_draws`` when a trace is given.
    """
    x = np.asarray(x, dtype=float)
    fx = obj.eval(x)
    if not np.isfinite(fx):
        raise InvalidInput("approx_subgradient requires a feasible base point")
    g0 = np.asarray(obj.grad(x), dtype=float)
    if not np.all(np.isfinite(g0)):
        raise InvalidInput("gradient at the base point is not finite")
    m = params.resolve_m(obj.dim)

    def evaluate(u):
        rows = []
        for ut in u:
            xt = x + eps * ut
            if np.isfinite(obj.eval(xt)):
                gt = np.asarray(obj.grad(xt), dtype=float)
                if np.all(np.isfinite(gt)):
                    rows.append(gt)
        return np.reshape(rows, (-1, obj.dim))

    rows, rejected = sample_rows(
        g0, m, eps, lambda k: sample_unit_ball(obj.dim, k, rng), evaluate)
    if trace is not None:
        trace.rejected_draws += rejected
    grad_set = GradientSet(rows)
    if params.subgradient_mode == "average":
        return average_fallback(grad_set)
    try:
        return min_norm_point(grad_set)
    except NumericalFailure:
        return average_fallback(grad_set)


def armijo_search(obj, x, d, g_norm, beta, max_backtracks):
    """Backtracking search along the unit direction d.

    Tries t in {1, 1/2, 1/4, ...} and returns ``(t, backtracks, f_new)``
    for the first t with ``f(x + t d) < f(x) - beta * t * g_norm`` and a
    finite value; returns ``None`` when every candidate fails, which the
    driver treats as a stationarity signal at the current scale.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim == 0:
        d = float(d)  # a search along a ray: scalar trial points stay cheap
    if abs(np.linalg.norm(d) - 1.0) > 1e-10:
        raise InvalidInput("search direction must have unit norm")
    if g_norm <= 0.0:
        raise InvalidInput("g_norm must be positive")
    fx = obj.eval(x)
    t = 1.0
    for b in range(max_backtracks + 1):
        ft = obj.eval(x + t * d)
        if np.isfinite(ft) and ft < fx - beta * t * g_norm:
            return t, b, ft
        t *= 0.5
    return None


def unit_direction(d):
    """d / ||d||, or None when ||d|| < 1e-15 (no usable direction)."""
    dnorm = float(np.linalg.norm(d))
    return d / dnorm if dnorm >= 1e-15 else None


def descend(objective, x, f, estimate, direction, params, trace):
    """The sampling descent loop shared by every problem; returns the last x.

    ``objective(x)`` is the value to decrease (+inf off the domain) and
    ``f`` its finite value at the start ``x``.  Each iteration asks
    ``estimate(x, eps)`` for ``(g, gnorm, method)``, the sampled
    gradient estimate and its norm, and shrinks eps and tau when gnorm
    is at most tau.  Otherwise ``direction(x, g, gnorm)`` returns the
    step vector v, or None to shrink, and :func:`armijo_search` looks
    along the ray t -> objective(x + t*v) for a step with the decrease
    beta*t*gnorm; a failed search also shrinks.  An estimate that raises
    :class:`SamplingExhausted` shrinks too, and its rejected draws are
    added to ``trace.rejected_draws``.  A non-finite gnorm or v
    raises :class:`NumericalFailure`.  Every iteration adds one record
    to ``trace``.  An accepted step replaces x by a new array and never
    changes it in place, so a problem may key data of the iterate on
    its identity.
    """
    eps, tau = params.eps0, params.tau0
    for it in range(params.max_iter):
        if eps <= params.eps_min and tau <= params.tau_min:
            trace.converged = True
            break
        try:
            g, gnorm, method = estimate(x, eps)
        except SamplingExhausted as exc:
            trace.rejected_draws += exc.rejected
            gnorm, method, event, v = np.nan, "none", "sampling_exhausted", None
        else:
            if not np.isfinite(gnorm):
                raise NumericalFailure(f"non-finite gradient norm at iteration {it}")
            event = "shrink"
            v = direction(x, g, gnorm) if gnorm > tau else None
        hit = None
        if v is not None:
            if not np.all(np.isfinite(v)):
                raise NumericalFailure(f"non-finite step vector at iteration {it}")
            # the search runs from 0 along 1 on the ray, so its trial
            # points are t exactly and the iterates are x + t*v; its value
            # at 0 is objective(x), which f already holds
            ray = Objective(lambda t: objective(x + t * v) if t else f, None, 1)
            hit = armijo_search(ray, 0.0, 1.0, gnorm, params.beta, params.max_backtracks)
        if hit is None:
            eps *= params.mu
            tau *= params.lam
            backtracks = 0 if v is None else params.max_backtracks + 1
            trace.add(it, f, gnorm, eps, tau, 0.0, method, backtracks, event)
            continue
        t, backtracks, f = hit
        x = x + t * v
        trace.add(it, f, gnorm, eps, tau, t, method, backtracks, "step")
    else:
        trace.message = "max_iter reached"
    return x


def gsda_minimize(obj, x0, params=None):
    """Run the sampling descent loop from x0; returns (x, trace)."""
    params = params if params is not None else GsParams()
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (obj.dim,):
        raise InvalidInput(f"x0 must have shape ({obj.dim},)")
    f = obj.eval(x)
    if not np.isfinite(f):
        raise InvalidInput("objective must be finite at x0")
    rng = np.random.default_rng(params.seed)

    def estimate(x, eps):
        res = approx_subgradient(obj, x, eps, params, rng, trace)
        return res.point, res.norm, res.method

    trace = FitTrace()
    x = descend(obj.eval, x, f, estimate, lambda x, g, gnorm: -g / gnorm, params, trace)
    return x, trace


# ---------------------------------------------------------------------------
# built-in test objectives
# ---------------------------------------------------------------------------

def nonsmooth_rosenbrock():
    """f(x) = 10|x2 - x1^2| + (1 - x1)^2, minimized at (1, 1)."""

    def f(x):
        return 10.0 * abs(x[1] - x[0] ** 2) + (1.0 - x[0]) ** 2

    def g(x):
        s = np.sign(x[1] - x[0] ** 2)
        return np.array([-20.0 * s * x[0] - 2.0 * (1.0 - x[0]), 10.0 * s])

    return Objective(f, g, 2)


def l1_norm(dim):
    """f(x) = ||x||_1."""
    return Objective(
        lambda x: float(np.sum(np.abs(x))),
        lambda x: np.sign(x),
        dim,
    )


def sum_of_squares(center):
    """f(x) = ||x - center||^2."""
    c = np.asarray(center, dtype=float)
    return Objective(
        lambda x: float(np.sum((x - c) ** 2)),
        lambda x: 2.0 * (x - c),
        c.size,
    )
