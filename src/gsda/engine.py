"""Gradient-sampling descent for locally Lipschitz objectives.

At each iterate the gradient is evaluated at the point itself and at m
points drawn uniformly from the surrounding eps-ball; the minimum-norm
element of the convex hull of those gradients approximates the
generalized subgradient.  Its negative drives a backtracking line
search; when its norm falls below the tolerance tau, both eps and tau
are shrunk.  The run stops once eps and tau reach their floors, which
certifies approximate stationarity at that scale.

One loop, :func:`descend`, runs this schedule for every problem and
owns the iterate.  A problem supplies its objective and ``at(x, f)``,
which the loop calls at the start and after each accepted step and
which returns that iterate's sampled-gradient estimate, returning its
step vector with the norm that gauges it and, for an estimate from a
first block of draws, how to complete it; :func:`gsda_minimize`, the
quantile fitter and the POT fitter are three thin adapters around it.

:func:`armijo_search` walks the steps 1, 1/2, ..., 2^-max_backtracks
with one test.  All three built-in fitters search stacked: the quantile
and POT fitters' rays, and :func:`gsda_minimize`'s on a ``stacked``
objective (every built-in one), take the steps in blocks, one call a
block.  :func:`descend` fixes the block once per run at
min(``_ROW_BLOCK``, ``_RAY_BUDGET`` // d) steps for points of dimension
d, so the minimizer and the quantile fitter at n = 300 take 32 steps a
call and the POT fitter at n = 300 takes 16.  The minimizer's ball draws
go in blocks of ``_ROW_BLOCK``, then through one set of filters and
shape checks.

One sampler, :func:`sample_rows`, draws the ball points, rejects those
outside the domain and redraws them, up to 10*k rejections for k rows
asked, and alone adds the rejections to ``trace.rejected_draws``.
:func:`approx_subgradient`, the POT fitter and the pinball fitter's qp
mode build their rows with it and reduce them to their min-norm point
(:mod:`gsda.minnorm`: a convex-hull pass in R^1 or R^2, whatever the
row count, Wolfe's algorithm in R^3 and up; no other reduction stands
in).  A pinball draw never leaves the domain.  Average mode draws its
kink coordinates alone; only that fitter reads ``subgradient_mode``.

Draws on demand: the m >= d+1 draws certify stationarity, that is, they
decide when eps and tau shrink; a descent step needs far fewer.  So
:func:`staged_estimate`, which the minimizer and the POT fitter use,
reduces the iterate's row and the first min(m, ``FIRST_DRAWS``) draws
first.  A subset norm at most tau shrinks at once: the subset's hull
lies inside the full sample's, so the full min-norm point is no longer.
Otherwise :func:`descend` searches the subset's step, and only a failed
search draws the other m - 8 rows behind the first block and decides
again on all m+1 (``trace.topups`` counts those).  An estimate with
m <= 8 is complete from the start, as is every pinball estimate.
"""

import math
import warnings
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInput, NumericalFailure, SampleSizeWarning, SamplingExhausted
from .minnorm import GradientSet, min_norm_point

SUBGRADIENT_MODES = ("qp", "average")
# draws per evaluate call in sample_rows, and at most as many trial steps
# per stacked ray call
_ROW_BLOCK = 32
# draws a min-norm estimate reduces before it draws the rest of its m
FIRST_DRAWS = 8
# point coordinates per stacked ray call: descend's block is
# min(_ROW_BLOCK, _RAY_BUDGET // d) steps for points of dimension d
_RAY_BUDGET = 9_600


@dataclass
class GsParams:
    """Hyperparameters of the sampling descent loop.

    ``m`` is the most ball draws an estimate takes, besides the iterate:
    a step comes from the first min(m, 8) (``FIRST_DRAWS``), and the
    other m - 8 are drawn only to decide a shrink after that step fails
    its search (module docstring); both quantile estimates draw all m
    at once.  ``None`` resolves at run time to
    d+1, where d is the dimension of the space searched: the point's for
    :func:`gsda_minimize` and for the quantile fitter's average mode (n),
    and the additive subspace's for the quantile fitter's qp mode (r,
    the dimension of range(P)) and for the POT fitter (2r).  An explicit
    m is honoured; one below d+1 raises :class:`SampleSizeWarning`,
    since the convergence theory of gradient sampling assumes m >= d+1.

    Mode rule: only the quantile fitter reads ``subgradient_mode``.  It
    picks that fitter's reduction of the sampled rows, their min-norm
    point (``"qp"``, the default) or their mean (``"average"``); given
    ``gs=None`` the fitter uses average mode.  Every other descent
    reduces by the min-norm point and raises :class:`InvalidInput` for any
    mode but qp (:meth:`require_qp`).  The CLI's ``--mode`` defaults to
    average for ``fit-quantile`` and to qp for every other task.
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
        if not (0.0 < self.eps0 < np.inf and 0.0 < self.tau0 < np.inf):
            raise InvalidInput("eps0 and tau0 must be positive and finite")
        if not (0.0 < self.eps_min < self.eps0):
            raise InvalidInput("need 0 < eps_min < eps0")
        if not (0.0 < self.tau_min < self.tau0):
            raise InvalidInput("need 0 < tau_min < tau0")
        counts = (self.max_iter, self.max_backtracks, 1 if self.m is None else self.m)
        if not all(isinstance(c, Integral) and c >= 1 for c in counts):
            raise InvalidInput("max_iter, max_backtracks and m must be positive integers")
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise InvalidInput("seed must be a non-negative integer")
        if self.subgradient_mode not in SUBGRADIENT_MODES:
            raise InvalidInput(f"subgradient_mode must be one of {SUBGRADIENT_MODES}")

    def require_qp(self, who):
        """Raise :class:`InvalidInput` unless qp: ``who`` reduces by the min-norm point alone."""
        if self.subgradient_mode != "qp":
            raise InvalidInput(f"{who} reduces by the min-norm point: subgradient_mode "
                               f"must be 'qp', got {self.subgradient_mode!r}")

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
    is only consulted where ``eval`` is finite.  A point is a 1-D array
    of length ``dim``, for which ``eval`` returns a scalar and ``grad`` a
    ``dim``-vector.  When ``stacked`` is True, both also take a (k, dim)
    stack of points, one per row: ``eval`` returns the k values, shape
    (k,), and ``grad`` the k gradients as (k, dim) rows, each equal to
    its point's one-point result.  :func:`gsda_minimize` then evaluates
    each block of ball draws, and of Armijo steps, in one call.
    """

    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    dim: int
    stacked: bool = False


class TraceRecord(NamedTuple):
    """One iteration of a trace; its fields are the columns of ``FitTrace.COLUMNS``."""

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
    for the quantile fitter's qp mode; None for its average mode and the
    minimizer).  ``ball_coordinates`` sums
    the ball coordinates the pinball fitter drew per point over its
    iterations (n per iteration would be the whole n-ball).
    ``rejected_draws`` sums the infeasible draws :func:`sample_rows`
    rejected, 10*k + 1 for each call for k rows that ended in
    :class:`SamplingExhausted` included.  ``topups`` counts the
    estimates that drew the rest of their m rows after their first
    block's step failed its search (:func:`staged_estimate`).
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
    topups: int = 0

    COLUMNS = ("iter", "f", "gnorm", "eps", "tau", "t", "method", "backtracks", "event")

    def add(self, *args):
        self.records.append(TraceRecord._make(args))

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

    def final_f(self):
        for r in reversed(self.records):
            if np.isfinite(r.f):
                return r.f
        return np.nan


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
    else:  # np.linalg.norm(z, axis=1)'s own formula, without its dispatch
        norms = np.sqrt(np.add.reduce(z * z, axis=1))
    norms[norms == 0.0] = 1.0
    radius = rng.random(m) ** (1.0 / dim)
    z *= (radius / norms)[:, None]
    return z


def sample_rows(first, m, eps, draw, evaluate, trace=None):
    """The gradient at the iterate and at m feasible ball draws, as rows.

    This is the one feasible-draw sampler.  Row 0 is ``first``, the
    gradient at the iterate; rows 1..m are the gradients at the first m
    feasible draws, in draw order.  ``draw(k)`` returns k unit-ball
    points as a (k, d) array, and ``evaluate(u)`` the gradients at the
    feasible ones among the rows of u, in order.  Each round draws only
    the rows still missing, so no draw is left over once the last row
    is filled, and hands them to ``evaluate`` in blocks of
    ``_ROW_BLOCK`` so temporaries stay O(block * d).

    Returns the (m+1, d) rows and adds the infeasible draws to
    ``trace.rejected_draws`` when a trace is given.  The draw that takes
    the rejections past 10*m raises :class:`SamplingExhausted`, whose
    ``rejected`` is 10*m + 1; that count goes to the trace first.
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
                if trace is not None:
                    trace.rejected_draws += cap + 1
                raise SamplingExhausted(
                    f"more than {cap} infeasible draws at eps={eps:g}", cap + 1)
            rows[got:got + g.shape[0]] = g
            got += g.shape[0]
    if trace is not None:
        trace.rejected_draws += rejected
    return rows


def staged_estimate(m, rows, reduce):
    """An estimate from the first min(m, FIRST_DRAWS) draws, completed on demand.

    ``rows(k)`` returns the iterate's gradient row and the rows of k new
    ball draws (:func:`sample_rows`), and ``reduce(rows)`` the step
    vector and gnorm of their min-norm point.  Returns :func:`descend`'s
    ``(v, gnorm, "qp", rest)`` for the first block: rest is None when
    m <= FIRST_DRAWS (the estimate is complete), otherwise ``rest()``
    draws the other m - FIRST_DRAWS rows, keeps the first block as rows
    0..FIRST_DRAWS ahead of them, and returns the complete estimate's
    ``(v, gnorm, "qp", None)``.
    """
    k = min(m, FIRST_DRAWS)
    first = rows(k)
    v, gnorm = reduce(first)
    if k == m:
        return v, gnorm, "qp", None
    return v, gnorm, "qp", lambda: (
        *reduce(np.concatenate((first, rows(m - k)[1:]))), "qp", None)


def _per_point(fn, xs, shape, what):
    """[fn(x) for x in xs], each result checked to be of ``shape`` before any stacking."""
    out = [fn(xt) for xt in xs]
    for value in out:
        if np.shape(value) != shape:
            raise InvalidInput(f"a per-point {what} must map {xs.shape} points to shape "
                               f"{(xs.shape[0], *shape)}, got {np.shape(value)} at a point")
    return out


def approx_subgradient(obj, x, eps, params, rng, trace=None, *, f, g0):
    """The minimizer's sampled estimate at x, as :func:`descend` takes it.

    ``f`` and ``g0`` are the value and gradient at x, which the caller
    holds; x is not evaluated again.  A non-finite f, or a g0 that is
    not a finite ``dim``-vector, raises :class:`InvalidInput`.  Draws
    ball points, rejects any that land outside the domain (eval +inf or
    non-finite gradient) and redraws them through :func:`sample_rows`,
    and reduces the gradients to their min-norm point g: the first
    min(m, FIRST_DRAWS) draws now and the rest on demand
    (:func:`staged_estimate`).  Returns ``(v, gnorm, "qp", rest)`` with
    the step v = -g/||g|| (None when g = 0) and gnorm = ||g||; rest is
    None for m <= FIRST_DRAWS.  A block of
    k draws takes one ``eval`` and one ``grad`` call (on the finite-valued
    rows) when ``stacked``, one call a point otherwise; k values not of
    shape (k,), or gradients not (k, d), raise :class:`InvalidInput`.
    A mode other than qp raises :class:`InvalidInput`; a failed solve, a
    solver bug, raises :class:`NumericalFailure` (exit 4 on the command
    line) with no fallback.  When a trace is given, the resolved m is set
    on it and the sampler adds the rejected draws to ``trace.rejected_draws``.
    """
    params.require_qp("the minimizer")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(f):
        raise InvalidInput("approx_subgradient requires a feasible base point")
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != (obj.dim,) or not np.isfinite(g0).all():
        raise InvalidInput(f"the gradient at the base point must be a finite {obj.dim}-vector")
    m = params.resolve_m(obj.dim)
    if trace is not None:
        trace.m = m

    form = "stacked" if obj.stacked else "per-point"

    def evaluate(u):
        xs = x + eps * u
        values = obj.eval(xs) if obj.stacked else _per_point(obj.eval, xs, (), "eval")
        if np.shape(values) != (xs.shape[0],):
            raise InvalidInput(f"a {form} eval must map {xs.shape} points to shape "
                               f"({xs.shape[0]},), got {np.shape(values)}")
        xs = xs[np.isfinite(values)]
        if not xs.shape[0]:
            return xs
        g = np.asarray(obj.grad(xs) if obj.stacked
                       else _per_point(obj.grad, xs, (obj.dim,), "grad"), dtype=float)
        if g.shape != xs.shape:
            raise InvalidInput(f"a {form} grad must map {xs.shape} points to shape "
                               f"{xs.shape}, got {g.shape}")
        return g[np.isfinite(g).all(axis=1)]

    def draw(k):
        return sample_unit_ball(obj.dim, k, rng)

    def reduce(rows):
        res = min_norm_point(GradientSet(rows))
        return (res.point / -res.norm if res.norm else None), res.norm

    return staged_estimate(m, lambda k: sample_rows(g0, k, eps, draw, evaluate, trace), reduce)


def armijo_search(phi, f, slope, beta, max_backtracks, stacked=False, block=_ROW_BLOCK):
    """Backtracking search on the ray t -> phi(t), whose value at 0 is f.

    Tries t in {1, 1/2, 1/4, ...} and returns ``(t, backtracks, f_new)``
    for the first finite phi(t) < f - beta * t * slope; returns ``None``
    when every candidate fails, which the driver treats as a
    stationarity signal at the current scale.  A ``stacked`` phi maps a
    1-D array of steps to their values and gets the ladder in blocks of
    ``block`` steps, any other phi one step a call: same result.
    """
    if not slope > 0.0:
        raise InvalidInput("slope must be positive")
    size = block if stacked else 1
    for b in range(max_backtracks + 1):
        t = math.ldexp(1.0, -b)
        if not b % size:  # the next block of the ladder, in one call, as floats
            values = (phi(np.ldexp(1.0, -np.arange(b, max_backtracks + 1)[:size])).tolist()
                      if stacked else [float(phi(t))])
        ft = values[b % size]
        if math.isfinite(ft) and ft < f - beta * t * slope:
            return t, b, ft
    return None


def descend(objective, x, at, params, trace, stacked=False):
    """The sampling descent loop shared by every problem; returns the last x.

    ``objective(x)`` is the value to decrease (+inf off the domain); its
    value f at the start ``x`` must be finite, or :class:`InvalidInput`
    is raised, so every record's f is finite.  ``at(x, f)`` runs at the
    start and right after each accepted step's record, and returns the
    iterate's ``estimate(eps)``, which every iteration at that iterate
    calls for ``(v, gnorm, method, rest)``: the step vector v (None to
    shrink), gnorm, the norm of the sampled gradient estimate, and rest,
    None for a complete estimate or a callable that completes one drawn
    from a first block (:func:`staged_estimate`).  When gnorm is at most
    tau, eps and tau shrink and v is ignored.  Otherwise
    :func:`armijo_search` looks along the ray t -> objective(x + t*v)
    for a step with the decrease beta*t*gnorm (stacked, when ``stacked``
    says the objective maps a (k, d) stack to k values).  A failed
    search calls ``rest()`` for the next ``(v, gnorm, method, rest)``,
    decided as above, and adds one to ``trace.topups``; a failed search
    on a complete estimate shrinks.  A stacked search takes
    min(_ROW_BLOCK, _RAY_BUDGET // d) steps a call, at least one, for x
    of length d, so a call's stack holds at most _RAY_BUDGET values (one
    point, above that).  An estimate that raises
    :class:`SamplingExhausted` shrinks too; its sampler has counted the
    rejected draws.  A non-finite gnorm or v raises
    :class:`NumericalFailure`.  Every iteration adds one record to
    ``trace``, with the gnorm and method of the estimate that decided it.
    """
    eps, tau = params.eps0, params.tau0
    eps_min, tau_min, beta, max_backtracks = (
        params.eps_min, params.tau_min, params.beta, params.max_backtracks)
    block = max(1, min(_ROW_BLOCK, _RAY_BUDGET // max(x.size, 1)))
    f = objective(x)
    if not np.isfinite(f):
        raise InvalidInput("objective must be finite at x0")
    estimate = at(x, f)
    for it in range(params.max_iter):
        if eps <= eps_min and tau <= tau_min:
            trace.converged = True
            break
        event, hit = "shrink", None
        try:  # only the estimate and its rest draw, so only they raise it
            v, gnorm, method, rest = estimate(eps)
            while True:
                if not math.isfinite(gnorm):  # a scalar: a tenth of np.isfinite's cost
                    raise NumericalFailure(f"non-finite gradient norm at iteration {it}")
                if v is None or gnorm <= tau:
                    v = None
                    break
                # v @ v is finite only for a finite v; the elementwise test
                # settles an overflow
                if not math.isfinite(v @ v) and not np.isfinite(v).all():
                    raise NumericalFailure(f"non-finite step vector at iteration {it}")
                ray = ((lambda ts: objective(x + ts[:, None] * v)) if stacked
                       else (lambda t: objective(x + t * v)))
                hit = armijo_search(ray, f, gnorm, beta, max_backtracks, stacked, block)
                if hit is not None or rest is None:
                    break
                trace.topups += 1
                v, gnorm, method, rest = rest()
        except SamplingExhausted:
            gnorm, method, event, v = np.nan, "none", "sampling_exhausted", None
        if hit is None:
            eps *= params.mu
            tau *= params.lam
            trace.add(it, f, gnorm, eps, tau, 0.0, method,
                      0 if v is None else max_backtracks + 1, event)
            continue
        t, backtracks, f = hit
        x = x + t * v
        trace.add(it, f, gnorm, eps, tau, t, method, backtracks, "step")
        estimate = at(x, f)
    else:
        trace.message = "max_iter reached"
    return x


def gsda_minimize(obj, x0, params=None):
    """Run the sampling descent loop from x0 (qp mode alone); returns (x, trace)."""
    params = params if params is not None else GsParams()
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (obj.dim,):
        raise InvalidInput(f"x0 must have shape ({obj.dim},)")
    rng = np.random.default_rng(params.seed)

    def at(x, f):
        g0 = obj.grad(x)
        return lambda eps: approx_subgradient(obj, x, eps, params, rng, trace, f=f, g0=g0)

    trace = FitTrace()
    x = descend(obj.eval, x, at, params, trace, stacked=obj.stacked)
    return x, trace


# ---------------------------------------------------------------------------
# built-in test objectives
# ---------------------------------------------------------------------------

def nonsmooth_rosenbrock():
    """f(x) = 10|x2 - x1^2| + (1 - x1)^2, minimized at (1, 1); stacked."""

    def f(x):
        x1 = x[..., 0]
        r = 1.0 - x1
        return 10.0 * abs(x[..., 1] - x1 * x1) + r * r

    def g(x):
        x1 = x[..., 0]
        s = np.sign(x[..., 1] - x1 * x1)
        out = np.empty(x.shape)
        out[..., 0] = -20.0 * s * x1 - 2.0 * (1.0 - x1)
        out[..., 1] = 10.0 * s
        return out

    return Objective(f, g, 2, stacked=True)


def l1_norm(dim):
    """f(x) = ||x||_1; stacked."""
    return Objective(lambda x: np.abs(x).sum(axis=-1), np.sign, dim, stacked=True)


def sum_of_squares(center):
    """f(x) = ||x - center||^2; stacked."""
    c = np.asarray(center, dtype=float)
    return Objective(
        lambda x: ((x - c) ** 2).sum(axis=-1),
        lambda x: 2.0 * (x - c),
        c.size,
        stacked=True,
    )
