"""Gradient-sampling descent for locally Lipschitz objectives.

At each iterate the gradient is evaluated at the point itself and at m
points drawn uniformly from the surrounding eps-ball; the minimum-norm
element of the convex hull of those gradients (or their plain average)
approximates the generalized subgradient.  Its negative drives a
backtracking line search; when its norm falls below the tolerance tau,
both eps and tau are shrunk.  The run stops once eps and tau reach
their floors, which certifies approximate stationarity at that scale.
"""

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInput, NumericalFailure, SampleSizeWarning, SamplingExhausted
from .minnorm import GradientSet, average_fallback, min_norm_point

SUBGRADIENT_MODES = ("qp", "average")


@dataclass
class GsParams:
    """Hyperparameters of the sampling descent loop.

    ``m`` of ``None`` resolves to dimension+1 at run time; an explicit
    smaller value is accepted with a warning (theory wants m >= n+1).
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
                "the stationarity theory assumes m >= n+1",
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

    ``m`` is the resolved sample size, set by the additive fitters, and
    ``ball_coordinates`` sums the ball coordinates the pinball fitter
    drew per point over its iterations (n per iteration would be the
    whole ball).
    """

    records: list = field(default_factory=list)
    converged: bool = False
    message: str = ""
    m: int | None = None
    backfit_sweeps: int = 0
    projections_unconverged: int = 0
    ball_coordinates: int = 0

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


def approx_subgradient(obj, x, eps, params, rng):
    """Sampled approximation of the generalized subgradient at x.

    Draws m ball points, rejects any that land outside the domain
    (eval +inf or non-finite gradient) and redraws them, then reduces
    the m+1 gradients by the configured mode.  Rejections beyond 10*m
    raise :class:`SamplingExhausted`.
    """
    x = np.asarray(x, dtype=float)
    fx = obj.eval(x)
    if not np.isfinite(fx):
        raise InvalidInput("approx_subgradient requires a feasible base point")
    g0 = np.asarray(obj.grad(x), dtype=float)
    if not np.all(np.isfinite(g0)):
        raise InvalidInput("gradient at the base point is not finite")
    m = params.resolve_m(obj.dim)
    rows = [g0]
    rejected = 0
    cap = 10 * m
    while len(rows) < m + 1:
        batch = sample_unit_ball(obj.dim, m + 1 - len(rows), rng)
        for u in batch:
            xt = x + eps * u
            ft = obj.eval(xt)
            ok = np.isfinite(ft)
            if ok:
                gt = np.asarray(obj.grad(xt), dtype=float)
                ok = bool(np.all(np.isfinite(gt)))
            if ok:
                rows.append(gt)
            else:
                rejected += 1
                if rejected > cap:
                    raise SamplingExhausted(
                        f"more than {cap} infeasible draws at eps={eps:g}"
                    )
    grad_set = GradientSet(np.array(rows))
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
    eps, tau = params.eps0, params.tau0
    trace = FitTrace()
    for it in range(params.max_iter):
        if eps <= params.eps_min and tau <= params.tau_min:
            trace.converged = True
            break
        try:
            res = approx_subgradient(obj, x, eps, params, rng)
        except SamplingExhausted:
            eps *= params.mu
            tau *= params.lam
            trace.add(it, f, np.nan, eps, tau, 0.0, "none", 0, "sampling_exhausted")
            continue
        if res.norm <= tau:
            eps *= params.mu
            tau *= params.lam
            trace.add(it, f, res.norm, eps, tau, 0.0, res.method, 0, "shrink")
            continue
        d = -res.point / res.norm
        hit = armijo_search(obj, x, d, res.norm, params.beta, params.max_backtracks)
        if hit is None:
            eps *= params.mu
            tau *= params.lam
            trace.add(it, f, res.norm, eps, tau, 0.0, res.method,
                      params.max_backtracks + 1, "shrink")
            continue
        t, backtracks, f = hit[0], hit[1], hit[2]
        x = x + t * d
        trace.add(it, f, res.norm, eps, tau, t, res.method, backtracks, "step")
    else:
        trace.message = "max_iter reached"
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
