"""Smooth peaks-over-threshold fitting on return-level functionals.

Excesses above a high threshold are modeled as generalized Pareto with
per-observation scale sigma_i = exp(eta_i) and shape kappa_i.  Rather
than smoothing (eta, kappa) directly, additivity is imposed on a pair
of tail functionals: either a return level together with its expected
shortfall (``var_es``) or two return levels at different tail levels
(``var_var``).  Gradients move between the two coordinate systems
through the per-observation 2x2 Jacobian blocks of the functional map,
which are inverted blockwise; steps are taken in (eta, kappa) space
where the likelihood is cheap, along the pullback of the smoothed
descent direction.

Both modes run gradient sampling on the problem restricted to the space
the step can move in.  With the :class:`~gsda.smoothing.CoordinateMap`
(P g = B (M g), B orthonormal n x r), that space is the range of
L = J^-1 blockdiag(B, B) in (eta, kappa).  Each draw is eps*Q*u, with Q
an orthonormal basis of range(L) and u uniform in the 2r-ball.  The
sampled gradients become the (m+1) x 2r coordinate rows ``g @ K``, where
K = J^-1 blockdiag(M^T, M^T) maps an (eta, kappa) gradient g straight
to the coordinates of its projected functional-space halves.  The modes
differ only in how they reduce those rows to c: Wolfe's min-norm point
(qp) or their mean (average).  The step is -L c/||c||, and
||c|| = ||P g_hat|| is the stationarity and Armijo measure.  The default
m is 2r+1, and an iteration costs O(m*n*r), not O(m*n^2).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import KAPPA_EPS
from .engine import _ROW_BLOCK, FitTrace, GsParams, descend, sample_rows, sample_unit_ball
from .errors import (
    FunctionalUndefined,
    InfeasiblePoint,
    InvalidInput,
    NumericalFailure,
    SingularBlock,
)
from .minnorm import GradientSet, average_fallback, min_norm_point
from .smoothing import AdditiveProjector

_DET_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Lambda:
    """Working GPD parameters: eta = log(scale) and shape kappa."""

    eta: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        kappa = np.asarray(self.kappa, dtype=float)
        if eta.shape != kappa.shape or eta.ndim != 1:
            raise InvalidInput("eta and kappa must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(kappa))):
            raise InvalidInput("eta and kappa must be finite")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "kappa", kappa)

    @property
    def n(self):
        return self.eta.size

    @property
    def sigma(self):
        return np.exp(self.eta)

    def as_vector(self):
        return np.concatenate([self.eta, self.kappa])

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=float)
        n = v.size // 2
        return cls(v[:n], v[n:])


@dataclass(frozen=True)
class FunctionalSpec:
    """Which pair of tail functionals carries the additive structure.

    ``levels`` holds one tail probability (``var_es``) or two
    (``var_var``); each is scaled by the threshold exceedance
    probability into c = level / exceed_prob, so a level must lie in
    (0, exceed_prob] for c to lie in (0, 1].
    """

    pair: str
    levels: tuple
    exceed_prob: float

    def __post_init__(self):
        if self.pair not in ("var_es", "var_var"):
            raise InvalidInput("pair must be 'var_es' or 'var_var'")
        levels = tuple(float(a) for a in np.atleast_1d(self.levels))
        object.__setattr__(self, "levels", levels)
        if not (0.0 < self.exceed_prob < 1.0):
            raise InvalidInput("exceed_prob must lie in (0, 1)")
        if not all(0.0 < a <= self.exceed_prob for a in levels):
            raise InvalidInput("tail levels must lie in (0, exceed_prob]")
        want = 1 if self.pair == "var_es" else 2
        if len(levels) != want:
            raise InvalidInput(f"{self.pair} needs exactly {want} level(s)")
        if self.pair == "var_var" and self.c_values[0] == self.c_values[1]:
            raise InvalidInput("var_var requires two distinct scale factors")

    @property
    def c_values(self):
        return tuple(a / self.exceed_prob for a in self.levels)

    @property
    def names(self):
        if self.pair == "var_es":
            return ("return_level", "expected_shortfall")
        return ("return_level_1", "return_level_2")


@dataclass(frozen=True, eq=False)
class PotState:
    """A Lambda iterate with its functionals and Jacobian blocks."""

    lam: Lambda
    theta_pair: tuple
    jac_blocks: np.ndarray  # (n, 2, 2), rows = functionals, cols = (eta, kappa)
    jac_inverses: np.ndarray
    spec: FunctionalSpec

    @classmethod
    def from_lambda(cls, lam, spec):
        pair = functional_map(lam, spec)
        jac, inv = jacobian_blocks(lam, spec)
        return cls(lam, pair, jac, inv, spec)

    @property
    def n(self):
        return self.lam.n


def gpd_loglik(lam, y):
    """GPD log-likelihood of positive excesses y; -inf off the support."""
    y = _check_excesses(lam, y)
    return _kernels.gpd_loglik(lam.eta, lam.kappa, y)


def gpd_loglik_grad(lam, y):
    """Stacked (d/d eta, d/d kappa) of the log-likelihood, shape (2n,)."""
    y = _check_excesses(lam, y)
    if not np.isfinite(_kernels.gpd_loglik(lam.eta, lam.kappa, y)):
        raise InfeasiblePoint("gradient requested where the log-likelihood is -inf")
    return _kernels.gpd_grad(lam.eta, lam.kappa, y)


def _check_excesses(lam, y):
    y = np.asarray(y, dtype=float)
    if y.shape != (lam.n,):
        raise InvalidInput("y must match the parameter length")
    if not np.all(y > 0.0):
        raise InvalidInput("excesses must be strictly positive")
    return y


def _theta_of(sigma, kappa, c):
    logc = np.log(c)
    small = np.abs(kappa) < KAPPA_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = sigma * np.expm1(-kappa * logc) / kappa
    series = sigma * (-logc + 0.5 * kappa * logc ** 2 - kappa ** 2 * logc ** 3 / 6.0)
    return np.where(small, series, exact)


def _dtheta_dkappa(sigma, kappa, c):
    logc = np.log(c)
    small = np.abs(kappa) < KAPPA_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = sigma * (-np.expm1(-kappa * logc)
                         - kappa * logc * np.exp(-kappa * logc)) / kappa ** 2
    series = sigma * (0.5 * logc ** 2 - kappa * logc ** 3 / 3.0
                      + kappa ** 2 * logc ** 4 / 8.0)
    return np.where(small, series, exact)


def functional_map(lam, spec):
    """Evaluate the chosen functional pair at lam, as two (n,) vectors.

    The return level at scale factor c is sigma*(c^-kappa - 1)/kappa
    (continued across kappa = 0 by -sigma*log c); the expected shortfall
    is (theta + sigma)/(1 - kappa) and requires kappa < 1.
    """
    sigma = lam.sigma
    if spec.pair == "var_es":
        if np.any(lam.kappa >= 1.0):
            raise FunctionalUndefined("expected shortfall needs kappa < 1 everywhere")
        theta = _theta_of(sigma, lam.kappa, spec.c_values[0])
        zeta = (theta + sigma) / (1.0 - lam.kappa)
        return theta, zeta
    c1, c2 = spec.c_values
    return _theta_of(sigma, lam.kappa, c1), _theta_of(sigma, lam.kappa, c2)


def jacobian_blocks(lam, spec):
    """Per-observation Jacobians of the functional pair in (eta, kappa).

    The pair at observation i depends only on (eta_i, kappa_i), so the
    full Jacobian is block-diagonal and its inverse is n independent
    2x2 inversions.  Returns ``(blocks, inverses)`` with shape
    (n, 2, 2); raises :class:`SingularBlock` when any determinant falls
    to 1e-12 or below in absolute value.
    """
    sigma = lam.sigma
    kappa = lam.kappa
    n = lam.n
    jac = np.empty((n, 2, 2))
    if spec.pair == "var_es":
        theta, zeta = functional_map(lam, spec)
        dtheta = _dtheta_dkappa(sigma, kappa, spec.c_values[0])
        jac[:, 0, 0] = theta
        jac[:, 0, 1] = dtheta
        jac[:, 1, 0] = zeta
        jac[:, 1, 1] = (dtheta + zeta) / (1.0 - kappa)
    else:
        c1, c2 = spec.c_values
        jac[:, 0, 0] = _theta_of(sigma, kappa, c1)
        jac[:, 0, 1] = _dtheta_dkappa(sigma, kappa, c1)
        jac[:, 1, 0] = _theta_of(sigma, kappa, c2)
        jac[:, 1, 1] = _dtheta_dkappa(sigma, kappa, c2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    bad = np.abs(det) <= _DET_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SingularBlock(
            f"functional Jacobian singular at observation {i} "
            f"(eta={lam.eta[i]:.6g}, kappa={lam.kappa[i]:.6g}, det={det[i]:.3e})")
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1] / det
    inv[:, 0, 1] = -jac[:, 0, 1] / det
    inv[:, 1, 0] = -jac[:, 1, 0] / det
    inv[:, 1, 1] = jac[:, 0, 0] / det
    return jac, inv


def _blocks_apply(inv, v):
    """Blockwise J^-1 v: maps a functional-space direction to (eta, kappa)."""
    n = inv.shape[0]
    d1, d2 = v[:n], v[n:]
    return np.concatenate([
        inv[:, 0, 0] * d1 + inv[:, 0, 1] * d2,
        inv[:, 1, 0] * d1 + inv[:, 1, 1] * d2,
    ])


def negative_loglik_objective(y, spec):
    """Negative log-likelihood as a generic objective over stacked (eta, kappa).

    Evaluation returns +inf wherever the support constraint fails, or
    (under ``var_es``) wherever any kappa reaches 1, so line searches
    reject infeasible steps.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0.0):
        raise InvalidInput("excesses must be strictly positive")
    n = y.size
    kappa_cap = 1.0 if spec.pair == "var_es" else np.inf

    def f(v):
        eta, kappa = v[:n], v[n:]
        if np.any(kappa >= kappa_cap):
            return np.inf
        return -_kernels.gpd_loglik(eta, kappa, y)

    def g(v):
        return -_kernels.gpd_grad(v[:n], v[n:], y)

    from .engine import Objective

    return Objective(f, g, 2 * n)


def _lift(inv, a):
    """J^-1 blockdiag(a, a), (2n, 2r), for an (n, r) matrix a."""
    n, r = a.shape
    return (inv.transpose(1, 0, 2)[..., None] * a[:, None, :]).reshape(2 * n, 2 * r)


def _theta_grad_rows(state, y, eps, m, rng, coords, trace=None, scratch=None):
    """Base + per-sample log-likelihood gradients as coordinate rows.

    Row 0 is the gradient at the iterate; rows 1..m are the gradients at
    the first m feasible draws, in draw order.  With B and M from the
    :class:`~gsda.smoothing.CoordinateMap` ``coords``, the draws are
    ``Q u`` for u in the 2r-ball, Q an orthonormal basis of
    J^-1 blockdiag(B, B), and each row is ``g @ K`` for
    K = J^-1 blockdiag(M^T, M^T), 2r long.  The draws come from
    :func:`~gsda.engine.sample_rows`, which redraws infeasible ones and
    raises :class:`SamplingExhausted` past 10*m of them; the rejected
    draws are added to ``trace.rejected_draws`` when a trace is given.
    A fit passes one :class:`~gsda._kernels.RowScratch` to every call.
    """
    lam, inv = state.lam, state.jac_inverses
    if scratch is None:
        scratch = _kernels.RowScratch(_ROW_BLOCK, lam.n)
    draws = np.linalg.qr(_lift(inv, coords.basis))[0]
    pullback = _lift(inv, coords.coef.T)

    def evaluate(u):
        points = np.matmul(u, draws.T, out=scratch.points[:u.shape[0]])
        g, _ = _kernels.gpd_grad_rows(lam.eta, lam.kappa, y, eps, points, scratch)
        return g @ pullback

    rows, rejected = sample_rows(
        _kernels.gpd_grad(lam.eta, lam.kappa, y) @ pullback, m, eps,
        lambda k: sample_unit_ball(2 * coords.dim, k, rng), evaluate)
    if trace is not None:
        trace.rejected_draws += rejected
    return rows


def initial_lambda(y, spec):
    """Constant starting point from method-of-moments GPD estimates.

    kappa_hat = (1 - mean^2/var)/2 and sigma_hat = mean*(mean^2/var+1)/2,
    with kappa_hat clamped to [-0.4, 0.9] and, if needed, raised so the
    largest excess stays inside the support.
    """
    y = np.asarray(y, dtype=float)
    mean = float(y.mean())
    var = float(y.var())
    if var <= 0.0:
        ratio = 1.0
    else:
        ratio = mean * mean / var
    kap = float(np.clip(0.5 * (1.0 - ratio), -0.4, 0.9))
    sig = 0.5 * mean * (ratio + 1.0)
    if kap < 0.0 and 1.0 + kap * y.max() / sig <= 0.0:
        kap = -0.95 * sig / y.max()
    n = y.size
    return Lambda(np.full(n, np.log(sig)), np.full(n, kap))


@dataclass
class PotModel:
    """Fitted smooth POT model."""

    state: PotState
    projector: AdditiveProjector
    decompositions: tuple
    trace: FitTrace

    @property
    def functional_names(self):
        return self.state.spec.names


def fit_pot_additive(y, W, spec, specs, gs=None):
    """Fit GPD excesses with additivity imposed on the functional pair.

    Each iteration: build the Jacobian blocks at the current
    (eta, kappa); sample the negative-log-likelihood gradient as rows in
    the coordinates of the additive space and reduce them to c (the
    mode's reduction, module docstring); pull the unit direction
    -c/||c|| back to (eta, kappa) and Armijo-search the negative
    log-likelihood along it, rejecting any step that leaves the support.
    eps and tau shrink whenever ||c|| drops below tau or no step is
    accepted.

    Returns a :class:`PotModel`; the reported functional vectors are
    recomputed exactly from the final (eta, kappa), and each is also
    decomposed additively for reporting.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0.0):
        raise InvalidInput("excesses must be strictly positive")
    projector = AdditiveProjector(W, specs, y.size)
    coords = projector.coordinate_map()
    gs = gs if gs is not None else GsParams(subgradient_mode="average")
    m = gs.resolve_m(2 * coords.dim)
    rng = np.random.default_rng(gs.seed)
    objective = negative_loglik_objective(y, spec)

    lam = initial_lambda(y, spec)
    x0 = state_x = lam.as_vector()
    state = PotState.from_lambda(lam, spec)
    f = objective.eval(x0)
    if not np.isfinite(f):
        raise NumericalFailure("method-of-moments start is infeasible")

    def state_at(x):
        # one PotState per accepted step: descend hands every new iterate
        # over as a new array
        nonlocal state, state_x
        if x is not state_x:
            state, state_x = PotState.from_lambda(Lambda.from_vector(x), spec), x
        return state

    scratch = _kernels.RowScratch(_ROW_BLOCK, y.size)

    def estimate(x, eps):
        rows = GradientSet(
            -_theta_grad_rows(state_at(x), y, eps, m, rng, coords, trace, scratch))
        if gs.subgradient_mode == "average":
            res = average_fallback(rows)
        else:
            try:
                res = min_norm_point(rows)
            except NumericalFailure:
                res = average_fallback(rows)
        return res.point, res.norm, res.method

    def direction(x, g, gnorm):
        # g holds both halves' coordinates
        d = np.concatenate([coords.basis @ c for c in np.split(-g / gnorm, 2)])
        return _blocks_apply(state_at(x).jac_inverses, d)

    trace = FitTrace(m=m, subspace_dim=2 * coords.dim)
    state = state_at(descend(objective.eval, x0, f, estimate, direction, gs, trace))
    decomps = tuple(trace.record_projection(projector.project(th))
                    for th in state.theta_pair)
    return PotModel(state, projector, decomps, trace)
