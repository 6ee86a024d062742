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

The fitter runs gradient sampling on the problem restricted to the space
the step can move in.  With the :class:`~gsda.smoothing.CoordinateMap`
(P g = B (M g), B orthonormal n x r), that space is the range of
L = J^-1 blockdiag(B, B) in (eta, kappa).  Each draw is eps*Q*u, with Q
an orthonormal basis of range(L) and u uniform in the 2r-ball.  The
sampled gradients of the negative log-likelihood become the coordinate
rows ``g @ K``, 2r long, where K = J^-1 blockdiag(M^T, M^T) maps an
(eta, kappa) gradient g straight to the coordinates of its projected
functional-space halves, and the min-norm point of those rows is c.
The step is -L c/||c||, and ||c|| = ||P g_hat|| is the stationarity and
Armijo measure.  The default m is 2r+1.  An estimate reduces the base
row and the first min(m, 8) draws, and draws the other m - 8 only when
that step fails its search (:func:`~gsda.engine.staged_estimate`), so a
step iteration costs O(8*n*r) and one that tops up O(m*n*r), not
O(m*n^2).

L, Q, K and the gradient at the iterate depend only on the iterate, so
:meth:`PotState.from_lambda` builds this frame with the state, once at
the start and once after each accepted step, and every estimate at the
iterate reuses it.  The frame holds -K and the negated base row, so the
rows come out as the objective's gradients with no pass to negate them.
Draws are evaluated in blocks: one product turns the block's u (with a
1 appended) into its (eta, kappa) points against (eps*Q^T; x), and the
GPD row kernel turns those into gradients.

The negative log-likelihood is a stacked objective, so the line search
evaluates its trial steps as (k, 2n) stacks, k = min(32, 9600 // 2n)
steps a call (16 at n = 300), each row bitwise its one-point value.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .engine import (_ROW_BLOCK, FitTrace, GsParams, Objective, descend, sample_rows,
                     sample_unit_ball, staged_estimate)
from .errors import (
    FunctionalUndefined,
    InfeasiblePoint,
    InvalidInput,
    SingularBlock,
)
from .minnorm import GradientSet, min_norm_point
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
    (0, exceed_prob] for c to lie in (0, 1].  At c = 1 every return
    level is 0, so :func:`fit_pot_additive` takes a level in
    (0, exceed_prob) alone.
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
    """A Lambda iterate with its functionals, inverse Jacobian blocks and frame.

    The sampling frame is that of the excesses y and the
    :class:`~gsda.smoothing.CoordinateMap` (B, M) the state was built
    for: ``span`` is L = J^-1 blockdiag(B, B), which maps coordinates to
    (eta, kappa), ``draws`` is Q, an orthonormal basis of its range,
    ``pullback`` is -K for K = J^-1 blockdiag(M^T, M^T), and ``base`` is
    the log-likelihood gradient at the iterate times -K: the negative
    log-likelihood's coordinate row.
    """

    lam: Lambda
    theta_pair: tuple
    jac_inverses: np.ndarray
    spec: FunctionalSpec
    span: np.ndarray
    draws: np.ndarray
    pullback: np.ndarray
    base: np.ndarray

    @classmethod
    def from_lambda(cls, x, spec, y, coords):
        """The state at the stacked (eta, kappa) vector x (``Lambda.as_vector``)."""
        lam = Lambda.from_vector(x)
        jac, inv = jacobian_blocks(lam, spec)
        span, pullback = _lift(inv, coords.basis), _lift(-inv, coords.coef.T)
        # the functionals are J's eta column (jacobian_blocks)
        return cls(lam, (jac[:, 0, 0].copy(), jac[:, 1, 0].copy()), inv, spec,
                   span, np.linalg.qr(span)[0], pullback,
                   _kernels.gpd_grad(lam.eta, lam.kappa, y) @ pullback)


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
        theta = _kernels.theta_of(sigma, lam.kappa, np.log(spec.c_values[0]))
        zeta = (theta + sigma) / (1.0 - lam.kappa)
        return theta, zeta
    return tuple(_kernels.theta_of(sigma, lam.kappa, np.log(c)) for c in spec.c_values)


def jacobian_blocks(lam, spec):
    """Per-observation Jacobians of the functional pair in (eta, kappa).

    The pair at observation i depends only on (eta_i, kappa_i), so the
    full Jacobian is block-diagonal and its inverse is n independent
    2x2 inversions.  Returns ``(blocks, inverses)`` with shape
    (n, 2, 2); raises :class:`SingularBlock` when any determinant falls
    to 1e-12 or below in absolute value.

    Each functional is sigma times a function of kappa, so its eta
    derivative is the functional itself; the pair decides only the
    kappa derivative of the second.
    """
    sigma, kappa, logc = lam.sigma, lam.kappa, np.log(spec.c_values)
    jac = np.empty((lam.n, 2, 2))
    jac[:, 0, 0], jac[:, 1, 0] = functional_map(lam, spec)
    jac[:, 0, 1] = _kernels.dtheta_dkappa(sigma, kappa, logc[0])
    if spec.pair == "var_es":
        jac[:, 1, 1] = (jac[:, 0, 1] + jac[:, 1, 0]) / (1.0 - kappa)
    else:
        jac[:, 1, 1] = _kernels.dtheta_dkappa(sigma, kappa, logc[1])
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


def negative_loglik_objective(y, spec):
    """Negative log-likelihood as a generic objective over stacked (eta, kappa).

    Evaluation returns +inf wherever the support constraint fails, or
    (under ``var_es``) wherever any kappa reaches 1, so line searches
    reject infeasible steps.  The objective is ``stacked``: a (k, 2n)
    stack of points gives k values and (k, 2n) gradients, each row
    bitwise its point's.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0.0):
        raise InvalidInput("excesses must be strictly positive")
    n = y.size
    kappa_cap = 1.0 if spec.pair == "var_es" else np.inf

    def f(v):
        eta, kappa = v[..., :n], v[..., n:]
        capped = kappa.max(axis=-1, initial=-np.inf) >= kappa_cap
        if v.ndim == 1:
            return np.inf if capped else -_kernels.gpd_loglik(eta, kappa, y)
        values = -_kernels.gpd_loglik(eta, kappa, y)
        values[capped] = np.inf
        return values

    def g(v):
        return -_kernels.gpd_grad(v[..., :n], v[..., n:], y)

    return Objective(f, g, 2 * n, stacked=True)


def _lift(inv, a):
    """J^-1 blockdiag(a, a), (2n, 2r), for an (n, r) matrix a."""
    n, r = a.shape
    return (inv.transpose(1, 0, 2)[..., None] * a[:, None, :]).reshape(2 * n, 2 * r)


def _theta_grad_rows(state, y, eps, m, rng, trace, scratch):
    """Base + per-sample negative log-likelihood gradients as coordinate rows.

    Row 0 is the gradient at the iterate; rows 1..m are the gradients at
    the first m feasible draws, in draw order.  With B and M from the
    :class:`~gsda.smoothing.CoordinateMap` the state was built for, the
    draws are ``Q u`` for u in the 2r-ball, Q an orthonormal basis of
    J^-1 blockdiag(B, B), and each row is ``g @ K`` for the negative
    log-likelihood's gradient g and K = J^-1 blockdiag(M^T, M^T), 2r
    long.  The draws come from :func:`~gsda.engine.sample_rows`, which
    redraws infeasible ones, raises :class:`SamplingExhausted` past 10*m
    of them and adds the rejected draws to ``trace.rejected_draws`` when
    a trace is given.
    Q, K and row 0 are the frame of ``state``, built for the same y
    once per iterate, however many estimates the iterate takes.  The
    kernel works in ``scratch``, the :class:`~gsda._kernels.RowScratch`
    of ``_ROW_BLOCK`` rows that a fit passes to every call.
    """
    lam = state.lam
    draws, pullback, base = state.draws, state.pullback, state.base
    # one product gives the (eta, kappa) blocks of the points x + eps*Q u:
    # u, extended by a 1, against (eps*Q^T; x) split into its two blocks
    d, n = draws.shape[1], lam.n
    to_points = np.empty((2, d + 1, n))
    np.multiply(eps, draws.T.reshape(d, 2, n).transpose(1, 0, 2), out=to_points[:, :d])
    to_points[0, d], to_points[1, d] = lam.eta, lam.kappa

    def evaluate(u):
        k = u.shape[0]
        ext = np.ones((k, d + 1))
        ext[:, :d] = u
        points = np.matmul(ext, to_points, out=scratch.points[:, :k])
        g, _ = _kernels.gpd_grad_rows(points[0], points[1], y, scratch)
        return g[0] @ pullback[:n] + g[1] @ pullback[n:]

    return sample_rows(
        base, m, eps, lambda k: sample_unit_ball(d, k, rng), evaluate, trace)


def initial_lambda(y, spec):
    """Constant starting point from GPD estimates by the method of moments.

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
    the coordinates of the additive space, at the iterate and at the
    first min(m, 8) draws, and reduce them to their min-norm point c
    (module docstring); the estimate returns the step -L c/||c||, the
    unit direction pulled back to (eta, kappa) by the iterate's frame,
    and the descent loop Armijo-searches the negative log-likelihood
    along it, rejecting any step that leaves the support.  eps and tau
    shrink whenever ||c|| drops below tau, or when no step is accepted
    along the estimate from all m draws, which a failed search on the
    first block draws.

    ``gs=None`` means ``GsParams()``; a ``subgradient_mode`` other than
    ``"qp"`` raises :class:`InvalidInput`, and so does a scale factor
    c = 1, whose Jacobian blocks are all singular.

    Returns a :class:`PotModel`; the reported functional vectors are
    recomputed exactly from the final (eta, kappa), and each is also
    decomposed additively for reporting.
    """
    gs = gs if gs is not None else GsParams()
    gs.require_qp("the POT fitter")
    if 1.0 in spec.c_values:
        raise InvalidInput("the POT fitter needs tail levels in (0, exceed_prob)")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or not np.all(y > 0.0):
        raise InvalidInput("excesses must be a 1-d vector of positive values")
    projector = AdditiveProjector(W, specs, y.size)
    coords = projector.coordinate_map()
    m = gs.resolve_m(2 * coords.dim)
    rng = np.random.default_rng(gs.seed)
    objective = negative_loglik_objective(y, spec)

    x0 = initial_lambda(y, spec).as_vector()
    scratch = _kernels.RowScratch(_ROW_BLOCK, y.size)
    state = None

    def at(x, f):
        nonlocal state
        state = PotState.from_lambda(x, spec, y, coords)
        return estimate

    def reduce(rows):
        res = min_norm_point(GradientSet(rows))
        # -L c/||c||, L from the frame the rows were sampled in
        return (state.span @ (res.point / -res.norm) if res.norm else None), res.norm

    def estimate(eps):
        return staged_estimate(
            m, lambda k: _theta_grad_rows(state, y, eps, k, rng, trace, scratch), reduce)

    trace = FitTrace(m=m, subspace_dim=2 * coords.dim)
    # the last iterate descend asks for is the one it returns
    descend(objective.eval, x0, at, gs, trace, stacked=True)
    decomps = tuple(trace.record_projection(projector.project(th))
                    for th in state.theta_pair)
    return PotModel(state, projector, decomps, trace)
