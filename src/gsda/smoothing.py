"""Additive projection by backfitting over per-covariate smoothers.

Descent directions (and final fits) are pushed onto the space of
identifiable additive functions: an intercept plus one mean-zero
component per covariate.  Three component smoothers are supported:

* ``local_linear`` -- degree-1 local regression with a Gaussian kernel,
  bandwidth given directly, chosen to hit a target effective df, or
  defaulted by the usual 1.06*sd*n^(-1/5) rule;
* ``linear`` -- ordinary least squares on {1, w};
* ``cell_factor`` -- one free effect per factor level (per-cell means).

Each smoother is a linear operator held as factors ``S = u @ vt`` of
rank r: exact ones for ``linear`` (mean and centred slope), for
``cell_factor`` (level indicators and per-level averages) and for a
covariate with no spread (the mean); for ``local_linear`` a truncated
factor of its hat matrix from a seeded adaptive randomized range
finder, grown a block at a time until an a-posteriori check on a few
probe columns passes (``_range_basis``, ``_low_rank``), r about 30-55
at the default bandwidth for n up to 2000.

Backfitting (Buja, Hastie & Tibshirani 1989) defines the components as
the fixed point of a Gauss-Seidel sweep: each component becomes the
centred smooth of its partial residual, the response less every other
component.  That fixed point is solved once at build time, in the
factor bases (a system of size sum r_j, the identity for one
covariate), and the projection P is built from it with the projector,
as factors ``P = U A``: ``U = [1, C u_1, ..., C u_k]``, C the centring,
and A the matching coefficient rows; with no covariate the design is
(n, 0) and P is the mean.  ``apply`` takes P g = U (A g), as the
quantile fitter's average mode steps.  ``project`` reads the same
factors, each component ``C u_j`` times its rows of ``A g``, and then
sweeps, at most twice: the sweep supplies the partial residuals
``predict`` needs and confirms the fixed point, and a second sweep runs
only when the first still moved a component by ``BACKFIT_TOL``.

Building a local_linear factor costs O(n^2 r) time with one transient
n x n hat, whose rows are built a block at a time (``ll_weights``,
blocks of ``_kernels.ll_block(n)`` rows), so that besides the hat the
build holds O(n (block + r)) memory; ``effective_df`` takes the trace
from the same row blocks and forms no hat.  Every factor of a design
of n rows starts from the same Gaussian sketch block, which is kept
for the last n it was drawn for (``_first_sketch``).  U and A take
O(n sum r_j) memory, and a projection O(n sum r_j) time.

The range of P is spanned by the intercept and the centred factors
``C u_j``.  :meth:`~AdditiveProjector.coordinate_map` reads U and A too:
``P g = B (M g)``, with B an orthonormal basis of range(P) (n x r,
r = 1 + sum r_j up to rank) from an SVD of U and M = B^T P (r x n).
With a covariate it is built on the first call, by the fitters that
sample in those r coordinates (qp mode and POT); an intercept-only
projector builds it at once.
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    DegenerateDesignWarning,
    ExtrapolationWarning,
    InvalidInput,
    NumericalFailure,
)

SMOOTHER_KINDS = ("local_linear", "linear", "cell_factor")

BACKFIT_TOL = 1e-8

DF_TOL = 0.05  # bandwidth_for_df stops once the trace is this close to the target
DF_MAX_ITER = 100
_PROBES = 10  # a-posteriori check columns of the low-rank range finder
# the range finder's first block: at n = 300 a default-bandwidth hat (rank
# about 30-40) passes its check in this one block, and a hat of higher
# rank takes later blocks
_SKETCH_FIRST = 48


@dataclass
class SmootherSpec:
    """Configuration of one additive component."""

    kind: str
    covariate_index: int = 0
    bandwidth: float | None = None
    target_df: float | None = None

    def __post_init__(self):
        if self.kind not in SMOOTHER_KINDS:
            raise InvalidInput(f"unknown smoother kind {self.kind!r}")
        if self.kind == "local_linear":
            if self.bandwidth is not None and self.target_df is not None:
                raise InvalidInput("give bandwidth or target_df, not both")
            if self.bandwidth is not None and not self.bandwidth > 0.0:
                raise InvalidInput("bandwidth must be positive")
            if self.target_df is not None and not self.target_df > 0.0:
                raise InvalidInput("target_df must be positive")
        elif self.bandwidth is not None or self.target_df is not None:
            raise InvalidInput(f"{self.kind} smoothers take no bandwidth/target_df")


@dataclass(eq=False)
class CoordinateMap:
    """The additive space in coordinates: ``P g = basis @ (coef @ g)``.

    ``basis`` is B, an orthonormal (n, r) basis of range(P); ``coef`` is
    M = B^T P, (r, n); ``row_norms`` holds ||B_i||, the most a unit
    coordinate step can move observation i.
    """

    basis: np.ndarray
    coef: np.ndarray
    row_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        self.row_norms = np.linalg.norm(self.basis, axis=1)

    @property
    def dim(self):
        return self.basis.shape[1]


@dataclass
class AdditiveFit:
    """Result of projecting a vector onto the additive space.

    ``fitted = intercept + sum(components)``; every component has mean
    zero over the observations.  ``targets`` keeps the partial residual
    each smoother consumed so components can be evaluated at new
    covariate values.  ``cycles`` counts backfitting sweeps;
    ``converged`` means the last sweep moved no component by
    ``BACKFIT_TOL``.
    """

    intercept: float
    components: list
    fitted: np.ndarray
    targets: list = field(default_factory=list)
    centers: list = field(default_factory=list)
    converged: bool = True
    cycles: int = 0


def rule_of_thumb_bandwidth(w):
    """1.06 * sd(w) * n^(-1/5), the normal-reference default."""
    w = np.asarray(w, dtype=float)
    sd = float(np.std(w))
    if sd == 0.0:
        return 1.0
    return 1.06 * sd * w.size ** (-0.2)


def _check_finite(W):
    if not np.all(np.isfinite(W)):
        raise InvalidInput("covariate values must be finite")


def _check_design(w):
    w = np.asarray(w, dtype=float)
    if w.size < 2:
        raise InvalidInput("smoother needs at least two observations")
    _check_finite(w)
    return w


def effective_df(w, bandwidth):
    """Trace of the local-linear hat operator on this design."""
    w = _check_design(w)
    if not bandwidth > 0.0:
        raise InvalidInput("bandwidth must be positive")
    if np.ptp(w) == 0.0:
        warnings.warn("all covariate values identical; df of the mean fit is 1",
                      DegenerateDesignWarning, stacklevel=2)
        return 1.0
    return float(_kernels.ll_diagonal(w, float(bandwidth)).sum())


def bandwidth_for_df(w, target_df):
    """Bandwidth whose hat-operator trace matches target_df, by bisection."""
    w = _check_design(w)
    n = np.unique(w).size
    if not (2.0 < target_df < n):
        raise InvalidInput(f"target_df must lie in (2, {n}) for this design")
    # each trace once: both brackets start here, a midpoint may hit one
    df_at = functools.cache(lambda bandwidth: effective_df(w, bandwidth))
    lo = hi = rule_of_thumb_bandwidth(w)
    for _ in range(60):  # df increases as the bandwidth shrinks
        if df_at(lo) > target_df:
            break
        lo /= 4.0
    for _ in range(60):
        if df_at(hi) < target_df:
            break
        hi *= 4.0
    for _ in range(DF_MAX_ITER):
        mid = np.sqrt(lo * hi)
        df = df_at(mid)
        if abs(df - target_df) <= DF_TOL:
            return mid
        if df > target_df:
            lo = mid
        else:
            hi = mid
    return np.sqrt(lo * hi)


# ---------------------------------------------------------------------------
# component smoothers as linear operators
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _first_sketch(n):
    """The range finder's first Gaussian block for an n x n hat, read-only.

    Returns the (n, _PROBES + min(_SKETCH_FIRST, n)) block that
    ``default_rng(0)`` draws first, and the generator's state after it.
    Every local_linear factor of a design of n rows starts from the same
    block, so it is kept for the last n it was drawn for.
    """
    rng = np.random.default_rng(0)
    omega = rng.standard_normal((n, _PROBES + min(_SKETCH_FIRST, n)))
    omega.flags.writeable = False
    return omega, rng.bit_generator.state


def _range_basis(hat):
    """An orthonormal (n, k) basis Q of the numerical range of a square hat.

    A seeded adaptive randomized range finder (Halko, Martinsson & Tropp
    2011, SIAM Review 53, section 4.4) grows Q from blocks of
    ``hat @ Omega``, Omega Gaussian: ``_SKETCH_FIRST`` columns, then
    each block a third of Q's width, so Q grows geometrically and ends
    at most a third wider than its check needs (or at the first block's
    width).  The check (their section 4.3) runs on ``_PROBES`` more
    Gaussian columns w_i, formed in one product with the first block;
    each block is taken off them as it joins Q.  Q is complete once
    ``10 sqrt(2/pi) max_i ||(I - Q Q^T) hat w_i||``, which bounds
    ``||hat - Q Q^T hat||_2`` except with probability 10^-_PROBES, is at
    most ``1e-13 ||hat||_F``, or once Q spans R^n.  No n x n residual is
    formed.

    The first block, by QR, gives Q's first columns.  Each later block
    is orthogonalized twice against Q and normalized by QR.  A block
    drawn after the range is captured is rounding noise, and once
    normalized its columns are no longer orthogonal to Q; so the
    normalized block is orthogonalized once more and normalized again.
    Without that, Q Q^T is no projector and the probe check can pass
    while Q misses part of the range.  The fixed seed gives a design the
    same basis: the first block comes from :func:`_first_sketch`, and
    later blocks from ``default_rng(0)`` set to the state after it, so
    Omega is the one stream a fresh generator draws.
    """
    n = hat.shape[0]
    omega, state = _first_sketch(n)
    bound = 1e-13 * np.linalg.norm(hat) / (10.0 * np.sqrt(2.0 / np.pi))
    sketch = hat @ omega
    probe = sketch[:, :_PROBES]
    q, _ = np.linalg.qr(sketch[:, _PROBES:])
    probe -= q @ (q.T @ probe)
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    while q.shape[1] < n and np.linalg.norm(probe, axis=0).max() > bound:
        block = hat @ rng.standard_normal((n, min(q.shape[1] // 3, n - q.shape[1])))
        for _ in range(2):
            block -= q @ (q.T @ block)
        block, _ = np.linalg.qr(block)
        block -= q @ (q.T @ block)
        block, _ = np.linalg.qr(block)
        q = np.hstack([q, block])
        probe -= block @ (block.T @ probe)
    return q


def _low_rank(hat):
    """Factors ``(u, vt)`` of a square hat matrix, ``u @ vt`` close to it.

    An SVD of the tall ``B^T = hat^T Q``, Q from :func:`_range_basis`,
    drops the singular values that ``matrix_rank`` treats as zero (below
    s_max * n * eps).
    """
    n = hat.shape[0]
    q = _range_basis(hat)
    v, s, ubt = np.linalg.svd(hat.T @ q, full_matrices=False)
    r = int(np.count_nonzero(s > s[0] * n * np.finfo(float).eps))
    return q @ (ubt[:r].T * s[:r]), v[:, :r].T


class _Smoother:
    """One component smoother on the covariate w, held as factors.

    ``apply(v) = u @ (vt @ v)`` with u (n, r) and vt (r, n);
    ``evaluate(v, w_new)`` is the smooth of v at new covariate values.
    """

    def __init__(self, w, u, vt, evaluate):
        self.w, self.u, self.vt, self.evaluate = w, u, vt, evaluate

    def apply(self, v):
        return self.u @ (self.vt @ v)


def _least_squares(w, basis):
    """Least squares on the mutually orthogonal columns of ``basis(w)``.

    Its exact factors are ``u = basis(w)`` and ``u^T`` with each row
    divided by that column's squared norm.
    """
    u = basis(w)
    vt = u.T / np.einsum("ij,ij->j", u, u)[:, None]
    return _Smoother(w, u, vt, lambda v, w_new: basis(w_new) @ (vt @ v))


def _level_codes(column):
    """A cell_factor column as int codes; each must be a nonnegative integer."""
    if np.any(column < 0.0) or np.any(column != np.floor(column)):
        raise InvalidInput("factor level codes must be nonnegative integers")
    return column.astype(int)


def _build_smoother(column, spec):
    if spec.kind == "cell_factor":
        # n rows cannot hold every level up to a code of n or more
        if column.max() >= column.size or np.any(np.bincount(_level_codes(column)) == 0):
            raise InvalidInput("every factor level must occur at least once")
        levels = np.arange(int(column.max()) + 1)

        def indicators(codes):
            if np.any(codes > levels[-1]):  # before the cast, which wraps huge codes
                raise InvalidInput("prediction factor level unseen in training data")
            codes = _level_codes(codes)
            return (codes[:, None] == levels).astype(float)

        return _least_squares(column, indicators)
    bw = spec.bandwidth
    if bw is None and spec.target_df is not None:
        bw = bandwidth_for_df(column, spec.target_df)
    if np.ptp(column) == 0.0:
        warnings.warn(f"{spec.kind} component on a constant covariate",
                      DegenerateDesignWarning, stacklevel=3)
        return _least_squares(column, lambda w: np.ones((w.size, 1)))
    if spec.kind == "linear":
        mean = column.mean()
        return _least_squares(column,
                              lambda w: np.column_stack([np.ones(w.size), w - mean]))
    bw = float(rule_of_thumb_bandwidth(column) if bw is None else bw)
    return _Smoother(column, *_low_rank(_kernels.ll_weights(column, bw, column)),
                     lambda v, w_new: _kernels.ll_weights(column, bw, w_new) @ v)


class AdditiveProjector:
    """The projection step: smooth a vector onto the additive space.

    Built once per design matrix, with the factors ``P = U A``;
    :meth:`apply` takes P g from them at matrix-vector cost, and
    ``project`` reads them and then sweeps.  The orthonormal
    :meth:`coordinate_map` is built on its first call, or with the
    projector when it is intercept-only.
    """

    def __init__(self, W, specs, n=None):
        """Check W, build one smoother per column and factor P.

        ``n`` is the number of observations served: the rows of a given
        W, which a given ``n`` must match, or ``n`` itself for ``W=None``
        (intercept only).  A missing n or fewer than one observation
        raises :class:`InvalidInput`.
        """
        if W is not None and n is not None and len(W) != n:
            raise InvalidInput("W must have one row per observation")
        n = n if W is None else len(W)
        if n is None or n < 1:
            raise InvalidInput("need at least one observation (give n when W is None)")
        W = np.zeros((n, 0)) if W is None else np.asarray(W, dtype=float)
        if W.ndim == 1:
            W = W[:, None]
        k = len(specs)
        if k != W.shape[1]:
            raise InvalidInput("need exactly one smoother spec per covariate column")
        _check_finite(W)
        self._ordered = sorted(specs, key=lambda s: s.covariate_index)
        if [s.covariate_index for s in self._ordered] != list(range(k)):
            raise InvalidInput("smoother specs must cover each covariate exactly once")
        if n < k + 1:
            raise InvalidInput("need at least k+1 observations for k covariates")
        self.n = n
        self.smoothers = [_build_smoother(W[:, s.covariate_index], s)
                          for s in self._ordered]
        self._factors, self._blocks = self._build_factors()
        # intercept only: U is one column, whose SVD costs about what the
        # factors do, so the map is built with them
        self._coords = self._build_coordinate_map() if k == 0 else None

    @property
    def k(self):
        return len(self.smoothers)

    @property
    def factor_dim(self):
        """The columns of U, 1 + sum_j r_j: range(P) lies in their span."""
        return self._factors[0].shape[1]

    def _build_factors(self):
        """Factor P as ``U A``, solving the backfitting fixed point once.

        With ``S_j = u_j vt_j`` and ``C`` the centring, every component
        is ``f_j = C u_j c_j`` for ``c_j = vt_j`` applied to its partial
        residual, so the fixed point solves the reduced system
        ``c_j + sum_{l != j} vt_j C u_l c_l = vt_j resid`` of size
        ``sum_j r_j``.  Its pseudo-inverse solution map (one of the fixed
        points when the system is singular, as for identical covariates)
        turns a residual into every ``c_j`` at once, and P g is
        ``mean(g) + sum_j C u_j c_j``: so U is ``[1, C u_1, ..., C u_k]``
        (n, 1 + sum r_j) and A is ``[1/n; map - row means]``.  Returns
        ``(U, A)`` and each component's columns of U, as slices.
        """
        n = self.n
        U = np.hstack([np.ones((n, 1))] + [sm.u - sm.u.mean(axis=0) for sm in self.smoothers])
        ends = np.cumsum([1] + [sm.u.shape[1] for sm in self.smoothers])
        maps = np.zeros((0, n))
        if self.k:
            vt = np.vstack([sm.vt for sm in self.smoothers])
            system = vt @ U[:, 1:]
            for a, b in zip(ends[:-1] - 1, ends[1:] - 1):  # the system has no intercept row
                system[a:b, a:b] = 0.0
            system += np.eye(system.shape[0])
            rcond = system.shape[0] * np.finfo(float).eps
            maps = np.linalg.pinv(system, rcond=rcond) @ vt
        A = np.vstack([np.full((1, n), 1.0 / n),
                       maps - maps.mean(axis=1, keepdims=True)])
        return (U, A), [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]

    def apply(self, g):
        """P g as ``U (A g)``: the fixed point ``project`` sweeps to, unchecked."""
        U, A = self._factors
        return U @ (A @ g)

    def coordinate_map(self):
        """The :class:`CoordinateMap` of P, built once and kept (see the class)."""
        if self._coords is None:
            self._coords = self._build_coordinate_map()
        return self._coords

    def _build_coordinate_map(self):
        """Factor P as ``B (M g)``.

        An SVD of U, truncated where ``matrix_rank`` would (centred
        ``linear`` and ``cell_factor`` columns are dependent), gives
        ``U = B S V^T``; then M = S V^T A.
        """
        U, A = self._factors
        b, s, vt = np.linalg.svd(U, full_matrices=False)
        r = int(np.count_nonzero(s > s[0] * max(U.shape) * np.finfo(float).eps))
        return CoordinateMap(np.ascontiguousarray(b[:, :r]), (s[:r, None] * vt[:r]) @ A)

    def project(self, g):
        """Backfit g onto the additive space (see the module docstring).

        Raises :class:`NumericalFailure` on a non-finite g.
        """
        g = np.asarray(g, dtype=float)
        if not np.all(np.isfinite(g)):
            raise NumericalFailure("cannot project a non-finite vector")
        intercept = float(g.mean())
        resid = g - intercept
        if self.k == 0:
            return AdditiveFit(intercept, [], np.full(g.size, intercept))
        U, A = self._factors
        c = A @ g
        comps = np.array([U[:, block] @ c[block] for block in self._blocks])
        total = comps.sum(axis=0)
        for cycles in (1, 2):
            targets, centers, delta = self._sweep(resid, comps, total)
            if delta < BACKFIT_TOL:
                break
        return AdditiveFit(intercept, list(comps), intercept + total, targets, centers,
                           delta < BACKFIT_TOL, cycles)

    def _sweep(self, resid, comps, total):
        """One Gauss-Seidel backfitting cycle, in place on comps and total.

        ``total`` must hold the sum of the rows of ``comps``.  Returns each
        smoother's partial residual, the mean of its raw smooth, and the
        largest change of any component.
        """
        targets, centers, delta = [], [], 0.0
        for j, sm in enumerate(self.smoothers):
            partial = resid - (total - comps[j])
            raw = sm.apply(partial)
            center = raw.mean()
            new = raw - center
            change = new - comps[j]
            delta = max(delta, float(np.max(np.abs(change))))
            total += change
            comps[j] = new
            targets.append(partial)
            centers.append(float(center))
        return targets, centers, delta

    def predict(self, fit, W_new):
        """Evaluate an AdditiveFit at new covariate values."""
        if self.k == 0:
            n_new = 1 if W_new is None else np.atleast_1d(np.asarray(W_new)).shape[0]
            return np.full(n_new, fit.intercept)
        W_new = np.asarray(W_new, dtype=float)
        if W_new.ndim == 1:
            W_new = W_new[:, None]
        if W_new.ndim != 2 or W_new.shape[1] != self.k:
            raise InvalidInput(f"expected {self.k} covariate columns")
        _check_finite(W_new)
        out = np.full(W_new.shape[0], fit.intercept)
        for j, (sm, spec) in enumerate(zip(self.smoothers, self._ordered)):
            col = W_new[:, j]
            if spec.kind != "cell_factor" and (np.any(col < sm.w.min())
                                               or np.any(col > sm.w.max())):
                warnings.warn("prediction outside the training covariate range",
                              ExtrapolationWarning, stacklevel=3)
            out += sm.evaluate(fit.targets[j], col) - fit.centers[j]
        return out
