"""Additive projection by backfitting over per-covariate smoothers.

Descent directions (and final fits) are pushed onto the space of
identifiable additive functions: an intercept plus one mean-zero
component per covariate.  Three component smoothers are supported:

* ``local_linear`` -- degree-1 local regression with a Gaussian kernel,
  bandwidth given directly, chosen to hit a target effective df, or
  defaulted by the usual 1.06*sd*n^(-1/5) rule;
* ``linear`` -- ordinary least squares on {1, w};
* ``cell_factor`` -- one free effect per factor level (per-cell means).

All three are linear operators in the response, so each smoother is
materialized once per design and reapplied as a matrix-vector product.

Backfitting (Buja, Hastie & Tibshirani 1989) defines the components as
the fixed point of a Gauss-Seidel sweep: each component becomes the
centred smooth of its partial residual, the response less every other
component.  The sweep is affine, ``sweep(x) = T x + b``.  ``project``
runs one sweep from zero and a second one; if the second moves no
component by ``BACKFIT_TOL`` (always so for one covariate) it returns.
Otherwise it solves ``(I - T) e = sweep(x) - x`` by GMRES (Saad & Schultz
1986), each iteration one sweep with a zero residual, and finishes with
one real sweep from ``x + e``.  Under concurvity that takes about ten
sweeps where the plain loop stops at its 100-sweep cap short of the
fixed point.  At most ``BACKFIT_MAX_CYCLES`` sweeps run in all.
"""

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
BACKFIT_MAX_CYCLES = 100
# GMRES stops once its residual, the fixed-point residual sweep(x) - x,
# has 2-norm below this; the final sweep then moves far less than
# BACKFIT_TOL.
_KRYLOV_TOL = 1e-3 * BACKFIT_TOL


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
            if self.bandwidth is not None and self.bandwidth <= 0.0:
                raise InvalidInput("bandwidth must be positive")
            if self.target_df is not None and self.target_df <= 0.0:
                raise InvalidInput("target_df must be positive")
        elif self.bandwidth is not None or self.target_df is not None:
            raise InvalidInput(f"{self.kind} smoothers take no bandwidth/target_df")


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


def _check_design(w):
    w = np.asarray(w, dtype=float)
    if w.size < 2:
        raise InvalidInput("smoother needs at least two observations")
    if not np.all(np.isfinite(w)):
        raise InvalidInput("covariate values must be finite")
    return w


def local_linear_smooth(w, g, bandwidth):
    """Local-linear Gaussian-kernel fit of g on w, evaluated at each w.

    Reproduces any affine g exactly once the bandwidth spans the data.
    A design with no spread degenerates to the mean of g, flagged with
    :class:`DegenerateDesignWarning`.
    """
    w = _check_design(w)
    g = np.asarray(g, dtype=float)
    if bandwidth <= 0.0:
        raise InvalidInput("bandwidth must be positive")
    if np.ptp(w) == 0.0:
        warnings.warn("all covariate values identical; returning the mean",
                      DegenerateDesignWarning, stacklevel=2)
        return np.full(w.size, g.mean())
    return _kernels.ll_weights(w, float(bandwidth), w) @ g


def effective_df(w, bandwidth):
    """Trace of the local-linear hat operator on this design."""
    w = _check_design(w)
    if bandwidth <= 0.0:
        raise InvalidInput("bandwidth must be positive")
    if np.ptp(w) == 0.0:
        warnings.warn("all covariate values identical; df of the mean fit is 1",
                      DegenerateDesignWarning, stacklevel=2)
        return 1.0
    return float(np.trace(_kernels.ll_weights(w, float(bandwidth), w)))


def bandwidth_for_df(w, target_df, tol=0.05, max_iter=100):
    """Bandwidth whose hat-operator trace matches target_df, by bisection."""
    w = _check_design(w)
    n = np.unique(w).size
    if not (2.0 < target_df < n):
        raise InvalidInput(f"target_df must lie in (2, {n}) for this design")
    lo = hi = rule_of_thumb_bandwidth(w)
    for _ in range(60):  # df increases as the bandwidth shrinks
        if effective_df(w, lo) > target_df:
            break
        lo /= 4.0
    for _ in range(60):
        if effective_df(w, hi) < target_df:
            break
        hi *= 4.0
    for _ in range(max_iter):
        mid = np.sqrt(lo * hi)
        df = effective_df(w, mid)
        if abs(df - target_df) <= tol:
            return mid
        if df > target_df:
            lo = mid
        else:
            hi = mid
    return np.sqrt(lo * hi)


def cell_factor_smooth(levels, g):
    """Per-level means of g, scattered back to the observations."""
    levels = np.asarray(levels)
    g = np.asarray(g, dtype=float)
    if levels.shape[0] != g.shape[0]:
        raise InvalidInput("levels and g must have matching length")
    _, codes = np.unique(levels, return_inverse=True)
    sums = np.bincount(codes, weights=g)
    counts = np.bincount(codes)
    return (sums / counts)[codes]


# ---------------------------------------------------------------------------
# component smoothers as linear operators
# ---------------------------------------------------------------------------

class _LocalLinear:
    kind = "local_linear"

    def __init__(self, w, bandwidth):
        self.w = w
        self.bandwidth = bandwidth
        self.degenerate = np.ptp(w) == 0.0
        if self.degenerate:
            warnings.warn("local_linear component on a constant covariate",
                          DegenerateDesignWarning, stacklevel=4)
            self.hat = None
        else:
            self.hat = _kernels.ll_weights(w, float(bandwidth), w)

    def apply(self, v):
        if self.degenerate:
            return np.full(v.size, v.mean())
        return self.hat @ v

    def apply_at(self, v, w_new):
        if self.degenerate:
            return np.full(w_new.size, v.mean())
        return _kernels.ll_weights(self.w, float(self.bandwidth), w_new) @ v

    def check_range(self, w_new):
        lo, hi = self.w.min(), self.w.max()
        if np.any(w_new < lo) or np.any(w_new > hi):
            warnings.warn("prediction outside the training covariate range",
                          ExtrapolationWarning, stacklevel=4)


class _Linear:
    kind = "linear"

    def __init__(self, w):
        self.w = w
        self.mean = float(w.mean())
        self.centered = w - self.mean
        ss = float(self.centered @ self.centered)
        self.degenerate = ss == 0.0
        if self.degenerate:
            warnings.warn("linear component on a constant covariate",
                          DegenerateDesignWarning, stacklevel=4)
        self.ss = ss if ss > 0.0 else 1.0

    def _slope(self, v):
        if self.degenerate:
            return 0.0
        return float(self.centered @ v) / self.ss

    def apply(self, v):
        return v.mean() + self._slope(v) * self.centered

    def apply_at(self, v, w_new):
        return v.mean() + self._slope(v) * (w_new - self.mean)

    check_range = _LocalLinear.check_range


class _CellFactor:
    kind = "cell_factor"

    def __init__(self, codes):
        self.codes = codes.astype(int)
        self.n_levels = int(self.codes.max()) + 1
        self.counts = np.bincount(self.codes, minlength=self.n_levels)
        if np.any(self.counts == 0):
            raise InvalidInput("every factor level must occur at least once")

    def _effects(self, v):
        return np.bincount(self.codes, weights=v, minlength=self.n_levels) / self.counts

    def apply(self, v):
        return self._effects(v)[self.codes]

    def apply_at(self, v, codes_new):
        codes_new = codes_new.astype(int)
        if np.any(codes_new < 0) or np.any(codes_new >= self.n_levels):
            raise InvalidInput("prediction factor level unseen in training data")
        return self._effects(v)[codes_new]

    def check_range(self, codes_new):
        pass


def _build_smoother(column, spec):
    if spec.kind == "cell_factor":
        return _CellFactor(column)
    if spec.kind == "linear":
        return _Linear(column)
    bw = spec.bandwidth
    if bw is None and spec.target_df is not None:
        bw = bandwidth_for_df(column, spec.target_df)
    if bw is None:
        bw = rule_of_thumb_bandwidth(column)
    return _LocalLinear(column, float(bw))


class AdditiveProjector:
    """The projection step: smooth a vector onto the additive space.

    Built once per design matrix; ``project`` may then be called many
    times (it sits inside the descent loop) at matrix-vector cost.
    """

    def __init__(self, W, specs, n=None):
        """Check W and build one smoother per column.

        ``n`` is the number of observations the projector will serve;
        when given, W must have exactly that many rows.
        """
        W = np.zeros((0, 0)) if W is None else np.asarray(W, dtype=float)
        if W.ndim == 1:
            W = W[:, None]
        self.W = W
        self.specs = list(specs)
        k = len(self.specs)
        if k != W.shape[1] and not (k == 0 and W.size == 0):
            raise InvalidInput("need exactly one smoother spec per covariate column")
        if k > 0 and n is not None and W.shape[0] != n:
            raise InvalidInput("W must have one row per observation")
        if not np.all(np.isfinite(W)):
            raise InvalidInput("covariate values must be finite")
        seen = sorted(s.covariate_index for s in self.specs)
        if seen != list(range(k)):
            raise InvalidInput("smoother specs must cover each covariate exactly once")
        if k > 0 and W.shape[0] < k + 1:
            raise InvalidInput("need at least k+1 observations for k covariates")
        ordered = sorted(self.specs, key=lambda s: s.covariate_index)
        self.smoothers = [_build_smoother(W[:, s.covariate_index], s) for s in ordered]

    @property
    def k(self):
        return len(self.smoothers)

    def project(self, g):
        """Backfit g onto the additive space (see the module docstring).

        Raises :class:`NumericalFailure` on a non-finite g.
        """
        g = np.asarray(g, dtype=float)
        if not np.all(np.isfinite(g)):
            raise NumericalFailure("cannot project a non-finite vector")
        intercept = float(g.mean())
        resid = g - intercept
        k = self.k
        if k == 0:
            return AdditiveFit(intercept, [], np.full(g.size, intercept))
        comps = np.zeros((k, g.size))
        total = np.zeros(g.size)
        for cycles in range(1, min(2, BACKFIT_MAX_CYCLES) + 1):
            start = comps.copy()
            targets, centers, delta = self._sweep(resid, comps, total)
            if delta < BACKFIT_TOL:
                break
        if delta >= BACKFIT_TOL and BACKFIT_MAX_CYCLES > 2:
            # comps = sweep(start); solve (I - T)(x - start) = comps - start
            step, iters = self._krylov_solve(comps - start, BACKFIT_MAX_CYCLES - 3)
            comps = start + step
            total = comps.sum(axis=0)
            targets, centers, delta = self._sweep(resid, comps, total)
            cycles += iters + 1
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

    def _krylov_solve(self, rhs, max_iter):
        """GMRES for (I - T) e = rhs, T the sweep's linear part.

        Returns ``(e, iterations)``; each iteration is one sweep.  Givens
        rotations keep the Hessenberg matrix triangular, so the residual
        norm is known after every iteration at no extra cost.
        """
        beta = float(np.linalg.norm(rhs))
        basis = [rhs.ravel() / beta]
        cols, rotations, res = [], [], [beta]
        while len(cols) < max_iter:
            v = basis[-1].reshape(rhs.shape)
            tv = v.copy()
            self._sweep(0.0, tv, tv.sum(axis=0))
            w = (v - tv).ravel()
            V = np.array(basis)
            h = V @ w
            w -= h @ V
            col = np.append(h, np.linalg.norm(w))
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            r = float(np.hypot(col[-2], col[-1]))
            if r == 0.0:
                break
            c, s = col[-2] / r, col[-1] / r
            rotations.append((c, s))
            cols.append(np.append(col[:-2], r))
            res.append(-s * res[-1])
            res[-2] *= c
            if abs(res[-1]) <= _KRYLOV_TOL or col[-1] == 0.0:
                break
            basis.append(w / col[-1])
        it = len(cols)
        y = np.zeros(it)
        for i in range(it - 1, -1, -1):
            y[i] = (res[i] - sum(cols[j][i] * y[j] for j in range(i + 1, it))) / cols[i][i]
        return (y @ np.array(basis[:it]).reshape(it, rhs.size)).reshape(rhs.shape), it

    def predict(self, fit, W_new):
        """Evaluate an AdditiveFit at new covariate values."""
        if self.k == 0:
            n_new = 1 if W_new is None else np.atleast_1d(np.asarray(W_new)).shape[0]
            return np.full(n_new, fit.intercept)
        W_new = np.asarray(W_new, dtype=float)
        if W_new.ndim == 1:
            W_new = W_new[:, None]
        if W_new.shape[1] != self.k:
            raise InvalidInput(f"expected {self.k} covariate columns")
        out = np.full(W_new.shape[0], fit.intercept)
        for j, sm in enumerate(self.smoothers):
            col = W_new[:, j]
            sm.check_range(col)
            out += sm.apply_at(fit.targets[j], col) - fit.centers[j]
        return out


def additive_project(g, W, specs):
    """One-shot backfitting projection of g onto the additive space."""
    return AdditiveProjector(W, specs).project(g)
