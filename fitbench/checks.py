"""Output checks for the benchmark's fits, independent of gsda's own code.

Each ``*_problems`` function returns a list of the ways a result is
wrong (empty when it passes).  The POT oracle maximizes a GPD
log-likelihood written here, sharing no code with gsda.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

COVERAGE_TOL = 0.03
MEAN_ZERO_TOL = 1e-6
MLE_REL_TOL = 0.01
MINIMIZE_TOL = 1e-2
POT_ARTIFACTS = ("fitted.csv", "decomposition.csv", "trace.csv", "diagnostics.txt")


def coverage_problems(y, q, alpha):
    """In-sample coverage within 0.03 of alpha.

    A statistical check: with two local_linear components at n=300 an
    exact pinball minimizer may still miss it, so a miss fails the fit
    without marking the output wrong.
    """
    coverage = float(np.mean(np.asarray(y) <= np.asarray(q)))
    if not abs(coverage - alpha) <= COVERAGE_TOL:
        return [f"coverage {coverage:.3f} not within {COVERAGE_TOL} of {alpha}"]
    return []


def component_problems(components):
    """Every additive component has mean zero to 1e-6."""
    problems = []
    for j, comp in enumerate(components):
        mean = float(np.mean(comp))
        if not abs(mean) <= MEAN_ZERO_TOL:
            problems.append(f"component {j} has mean {mean:.3e}")
    return problems


def minimize_problems(x):
    """Nonsmooth Rosenbrock minimum (1, 1) found to 1e-2."""
    dist = float(np.linalg.norm(np.asarray(x, dtype=float) - 1.0))
    if not dist <= MINIMIZE_TOL:
        return [f"|x - (1,1)| = {dist:.3e} exceeds {MINIMIZE_TOL}"]
    return []


def _profile_negloglik(tau, y):
    """Constant GPD negative log-likelihood over n, maximized over kappa at fixed tau.

    With tau = kappa / sigma the best kappa is mean(log1p(tau y)) and
    sigma = kappa / tau (Grimshaw's reduction); tau -> 0 is the
    exponential limit.
    """
    if tau == 0.0:
        return 1.0 + math.log(float(np.mean(y)))
    kappa = float(np.mean(np.log1p(tau * y)))
    return 1.0 + math.log(kappa / tau) + kappa


def gpd_mle(y, grid=2000):
    """(sigma, kappa) maximizing the constant GPD likelihood of y, with kappa > -1.

    The one-dimensional profile likelihood in tau is minimized over a
    grid of 1 + tau max(y) in (0, 1e6], then refined by golden section
    between the best point's neighbours.  It uses numpy alone, so the
    check adds no import to the process whose peak memory is measured.
    """
    y = np.asarray(y, dtype=float)
    ymax = float(y.max())
    v = np.linspace(math.log(1e-8), math.log(1e6), grid)  # v = log(1 + tau ymax)
    taus = np.expm1(v) / ymax
    kappas = np.array([np.log1p(tau * y).mean() for tau in taus])  # no grid-by-n array
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(kappas > -1.0, 1.0 + np.log(kappas / taus) + kappas, np.inf)
    best = int(np.argmin(values))
    lo, hi = v[max(best - 1, 0)], v[min(best + 1, grid - 1)]

    def f(u):
        return _profile_negloglik(math.expm1(u) / ymax, y)

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = f(a), f(b)
    while hi - lo > 1e-12:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - ratio * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = f(b)
    tau = math.expm1((lo + hi) / 2.0) / ymax
    if tau == 0.0:
        return float(np.mean(y)), 0.0
    kappa = float(np.mean(np.log1p(tau * y)))
    return kappa / tau, kappa


def return_level(sigma, kappa, c):
    """Return level at scale factor c: sigma (c^-kappa - 1) / kappa."""
    if abs(kappa) < 1e-12:
        return -sigma * math.log(c)
    return sigma * (c ** (-kappa) - 1.0) / kappa


def pot_qp_problems(y, theta, zeta, c):
    """Return level and expected shortfall within 1% of the MLE's."""
    sigma, kappa = gpd_mle(y)
    theta_ref = return_level(sigma, kappa, c)
    zeta_ref = (theta_ref + sigma) / (1.0 - kappa)
    problems = []
    for name, got, ref in (("return level", theta, theta_ref),
                           ("expected shortfall", zeta, zeta_ref)):
        err = abs(got - ref) / abs(ref)
        if not err <= MLE_REL_TOL:
            problems.append(f"{name} {got:.6g} is {err:.2%} from the MLE's {ref:.6g}")
    return problems


@dataclass
class PotArtifacts:
    """What ``gsda fit-pot`` left in its output directory."""

    present: list
    diagnostics: dict = field(default_factory=dict)
    y: np.ndarray = None  # the response column of fitted.csv
    values: np.ndarray = None  # the two fitted functional columns, (n, 2)
    events: list = field(default_factory=list)
    backtracks: list = field(default_factory=list)


def _read_rows(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return header, [line.rstrip("\n").split(",") for line in fh if line.strip()]


def read_pot_artifacts(out_dir):
    """Parse the artifacts of one fit-pot run; missing files stay empty."""
    present = [name for name in POT_ARTIFACTS
               if os.path.isfile(os.path.join(out_dir, name))]
    art = PotArtifacts(present)
    if "diagnostics.txt" in present:
        with open(os.path.join(out_dir, "diagnostics.txt")) as fh:
            for line in fh:
                key, _, value = line.strip().partition("=")
                try:
                    art.diagnostics[key] = float(value)
                except ValueError:
                    art.diagnostics[key] = value
    if "fitted.csv" in present:
        header, rows = _read_rows(os.path.join(out_dir, "fitted.csv"))
        table = np.array([[float(v) for v in r] for r in rows])
        art.y, art.values = table[:, 0], table[:, -2:]
    if "trace.csv" in present:
        header, rows = _read_rows(os.path.join(out_dir, "trace.csv"))
        ev, bt = header.index("event"), header.index("backtracks")
        art.events = [r[ev] for r in rows]
        art.backtracks = [int(r[bt]) for r in rows]
    return art


def pot_cli_problems(exit_code, art):
    """Exit 0, the four artifacts present, finite fitted functionals."""
    problems = []
    if art.values is None or not np.all(np.isfinite(art.values)):
        problems.append("non-finite or missing fitted functionals")
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    missing = sorted(set(POT_ARTIFACTS) - set(art.present))
    if missing:
        problems.append(f"missing artifacts {missing}")
    return problems
