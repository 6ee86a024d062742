"""The benchmark's three workloads: inputs from a seed, the fit call, checks.

A workload turns ``(seed, index)`` into the inputs of one fit, calls
gsda on them (the only timed part), and checks the result.  Every fit
passes an explicit ``max_iter``; a fit that reaches it counts as failed.
Sizes are below the acceptance fixtures' (n=1000 with m=600 for the qp
fit) so that one 30 s run holds 42 to 450 fits and its medians are
steady across seeds; ``fits_per_second`` is each workload's rate on the
2-core machine the benchmark was sized on.  The layer shares the sizes
were chosen for were checked with ``--trace 1``: projection 65% of
quantile-additive, min-norm 33% and the gpd_grad pullback 36% of
pot-qp, min-norm 64% of minimize.  quantile-additive uses n=300, not
200, because its fit times spread less about their median there (an
interquartile range of 0.68 of the median against 0.86 over 80 and 100
fits), which steadies the median of a run's fits.
"""

import hashlib
import os
import warnings
from dataclasses import dataclass

import numpy as np

from gsda import cli, datasets, engine, quantile
from gsda.engine import GsParams
from gsda.errors import SampleSizeWarning
from gsda.smoothing import SmootherSpec

import checks


@dataclass
class Outcome:
    """What one fit did, as the benchmark reports it."""

    status: str  # "ok" | "capped" | "raised" | "nonfinite" | "check"
    detail: str
    wrong: bool = False  # success reported, but an exact check failed
    iterations: int = 0
    steps: int = 0
    shrinks: int = 0
    backtracks: int = 0
    sampling_exhausted: int = 0
    final_f: float = float("nan")
    digest: str = ""

    @property
    def ok(self):
        return self.status == "ok"


def _child_seeds(seed, index, count):
    return [int(s) for s in np.random.SeedSequence([seed, index]).generate_state(count)]


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _trace_counts(records):
    """(iterations, steps, shrinks, backtracks, sampling_exhausted) of records."""
    events = [r[0] for r in records]
    return (len(records), events.count("step"), events.count("shrink"),
            sum(r[1] for r in records), events.count("sampling_exhausted"))


def _outcome(trace, values, problems, digest, statistical=()):
    """Classify a returned fit: capped, non-finite, failed check, or ok.

    ``problems`` come from exact checks, which a correct converged fit
    always passes; ``statistical`` ones fail the fit but do not make
    its output wrong.
    """
    counts = _trace_counts([(r.event, r.backtracks) for r in trace.records])
    final_f = float(trace.final_f())
    wrong = False
    if not trace.converged:
        status, detail = "capped", trace.message or "not converged"
    elif not (np.all(np.isfinite(values)) and np.isfinite(final_f)):
        status, detail, wrong = "nonfinite", "non-finite output", True
    elif problems or statistical:
        status, detail, wrong = "check", "; ".join([*problems, *statistical]), bool(problems)
    else:
        status, detail = "ok", ""
    return Outcome(status, detail, wrong, *counts, final_f=final_f, digest=digest)


class QuantileAdditive:
    """Average-mode pinball fit, two correlated local_linear covariates."""

    name = "quantile-additive"
    n = 300
    alpha = 0.9
    max_iter = 1000
    fits_per_second = 1.4
    specs = (SmootherSpec("local_linear", 0), SmootherSpec("local_linear", 1))
    sites = ("gsda.quantile:fit_quantile_additive", "gsda.quantile:sample_unit_ball",
             "gsda.quantile:_sampled_subgradient", "gsda._kernels:pinball_grad",
             "gsda._kernels:pinball_sampled_grad_sum", "gsda._kernels:pinball_loss",
             "gsda.smoothing:AdditiveProjector.__init__",
             "gsda.smoothing:AdditiveProjector.project")

    def make_input(self, seed, index, workdir):
        data_seed, noise_seed, fit_seed = _child_seeds(seed, index, 3)
        data = datasets.simulate_hetero(self.n, data_seed)
        w1 = data.W[:, 0]
        w2 = w1 + 0.6 * np.random.default_rng(noise_seed).standard_normal(self.n)
        gs = GsParams(subgradient_mode="average", max_iter=self.max_iter, seed=fit_seed)
        return (data.y, np.column_stack([w1, w2]), gs)

    def fit(self, inp, tracer=None):
        y, W, gs = inp
        return quantile.fit_quantile_additive(y, W, self.alpha, list(self.specs), gs)

    def check(self, inp, model):
        problems = checks.component_problems(model.decomposition.components)
        coverage = checks.coverage_problems(inp[0], model.q, self.alpha)
        return _outcome(model.trace, model.q, problems, _digest(model.q), coverage)


class PotQp:
    """Constant-parameter var_es fit in qp mode through ``gsda fit-pot``.

    The C6 configuration, smaller: GPD(sigma=2, kappa=0.2) excesses,
    intercept only, beta 1e-4, m below 2n+1.  Going through the CLI also
    times loading the input CSV and writing the four artifacts.
    """

    name = "pot-qp"
    n = 300
    m = 120
    max_iter = 300
    fits_per_second = 1.4
    level, exceed_prob = 0.01, 0.1
    sites = ("gsda.cli:main", "gsda.cli:fit_pot_additive", "gsda.pot:sample_unit_ball",
             "gsda.pot:_theta_grad_rows", "gsda.pot:min_norm_point",
             "gsda._kernels:gpd_grad", "gsda._kernels:gpd_loglik",
             "gsda.pot:PotState.from_lambda",
             "gsda.smoothing:AdditiveProjector.__init__",
             "gsda.smoothing:AdditiveProjector.project", "gsda.datasets:load_csv",
             "gsda.cli:_write_table", "gsda.cli:_write_decomposition",
             "gsda.cli:_write_trace", "gsda.cli:_write_diagnostics")

    def make_input(self, seed, index, workdir):
        data_seed, fit_seed = _child_seeds(seed, index, 2)
        u = np.random.default_rng(data_seed).random(self.n)
        y = datasets.gpd_inverse_cdf(u, 2.0, 0.2)
        fit_dir = os.path.join(workdir, f"fit{index}")
        os.makedirs(fit_dir)
        csv_path = os.path.join(fit_dir, "data.csv")
        datasets.write_csv(datasets.Dataset(y, np.zeros((self.n, 0)), [], []), csv_path)
        out = os.path.join(fit_dir, "out")
        return (out, [
            "fit-pot", "--input", csv_path, "--levels", str(self.level),
            "--exceed-prob", str(self.exceed_prob), "--mode", "qp", "--m", str(self.m),
            "--beta", "1e-4", "--max-iter", str(self.max_iter), "--seed", str(fit_seed),
            "--output-dir", out])

    def fit(self, inp, tracer=None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleSizeWarning)  # m < 2n+1, as in C6
            return cli.main(inp[1])

    def check(self, inp, exit_code):
        art = checks.read_pot_artifacts(inp[0])
        counts = _trace_counts(list(zip(art.events, art.backtracks)))
        final_f = art.diagnostics.get("final_negloglik", float("nan"))
        if exit_code == cli.EXIT_NONCONVERGED:
            return Outcome("capped", "exit 2 (not converged)", False, *counts,
                           final_f=final_f, digest=_digest(art.values))
        if exit_code in (cli.EXIT_INPUT, cli.EXIT_NUMERIC):  # gsda raised; cli.main caught it
            return Outcome("raised", f"exit {exit_code} (gsda raised)", False, *counts,
                           final_f=final_f)
        problems = checks.pot_cli_problems(exit_code, art)
        if not problems:
            theta, zeta = art.values[0]
            problems = checks.pot_qp_problems(art.y, theta, zeta,
                                              self.level / self.exceed_prob)
        if problems:
            status = "nonfinite" if "non-finite" in problems[0] else "check"
            return Outcome(status, "; ".join(problems), True, *counts,
                           final_f=final_f, digest=_digest(art.values))
        return Outcome("ok", "", False, *counts, final_f=final_f, digest=_digest(art.values))


class Minimize:
    """Nonsmooth Rosenbrock from uniform starts, default qp mode."""

    name = "minimize"
    max_iter = 2000
    fits_per_second = 15.0
    min_fits = 100
    sites = ("gsda.engine:gsda_minimize", "gsda.engine:sample_unit_ball",
             "gsda.engine:approx_subgradient", "gsda.engine:armijo_search",
             "gsda.engine:min_norm_point")

    def make_input(self, seed, index, workdir):
        start_seed, fit_seed = _child_seeds(seed, index, 2)
        x0 = np.random.default_rng(start_seed).uniform(-2.0, 2.0, 2)
        return (engine.nonsmooth_rosenbrock(), x0, GsParams(max_iter=self.max_iter, seed=fit_seed))

    def fit(self, inp, tracer=None):
        obj, x0, gs = inp
        if tracer is not None:
            obj = tracer.objective(obj)
        return engine.gsda_minimize(obj, x0, gs)

    def check(self, inp, result):
        x, trace = result
        problems = checks.minimize_problems(x)
        return _outcome(trace, x, problems, _digest(x))


WORKLOADS = {w.name: w for w in (QuantileAdditive(), PotQp(), Minimize())}


def fit_count(workload, seconds, traced):
    """Fits in one run: enough to fill ``seconds`` at the sized rate.

    The count depends only on the workload and ``seconds``, so two runs
    with one seed fit the same inputs.  Traced runs fit half as many,
    because they fit each input four times.
    """
    rate = workload.fits_per_second / (2.0 if traced else 1.0)
    return max(int(np.ceil(seconds * rate)), getattr(workload, "min_fits", 2))
