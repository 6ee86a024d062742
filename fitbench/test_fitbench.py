"""Tests of the benchmark itself: each output check rejects a wrong result,
and the tracer attributes time and counts where they happen.

Run with:  python3 -m pytest fitbench
"""

import math
import os

import numpy as np
import pytest

import checks
import run
import workloads
from gsda import datasets, engine
from gsda.engine import FitTrace
from tracer import SITES, Tracer


# -- quantile-additive ------------------------------------------------------

def test_quantile_check_accepts_a_good_fit_and_rejects_wrong_ones():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(1000)
    q = np.full(y.size, np.quantile(y, 0.9))
    assert checks.coverage_problems(y, q, 0.9) == []
    assert checks.component_problems([np.zeros(y.size), np.arange(3) - 1.0]) == []
    # the median is a wrong 0.9-quantile: coverage 0.5
    assert checks.coverage_problems(y, np.full(y.size, np.median(y)), 0.9)
    # a component that is not mean-zero breaks identifiability
    assert checks.component_problems([np.full(y.size, 1e-3)])


# -- pot-qp -----------------------------------------------------------------

def test_pot_qp_check_accepts_the_mle_and_rejects_a_2pct_error():
    rng = np.random.default_rng(1)
    y = datasets.gpd_inverse_cdf(rng.random(400), 2.0, 0.2)
    sigma, kappa = checks.gpd_mle(y)
    theta = checks.return_level(sigma, kappa, 0.1)
    zeta = (theta + sigma) / (1.0 - kappa)
    assert checks.pot_qp_problems(y, theta, zeta, 0.1) == []
    assert checks.pot_qp_problems(y, theta * 1.02, zeta, 0.1)
    assert checks.pot_qp_problems(y, theta, zeta * 0.98, 0.1)


def _gpd_negloglik(sigma, kappa, y):
    a = 1.0 + kappa * y / sigma
    if np.any(a <= 0.0):
        return math.inf
    return y.size * math.log(sigma) + (1.0 + 1.0 / kappa) * np.log(a).sum()


@pytest.mark.parametrize("kappa", [-0.3, 0.2, 0.8])
def test_gpd_mle_is_a_local_maximum(kappa):
    rng = np.random.default_rng(2)
    y = datasets.gpd_inverse_cdf(rng.random(400), 2.0, kappa)
    sigma, kappa = checks.gpd_mle(y)
    best = _gpd_negloglik(sigma, kappa, y)
    for d_sigma, d_kappa in ((1e-3, 0), (-1e-3, 0), (0, 1e-3), (0, -1e-3)):
        assert _gpd_negloglik(sigma * (1.0 + d_sigma), kappa + d_kappa, y) > best


def test_gpd_mle_agrees_with_scipy():
    stats = pytest.importorskip("scipy.stats")
    for seed in range(5):
        y = datasets.gpd_inverse_cdf(np.random.default_rng(seed).random(300), 2.0, 0.2)
        sigma, kappa = checks.gpd_mle(y)
        kappa_ref, _, sigma_ref = stats.genpareto.fit(y, floc=0.0)
        assert sigma == pytest.approx(sigma_ref, rel=1e-3)
        assert kappa == pytest.approx(kappa_ref, abs=1e-3)


def test_pot_qp_check_can_fail_at_the_starting_point():
    # a fitter that takes no step returns the method-of-moments start;
    # the 1% bound must reject it on some inputs (C6's 5% bound does not)
    from gsda.pot import FunctionalSpec, functional_map, initial_lambda

    spec = FunctionalSpec("var_es", (0.01,), 0.1)
    rejected = 0
    for seed in range(5):
        u = np.random.default_rng([seed, 7]).random(400)
        y = datasets.gpd_inverse_cdf(u, 2.0, 0.2)
        theta, zeta = functional_map(initial_lambda(y, spec), spec)
        rejected += bool(checks.pot_qp_problems(y, theta[0], zeta[0], 0.1))
    assert rejected > 0


# -- pot-qp through the CLI ----------------------------------------------------

def _write_artifacts(out, values, skip=()):
    os.makedirs(out)
    files = {
        "fitted.csv": "y,return_level,expected_shortfall\n"
                      + "".join(f"1.0,{a!r},{b!r}\n" for a, b in values),
        "decomposition.csv": "return_level.intercept\n1.0\n",
        "trace.csv": "iter,f,gnorm,eps,tau,t,method,backtracks,event\n"
                     "0,1.0,1.0,0.1,0.01,1.0,qp,2,step\n",
        "diagnostics.txt": "final_negloglik=12.5\n",
    }
    for name, text in files.items():
        if name not in skip:
            with open(os.path.join(out, name), "w") as fh:
                fh.write(text)


def test_pot_cli_check_accepts_good_artifacts(tmp_path):
    out = str(tmp_path / "ok")
    _write_artifacts(out, [(1.0, 2.0), (1.0, 2.0)])
    art = checks.read_pot_artifacts(out)
    assert checks.pot_cli_problems(0, art) == []
    assert art.events == ["step"] and art.backtracks == [2]
    assert art.diagnostics["final_negloglik"] == 12.5
    assert art.values.tolist() == [[1.0, 2.0], [1.0, 2.0]]


@pytest.mark.parametrize("case", ["exit", "missing", "nonfinite"])
def test_pot_cli_check_rejects_wrong_results(tmp_path, case):
    out = str(tmp_path / case)
    values = [(1.0, 2.0), (1.0, float("nan") if case == "nonfinite" else 2.0)]
    _write_artifacts(out, values, skip=("decomposition.csv",) if case == "missing" else ())
    exit_code = 4 if case == "exit" else 0
    assert checks.pot_cli_problems(exit_code, checks.read_pot_artifacts(out))


@pytest.mark.parametrize("exit_code", [3, 4])
def test_pot_fit_that_raised_is_failed_not_wrong(tmp_path, exit_code):
    # cli.main turns InvalidInput into exit 3 and a numerical failure into
    # exit 4, before any artifact is written
    outcome = workloads.PotQp().check((str(tmp_path / "out"), []), exit_code)
    assert outcome.status == "raised" and not outcome.wrong


def test_pot_qp_workload_fits_and_passes_its_check(tmp_path):
    w = workloads.PotQp()
    inp = w.make_input(0, 0, str(tmp_path))
    outcome = w.check(inp, w.fit(inp))
    assert outcome.ok, outcome.detail
    assert outcome.iterations > 0 and outcome.final_f > 0


# -- minimize -------------------------------------------------------------------

def test_minimize_check():
    assert checks.minimize_problems([1.0 + 1e-3, 1.0]) == []
    assert checks.minimize_problems([1.02, 1.0])
    assert checks.minimize_problems([float("nan"), 1.0])


def test_capped_and_nonfinite_fits_count_as_failed():
    trace = FitTrace()
    trace.add(0, 1.0, 1.0, 0.1, 0.01, 1.0, "qp", 0, "step")
    trace.message = "max_iter reached"
    assert workloads._outcome(trace, np.ones(2), [], "").status == "capped"
    trace.converged = True
    assert workloads._outcome(trace, np.array([1.0, np.nan]), [], "").wrong
    exact = workloads._outcome(trace, np.ones(2), ["bad"], "")
    assert exact.status == "check" and exact.wrong
    statistical = workloads._outcome(trace, np.ones(2), [], "", ["coverage"])
    assert statistical.status == "check" and not statistical.wrong
    assert workloads._outcome(trace, np.ones(2), [], "").ok


# -- traced runs -----------------------------------------------------------------

def _traced_run(fits, missing=(), unattributed=0.02):
    return {"missing_sites": list(missing),
            "layers": {"trace.unattributed_frac": unattributed},
            "fits": [dict(status="ok", final_f=f, counts=[1, 2], seconds=0.1 * f,
                          scale=1.0, plain_seconds=0.1, plain_agrees=True) for f in fits]}


def test_traced_runs_are_compared_over_the_fits_both_completed():
    # the second run was cut by its deadline after two fits: not a difference
    assert run.traced_problems(_traced_run([1.0, 2.0, 3.0]), _traced_run([1.0, 2.0])) == []
    second = _traced_run([1.0, 2.5])
    assert "final_f" in run.traced_problems(_traced_run([1.0, 2.0, 3.0]), second)[0]
    second = _traced_run([1.0, 2.0])
    second["fits"][1]["counts"] = [1, 3]
    assert run.traced_problems(_traced_run([1.0, 2.0]), second)


def test_traced_run_fails_on_a_missing_site_or_unattributed_time():
    ok = _traced_run([1.0])
    assert run.traced_problems(_traced_run([1.0], missing=["gsda.pot:gpd_grad"]), ok)
    assert run.traced_problems(_traced_run([1.0], unattributed=0.2), ok)


# -- tracer -------------------------------------------------------------------------

def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [("fit", 0.0, 10.0, -1, 0), ("engine.sample", 1.0, 4.0, 0, 0),
                    ("kernels.grad", 2.0, 3.0, 1, 0), ("kernels.grad", 5.0, 6.0, 0, 0)]
    self_s, fit_wall = tracer.self_times()
    assert fit_wall == 10.0
    assert self_s["engine.sample"] == 2.0
    assert self_s["kernels.grad"] == 2.0
    assert self_s["fit"] == 6.0
    assert tracer.layer_metrics()["trace.unattributed_frac"] == pytest.approx(0.6)


def test_tracer_patches_and_restores_every_site():
    originals = {}
    for module_name, attr, _ in SITES:
        owner, leaf = __import__("tracer")._resolve(module_name, attr)
        originals[(module_name, attr)] = owner.__dict__[leaf] if isinstance(owner, type) \
            else getattr(owner, leaf)
    with Tracer():
        assert engine.sample_unit_ball is not originals[("gsda.engine", "sample_unit_ball")]
    for (module_name, attr), original in originals.items():
        owner, leaf = __import__("tracer")._resolve(module_name, attr)
        now = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        assert now is original


def test_traced_minimize_hits_its_sites_and_counts_the_trace():
    w = workloads.Minimize()
    inp = w.make_input(0, 0, None)
    with Tracer() as tracer:
        fit = tracer.span("fit", w.fit)
        x, trace = fit(inp, tracer)
    assert tracer.missing_sites(w.sites) == []
    assert tracer.missing_sites(["gsda.pot:_theta_grad_rows"]) == ["gsda.pot:_theta_grad_rows"]
    counts = tracer.counts
    assert counts["minnorm.qp_calls"] == len(trace)
    assert counts["engine.sample_rows"] == 3 * len(trace)
    assert counts["engine.objective_calls"] > 0
    metrics = tracer.layer_metrics()
    assert metrics["kernels.feasible_frac"] == 1.0
    assert 0.0 <= metrics["trace.unattributed_frac"] < 0.5


def test_minnorm_fallbacks_count_numerical_failures():
    from gsda.errors import NumericalFailure
    from gsda.minnorm import GradientSet

    with Tracer() as tracer:
        def failing(grad_set):
            raise NumericalFailure("stalled")
        wrapped = tracer.span("minnorm.qp", failing, tracer._hooks("min_norm_point", "minnorm.qp")[1])
        with pytest.raises(NumericalFailure):
            wrapped(GradientSet(np.eye(2)))
    assert tracer.counts["minnorm.fallbacks"] == 1
    assert tracer.counts["minnorm.rows_in"] == 2
