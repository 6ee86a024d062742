"""Acceptance gate: one test per criterion, one printed line per criterion.

Fits shared by several criteria (the descent-invariant and
identifiability sweeps reuse every earlier run) are computed once in
session fixtures; each records its wall time so the per-criterion
runtime budgets stay honest.
"""

import time
import warnings

import numpy as np
import pytest

from gsda import (
    FunctionalSpec,
    GradientSet,
    GsParams,
    SmootherSpec,
    fit_pot_additive,
    fit_quantile_additive,
    gpd_loglik,
    gpd_loglik_grad,
    gsda_minimize,
    jacobian_blocks,
    min_norm_point,
    nonsmooth_rosenbrock,
    pinball_grad,
    pinball_loss,
)
from gsda.cli import main as cli_main
from gsda.datasets import gpd_inverse_cdf, simulate_gpd_sites, write_csv, Dataset
from gsda.errors import SampleSizeWarning
from gsda.pot import Lambda
from gsda.smoothing import bandwidth_for_df, effective_df

from _oracles import bary_min_norm, central_diff, gpd_mle_oracle, theta_ref, zeta_ref

VAR_ES = FunctionalSpec("var_es", (0.01,), 0.1)  # scale factor c = 0.1


def report(tag, passed, detail):
    print(f"\nACCEPTANCE {tag}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{tag} failed: {detail}"


def check_trace_invariants(trace_rows):
    """rows of (f, eps, tau, t, event); shared by criterion 8."""
    f_accepted = [r[0] for r in trace_rows if r[4] == "step"]
    assert np.all(np.isfinite(f_accepted)), "accepted iterate with non-finite f"
    assert np.all(np.diff(f_accepted) < 0.0), "objective not strictly decreasing"
    eps = [r[1] for r in trace_rows]
    tau = [r[2] for r in trace_rows]
    assert np.all(np.diff(eps) <= 0.0), "eps increased"
    assert np.all(np.diff(tau) <= 0.0), "tau increased"


def trace_tuples(trace):
    return [(r.f, r.eps, r.tau, r.t, r.event) for r in trace.records]


# ---------------------------------------------------------------------------
# shared fixtures (each also used by criteria 8 and 9)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rosenbrock_run():
    start = time.perf_counter()
    x, trace = gsda_minimize(nonsmooth_rosenbrock(), [-1.0, 1.0], GsParams(seed=0))
    return {"x": x, "trace": trace, "seconds": time.perf_counter() - start}


@pytest.fixture(scope="module")
def intercept_quantile_runs():
    start = time.perf_counter()
    runs = []
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        y = rng.random(200)
        model = fit_quantile_additive(y, None, 0.9, [], GsParams(seed=seed))
        runs.append((y, model))
    return {"runs": runs, "seconds": time.perf_counter() - start}


@pytest.fixture(scope="module")
def coverage_runs():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    n = 1000
    w = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    y = np.sin(w) + (0.5 + 0.4 * w) * rng.standard_normal(n)
    models = {}
    for alpha in (0.5, 0.9):
        models[alpha] = fit_quantile_additive(
            y, w[:, None], alpha, [SmootherSpec("local_linear", 0)],
            GsParams(seed=1, beta=0.01))
    return {"y": y, "models": models, "seconds": time.perf_counter() - start}


@pytest.fixture(scope="module")
def constant_pot_runs():
    start = time.perf_counter()
    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            y = gpd_inverse_cdf(rng.random(1000), 2.0, 0.2)
            sig, kap = gpd_mle_oracle(y)
            model = fit_pot_additive(y, None, VAR_ES, [],
                                     GsParams(seed=seed, beta=1e-4, m=600))
            runs.append({
                "model": model,
                "theta_oracle": theta_ref(sig, kap, 0.1),
                "zeta_oracle": zeta_ref(sig, kap, 0.1),
            })
    return {"runs": runs, "seconds": time.perf_counter() - start}


@pytest.fixture(scope="module")
def two_level_run(tmp_path_factory):
    start = time.perf_counter()
    root = tmp_path_factory.mktemp("two_level")
    data = simulate_gpd_sites(200, seed=5)
    write_csv(data, root / "data.csv")
    out = root / "fit"
    exit_code = cli_main([
        "fit-pot", "--input", str(root / "data.csv"),
        "--levels", "0.01,0.002", "--exceed-prob", "0.1",  # c = 0.1, 0.02
        "--smoother", "site=cell_factor", "--smoother", "t=local_linear:df=10",
        "--beta", "0.01", "--seed", "0", "--output-dir", str(out)])
    lines = (out / "fitted.csv").read_text().splitlines()
    header = lines[0].split(",")
    cols = {name: i for i, name in enumerate(header)}
    rows = [line.split(",") for line in lines[1:]]
    th1 = np.array([float(r[cols["return_level_1"]]) for r in rows])
    th2 = np.array([float(r[cols["return_level_2"]]) for r in rows])
    trace_lines = (out / "trace.csv").read_text().splitlines()
    tcols = {name: i for i, name in enumerate(trace_lines[0].split(","))}
    trace_rows = []
    for line in trace_lines[1:]:
        r = line.split(",")
        trace_rows.append((float(r[tcols["f"]]), float(r[tcols["eps"]]),
                           float(r[tcols["tau"]]), float(r[tcols["t"]]),
                           r[tcols["event"]]))
    decomp_lines = (out / "decomposition.csv").read_text().splitlines()
    dheader = decomp_lines[0].split(",")
    dvals = np.array([[float(v) for v in line.split(",")]
                      for line in decomp_lines[1:]])
    components = {name: dvals[:, i] for i, name in enumerate(dheader)
                  if ".component." in name}
    return {
        "exit_code": exit_code, "t": data.column("t"), "th1": th1, "th2": th2,
        "trace_rows": trace_rows, "components": components,
        "seconds": time.perf_counter() - start,
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_nonsmooth_rosenbrock(rosenbrock_run):
    dist = float(np.linalg.norm(rosenbrock_run["x"] - np.array([1.0, 1.0])))
    secs = rosenbrock_run["seconds"]
    ok = dist <= 1e-2 and len(rosenbrock_run["trace"]) <= 5000 and secs < 10.0
    report("C1 nonsmooth-rosenbrock", ok,
           f"|x - (1,1)| = {dist:.2e}, {len(rosenbrock_run['trace'])} iterations, "
           f"{secs:.2f}s")


def test_c02_min_norm_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    steps_for = {1: 1, 2: 100, 3: 100, 4: 60, 5: 40}
    worst_gap = -np.inf
    for _ in range(200):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        z = rng.normal(scale=2.0, size=(k, n))
        res = min_norm_point(GradientSet(z))
        worst_gap = max(worst_gap, res.norm - bary_min_norm(z, steps_for[k]))
    secs = time.perf_counter() - start
    ok = worst_gap <= 1e-6 and secs < 5.0
    report("C2 min-norm-oracle", ok,
           f"max(norm - grid minimum) = {worst_gap:.2e} over 200 sets, {secs:.2f}s")


def test_c03_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0

    def rel(a, b):
        return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))

    for _ in range(100):
        n = int(rng.integers(1, 6))
        alpha = float(rng.uniform(0.05, 0.95))
        y = rng.uniform(-3.0, 3.0, n)
        q = y + rng.choice([-1.0, 1.0], n) * rng.uniform(1e-2, 2.0, n)
        fd = central_diff(lambda v: pinball_loss(v, y, alpha), q)
        worst = max(worst, rel(pinball_grad(q, y, alpha), fd))

        lam = Lambda(rng.uniform(-0.5, 1.5, n), rng.uniform(-0.25, 0.8, n))
        yy = rng.uniform(0.05, 2.0, n) * lam.sigma
        fd = central_diff(lambda v: gpd_loglik(Lambda.from_vector(v), yy),
                          lam.as_vector())
        worst = max(worst, rel(gpd_loglik_grad(lam, yy), fd))

        jac, _ = jacobian_blocks(lam, VAR_ES)
        h = 1e-6
        for which in range(2):
            de = h if which == 0 else 0.0
            dk = h if which == 1 else 0.0
            up = Lambda(lam.eta + de, lam.kappa + dk)
            dn = Lambda(lam.eta - de, lam.kappa - dk)
            from gsda import functional_map
            f_up, f_dn = functional_map(up, VAR_ES), functional_map(dn, VAR_ES)
            for fidx in range(2):
                fd_col = (f_up[fidx] - f_dn[fidx]) / (2.0 * h)
                worst = max(worst, rel(jac[:, fidx, which], fd_col))
    secs = time.perf_counter() - start
    ok = worst <= 1e-5 and secs < 10.0
    report("C3 gradient-correctness", ok,
           f"max relative FD error {worst:.2e} at 100 points, {secs:.2f}s")


def test_c04_intercept_only_quantile(intercept_quantile_runs):
    all_ok = True
    detail = []
    for y, model in intercept_quantile_runs["runs"]:
        srt = np.sort(y)
        lo, hi = srt[178], srt[181]  # one gap around the bracketing pair
        inside = lo <= model.q[0] <= hi
        all_ok &= inside
        if not inside:
            detail.append(f"q={model.q[0]:.5f} outside [{lo:.5f},{hi:.5f}]")
    secs = intercept_quantile_runs["seconds"]
    ok = all_ok and secs < 60.0
    report("C4 intercept-only-quantile", ok,
           f"20/20 seeds in bracket, {secs:.2f}s" if all_ok
           else "; ".join(detail))


def test_c05_additive_quantile_coverage(coverage_runs):
    y = coverage_runs["y"]
    covs = {a: float(np.mean(y <= m.q)) for a, m in coverage_runs["models"].items()}
    secs = coverage_runs["seconds"]
    ok = all(abs(covs[a] - a) <= 0.05 for a in covs) and secs < 300.0
    report("C5 additive-quantile-coverage", ok,
           ", ".join(f"alpha={a}: coverage={covs[a]:.3f}" for a in covs)
           + f", {secs:.1f}s")


def test_c06_constant_pot_vs_mle_oracle(constant_pot_runs):
    passes = 0
    details = []
    for run in constant_pot_runs["runs"]:
        th, ze = (run["model"].state.theta_pair[0][0],
                  run["model"].state.theta_pair[1][0])
        eth = abs(th - run["theta_oracle"]) / run["theta_oracle"]
        eze = abs(ze - run["zeta_oracle"]) / run["zeta_oracle"]
        passes += (eth <= 0.05 and eze <= 0.05)
        details.append(f"{max(eth, eze) * 100:.2f}%")
    secs = constant_pot_runs["seconds"]
    ok = passes >= 9 and secs < 300.0
    report("C6 constant-pot-mle", ok,
           f"{passes}/10 seeds within 5% (worst errors: {', '.join(details)}), "
           f"{secs:.1f}s")


def test_c07_two_level_return_levels(two_level_run):
    r = two_level_run
    bw = bandwidth_for_df(r["t"], 10.0)
    df = effective_df(r["t"], bw)
    never_cross = bool(np.all(r["th2"] > r["th1"]))
    secs = r["seconds"]
    ok = (r["exit_code"] == 0 and never_cross
          and 9.9 <= df <= 10.1 and secs < 600.0)
    report("C7 two-level-return-levels", ok,
           f"exit={r['exit_code']}, ordered pointwise={never_cross}, "
           f"time-smoother df={df:.3f}, {secs:.1f}s")


def test_c08_descent_invariants(rosenbrock_run, intercept_quantile_runs,
                                coverage_runs, constant_pot_runs, two_level_run):
    checked = 0
    check_trace_invariants(trace_tuples(rosenbrock_run["trace"]))
    checked += 1
    for _, model in intercept_quantile_runs["runs"]:
        check_trace_invariants(trace_tuples(model.trace))
        checked += 1
    for model in coverage_runs["models"].values():
        check_trace_invariants(trace_tuples(model.trace))
        checked += 1
    for run in constant_pot_runs["runs"]:
        check_trace_invariants(trace_tuples(run["model"].trace))
        checked += 1
    check_trace_invariants(two_level_run["trace_rows"])
    checked += 1
    # no accepted iterate violates the GPD support: the POT traces log the
    # negative log-likelihood, which an off-support iterate would make +inf
    for run in constant_pot_runs["runs"]:
        assert np.all(np.isfinite([rec.f for rec in run["model"].trace.records]))
    assert all(np.isfinite(row[0]) for row in two_level_run["trace_rows"])
    report("C8 descent-invariants", True,
           f"{checked} traces: strict descent, monotone eps/tau, support kept")


def test_c09_identifiability(intercept_quantile_runs, coverage_runs,
                             constant_pot_runs, two_level_run):
    worst = 0.0
    count = 0
    for _, model in intercept_quantile_runs["runs"]:
        for comp in model.decomposition.components:
            worst = max(worst, abs(float(comp.mean())))
            count += 1
    for model in coverage_runs["models"].values():
        for comp in model.decomposition.components:
            worst = max(worst, abs(float(comp.mean())))
            count += 1
    for run in constant_pot_runs["runs"]:
        for decomp in run["model"].decompositions:
            for comp in decomp.components:
                worst = max(worst, abs(float(comp.mean())))
                count += 1
    for comp in two_level_run["components"].values():
        worst = max(worst, abs(float(comp.mean())))
        count += 1
    ok = worst <= 1e-6
    report("C9 identifiability", ok,
           f"max |component mean| = {worst:.2e} over {count} components")


def test_c10_determinism(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(4000)
    y = rng.random(200)
    data = Dataset(y, np.zeros((200, 0)), [], [])
    write_csv(data, tmp_path / "data.csv")
    args = ["fit-quantile", "--input", str(tmp_path / "data.csv"),
            "--alpha", "0.9", "--seed", "0"]
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(args + ["--output-dir", str(out)]) == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("fitted.csv", "decomposition.csv", "trace.csv",
                     "diagnostics.txt"))
    secs = time.perf_counter() - start
    report("C10 determinism", identical,
           f"two runs bitwise identical across 4 artifact files, {secs:.2f}s")


@pytest.mark.parametrize("kind, simulate, fit", [
    ("covariate-pot", ["--kind", "gpd-sites", "--n", "60", "--seed", "1"],
     ["fit-pot", "--levels", "0.01", "--exceed-prob", "0.1",
      "--smoother", "site=cell_factor", "--smoother", "t=local_linear",
      "--beta", "0.01", "--max-iter", "40"]),
    ("qp-quantile", ["--kind", "hetero", "--n", "200", "--seed", "2"],
     ["fit-quantile", "--alpha", "0.9", "--mode", "qp", "--smoother", "w=local_linear",
      "--max-iter", "150"]),
], ids=["covariate-pot", "qp-quantile"])
def test_c10_siblings_with_covariates(tmp_path, kind, simulate, fit):
    # C10's intercept-only quantile fit draws no covariate smoother and no
    # POT or qp path; these two runs do, each twice in one process
    start = time.perf_counter()
    assert cli_main(["simulate", *simulate, "--output-dir", str(tmp_path / "sim")]) == 0
    args = [*fit, "--input", str(tmp_path / "sim" / "data.csv"), "--seed", "0"]
    codes = [cli_main(args + ["--output-dir", str(tmp_path / tag)]) for tag in ("a", "b")]
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("fitted.csv", "decomposition.csv", "trace.csv", "diagnostics.txt"))
    secs = time.perf_counter() - start
    report(f"C10 sibling {kind}", identical and codes[0] == codes[1] in (0, 2),
           f"exit codes {codes}, 4 artifact files "
           f"{'bitwise identical' if identical else 'differ'} across two runs, {secs:.2f}s")
