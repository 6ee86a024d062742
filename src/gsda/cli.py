"""Command-line interface: fit-quantile, fit-pot, simulate, gradcheck, minimize.

Configuration precedence is CLI flag > config-file entry > built-in
default; config files are flat ``key = value`` text.  Each task reads
only its own options (``_TASK_OPTIONS``), and any other is an input
error.  Every run writes
its artifacts (fitted values, additive decomposition, iteration trace,
diagnostics) as plain comma-separated / key=value text into the output
directory.  Exit codes: 0 converged/success, 2 non-convergence,
3 input or configuration error, 4 numerical failure.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, datasets
from .engine import GsParams, gsda_minimize, l1_norm, nonsmooth_rosenbrock, sum_of_squares
from .errors import (
    GsdaError,
    InvalidInput,
    MissingColumn,
    NumericalFailure,
    ParseError,
    SamplingExhausted,
    SingularBlock,
)
from .pot import (
    FunctionalSpec,
    Lambda,
    fit_pot_additive,
    functional_map,
    gpd_loglik_grad,
    jacobian_blocks,
    negative_loglik_objective,
)
from .quantile import fit_quantile_additive, pinball_grad, pinball_loss
from .smoothing import SmootherSpec

EXIT_OK = 0
EXIT_NONCONVERGED = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

_DEFAULTS = {
    "response": "y",
    "alpha": 0.9,
    "exceed_prob": None,
    "levels": None,
    "mode": None,  # per task: qp for minimize, average for the fits
    "seed": 0,
    "m": None,
    "beta": 0.1,
    "mu": 0.5,
    "lam": 0.5,
    "eps0": 0.1,
    "tau0": 1e-2,
    "eps_min": 1e-6,
    "tau_min": 1e-6,
    "max_iter": 5000,
    "max_backtracks": 30,
    "kind": "gpd",
    "n": None,  # n, sigma, kappa, days, hours_per_day: see _SIMULATE_OPTIONS
    "sigma": None,
    "kappa": None,
    "days": None,
    "hours_per_day": None,
    "objective": "nsrosenbrock",
    "x0": "-1,1",
    "points": 100,
}

# the options each simulate kind reads, with their defaults; giving one
# that the kind does not read is an input error
_SIMULATE_OPTIONS = {
    "gpd": {"n": 1000, "sigma": 2.0, "kappa": 0.2},
    "gpd-sites": {"n": 1000, "kappa": 0.2},
    "sales": {"days": 28, "hours_per_day": 17},
    "hetero": {"n": 1000},
}

# the options each task reads, as flags and as config-file keys; every
# task also reads --config and output_dir, and giving an option the task
# does not read is an input error
_GS_OPTIONS = ("m", "beta", "mu", "lam", "eps0", "tau0", "eps_min", "tau_min",
               "max_iter", "max_backtracks", "mode", "seed")
_DATA_OPTIONS = ("input", "response", "smoother", "factor")
_TASK_OPTIONS = {
    "fit-quantile": (*_DATA_OPTIONS, "alpha", *_GS_OPTIONS),
    "fit-pot": (*_DATA_OPTIONS, "levels", "exceed_prob", *_GS_OPTIONS),
    "simulate": ("kind", "seed", "n", "sigma", "kappa", "days", "hours_per_day"),
    "gradcheck": ("alpha", "seed", "points"),
    "minimize": ("objective", "x0", *_GS_OPTIONS),
}

_FLOAT_KEYS = ("alpha", "exceed_prob", "beta", "mu", "lam", "eps0", "tau0",
               "eps_min", "tau_min", "sigma", "kappa")
_INT_KEYS = ("seed", "m", "max_iter", "max_backtracks", "n", "days",
             "hours_per_day", "points")


@dataclass
class RunConfig:
    """Fully resolved settings for one CLI run."""

    task: str
    input: str = None
    output_dir: str = "."
    smoothers: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    options: dict = field(default_factory=dict)

    def __getattr__(self, key):
        if key in self.options:
            return self.options[key]
        raise AttributeError(key)

    def gs_params(self):
        o = self.options
        return GsParams(
            m=o["m"], beta=o["beta"], mu=o["mu"], lam=o["lam"],
            eps0=o["eps0"], tau0=o["tau0"], eps_min=o["eps_min"],
            tau_min=o["tau_min"], max_iter=o["max_iter"],
            max_backtracks=o["max_backtracks"],
            subgradient_mode=o["mode"], seed=o["seed"],
        )


def read_config_file(path):
    """Parse a flat key = value file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected key = value", line=lineno)
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _number(text, what, kind=float):
    """kind(text); a malformed or non-finite number is an input error."""
    try:
        value = kind(text)
    except ValueError:
        raise InvalidInput(f"{what}: {text!r} is not a valid number") from None
    if not math.isfinite(value):
        raise InvalidInput(f"{what}: {text!r} is not a finite number")
    return value


def _coerce(key, value):
    """Parse one option from a flag (already typed) or a config-file string."""
    if value is None:
        return value
    if key in _FLOAT_KEYS:
        return _number(value, key)
    if key in _INT_KEYS:
        value = _number(value, key, int)
        low = 0 if key == "seed" else 1
        if value < low:
            raise InvalidInput(f"{key} must be >= {low}, got {value}")
        return value
    if key == "levels":
        return [_number(v, key) for v in value.split(",") if v.strip()]
    return value


def parse_smoother(text):
    """Parse ``<col>=<kind>[:bw=..|df=..]`` into (column, SmootherSpec kwargs)."""
    if "=" not in text:
        raise InvalidInput(f"smoother {text!r} must look like col=kind[:bw=..|df=..]")
    col, rest = text.split("=", 1)
    col = col.strip()
    kind, _, opt = rest.partition(":")
    kind = kind.strip()
    kwargs = {"kind": kind}
    if opt:
        okey, _, oval = opt.partition("=")
        okey = okey.strip()
        if okey == "bw":
            kwargs["bandwidth"] = _number(oval, f"smoother {text!r} bw")
        elif okey == "df":
            kwargs["target_df"] = _number(oval, f"smoother {text!r} df")
        else:
            raise InvalidInput(f"unknown smoother option {okey!r} in {text!r}")
    return col, kwargs


def build_design(dataset, smoother_texts):
    """Assemble (W, specs, component names, level labels) from --smoother args."""
    cols, specs, names, level_maps = [], [], [], []
    for idx, text in enumerate(smoother_texts):
        col, kwargs = parse_smoother(text)
        kind = kwargs["kind"]
        if kind == "cell_factor":
            if ":" in col:
                a, b = col.split(":", 1)
                codes, labels = dataset.interaction(a, b)
            else:
                if dataset.kind_of(col) != "factor":
                    raise InvalidInput(f"cell_factor column {col!r} must be a factor")
                codes = dataset.column(col)
                labels = dataset.levels[col]
            cols.append(codes)
            level_maps.append(labels)
        else:
            if col not in dataset.columns:
                raise MissingColumn(f"covariate column {col!r} not in input")
            if dataset.kind_of(col) == "factor":
                raise InvalidInput(f"{kind} smoother needs a numeric column, "
                                   f"{col!r} is a factor")
            cols.append(dataset.column(col))
            level_maps.append(None)
        specs.append(SmootherSpec(covariate_index=idx, **kwargs))
        names.append(col)
    W = np.column_stack(cols) if cols else None
    return W, specs, names, level_maps


def factor_columns_needed(smoother_texts, extra):
    needed = set(extra)
    for text in smoother_texts:
        col, kwargs = parse_smoother(text)
        if kwargs["kind"] == "cell_factor":
            needed.update(col.split(":"))
    return sorted(needed)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def _write_table(path, header, columns):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_diagnostics(path, entries):
    with open(path, "w") as fh:
        for key, value in entries:
            fh.write(f"{key}={_fmt(value)}\n")


def _run_entries(gs, trace):
    """The resolved hyperparameters of a fit and the kernel path it ran on.

    ``subspace_dim`` is the length of the coordinate rows the estimate
    reduces: 2r for fit-pot, r for fit-quantile in qp mode (absent in its
    average mode).
    """
    subspace = [] if trace.subspace_dim is None else [("subspace_dim", trace.subspace_dim)]
    return [
        ("subgradient_mode", gs.subgradient_mode), ("m", trace.m), *subspace,
        ("beta", gs.beta), ("mu", gs.mu), ("lambda", gs.lam),
        ("eps0", gs.eps0), ("tau0", gs.tau0),
        ("eps_min", gs.eps_min), ("tau_min", gs.tau_min),
        ("max_iter", gs.max_iter), ("max_backtracks", gs.max_backtracks),
        ("kernel_path", _kernels.ACTIVE),
    ]


def _minnorm_fallbacks(gs, trace):
    """qp-mode iterations whose min-norm solve fell back to the average."""
    if gs.subgradient_mode != "qp":
        return 0
    return sum(r.method == "average" for r in trace.records)


def _input_columns(dataset):
    header = [dataset.response]
    columns = [dataset.y]
    for name, kind in zip(dataset.columns, dataset.kinds):
        header.append(name)
        columns.append(dataset.labels(name) if kind == "factor" else dataset.column(name))
    return header, columns


def _write_trace(path, trace):
    rows = trace.to_rows()
    columns = list(zip(*rows)) if rows else [[] for _ in trace.COLUMNS]
    _write_table(path, trace.COLUMNS, columns)


def _write_decomposition(path, names, fits, prefixes=None):
    header, columns = [], []
    for p, fit in zip(prefixes or [""] * len(fits), [f for f in fits]):
        tag = f"{p}." if p else ""
        header.append(f"{tag}intercept")
        columns.append(np.full(fit.fitted.size, fit.intercept))
        for name, comp in zip(names, fit.components):
            header.append(f"{tag}component.{name}")
            columns.append(comp)
    _write_table(path, header, columns)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _run_fit_quantile(config, out):
    if config.input is None:
        raise InvalidInput("fit-quantile requires --input")
    data = datasets.load_csv(
        config.input, config.response,
        factor_columns_needed(config.smoothers, config.factors))
    W, specs, names, level_maps = build_design(data, config.smoothers)
    alpha = config.alpha
    gs = config.gs_params()
    model = fit_quantile_additive(data.y, W, alpha, specs, gs)

    header, columns = _input_columns(data)
    _write_table(os.path.join(out, "fitted.csv"),
                 header + [f"q{alpha:g}"], columns + [model.q])
    _write_decomposition(os.path.join(out, "decomposition.csv"),
                         names, [model.decomposition])
    _write_trace(os.path.join(out, "trace.csv"), model.trace)

    coverage = float(np.mean(data.y <= model.q))
    entries = [
        ("task", "fit-quantile"), ("alpha", alpha), ("n", data.n),
        ("dropped_rows", data.n_dropped), ("seed", config.seed),
        *_run_entries(gs, model.trace),
        ("converged", model.trace.converged),
        ("iterations", len(model.trace)),
        ("accepted_steps", len(model.trace.accepted)),
        ("minnorm_fallbacks", _minnorm_fallbacks(gs, model.trace)),
        ("backfit_sweeps", model.trace.backfit_sweeps),
        ("projections_unconverged", model.trace.projections_unconverged),
        ("ball_coordinates", model.trace.ball_coordinates),
        ("final_objective", model.trace.final_f()),
        ("coverage", coverage),
    ]
    for spec, name, labels in zip(specs, names, level_maps):
        if spec.kind != "cell_factor":
            continue
        codes = W[:, spec.covariate_index].astype(int)
        for code in np.unique(codes):
            mask = codes == code
            entries.append((f"coverage[{name}|{labels[code]}]",
                            float(np.mean(data.y[mask] <= model.q[mask]))))
    _write_diagnostics(os.path.join(out, "diagnostics.txt"), entries)
    return EXIT_OK if model.trace.converged else EXIT_NONCONVERGED


def _run_fit_pot(config, out):
    if config.input is None:
        raise InvalidInput("fit-pot requires --input")
    if config.exceed_prob is None:
        raise InvalidInput("fit-pot requires --exceed-prob (threshold exceedance "
                           "probability supplied at ingestion)")
    if not config.levels:
        raise InvalidInput("fit-pot requires --levels with one or two tail levels")
    levels = config.levels
    pair = "var_es" if len(levels) == 1 else "var_var"
    fspec = FunctionalSpec(pair, tuple(levels), config.exceed_prob)
    data = datasets.load_csv(
        config.input, config.response,
        factor_columns_needed(config.smoothers, config.factors))
    W, specs, names, _ = build_design(data, config.smoothers)
    gs = config.gs_params()
    model = fit_pot_additive(data.y, W, fspec, specs, gs)

    header, columns = _input_columns(data)
    fnames = list(model.functional_names)
    _write_table(os.path.join(out, "fitted.csv"), header + fnames,
                 columns + [model.state.theta_pair[0], model.state.theta_pair[1]])
    _write_decomposition(os.path.join(out, "decomposition.csv"),
                         names, list(model.decompositions), prefixes=fnames)
    _write_trace(os.path.join(out, "trace.csv"), model.trace)

    th1, th2 = model.state.theta_pair
    entries = [
        ("task", "fit-pot"), ("pair", fspec.pair),
        ("levels", ",".join(f"{a:g}" for a in fspec.levels)),
        ("exceed_prob", fspec.exceed_prob),
        ("scale_factors", ",".join(f"{c:g}" for c in fspec.c_values)),
        ("n", data.n), ("dropped_rows", data.n_dropped), ("seed", config.seed),
        *_run_entries(gs, model.trace),
        ("converged", model.trace.converged),
        ("iterations", len(model.trace)),
        ("accepted_steps", len(model.trace.accepted)),
        ("minnorm_fallbacks", _minnorm_fallbacks(gs, model.trace)),
        ("rejected_draws", model.trace.rejected_draws),
        ("backfit_sweeps", model.trace.backfit_sweeps),
        ("projections_unconverged", model.trace.projections_unconverged),
        ("final_negloglik", model.trace.final_f()),
        (f"mean_{fnames[0]}", float(th1.mean())),
        (f"mean_{fnames[1]}", float(th2.mean())),
        ("kappa_min", float(model.state.lam.kappa.min())),
        ("kappa_max", float(model.state.lam.kappa.max())),
    ]
    if fspec.pair == "var_var":
        entries.append(("levels_ordered_pointwise", bool(np.all(th2 > th1))))
    _write_diagnostics(os.path.join(out, "diagnostics.txt"), entries)
    return EXIT_OK if model.trace.converged else EXIT_NONCONVERGED


def _run_simulate(config, out):
    kind = config.kind
    if kind not in _SIMULATE_OPTIONS:
        raise InvalidInput(f"unknown simulate kind {kind!r}")
    reads = _SIMULATE_OPTIONS[kind]
    unread = [key for key in ("n", "sigma", "kappa", "days", "hours_per_day")
              if key not in reads and config.options[key] is not None]
    if unread:
        raise InvalidInput(f"simulate --kind {kind} does not read {', '.join(unread)}")
    o = {key: default if config.options[key] is None else config.options[key]
         for key, default in reads.items()}
    if kind == "gpd":
        data = datasets.simulate_gpd(o["n"], o["sigma"], o["kappa"], config.seed)
    elif kind == "gpd-sites":
        data = datasets.simulate_gpd_sites(o["n"], config.seed, kappa=o["kappa"])
    elif kind == "sales":
        data = datasets.simulate_sales(o["days"], o["hours_per_day"], config.seed)
    else:
        data = datasets.simulate_hetero(o["n"], config.seed)
    datasets.write_csv(data, os.path.join(out, "data.csv"))
    _write_diagnostics(os.path.join(out, "diagnostics.txt"), [
        ("task", "simulate"), ("kind", kind), ("n", data.n), ("seed", config.seed),
    ])
    return EXIT_OK


def _central_diff(f, x, h=1e-6):
    out = np.empty(x.size)
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h
        out[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return out


def _rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def _run_gradcheck(config, out):
    """Compare analytic gradients against central finite differences."""
    rng = np.random.default_rng(config.seed)
    points = config.points
    alpha = config.alpha
    worst = {"pinball": 0.0, "gpd_loglik": 0.0, "jacobian": 0.0, "pot_objective": 0.0}

    for _ in range(points):
        n = int(rng.integers(2, 6))
        y = rng.uniform(-3.0, 3.0, n)
        q = y + rng.choice([-1.0, 1.0], n) * rng.uniform(1e-2, 2.0, n)  # kink-avoiding
        fd = _central_diff(lambda v: pinball_loss(v, y, alpha), q)
        worst["pinball"] = max(worst["pinball"], _rel_err(pinball_grad(q, y, alpha), fd))

    for _ in range(points):
        n = int(rng.integers(1, 5))
        lam = Lambda(rng.uniform(-0.5, 1.5, n), rng.uniform(-0.25, 0.8, n))
        y = rng.uniform(0.05, 2.0, n) * lam.sigma
        fd = _central_diff(
            lambda v: -negative_loglik_objective(
                y, FunctionalSpec("var_var", (0.05, 0.01), 0.1)).eval(v),
            lam.as_vector())
        worst["gpd_loglik"] = max(worst["gpd_loglik"],
                                  _rel_err(gpd_loglik_grad(lam, y), fd))

        spec = FunctionalSpec("var_es", (0.01,), 0.1)
        jac, _ = jacobian_blocks(lam, spec)
        h = 1e-6
        for which in range(2):
            step = np.zeros(2 * n)
            for i in range(n):
                step[:] = 0.0
                step[i if which == 0 else n + i] = h
                up = Lambda.from_vector(lam.as_vector() + step)
                dn = Lambda.from_vector(lam.as_vector() - step)
                for fidx in range(2):
                    fd_entry = (functional_map(up, spec)[fidx][i]
                                - functional_map(dn, spec)[fidx][i]) / (2.0 * h)
                    worst["jacobian"] = max(
                        worst["jacobian"],
                        _rel_err(np.array([jac[i, fidx, which]]),
                                 np.array([fd_entry])))

        obj = negative_loglik_objective(y, spec)
        fd = _central_diff(obj.eval, lam.as_vector())
        worst["pot_objective"] = max(worst["pot_objective"],
                                     _rel_err(obj.grad(lam.as_vector()), fd))

    overall = max(worst.values())
    entries = [("task", "gradcheck"), ("points", points), ("seed", config.seed)]
    entries += [(f"max_rel_err.{k}", v) for k, v in sorted(worst.items())]
    entries += [("max_rel_err", overall), ("passed", overall < 1e-4)]
    _write_diagnostics(os.path.join(out, "gradcheck.txt"), entries)
    print(f"gradcheck: max relative error {overall:.3e} "
          f"({'PASS' if overall < 1e-4 else 'FAIL'})")
    return EXIT_OK if overall < 1e-4 else EXIT_NUMERIC


def _run_minimize(config, out):
    name = config.objective
    x0 = np.array([_number(v, "x0") for v in str(config.x0).split(",")])
    if name == "nsrosenbrock":
        obj = nonsmooth_rosenbrock()
    elif name == "l1":
        obj = l1_norm(x0.size)
    elif name == "sumsq":
        obj = sum_of_squares(np.zeros(x0.size))
    else:
        raise InvalidInput(f"unknown objective {name!r}; "
                           "choose nsrosenbrock, l1, or sumsq")
    if x0.size != obj.dim:
        raise InvalidInput(f"objective {name!r} expects dimension {obj.dim}")
    gs = config.gs_params()
    x, trace = gsda_minimize(obj, x0, gs)
    _write_trace(os.path.join(out, "trace.csv"), trace)
    entries = [
        ("task", "minimize"), ("objective", name), ("seed", config.seed),
        ("converged", trace.converged), ("iterations", len(trace)),
        ("minnorm_fallbacks", _minnorm_fallbacks(gs, trace)),
        ("rejected_draws", trace.rejected_draws),
        ("final_f", obj.eval(x)),
        ("final_x", ",".join(f"{v:.17g}" for v in x)),
    ]
    if name == "nsrosenbrock":
        entries.append(("distance_to_minimum",
                        float(np.linalg.norm(x - np.array([1.0, 1.0])))))
    _write_diagnostics(os.path.join(out, "diagnostics.txt"), entries)
    return EXIT_OK if trace.converged else EXIT_NONCONVERGED


def run(config):
    """Execute one task; returns the process exit status."""
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    handlers = {
        "fit-quantile": _run_fit_quantile,
        "fit-pot": _run_fit_pot,
        "simulate": _run_simulate,
        "gradcheck": _run_gradcheck,
        "minimize": _run_minimize,
    }
    if config.task not in handlers:
        raise InvalidInput(f"unknown task {config.task!r}")
    return handlers[config.task](config, out)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as InvalidInput (exit 3), not argparse's exit 2."""

    def error(self, message):
        raise InvalidInput(f"{self.prog}: {message}")


def _flag(key):
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


def build_parser():
    parser = _Parser(
        prog="gsda",
        description="Sampling-based descent for nonsmooth fitting: additive "
                    "quantile regression, smooth POT models, and generic "
                    "nonsmooth minimization.")
    sub = parser.add_subparsers(dest="task", required=True)
    for task, keys in _TASK_OPTIONS.items():
        p = sub.add_parser(task)
        p.add_argument("--config")
        p.add_argument("--output-dir", dest="output_dir")
        for key in keys:
            # values stay text here and are parsed by _coerce, as config
            # entries are
            if key in ("smoother", "factor"):
                p.add_argument(_flag(key), dest=key, action="append")
            else:
                p.add_argument(_flag(key), dest=key)
    return parser


def resolve_config(args):
    reads = ("output_dir", *_TASK_OPTIONS[args.task])
    options = dict(_DEFAULTS)
    given = {}
    if args.config:
        given = read_config_file(args.config)
        for key in given:
            if key not in options and key not in ("output_dir", *_DATA_OPTIONS):
                raise InvalidInput(f"unknown config key {key!r}")
            if key not in reads:
                raise InvalidInput(f"{args.task} does not read config key {key!r}")
        for key in ("smoother", "factor"):
            if key in given:
                given[key] = [s.strip() for s in given[key].split(",") if s.strip()]
    given.update((key, getattr(args, key)) for key in reads
                 if getattr(args, key) is not None)
    for key in options:
        if key in given:
            options[key] = _coerce(key, given[key])
    if options["mode"] is None:
        options["mode"] = "average" if args.task in ("fit-quantile", "fit-pot") else "qp"
    return RunConfig(task=args.task, input=given.get("input"),
                     output_dir=given.get("output_dir", "."),
                     smoothers=given.get("smoother", []),
                     factors=given.get("factor", []), options=options)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config = resolve_config(args)
        return run(config)
    except (InvalidInput, ParseError, MissingColumn, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalFailure, SingularBlock, SamplingExhausted) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GsdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
