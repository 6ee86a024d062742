"""Command-line interface: fit-quantile, fit-pot, simulate, minimize.

Each option is declared once, as a row of ``_OPTIONS``: its parser and
its default.  The hyperparameters' rows are the fields of
:class:`~gsda.engine.GsParams`, parsed by field type, with the field
defaults; ``--lambda`` names ``lam``, and ``--mode`` names
``subgradient_mode`` and follows the mode rule of its docstring.
``_READS`` and ``_KINDS`` name the options each task and each simulate
kind reads.  The flags, the config-file keys and a
run's settings all come from these tables, and any other option is an
input error.  A flag beats a config-file entry (flat ``key = value``
text), which beats the default.  Every table a task writes goes through
:func:`~gsda.datasets.write_table`, which load_csv reads back.  Exit codes:
0 converged/success, 2 non-convergence, 3 input or configuration error
(a fit's objective not finite at its start included), 4 numerical
failure.  A package warning prints as one ``warning:`` line.
"""

import argparse
import math
import os
import sys
import warnings
from dataclasses import fields
from functools import lru_cache, partial

import numpy as np

from . import _kernels, datasets
from .datasets import format_cell, write_table as _write_table  # fitbench traces this name
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
from .pot import FunctionalSpec, fit_pot_additive
from .quantile import fit_quantile_additive
from .smoothing import SmootherSpec

EXIT_OK = 0
EXIT_NONCONVERGED = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


def _number(text, what, kind=float, low=None):
    """kind(text); a malformed or non-finite number, or one below ``low``, is an input error."""
    try:
        value = kind(text)
    except ValueError:
        raise InvalidInput(f"{what}: {text!r} is not a valid number") from None
    if not math.isfinite(value):
        raise InvalidInput(f"{what}: {text!r} is not a finite number")
    if low is not None and value < low:
        raise InvalidInput(f"{what} must be >= {low}, got {value}")
    return value


_count = partial(_number, kind=int, low=1)


def _text(text, key):
    return text


def _texts(value, key):
    """A repeatable option: its flags' list, or a config entry's comma-separated items."""
    if isinstance(value, list):
        return value
    return [s.strip() for s in value.split(",") if s.strip()]


def _levels(text, key):
    return [_number(v, key) for v in text.split(",") if v.strip()]


def _point(text, key):
    return tuple(_number(v, key) for v in text.split(","))


def _option(f):
    """The option that sets GsParams field ``f``."""
    return {"subgradient_mode": "mode", "lam": "lambda"}.get(f.name, f.name)


# option -> (parser, default); parser(text, option) parses a flag's or a
# config entry's text, and a GsParams field's type picks its parser
_BY_TYPE = {float: _number, int: _count, int | None: _count, str: _text}
_OPTIONS = {
    "output_dir": (_text, "."),
    "input": (_text, None),
    "response": (_text, "y"),
    "smoother": (_texts, ()),
    "factor": (_texts, ()),
    "alpha": (_number, 0.9),
    "exceed_prob": (_number, None),
    "levels": (_levels, None),
    **{_option(f): (_BY_TYPE[f.type], f.default) for f in fields(GsParams)},
    "seed": (partial(_number, kind=int, low=0), 0),  # a GsParams field that may be 0
    "kind": (_text, "gpd"),
    "n": (_count, 1000),
    "sigma": (_number, 2.0),
    "kappa": (_number, 0.2),
    "days": (_count, 28),
    "hours_per_day": (_count, 17),
    "objective": (_text, "nsrosenbrock"),
    "x0": (_point, (-1.0, 1.0)),
}

# simulate kind -> (simulator, the options it reads, in argument order)
_KINDS = {
    "gpd": (datasets.simulate_gpd, ("n", "sigma", "kappa", "seed")),
    "gpd-sites": (datasets.simulate_gpd_sites, ("n", "seed", "kappa")),
    "sales": (datasets.simulate_sales, ("days", "hours_per_day", "seed")),
    "hetero": (datasets.simulate_hetero, ("n", "seed")),
}

_GS = tuple(map(_option, fields(GsParams)))  # the hyperparameters

# task -> the options it reads, besides --config and output_dir
_READS = {
    "fit-quantile": ("input", "response", "smoother", "factor", "alpha", *_GS),
    "fit-pot": ("input", "response", "smoother", "factor", "levels", "exceed_prob", *_GS),
    "simulate": ("kind", *dict.fromkeys(key for _, reads in _KINDS.values() for key in reads)),
    "minimize": ("objective", "x0", *_GS),
}


class RunConfig(dict):
    """One run's settings: ``task``, and each option the task reads, resolved."""

    def gs_params(self):
        return GsParams(**{f.name: self[_option(f)] for f in fields(GsParams)})


def read_config_file(path):
    """Parse a flat key = value file; '#' starts a comment, and a key may appear once."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected key = value", line=lineno)
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in out:
                raise ParseError(f"config key {key!r} given twice", line=lineno)
            out[key] = value.strip()
    return out


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


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _write_diagnostics(path, entries):
    with open(path, "w") as fh:
        for key, value in entries:
            fh.write(f"{key}={format_cell(value)}\n")


def _run_entries(gs, trace):
    """A run's resolved hyperparameters, kernel path and counters.

    ``subspace_dim``, the length of the rows the estimate reduces, is 2r
    for fit-pot, r for fit-quantile in qp mode, absent otherwise.
    """
    subspace = [] if trace.subspace_dim is None else [("subspace_dim", trace.subspace_dim)]
    return [
        ("subgradient_mode", gs.subgradient_mode), ("m", trace.m), *subspace,
        ("beta", gs.beta), ("mu", gs.mu), ("lambda", gs.lam),
        ("eps0", gs.eps0), ("tau0", gs.tau0),
        ("eps_min", gs.eps_min), ("tau_min", gs.tau_min),
        ("max_iter", gs.max_iter), ("max_backtracks", gs.max_backtracks),
        ("kernel_path", _kernels.ACTIVE), ("converged", trace.converged),
        ("iterations", len(trace)), ("accepted_steps", len(trace.accepted)),
        ("rejected_draws", trace.rejected_draws), ("topups", trace.topups),
        ("backfit_sweeps", trace.backfit_sweeps),
        ("projections_unconverged", trace.projections_unconverged),
    ]


def _write_trace(path, trace):
    _write_table(path, trace.COLUMNS, zip(*trace.records))


def _write_decomposition(path, names, fits, prefixes=None):
    header, columns = [], []
    for p, fit in zip(prefixes or [""] * len(fits), fits):
        tag = f"{p}." if p else ""
        header.append(f"{tag}intercept")
        columns.append(np.full(fit.fitted.size, fit.intercept))
        for name, comp in zip(names, fit.components):
            header.append(f"{tag}component.{name}")
            columns.append(comp)
    _write_table(path, header, columns)


def _write_fit(out, config, data, gs, trace, fitted, decomposition, head, tail):
    """Write a fit's four artifacts; returns the fit's exit status.

    fitted.csv is the input columns plus ``fitted`` (name -> values);
    ``decomposition`` is ``(names, fits, prefixes)``.  diagnostics.txt
    holds the task, ``head``, the data's size, the seed,
    :func:`_run_entries` and ``tail``.
    """
    header, columns = data.table()
    _write_table(os.path.join(out, "fitted.csv"),
                 header + list(fitted), columns + list(fitted.values()))
    _write_decomposition(os.path.join(out, "decomposition.csv"), *decomposition)
    _write_trace(os.path.join(out, "trace.csv"), trace)
    _write_diagnostics(os.path.join(out, "diagnostics.txt"), [
        ("task", config["task"]), *head,
        ("n", data.n), ("dropped_rows", data.n_dropped), ("seed", config["seed"]),
        *_run_entries(gs, trace), *tail,
    ])
    return EXIT_OK if trace.converged else EXIT_NONCONVERGED


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _load_fit_input(config):
    """The input of a fit task: ``(dataset, W, specs, names, level labels)``.

    A cell_factor smoother reads one label column, or with ``a:b`` the
    interaction of two; load_csv reads each such column as a factor.
    """
    if config["input"] is None:
        raise InvalidInput(f"{config['task']} requires --input")
    smoothers = [parse_smoother(text) for text in config["smoother"]]
    label_cols = [col.split(":", 1) if kwargs["kind"] == "cell_factor" else []
                  for col, kwargs in smoothers]
    data = datasets.load_csv(config["input"], config["response"],
                             sorted(set(config["factor"]).union(*label_cols)))
    cols, specs, level_maps = [], [], []
    for idx, ((col, kwargs), parts) in enumerate(zip(smoothers, label_cols)):
        for name in parts or [col]:
            if name not in data.columns:
                raise MissingColumn(f"covariate column {name!r} not in input")
        if len(parts) == 2:
            codes, labels = data.interaction(*parts)
        elif parts:
            codes, labels = data.column(col), data.levels[col]
        elif data.kind_of(col) == "factor":
            raise InvalidInput(f"{kwargs['kind']} smoother needs a numeric column, "
                               f"{col!r} is a factor")
        else:
            codes, labels = data.column(col), None
        cols.append(codes)
        level_maps.append(labels)
        specs.append(SmootherSpec(covariate_index=idx, **kwargs))
    W = np.column_stack(cols) if cols else None
    return data, W, specs, [col for col, _ in smoothers], level_maps


def _run_fit_quantile(config, out):
    data, W, specs, names, level_maps = _load_fit_input(config)
    alpha = config["alpha"]
    gs = config.gs_params()
    model = fit_quantile_additive(data.y, W, alpha, specs, gs)

    tail = [
        ("ball_coordinates", model.trace.ball_coordinates),
        ("final_objective", model.trace.final_f()),
        ("coverage", float(np.mean(data.y <= model.q))),
    ]
    for spec, name, labels in zip(specs, names, level_maps):
        if spec.kind != "cell_factor":
            continue
        codes = W[:, spec.covariate_index].astype(int)
        for code in np.unique(codes):
            mask = codes == code
            tail.append((f"coverage[{name}|{labels[code]}]",
                         float(np.mean(data.y[mask] <= model.q[mask]))))
    return _write_fit(out, config, data, gs, model.trace, {f"q{alpha:g}": model.q},
                      (names, [model.decomposition]), [("alpha", alpha)], tail)


def _run_fit_pot(config, out):
    if config["exceed_prob"] is None:
        raise InvalidInput("fit-pot requires --exceed-prob (threshold exceedance "
                           "probability supplied at ingestion)")
    levels = config["levels"] or []
    if not levels or len(levels) > 2:
        raise InvalidInput("fit-pot requires --levels with one or two tail levels, "
                           f"got {len(levels)}")
    pair = "var_es" if len(levels) == 1 else "var_var"
    fspec = FunctionalSpec(pair, tuple(levels), config["exceed_prob"])
    data, W, specs, names, _ = _load_fit_input(config)
    gs = config.gs_params()
    model = fit_pot_additive(data.y, W, fspec, specs, gs)

    fnames = list(model.functional_names)
    th1, th2 = model.state.theta_pair
    head = [
        ("pair", fspec.pair),
        ("levels", ",".join(f"{a:g}" for a in fspec.levels)),
        ("exceed_prob", fspec.exceed_prob),
        ("scale_factors", ",".join(f"{c:g}" for c in fspec.c_values)),
    ]
    tail = [
        ("final_negloglik", model.trace.final_f()),
        (f"mean_{fnames[0]}", float(th1.mean())),
        (f"mean_{fnames[1]}", float(th2.mean())),
        ("kappa_min", float(model.state.lam.kappa.min())),
        ("kappa_max", float(model.state.lam.kappa.max())),
    ]
    return _write_fit(out, config, data, gs, model.trace, dict(zip(fnames, (th1, th2))),
                      (names, list(model.decompositions), fnames), head, tail)


def _run_simulate(config, out):
    simulator, reads = _KINDS[config["kind"]]
    data = simulator(*(config[key] for key in reads))
    datasets.write_csv(data, os.path.join(out, "data.csv"))
    _write_diagnostics(os.path.join(out, "diagnostics.txt"), [
        ("task", "simulate"), ("kind", config["kind"]), ("n", data.n), ("seed", config["seed"]),
    ])
    return EXIT_OK


# objective -> its Objective for a starting point of the given dimension
_OBJECTIVES = {
    "nsrosenbrock": lambda dim: nonsmooth_rosenbrock(),
    "l1": l1_norm,
    "sumsq": lambda dim: sum_of_squares(np.zeros(dim)),
}


def _run_minimize(config, out):
    name = config["objective"]
    x0 = np.array(config["x0"])
    if name not in _OBJECTIVES:
        raise InvalidInput(f"unknown objective {name!r}; "
                           "choose nsrosenbrock, l1, or sumsq")
    obj = _OBJECTIVES[name](x0.size)
    if x0.size != obj.dim:
        raise InvalidInput(f"objective {name!r} expects dimension {obj.dim}")
    gs = config.gs_params()
    x, trace = gsda_minimize(obj, x0, gs)
    _write_trace(os.path.join(out, "trace.csv"), trace)
    entries = [
        ("task", "minimize"), ("objective", name), ("seed", config["seed"]),
        *_run_entries(gs, trace),
        ("final_f", obj.eval(x)),
        ("final_x", ",".join(f"{v:.17g}" for v in x)),
    ]
    if name == "nsrosenbrock":
        entries.append(("distance_to_minimum",
                        float(np.linalg.norm(x - np.array([1.0, 1.0])))))
    _write_diagnostics(os.path.join(out, "diagnostics.txt"), entries)
    return EXIT_OK if trace.converged else EXIT_NONCONVERGED


_TASKS = {
    "fit-quantile": _run_fit_quantile,
    "fit-pot": _run_fit_pot,
    "simulate": _run_simulate,
    "minimize": _run_minimize,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as InvalidInput (exit 3), not argparse's exit 2."""

    def error(self, message):
        raise InvalidInput(f"{self.prog}: {message}")


@lru_cache(maxsize=8)
def build_parser(task=None):
    """The parser of every task, or of ``task`` alone when it names one.

    A run's first argument names its task, whose subparser is the only
    one it reads; any other run (help, no task, an unknown one) gets
    every task, so its usage and error messages list them all.  Each parser
    is built once a process, which takes about a millisecond, and shared
    by every later :func:`main` call: parsing leaves it as it was.
    """
    parser = _Parser(
        prog="gsda",
        description="Sampling-based descent for nonsmooth fitting: additive "
                    "quantile regression, smooth POT models, and generic "
                    "nonsmooth minimization.")
    sub = parser.add_subparsers(dest="task", required=True)
    for name, reads in ({task: _READS[task]} if task in _READS else _READS).items():
        p = sub.add_parser(name)
        p.add_argument("--config")
        for key in ("output_dir", *reads):
            # values stay text here and are parsed by their row, as config
            # entries are
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           action="append" if _OPTIONS[key][0] is _texts else "store")
    return parser


def resolve_config(args):
    """The run's settings; each value given by flag or config entry is parsed by its row."""
    task, reads = args.task, ("output_dir", *_READS[args.task])
    given = read_config_file(args.config) if args.config else {}
    for key in given:
        if key not in _OPTIONS:
            raise InvalidInput(f"unknown config key {key!r}")
        if key not in reads:
            raise InvalidInput(f"{task} does not read config key {key!r}")
    given.update((key, getattr(args, key)) for key in reads
                 if getattr(args, key) is not None)
    config = RunConfig(task=task)
    for key in reads:
        parse, default = _OPTIONS[key]
        config[key] = parse(given[key], key) if key in given else default
    if task == "fit-quantile" and "mode" not in given:
        config["mode"] = "average"  # the mode rule: GsParams' docstring
    if task == "simulate":
        kind = config["kind"]
        if kind not in _KINDS:
            raise InvalidInput(f"unknown simulate kind {kind!r}")
        unread = [key for key in _READS[task]
                  if key in given and key not in ("kind", *_KINDS[kind][1])]
        if unread:
            raise InvalidInput(f"simulate --kind {kind} does not read {', '.join(unread)}")
    return config


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    with warnings.catch_warnings():  # a warning is one line; the caller's hooks come back
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            config = resolve_config(build_parser(argv[0] if argv else None).parse_args(argv))
            os.makedirs(config["output_dir"], exist_ok=True)
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an infinite value
                return _TASKS[config["task"]](config, config["output_dir"])
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
