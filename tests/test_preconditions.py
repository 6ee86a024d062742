"""Documented preconditions, one row each: a library call raises its
documented class with its own message; a command-line run exits 3 and
prints that message."""

import numpy as np
import pytest

from gsda import (
    FunctionalSpec,
    SmootherSpec,
    fit_pot_additive,
    fit_quantile_additive,
    gsda_minimize,
    l1_norm,
    sample_unit_ball,
)
from gsda.cli import EXIT_INPUT, main
from gsda.datasets import (
    load_csv,
    simulate_gpd,
    simulate_gpd_sites,
    simulate_hetero,
    simulate_sales,
)
from gsda.errors import InvalidInput, ParseError
from gsda.pot import Lambda, gpd_loglik_grad, negative_loglik_objective
from gsda.smoothing import AdditiveProjector, bandwidth_for_df, effective_df

VAR_ES = FunctionalSpec("var_es", (0.01,), 0.1)
GRID = np.linspace(0.0, 1.0, 10)


def empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    return load_csv(path, "y")


def fit_on_factor(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,g\n1.0,a\n2.0,b\n3.0,a\n1.5,b\n")
    return ["fit-quantile", "--input", str(path), "--alpha", "0.9",
            "--factor", "g", "--smoother", "g=local_linear"]


def fit_pot_at_exceed_prob(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y\n0.5\n1.5\n0.9\n")
    return ["fit-pot", "--input", str(path), "--levels", "0.1", "--exceed-prob", "0.1"]


# (id, call of tmp_path, documented class or exit code, message)
LIBRARY = [
    ("ball-n<1", lambda _: sample_unit_ball(0, 3, np.random.default_rng(0)),
     InvalidInput, "n and m must be >= 1"),
    ("ball-m<1", lambda _: sample_unit_ball(2, 0, np.random.default_rng(0)),
     InvalidInput, "n and m must be >= 1"),
    ("minimize-x0-shape", lambda _: gsda_minimize(l1_norm(2), [0.5, 0.5, 0.5]),
     InvalidInput, r"x0 must have shape \(2,\)"),
    ("minimize-dim-0", lambda _: gsda_minimize(l1_norm(0), np.zeros(0)),
     InvalidInput, "n and m must be >= 1"),
    ("lambda-unequal", lambda _: Lambda(np.zeros(3), np.zeros(2)),
     InvalidInput, "eta and kappa must be 1-d vectors of equal length"),
    ("lambda-non-finite", lambda _: Lambda(np.zeros(2), np.array([0.1, np.nan])),
     InvalidInput, "eta and kappa must be finite"),
    ("spec-unknown-pair", lambda _: FunctionalSpec("es_es", (0.01,), 0.1),
     InvalidInput, "pair must be 'var_es' or 'var_var'"),
    ("spec-var_var-one-level", lambda _: FunctionalSpec("var_var", (0.01,), 0.1),
     InvalidInput, r"var_var needs exactly 2 level\(s\)"),
    ("spec-var_es-two-levels", lambda _: FunctionalSpec("var_es", (0.01, 0.02), 0.1),
     InvalidInput, r"var_es needs exactly 1 level\(s\)"),
    ("pot-level-at-exceed-prob", lambda _: fit_pot_additive(
        [0.5, 1.5, 0.9], None, FunctionalSpec("var_var", (0.1, 0.05), 0.1), []),
     InvalidInput, r"the POT fitter needs tail levels in \(0, exceed_prob\)"),
    ("loglik-grad-y-length",
     lambda _: gpd_loglik_grad(Lambda(np.zeros(3), np.full(3, 0.1)), [1.0, 2.0]),
     InvalidInput, "y must match the parameter length"),
    ("nll-objective-y<=0", lambda _: negative_loglik_objective([1.0, 0.0], VAR_ES),
     InvalidInput, "excesses must be strictly positive"),
    ("design-one-point", lambda _: effective_df([0.5], 0.1),
     InvalidInput, "smoother needs at least two observations"),
    ("target-df-low", lambda _: bandwidth_for_df(GRID, 2.0),
     InvalidInput, r"target_df must lie in \(2, 10\)"),
    ("target-df-high", lambda _: bandwidth_for_df(GRID, 10.0),
     InvalidInput, r"target_df must lie in \(2, 10\)"),
    ("spec-count", lambda _: AdditiveProjector(
        np.column_stack([GRID, GRID]), [SmootherSpec("linear")], 10),
     InvalidInput, "need exactly one smoother spec per covariate column"),
    ("zero-column-W-rows", lambda _: AdditiveProjector(np.zeros((5, 0)), [], 7),
     InvalidInput, "W must have one row per observation"),
    ("quantile-zero-column-W-rows", lambda _: fit_quantile_additive(
        np.arange(20.0), np.zeros((5, 0)), 0.5, []),
     InvalidInput, "W must have one row per observation"),
    ("pot-zero-column-W-rows", lambda _: fit_pot_additive(
        np.arange(1.0, 21.0), np.zeros((5, 0)), VAR_ES, []),
     InvalidInput, "W must have one row per observation"),
    ("projector-no-n", lambda _: AdditiveProjector(None, []),
     InvalidInput, r"need at least one observation \(give n when W is None\)"),
    ("projector-n-0", lambda _: AdditiveProjector(None, [], 0),
     InvalidInput, "need at least one observation"),
    ("projector-W-no-rows", lambda _: AdditiveProjector(np.zeros((0, 0)), []),
     InvalidInput, "need at least one observation"),
    ("quantile-empty-y", lambda _: fit_quantile_additive(np.array([]), None, 0.5, []),
     InvalidInput, "need at least one observation"),
    ("pot-empty-y", lambda _: fit_pot_additive(np.array([]), None, VAR_ES, []),
     InvalidInput, "need at least one observation"),
    ("load-csv-empty", empty_csv, ParseError, "empty file"),
    ("simulate-gpd-n", lambda _: simulate_gpd(0, 1.0, 0.1, 0),
     InvalidInput, "n must be >= 1"),
    ("simulate-gpd-sigma", lambda _: simulate_gpd(5, -1.0, 0.1, 0),
     InvalidInput, "sigma must be positive and finite"),
    ("simulate-gpd-kappa", lambda _: simulate_gpd(5, 1.0, np.inf, 0),
     InvalidInput, "kappa must be finite"),
    ("simulate-sites-n", lambda _: simulate_gpd_sites(1, 0),
     InvalidInput, "n_per_site must be >= 2"),
    ("simulate-hetero-n", lambda _: simulate_hetero(2, 0),
     InvalidInput, "n must be >= 3"),
    ("simulate-sales-days", lambda _: simulate_sales(6, 4, 0),
     InvalidInput, "days must be >= 7"),
    ("simulate-sales-hours", lambda _: simulate_sales(7, 1, 0),
     InvalidInput, "hours_per_day must be >= 2"),
]


def command_line(argv):
    """A command-line row: runs gsda on argv(tmp_path) and returns its exit code."""
    return lambda tmp_path: main(argv(tmp_path) + ["--output-dir", str(tmp_path / "out")])


COMMAND_LINE = [
    ("cli-fit-quantile-no-input", command_line(lambda _: ["fit-quantile", "--alpha", "0.9"]),
     EXIT_INPUT, "fit-quantile requires --input"),
    ("cli-fit-pot-no-input",
     command_line(lambda _: ["fit-pot", "--levels", "0.01", "--exceed-prob", "0.1"]),
     EXIT_INPUT, "fit-pot requires --input"),
    ("cli-numeric-smoother-on-factor", command_line(fit_on_factor),
     EXIT_INPUT, "local_linear smoother needs a numeric column, 'g' is a factor"),
    ("cli-fit-pot-level-at-exceed-prob", command_line(fit_pot_at_exceed_prob),
     EXIT_INPUT, "the POT fitter needs tail levels in (0, exceed_prob)"),
]


@pytest.mark.parametrize("call, expected, message", [row[1:] for row in LIBRARY + COMMAND_LINE],
                         ids=[row[0] for row in LIBRARY + COMMAND_LINE])
def test_documented_precondition(tmp_path, capsys, call, expected, message):
    if expected == EXIT_INPUT:
        assert call(tmp_path) == EXIT_INPUT == 3
        assert f"error: {message}" in capsys.readouterr().err
    else:
        with pytest.raises(expected, match=message):
            call(tmp_path)
