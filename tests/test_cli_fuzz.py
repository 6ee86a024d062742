"""Malformed option values exit 3 with a one-line message, never a traceback.

Every numeric flag and every config-file key is given values that do not
parse, are not finite, or lie outside the option's domain, through the
flag and through ``--config``, on a task that reads the option.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsda import cli
from gsda.cli import EXIT_INPUT, main

BAD_FLOAT = ("abc", "", "1.5.2", "nan", "inf", "-inf", "1e999", "0x10")
BAD_INT = ("abc", "", "1.5", "1e3", "nan", "0", "-3")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for kind in ("hetero", "gpd"):
        assert main(["simulate", "--kind", kind, "--n", "40", "--seed", "0",
                     "--output-dir", str(root / kind)]) == 0
    (root / "afile").write_text("x")
    return root


def cases(root):
    """option -> (argv of a task that reads it, malformed values)."""
    het, gpd = str(root / "hetero" / "data.csv"), str(root / "gpd" / "data.csv")
    quantile = ["fit-quantile", "--input", het, "--max-iter", "3"]
    pot = ["fit-pot", "--input", gpd, "--max-iter", "3"]
    descent = ["minimize", "--max-iter", "3"]
    table = {
        "alpha": (quantile, BAD_FLOAT + ("0", "1", "-0.5")),
        "exceed_prob": (pot + ["--levels", "0.01"], BAD_FLOAT + ("0", "1")),
        "levels": (pot + ["--exceed-prob", "0.1"],
                   ("abc", "0.01,x", "nan", "0", "-0.01", "0.5", "0.01,0.01",
                    "0.01,0.02,0.03", ",")),
        "beta": (descent, BAD_FLOAT + ("0", "1")),
        "mu": (descent, BAD_FLOAT + ("0", "1")),
        "lambda": (descent, BAD_FLOAT + ("0", "1")),
        "eps0": (descent, BAD_FLOAT + ("0", "-1")),
        "tau0": (descent, BAD_FLOAT + ("0", "-1")),
        "eps_min": (descent, BAD_FLOAT + ("0", "0.5")),
        "tau_min": (descent, BAD_FLOAT + ("0", "0.5")),
        "m": (descent, BAD_INT),
        "max_iter": (["minimize"], BAD_INT),
        "max_backtracks": (descent, BAD_INT),
        "seed": (descent, ("abc", "", "1.5", "nan", "-1")),
        "sigma": (["simulate", "--kind", "gpd", "--n", "10"], BAD_FLOAT + ("0", "-1")),
        "kappa": (["simulate", "--kind", "gpd", "--n", "10"], BAD_FLOAT),
        "n": (["simulate", "--kind", "hetero"], BAD_INT),
        "days": (["simulate", "--kind", "sales"], BAD_INT),
        "hours_per_day": (["simulate", "--kind", "sales"], BAD_INT),
        "x0": (descent, ("abc", "", "1,,2", "nan,1", "inf,0", "1", "1,2,3")),
        "smoother": (quantile, ("w=warp", "w=local_linear:bw=abc",
                                "w=local_linear:df=nan", "w=local_linear:bw=-1",
                                "w=local_linear:bw=1e999", "w=local_linear:zz=1",
                                "w", "nocol=local_linear")),
        "factor": (quantile, ("nocol",)),
        "response": (quantile, ("nocol", "")),
        "mode": (descent, ("fast", "", "QP", "average")),  # the minimizer runs qp alone
        "kind": (["simulate"], ("warp", "")),
        "objective": (descent, ("mystery", "")),
        "input": (["fit-quantile"], (str(root / "missing.csv"), str(root))),
        "output_dir": (["simulate", "--kind", "hetero", "--n", "10"],
                       (str(root / "afile"), str(root / "afile" / "sub"))),
    }
    return table


def flag_of(key):
    return "--" + key.replace("_", "-")


def run(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


def assert_input_error(code, err, what):
    assert code == EXIT_INPUT, (what, code, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (what, err)
    assert "Traceback" not in err and "invalid choice" not in err


def through_flag(key, argv, value, out):
    extra = [] if key == "output_dir" else ["--output-dir", str(out)]
    return argv + [f"{flag_of(key)}={value}"] + extra


def through_config(key, argv, value, out):
    cfg = out / "run.cfg"
    out.mkdir(parents=True, exist_ok=True)
    cfg.write_text(f"{key} = {value}\n")
    extra = [] if key == "output_dir" else ["--output-dir", str(out)]
    return argv + ["--config", str(cfg)] + extra


def numeric_options():
    return sorted(key for key, (parse, _) in cli._OPTIONS.items()
                  if parse not in (cli._text, cli._texts))


def test_every_option_is_covered(inputs):
    numeric = set(numeric_options())
    assert numeric >= {"alpha", "m", "seed", "levels", "x0"}
    assert numeric <= set(cli._OPTIONS) == set(cases(inputs))


def test_every_case_runs_a_task_that_reads_its_option(inputs):
    for key, (argv, _) in cases(inputs).items():
        assert key == "output_dir" or key in cli._READS[argv[0]], key


@pytest.mark.parametrize("via", [through_flag, through_config])
def test_malformed_values_exit_3(inputs, tmp_path, capsys, via):
    count = 0
    for key, (argv, values) in cases(inputs).items():
        for value in values:
            count += 1
            out = tmp_path / f"run{count}"
            code, err = run(via(key, argv, value, out), capsys)
            assert_input_error(code, err, (via.__name__, key, value))


def test_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha 0.5\n")
    code, err = run(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path)],
                    capsys)
    assert_input_error(code, err, "no '='")


# text that can never spell a number (no digits, no letters of "nan",
# "inf" or "infinity"), including the empty string
JUNK = st.text(alphabet="bcdghjkmopqrsuvwxz!@$%^&*()[]{}<>?/|~`_+ ", max_size=10)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=JUNK, seed=st.integers(0, 2**32 - 1))
def test_junk_numbers_exit_3(inputs, tmp_path, capsys, value, seed):
    table = cases(inputs)
    numeric = numeric_options()
    rng = np.random.default_rng(seed)
    for key in rng.choice(numeric, size=4, replace=False):
        argv = table[key][0]
        for via in (through_flag, through_config):
            out = tmp_path / f"{key}-{via.__name__}-{seed}"
            code, err = run(via(key, argv, value.strip(), out), capsys)
            assert_input_error(code, err, (via.__name__, key, value))
