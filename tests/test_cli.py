import csv
import re
import warnings

import numpy as np
import pytest

from gsda.cli import (
    EXIT_INPUT,
    EXIT_NONCONVERGED,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
    parse_smoother,
    read_config_file,
)
from gsda.errors import InvalidInput, ParseError


def read_diagnostics(path):
    # split at the last "=": a key may hold a factor label with "=", a value never does
    return dict(line.rsplit("=", 1) for line in path.read_text().splitlines())


def read_table(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


class TestParsing:
    def test_smoother_forms(self):
        assert parse_smoother("w=local_linear") == ("w", {"kind": "local_linear"})
        assert parse_smoother("w=local_linear:bw=0.5") \
            == ("w", {"kind": "local_linear", "bandwidth": 0.5})
        assert parse_smoother("t=local_linear:df=10") \
            == ("t", {"kind": "local_linear", "target_df": 10.0})
        assert parse_smoother("day:hour=cell_factor") \
            == ("day:hour", {"kind": "cell_factor"})

    def test_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nalpha = 0.8\nseed=4\n\nmax-iter = 50\n")
        cfg = read_config_file(p)
        assert cfg == {"alpha": "0.8", "seed": "4", "max_iter": "50"}

    def test_config_key_given_twice(self, tmp_path):
        # max-iter and max_iter name one key
        p = tmp_path / "run.cfg"
        for text, where in (("alpha = 0.5\nalpha = 0.8\n", "line 2: config key 'alpha'"),
                            ("max-iter = 5\n# x\nmax_iter = 6\n", "line 3: config key 'max_iter'")):
            p.write_text(text)
            with pytest.raises(ParseError, match=f"^{where} given twice"):
                read_config_file(p)


GS_FLAGS = ("--m", "--beta", "--mu", "--lambda", "--eps0", "--tau0", "--eps-min",
            "--tau-min", "--max-iter", "--max-backtracks", "--mode", "--seed")
DATA_FLAGS = ("--input", "--response", "--smoother", "--factor")
TASK_FLAGS = {
    "fit-quantile": (*DATA_FLAGS, "--alpha", *GS_FLAGS),
    "fit-pot": (*DATA_FLAGS, "--levels", "--exceed-prob", *GS_FLAGS),
    "simulate": ("--kind", "--seed", "--n", "--sigma", "--kappa", "--days", "--hours-per-day"),
    "minimize": ("--objective", "--x0", *GS_FLAGS),
}


class TestOptionTable:
    """The flags each task takes pin the option table and its reads."""

    @pytest.mark.parametrize("task", sorted(TASK_FLAGS))
    def test_help_lists_the_task_reads(self, capsys, task):
        with pytest.raises(SystemExit) as exit_:
            main([task, "--help"])
        assert exit_.value.code == 0
        listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) - {"--help"}
        assert listed == {"--config", "--output-dir", *TASK_FLAGS[task]}

    def test_every_option_is_read_by_a_task(self):
        from gsda import cli

        assert set(cli._OPTIONS) - {"output_dir"} == set().union(*cli._READS.values())

    def test_each_simulate_kind_reads_flags_of_simulate(self):
        from gsda import cli

        for kind, (_, reads) in cli._KINDS.items():
            flags = {"--" + key.replace("_", "-") for key in reads}
            assert flags <= set(TASK_FLAGS["simulate"]), kind

    def test_a_run_sees_its_task_reads_alone(self):
        from gsda.cli import build_parser, resolve_config

        config = resolve_config(build_parser().parse_args(["simulate", "--n", "7"]))
        assert config == {"task": "simulate", "output_dir": ".", "kind": "gpd", "n": 7,
                          "sigma": 2.0, "kappa": 0.2, "seed": 0, "days": 28,
                          "hours_per_day": 17}


class TestSimulateAndFitQuantile:
    def test_end_to_end_with_cell_factor(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--kind", "sales", "--days", "28",
                     "--hours-per-day", "5", "--seed", "2",
                     "--output-dir", str(sim)]) == EXIT_OK
        out = tmp_path / "fit"
        code = main(["fit-quantile", "--input", str(sim / "data.csv"),
                     "--alpha", "0.9", "--smoother", "day:hour=cell_factor",
                     "--seed", "1", "--beta", "0.01",
                     "--output-dir", str(out)])
        assert code == EXIT_OK
        diag = read_diagnostics(out / "diagnostics.txt")
        assert diag["converged"] == "true"
        assert 0.8 <= float(diag["coverage"]) <= 1.0
        per_cell = [k for k in diag if k.startswith("coverage[day:hour|")]
        assert len(per_cell) == 35  # 7 days x 5 hours
        header, rows = read_table(out / "fitted.csv")
        assert header == ["y", "day", "hour", "q0.9"]
        assert len(rows) == 140
        theader, trows = read_table(out / "trace.csv")
        # one cell_factor component: at most two sweeps per projection, and
        # one projection per iteration plus the final decomposition
        assert 0 < int(diag["backfit_sweeps"]) <= 2 * (len(trows) + 1)
        assert diag["projections_unconverged"] == "0"
        # trace objective strictly decreasing across accepted steps
        fcol, ecol = theader.index("f"), theader.index("event")
        accepted = [float(r[fcol]) for r in trows if r[ecol] == "step"]
        assert np.all(np.diff(accepted) < 0.0)

    def test_determinism_bitwise(self, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "hetero", "--n", "120", "--seed", "3",
              "--output-dir", str(sim)])
        args = ["fit-quantile", "--input", str(sim / "data.csv"),
                "--alpha", "0.9", "--seed", "7", "--max-iter", "300"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--output-dir", str(out1)]) == EXIT_OK
        assert main(args + ["--output-dir", str(out2)]) == EXIT_OK
        for name in ("fitted.csv", "decomposition.csv", "trace.csv",
                     "diagnostics.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


RUN_KEYS = ("subgradient_mode", "m", "beta", "mu", "lambda", "eps0", "tau0",
            "eps_min", "tau_min", "max_iter", "max_backtracks", "kernel_path")


class TestRunDiagnostics:
    """diagnostics.txt names the resolved settings a fit ran with."""

    def test_fit_quantile(self, tmp_path):
        from gsda import AdditiveProjector, SmootherSpec, _kernels
        from gsda.datasets import load_csv

        sim = tmp_path / "sim"
        main(["simulate", "--kind", "hetero", "--n", "80", "--seed", "1",
              "--output-dir", str(sim)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 0.25\neps-min = 1e-5\n")
        out = tmp_path / "fit"
        code = main(["fit-quantile", "--input", str(sim / "data.csv"),
                     "--config", str(cfg), "--smoother", "w=local_linear",
                     "--lambda", "0.4", "--max-iter", "150", "--seed", "2",
                     "--output-dir", str(out)])
        assert code in (EXIT_OK, EXIT_NONCONVERGED)
        diag = read_diagnostics(out / "diagnostics.txt")
        # average mode's default m is 1 + sum r_j + 1, the columns of U plus one
        w = load_csv(sim / "data.csv").column("w")
        d = AdditiveProjector(w[:, None], [SmootherSpec("local_linear", 0)]).factor_dim
        assert 1 < d < 80
        want = {"subgradient_mode": "average", "m": d + 1, "beta": 0.1, "mu": 0.25,
                "lambda": 0.4, "eps0": 0.1, "tau0": 0.01, "eps_min": 1e-5,
                "tau_min": 1e-6, "max_iter": 150, "max_backtracks": 30,
                "kernel_path": _kernels.ACTIVE}
        assert set(want) == set(RUN_KEYS)
        assert {k: type(v)(diag[k]) for k, v in want.items()} == want
        # a few kink coordinates per iteration, never the whole ball
        _, trows = read_table(out / "trace.csv")
        assert 0 < int(diag["ball_coordinates"]) < 80 * len(trows)

    def test_fit_quantile_qp_subspace(self, tmp_path):
        from gsda import AdditiveProjector, SmootherSpec
        from gsda.datasets import load_csv

        sim = tmp_path / "sim"
        main(["simulate", "--kind", "hetero", "--n", "80", "--seed", "1",
              "--output-dir", str(sim)])
        out = tmp_path / "fit"
        code = main(["fit-quantile", "--input", str(sim / "data.csv"), "--mode", "qp",
                     "--smoother", "w=local_linear", "--max-iter", "100", "--seed", "2",
                     "--output-dir", str(out)])
        assert code in (EXIT_OK, EXIT_NONCONVERGED)
        diag = read_diagnostics(out / "diagnostics.txt")
        w = load_csv(sim / "data.csv").column("w")
        r = AdditiveProjector(w[:, None], [SmootherSpec("local_linear", 0)]).coordinate_map().dim
        assert 1 < r < 80
        assert (diag["subspace_dim"], diag["m"]) == (str(r), str(r + 1))

    def test_fit_pot(self, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "gpd", "--n", "60", "--seed", "4",
              "--output-dir", str(sim)])
        args = ["fit-pot", "--input", str(sim / "data.csv"), "--levels", "0.01",
                "--exceed-prob", "0.1", "--max-iter", "20", "--seed", "1"]
        for tag, extra in (("a", ["--mode", "qp", "--m", "200"]), ("b", [])):
            code = main(args + extra + ["--output-dir", str(tmp_path / tag)])
            assert code in (EXIT_OK, EXIT_NONCONVERGED)
        given = read_diagnostics(tmp_path / "a" / "diagnostics.txt")
        default = read_diagnostics(tmp_path / "b" / "diagnostics.txt")
        assert (given["subgradient_mode"], given["m"]) == ("qp", "200")
        assert (default["subgradient_mode"], default["m"]) == ("qp", "3")  # 2r+1
        # one coordinate per functional half, not 2n = 120
        assert given["subspace_dim"] == default["subspace_dim"] == "2"
        assert set(RUN_KEYS) <= set(default)
        assert "ball_coordinates" not in default
        assert int(given["rejected_draws"]) >= 0 and int(default["rejected_draws"]) >= 0

    def test_minimize(self, tmp_path):
        from gsda import _kernels

        out = tmp_path / "m"
        assert main(["minimize", "--m", "5", "--beta", "0.2", "--max-iter", "50",
                     "--output-dir", str(out)]) in (EXIT_OK, EXIT_NONCONVERGED)
        diag = read_diagnostics(out / "diagnostics.txt")
        want = {"subgradient_mode": "qp", "m": 5, "beta": 0.2, "mu": 0.5,
                "lambda": 0.5, "eps0": 0.1, "tau0": 0.01, "eps_min": 1e-6,
                "tau_min": 1e-6, "max_iter": 50, "max_backtracks": 30,
                "kernel_path": _kernels.ACTIVE}
        assert {k: type(v)(diag[k]) for k, v in want.items()} == want
        assert "subspace_dim" not in diag
        assert int(diag["accepted_steps"]) <= int(diag["iterations"]) <= 50
        # the keys minimize wrote before it reported its settings keep their order
        older = ["task", "objective", "seed", "converged", "iterations",
                 "rejected_draws", "final_f", "final_x", "distance_to_minimum"]
        assert [k for k in diag if k in older] == older

    def test_fits_share_one_diagnostics_block(self, tmp_path):
        # both fit tasks write the same keys in the same order between
        # their own head and tail entries; fit-quantile never rejects a draw
        # and never tops up an estimate
        shared = ["n", "dropped_rows", "seed", *RUN_KEYS[:2], "subspace_dim",
                  *RUN_KEYS[2:], "converged", "iterations", "accepted_steps",
                  "rejected_draws", "topups", "backfit_sweeps", "projections_unconverged"]
        for kind in ("hetero", "gpd"):
            main(["simulate", "--kind", kind, "--n", "40", "--seed", "1",
                  "--output-dir", str(tmp_path / kind)])
        runs = {
            "fit-quantile": ["--input", str(tmp_path / "hetero" / "data.csv"),
                             "--mode", "qp", "--smoother", "w=local_linear"],
            "fit-pot": ["--input", str(tmp_path / "gpd" / "data.csv"),
                        "--levels", "0.01", "--exceed-prob", "0.1"],
        }
        diags = {}
        for task, argv in runs.items():
            out = tmp_path / task
            code = main([task, *argv, "--max-iter", "5", "--output-dir", str(out)])
            assert code in (EXIT_OK, EXIT_NONCONVERGED)
            diags[task] = read_diagnostics(out / "diagnostics.txt")
            keys = list(diags[task])
            assert (keys[0], diags[task]["task"]) == ("task", task)
            start = keys.index("n")
            assert keys[start:start + len(shared)] == shared, task
        assert diags["fit-quantile"]["rejected_draws"] == diags["fit-quantile"]["topups"] == "0"

    def test_resolved_gs_options_are_gs_params_defaults(self):
        from dataclasses import astuple

        from gsda import GsParams
        from gsda.cli import build_parser, resolve_config

        def resolved(*argv):
            return resolve_config(build_parser().parse_args(argv)).gs_params()

        # field by field: every default comes from GsParams; only
        # fit-quantile's mode differs (the mode rule)
        assert astuple(resolved("minimize")) == astuple(GsParams())
        assert astuple(resolved("fit-pot")) == astuple(GsParams())
        assert astuple(resolved("fit-quantile")) \
            == astuple(GsParams(subgradient_mode="average"))
        assert resolved("fit-quantile", "--mode", "qp").subgradient_mode == "qp"


class TestFitPot:
    def test_var_es_run(self, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "gpd", "--n", "400", "--sigma", "2",
              "--kappa", "0.2", "--seed", "3", "--output-dir", str(sim)])
        out = tmp_path / "fit"
        code = main(["fit-pot", "--input", str(sim / "data.csv"),
                     "--levels", "0.01", "--exceed-prob", "0.1",
                     "--beta", "0.0001", "--seed", "1",
                     "--output-dir", str(out)])
        assert code == EXIT_OK
        diag = read_diagnostics(out / "diagnostics.txt")
        assert diag["pair"] == "var_es"
        assert diag["scale_factors"] == "0.1"
        # intercept only: projection takes the mean and sweeps nothing
        assert diag["backfit_sweeps"] == "0"
        assert diag["projections_unconverged"] == "0"
        header, _ = read_table(out / "fitted.csv")
        assert header[-2:] == ["return_level", "expected_shortfall"]

    def test_var_var_run(self, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "gpd-sites", "--n", "30", "--seed", "2",
              "--output-dir", str(sim)])
        out = tmp_path / "fit"
        code = main(["fit-pot", "--input", str(sim / "data.csv"), "--levels", "0.02,0.01",
                     "--exceed-prob", "0.1", "--smoother", "site=cell_factor",
                     "--smoother", "t=local_linear:df=4", "--max-iter", "20", "--seed", "1",
                     "--output-dir", str(out)])
        assert code in (EXIT_OK, EXIT_NONCONVERGED)
        diag = read_diagnostics(out / "diagnostics.txt")
        assert (diag["pair"], diag["scale_factors"]) == ("var_var", "0.2,0.1")
        # the return level decreases in the level, so the two never cross
        # and the diagnostics carry no key that says so
        assert list(diag)[-5:] == ["final_negloglik", "mean_return_level_1",
                                   "mean_return_level_2", "kappa_min", "kappa_max"]
        header, _ = read_table(out / "fitted.csv")
        assert header == ["y", "site", "t", "return_level_1", "return_level_2"]

    def test_average_mode_is_an_input_error(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "gpd", "--n", "40", "--seed", "0",
              "--output-dir", str(sim)])
        capsys.readouterr()
        assert main(["fit-pot", "--input", str(sim / "data.csv"), "--levels", "0.01",
                     "--exceed-prob", "0.1", "--mode", "average",
                     "--output-dir", str(tmp_path / "x")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "subgradient_mode" in err

    def test_requires_exceed_prob_and_levels(self, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "gpd", "--n", "100", "--seed", "0",
              "--output-dir", str(sim)])
        assert main(["fit-pot", "--input", str(sim / "data.csv"),
                     "--levels", "0.01",
                     "--output-dir", str(tmp_path / "x")]) == EXIT_INPUT
        assert main(["fit-pot", "--input", str(sim / "data.csv"),
                     "--exceed-prob", "0.1",
                     "--output-dir", str(tmp_path / "x")]) == EXIT_INPUT

    def test_more_than_two_levels_is_an_input_error(self, tmp_path, capsys):
        assert main(["fit-pot", "--input", str(tmp_path / "data.csv"),
                     "--levels", "0.01,0.02,0.03", "--exceed-prob", "0.1",
                     "--output-dir", str(tmp_path / "x")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: fit-pot requires --levels with one or two tail levels, got 3\n")


class TestInfiniteStart:
    """A fit whose objective is not finite at its start exits 3 and writes no fit."""

    def run(self, tmp_path, capsys, task, rows, *options):
        data = tmp_path / "data.csv"
        data.write_text("".join(line + "\n" for line in rows))
        out = tmp_path / "fit"
        code = main([task, "--input", str(data), *options, "--output-dir", str(out)])
        assert code == EXIT_INPUT
        # the error alone: numpy's overflow warnings are ignored for every task
        assert capsys.readouterr().err == "error: objective must be finite at x0\n"
        assert not (out / "diagnostics.txt").exists()

    def test_overflowing_pinball_risk(self, tmp_path, capsys):
        # the 0.9-quantile start is 1e308, and y - q overflows for y = -1e308
        rows = ["y,w", "1e308,1", "-1e308,2", "1e308,3", "2,4", "-1e308,5", "3,6"]
        self.run(tmp_path, capsys, "fit-quantile", rows, "--max-iter", "200")

    def test_method_of_moments_start_with_no_likelihood(self, tmp_path, capsys):
        # subnormal excesses: 1/sigma overflows at the moment estimates'
        # scale, so the start's log-likelihood is -inf
        rows = ["y", *(f"{k}e-310" for k in range(1, 6))]
        self.run(tmp_path, capsys, "fit-pot", rows, "--levels", "0.01",
                 "--exceed-prob", "0.1")


class TestMinimize:
    def test_a_package_warning_is_one_stderr_line(self, tmp_path, capsys):
        # m below d+1 warns; the CLI prints the message alone, not the
        # warning's source file and line
        assert main(["minimize", "--m", "1", "--max-iter", "20",
                     "--output-dir", str(tmp_path)]) in (EXIT_OK, EXIT_NONCONVERGED)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("warning: sampling size m=1"), err

    @pytest.mark.parametrize("objective,x0,bound", [
        ("nsrosenbrock", "-1,1", 1e-6), ("l1", "3,-4,0.5", 1e-4), ("sumsq", "3,-4", 1e-8)])
    def test_objectives_converge(self, tmp_path, objective, x0, bound):
        out = tmp_path / "m"
        assert main(["minimize", "--objective", objective, f"--x0={x0}", "--seed", "3",
                     "--output-dir", str(out)]) == EXIT_OK
        diag = read_diagnostics(out / "diagnostics.txt")
        assert diag["converged"] == "true"
        assert 0.0 <= float(diag["final_f"]) <= bound
        assert len(diag["final_x"].split(",")) == len(x0.split(","))

    def test_average_mode_is_an_input_error(self, tmp_path, capsys):
        # the minimizer reduces by Wolfe's point alone
        assert main(["minimize", "--mode", "average", "--x0=-1,1",
                     "--output-dir", str(tmp_path / "m")]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "subgradient_mode must be 'qp'" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "m" / "diagnostics.txt").exists()

    def test_nsrosenbrock_reaches_minimum(self, tmp_path):
        out = tmp_path / "m"
        assert main(["minimize", "--objective", "nsrosenbrock", "--x0=-1,1",
                     "--seed", "0", "--output-dir", str(out)]) == EXIT_OK
        diag = read_diagnostics(out / "diagnostics.txt")
        assert float(diag["distance_to_minimum"]) <= 1e-2
        assert diag["rejected_draws"] == "0"  # the whole plane is the domain

    def test_unknown_objective(self, tmp_path):
        assert main(["minimize", "--objective", "mystery",
                     "--output-dir", str(tmp_path)]) == EXIT_INPUT

    @pytest.mark.parametrize("objective,x0", [("sumsq", "1e308,1e308"),
                                              ("l1", "1e308,-1e308")])
    def test_overflowing_start_is_one_error_line(self, tmp_path, capsys, objective, x0):
        # the overflow to inf is the message; numpy warns nothing before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["minimize", "--objective", objective, f"--x0={x0}",
                         "--output-dir", str(tmp_path)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: objective must be finite at x0\n"


class TestExitCodes:
    @pytest.mark.parametrize("task,target", [
        (["minimize", "--max-iter", "3"], "gsda_minimize"),
        (["fit-pot", "--levels", "0.01", "--exceed-prob", "0.1"], "fit_pot_additive"),
    ])
    @pytest.mark.parametrize("error", ["NumericalFailure", "SingularBlock",
                                       "SamplingExhausted", "GsdaError"])
    def test_numerical_errors_exit_4(self, tmp_path, capsys, monkeypatch, task, target, error):
        from gsda import cli, errors

        def fails(*args, **kwargs):
            raise getattr(errors, error)("forced")

        if task[0] == "fit-pot":
            main(["simulate", "--kind", "gpd", "--n", "40", "--seed", "0",
                  "--output-dir", str(tmp_path / "sim")])
            task = [*task, "--input", str(tmp_path / "sim" / "data.csv")]
        capsys.readouterr()
        monkeypatch.setattr(cli, target, fails)
        assert main([*task, "--output-dir", str(tmp_path / "x")]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        prefix = "error: " if error == "GsdaError" else "numerical failure: "
        assert captured.err == prefix + "forced\n"
        assert "Traceback" not in captured.out

    def test_failed_min_norm_solve_exits_4(self, tmp_path, capsys, monkeypatch):
        # no other reduction stands in for a failed solve: the third one
        # raises, and the run exits 4 with one line on stderr
        import gsda.engine
        import gsda.pot
        import gsda.quantile
        from gsda.errors import NumericalFailure

        calls = []

        def third_fails(solve):
            def wrapper(*args):
                calls.append(None)
                if len(calls) == 3:
                    raise NumericalFailure("forced")
                return solve(*args)
            return wrapper

        for mod in (gsda.engine, gsda.pot, gsda.quantile):
            monkeypatch.setattr(mod, "min_norm_point", third_fails(mod.min_norm_point))
        for kind in ("hetero", "gpd"):
            main(["simulate", "--kind", kind, "--n", "50", "--seed", "1",
                  "--output-dir", str(tmp_path / kind)])
        runs = {
            "minimize": ["minimize"],
            "quantile": ["fit-quantile", "--input", str(tmp_path / "hetero" / "data.csv"),
                         "--smoother", "w=local_linear", "--mode", "qp"],
            "pot": ["fit-pot", "--input", str(tmp_path / "gpd" / "data.csv"),
                    "--levels", "0.01", "--exceed-prob", "0.1"],
        }
        for name, argv in runs.items():
            calls.clear()
            capsys.readouterr()
            code = main(argv + ["--max-iter", "40", "--output-dir", str(tmp_path / name)])
            captured = capsys.readouterr()
            assert (code, len(calls)) == (EXIT_NUMERIC, 3), name
            assert captured.err == "numerical failure: forced\n", name
            assert "Traceback" not in captured.out + captured.err, name

    def test_nonconvergence_exits_2(self, tmp_path):
        from gsda.cli import EXIT_NONCONVERGED

        sim = tmp_path / "sim"
        main(["simulate", "--kind", "hetero", "--n", "60", "--seed", "2",
              "--output-dir", str(sim)])
        out = tmp_path / "fit"
        code = main(["fit-quantile", "--input", str(sim / "data.csv"),
                     "--alpha", "0.5", "--max-iter", "2", "--seed", "0",
                     "--output-dir", str(out)])
        assert code == EXIT_NONCONVERGED
        diag = read_diagnostics(out / "diagnostics.txt")
        assert diag["converged"] == "false"


class TestErrorsAndConfig:
    def test_missing_input_file(self, tmp_path):
        assert main(["fit-quantile", "--input", str(tmp_path / "nope.csv"),
                     "--output-dir", str(tmp_path)]) == EXIT_INPUT

    def test_bad_smoother_spec(self, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "hetero", "--n", "50", "--seed", "0",
              "--output-dir", str(sim)])
        assert main(["fit-quantile", "--input", str(sim / "data.csv"),
                     "--smoother", "w=warp_drive",
                     "--output-dir", str(tmp_path / "x")]) == EXIT_INPUT

    def test_bad_input_table_exits_3(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "hetero", "--n", "50", "--seed", "0",
              "--output-dir", str(sim)])
        dup = tmp_path / "dup.csv"
        dup.write_text("y,w,w\n1,10,20\n2,11,21\n3,12,22\n")
        broken = tmp_path / "broken.csv"
        broken.write_text('y,g\n1,a\n2,b\n3,"line\nbreak"\n4,a\n')
        data = str(sim / "data.csv")
        for i, (argv, err) in enumerate([
                (["--input", str(dup)], "line 1: column 'w' appears twice in the header"),
                (["--input", str(broken), "--smoother", "g=cell_factor"],
                 "line 4: label 'line\\nbreak' holds a line break"),
                (["--input", data, "--smoother", "y=cell_factor"],
                 "covariate column 'y' not in input"),
                (["--input", data, "--smoother", "w:y=cell_factor"],
                 "covariate column 'y' not in input")]):
            capsys.readouterr()
            assert main(["fit-quantile", *argv, "--output-dir", str(tmp_path / f"x{i}")]) \
                == EXIT_INPUT
            assert capsys.readouterr().err == f"error: {err}\n"

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp = 9\n")
        assert main(["simulate", "--config", str(cfg),
                     "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: unknown config key 'warp'\n"

    def assert_input_error(self, capsys, argv, message=None):
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "invalid choice" not in err, err  # an unknown task exits 3 too
        assert message is None or err == f"error: {message}\n", err

    def test_removed_gradcheck_task_is_unknown(self, tmp_path, capsys):
        assert main(["gradcheck", "--points", "5", "--output-dir", str(tmp_path)]) \
            == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: gsda: argument task: invalid choice: 'gradcheck'")
        assert err.count("\n") == 1

    def test_bad_levels_number(self, tmp_path, capsys):
        self.assert_input_error(capsys, [
            "fit-pot", "--input", str(tmp_path / "data.csv"), "--levels", "abc",
            "--exceed-prob", "0.1", "--output-dir", str(tmp_path / "x")])

    def test_bad_flag_values(self, tmp_path, capsys):
        # usage errors exit 3, not argparse's exit 2, which reads as
        # non-convergence; minimize reads every hyperparameter, so each
        # value reaches its own parser
        for flag, value, message in (
                ("--beta", "x", "beta: 'x' is not a valid number"),
                ("--m", "1.5", "m: '1.5' is not a valid number"),
                ("--seed", "", "seed: '' is not a valid number"),
                ("--mode", "fast", "subgradient_mode must be one of ('qp', 'average')"),
                ("--warp", "9", "gsda: unrecognized arguments: --warp 9")):
            self.assert_input_error(capsys, [
                "minimize", flag, value, "--output-dir", str(tmp_path)], message)

    def test_bad_number_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = x\n")
        self.assert_input_error(capsys, [
            "minimize", "--config", str(cfg), "--output-dir", str(tmp_path)],
            "beta: 'x' is not a valid number")

    def test_bad_smoother_bandwidth(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "hetero", "--n", "50", "--seed", "0",
              "--output-dir", str(sim)])
        capsys.readouterr()
        self.assert_input_error(capsys, [
            "fit-quantile", "--input", str(sim / "data.csv"),
            "--smoother", "t=local_linear:bw=abc", "--output-dir", str(tmp_path / "x")])

    def test_dim_is_not_a_config_key(self, tmp_path, capsys):
        # nothing reads a dimension: an objective fixes its own
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 3\n")
        assert main(["minimize", "--config", str(cfg),
                     "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: unknown config key 'dim'\n"

    def test_lambda_is_the_config_key_of_lambda(self, tmp_path, capsys):
        # a config line copied from diagnostics.txt sets the option; the
        # GsParams field's name is no key
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0.4\n")
        run = ["minimize", "--max-iter", "3", "--config", str(cfg)]
        assert main(run + ["--output-dir", str(tmp_path / "ok")]) \
            in (EXIT_OK, EXIT_NONCONVERGED)
        assert float(read_diagnostics(tmp_path / "ok" / "diagnostics.txt")["lambda"]) == 0.4
        cfg.write_text("lam = 0.4\n")
        capsys.readouterr()
        assert main(run + ["--output-dir", str(tmp_path / "x")]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: unknown config key 'lam'\n"

    def test_interaction_cells_never_merge(self, tmp_path, capsys):
        # (x:y, z) and (x, y:z) would both join to the cell x:y:z
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        cells = [("x:y", "z"), ("x", "y:z"), ("p", "r"), ("q", "s")] * 6
        data.write_text("y,a,b\n" + "".join(f"{rng.normal():.6f},{a},{b}\n"
                                             for a, b in cells))
        capsys.readouterr()
        assert main(["fit-quantile", "--input", str(data), "--smoother", "a:b=cell_factor",
                     "--max-iter", "3", "--output-dir", str(tmp_path / "x")]) == EXIT_INPUT
        assert capsys.readouterr().err \
            == "error: interaction a:b joins two label pairs into level 'x:y:z'\n"

    def test_sigma_rejected_for_gpd_sites(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 3\n")
        base = ["simulate", "--kind", "gpd-sites", "--n", "20", "--seed", "0"]
        for extra in (["--sigma", "-1"], ["--sigma", "3"], ["--config", str(cfg)]):
            self.assert_input_error(capsys, base + extra + ["--output-dir", str(tmp_path / "x")])
        assert main(base + ["--output-dir", str(tmp_path / "ok")]) == EXIT_OK

    def test_simulate_rejects_options_its_kind_does_not_read(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("days = 99\n")
        cases = [
            (["--kind", "sales"], ["--sigma", "-1"]),
            (["--kind", "sales", "--days", "7"], ["--kappa", "5"]),
            (["--kind", "sales"], ["--n", "50"]),
            (["--kind", "hetero", "--n", "50"], ["--days", "99"]),
            (["--kind", "hetero", "--n", "50"], ["--config", str(cfg)]),
            (["--kind", "hetero", "--n", "50"], ["--kappa", "0.3"]),
            (["--kind", "gpd", "--n", "50"], ["--hours-per-day", "3"]),
            (["--kind", "gpd-sites", "--n", "20"], ["--days", "3"]),
        ]
        for i, (base, extra) in enumerate(cases):
            base = ["simulate", *base, "--seed", "0"]
            self.assert_input_error(capsys, base + extra
                                    + ["--output-dir", str(tmp_path / f"x{i}")])
            assert main(base + ["--output-dir", str(tmp_path / f"ok{i}")]) == EXIT_OK

    def test_tasks_reject_options_they_do_not_read(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "gpd", "--n", "40", "--seed", "0",
              "--output-dir", str(sim)])
        data = str(sim / "data.csv")
        fit_pot = ["fit-pot", "--input", data, "--levels", "0.01",
                   "--exceed-prob", "0.1", "--max-iter", "3"]
        fit_quantile = ["fit-quantile", "--input", data, "--max-iter", "3"]
        cases = [
            (["minimize", "--max-iter", "3"],
             ["--alpha", "0.3", "--levels", "0.1", "--smoother", "x=linear",
              "--kind", "sales"]),
            (["minimize", "--max-iter", "3"], ["--input", data]),
            (["simulate", "--kind", "gpd", "--n", "20"], ["--m", "5", "--mode", "average",
                                                          "--x0", "1,2"]),
            (["simulate", "--kind", "gpd", "--n", "20"], ["--beta", "0.3"]),
            (["simulate", "--kind", "gpd", "--n", "20"], ["--mode", "qp"]),
            (["simulate", "--kind", "gpd", "--n", "20"], ["--alpha", "0.5"]),
            (fit_quantile, ["--levels", "0.01"]),
            (fit_quantile, ["--x0", "1,2"]),
            (fit_pot, ["--alpha", "0.5"]),
            (fit_pot, ["--kind", "sales"]),
        ]
        for i, (base, extra) in enumerate(cases):
            self.assert_input_error(capsys, base + extra
                                    + ["--output-dir", str(tmp_path / f"x{i}")])
            code = main(base + ["--output-dir", str(tmp_path / f"ok{i}")])
            assert code in (EXIT_OK, EXIT_NONCONVERGED), base
            capsys.readouterr()

    def test_config_keys_a_task_does_not_read(self, tmp_path, capsys):
        for i, (task, line) in enumerate([
                (["minimize", "--max-iter", "3"], "alpha = 0.3"),
                (["minimize", "--max-iter", "3"], "smoother = w=linear"),
                (["simulate", "--kind", "hetero", "--n", "20"], "mode = qp"),
                (["simulate", "--kind", "hetero", "--n", "20"], "input = data.csv"),
                (["simulate", "--kind", "hetero", "--n", "20"], "max-iter = 9")]):
            cfg = tmp_path / f"run{i}.cfg"
            cfg.write_text(line + "\n")
            key = line.split("=")[0].strip().replace("-", "_")
            assert main(task + ["--config", str(cfg),
                                "--output-dir", str(tmp_path / f"x{i}")]) == EXIT_INPUT
            assert capsys.readouterr().err \
                == f"error: {task[0]} does not read config key {key!r}\n"

    def test_cli_overrides_config_file(self, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "hetero", "--n", "80", "--seed", "1",
              "--output-dir", str(sim)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alpha = 0.5\nseed = 3\ninput = {sim / 'data.csv'}\n"
                       f"max-iter = 200\n")
        out = tmp_path / "fit"
        assert main(["fit-quantile", "--config", str(cfg), "--alpha", "0.8",
                     "--output-dir", str(out)]) == EXIT_OK
        diag = read_diagnostics(out / "diagnostics.txt")
        assert float(diag["alpha"]) == 0.8  # flag beats file
        assert int(diag["seed"]) == 3       # file beats default


class TestArtifactTables:
    def test_columns_write_the_bytes_of_the_per_cell_form(self, tmp_path):
        # a float64 array column is formatted in one pass; every other
        # column, and every cell before, goes through _fmt one by one
        from gsda.cli import _write_table
        from gsda.datasets import format_cell
        edge = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
                         0.1, -2.5e-7])
        single = np.array([-0.0, np.nan, np.inf, -np.inf, 1e-45, 3.4e38, 0.1, -2.5e-7],
                          dtype=np.float32)
        columns = [edge, edge[::-1], list(edge), [np.float64(v) for v in edge], single,
                   np.array([True, False] * 4), [np.bool_(i % 3 == 0) for i in range(8)],
                   [True, False] * 4, np.arange(-3, 5), list(range(8)),
                   ["a", "b c", "", "nan", "x", "y", "z", "-0"]]
        header = [f"c{i}" for i in range(len(columns))]
        _write_table(tmp_path / "t.csv", header, columns)
        want = ",".join(header) + "\n" + "".join(
            ",".join(format_cell(v) for v in row) + "\n" for row in zip(*columns))
        assert (tmp_path / "t.csv").read_bytes() == want.encode()

    def test_cells_and_names_with_commas_quotes_or_breaks_are_quoted(self, tmp_path):
        from gsda.cli import _write_table
        header = ["a,b", 'q"', "x"]
        columns = [["1,2", 'say "hi"', "c\nd"], np.array([0.5, 1.0, -0.0]), ["p", "q r", "s\rt"]]
        _write_table(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == (
            b'"a,b","q""",x\n"1,2",0.5,p\n"say ""hi""",1,q r\n"c\nd",-0,"s\rt"\n')
        assert read_table(tmp_path / "t.csv") == (header, [
            ["1,2", "0.5", "p"], ['say "hi"', "1", "q r"], ["c\nd", "-0", "s\rt"]])

    def test_fit_with_commas_and_quotes_in_labels_and_names(self, tmp_path):
        # every table parses into rows of its header's length, fitted.csv
        # loads back to the input, and each label keeps one diagnostics line
        from gsda.datasets import load_csv
        rng = np.random.default_rng(5)
        labels = np.array(["south", "north, upper", 'say "hi"', "a=b"])[np.arange(60) % 4]
        w = rng.uniform(0.0, 1.0, 60)
        y = w + rng.standard_normal(60)
        data = tmp_path / "in.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows([["y", "w,1", "site"], *zip(y, w, labels)])
        out = tmp_path / "fit"
        assert main(["fit-quantile", "--input", str(data), "--smoother", "w,1=linear",
                     "--smoother", "site=cell_factor", "--max-iter", "40",
                     "--output-dir", str(out)]) in (EXIT_OK, EXIT_NONCONVERGED)
        for name in ("fitted.csv", "decomposition.csv", "trace.csv"):
            header, rows = read_table(out / name)
            assert rows and {len(row) for row in rows} == {len(header)}, name
        assert read_table(out / "fitted.csv")[0] == ["y", "w,1", "site", "q0.9"]
        assert read_table(out / "decomposition.csv")[0] \
            == ["intercept", "component.w,1", "component.site"]
        fitted = load_csv(out / "fitted.csv", "y", ["site"])
        assert fitted.columns == ["w,1", "site", "q0.9"]
        assert fitted.y.tolist() == y.tolist() and fitted.column("w,1").tolist() == w.tolist()
        assert fitted.labels("site").tolist() == labels.tolist()
        diag = read_diagnostics(out / "diagnostics.txt")
        for label in set(labels):
            assert 0.0 <= float(diag[f"coverage[site|{label}]"]) <= 1.0


class TestParserPerTask:
    """A run naming its task builds that task's parser alone; its help,
    errors and parsed arguments are those of the parser of every task."""

    @staticmethod
    def outcome(parse, argv, capsys):
        capsys.readouterr()
        try:
            result = vars(parse(argv))
        except SystemExit as exc:  # --help
            result = f"exit {exc.code}"
        except InvalidInput as exc:
            result = f"InvalidInput: {exc}"
        return result, capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["fit-pot", "--help"], ["minimize", "-h"], ["simulate", "--kind"],
        ["simulate", "--n", "2", "--bogus", "1"], ["fit-quantile", "minimize"],
        ["--help"], [], ["bogus"], ["--config", "x", "fit-pot"], ["minimize", "--x0", "1,2"]])
    def test_help_and_errors_match_the_full_parser(self, argv, capsys):
        from gsda.cli import build_parser
        one = self.outcome(lambda a: build_parser(a[0] if a else None).parse_args(a),
                           argv, capsys)
        every = self.outcome(lambda a: build_parser().parse_args(a), argv, capsys)
        assert one == every

    def test_a_named_task_builds_its_parser_alone(self):
        from gsda.cli import build_parser
        assert build_parser("minimize").parse_args(["minimize"]).task == "minimize"
        with pytest.raises(InvalidInput, match="invalid choice: 'fit-pot'"):
            build_parser("minimize").parse_args(["fit-pot"])
