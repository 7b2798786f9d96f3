"""Command-line surface: validation, outputs, determinism, exit codes."""

import argparse
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import torusmf
from torusmf import make_spec, read_field, write_field
from torusmf.cli import _finite, _positive, build_parser, main

from conftest import run_fresh, smooth_field


def cli(tmp_path, command, *flags) -> int:
    return main([command, "--outdir", str(tmp_path), *flags])


def test_no_command_loads_scipy(tmp_path):
    # numpy is the only runtime dependency: all eight commands run in one
    # fresh interpreter, and no scipy module (nor numpy.polynomial, before
    # the first radial integral) is loaded
    out = str(tmp_path)
    commands = [["constants", "--m", "1"],
                ["bubble", "--sigma-list", "1e2,1e3,1e4"],
                ["mp", "--n", "16", "--lambda", "14"],
                ["continue", "--n", "16", "--lambda-start", "14", "--lambda-end", "13.5"],
                ["quant", "--field", out + "/mp/maximizer.pbfld", "--lambda", "14"],
                ["sweep", "--n", "16", "--lambda-grid", "14,15"],
                ["green", "--n", "32"],
                ["nonexist", "--m", "1", "--n", "8", "--n-seeds", "4"]]
    code = ("import sys\n"
            "from torusmf.cli import main\n"
            "print('numpy.polynomial' in sys.modules)\n"
            f"for argv in {commands!r}:\n"
            f"    assert main(argv + ['--outdir', {out!r}]) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    lines = run_fresh(code).splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "[]"


class TestParser:
    @staticmethod
    def types_by_command() -> dict[str, dict[str, object]]:
        """Each command's flags with the type argparse converts them by."""
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        return {name: {flag: action.type for action in sub._actions
                       for flag in action.option_strings if flag not in ("-h", "--help")}
                for name, sub in subparsers.choices.items()}

    @classmethod
    def flags_by_command(cls) -> dict[str, set[str]]:
        return {name: set(types) for name, types in cls.types_by_command().items()}

    def test_flags_of_each_command(self):
        # every command takes only the flags it reads (mp accepts --seed for
        # bench/worker.py): a new knob has to edit this table
        common = {"--config", "--outdir"}
        flags = self.flags_by_command()
        assert flags == {
            "constants": common | {"--m"},
            "bubble": common | {"--m", "--lambda", "--sigma-list", "--alpha"},
            "mp": common | {"--seed", "--tol", "--m", "--n", "--lambda"},
            "continue": common | {"--tol", "--m", "--n", "--lambda-start", "--lambda-end",
                                  "--dlambda0", "--blowup-cap"},
            "quant": common | {"--field", "--lambda"},
            "sweep": common | {"--tol", "--m", "--n", "--lambda-grid"},
            "green": common | {"--m", "--n", "--base"},
            "nonexist": common | {"--seed", "--tol", "--m", "--n", "--lambda-grid",
                                  "--n-seeds", "--jobs"},
        }
        assert sum(len(f) for f in flags.values()) == 49

    def test_float_flags_refuse_non_finite_values(self):
        # a float flag converts through _finite, or _positive, which calls it:
        # a new knob with type=float fails here
        types = {(name, flag): kind for name, by_flag in self.types_by_command().items()
                 for flag, kind in by_flag.items()}
        assert set(types.values()) == {None, int, _finite, _positive}
        assert {key for key, kind in types.items() if kind is _positive} == {
            ("mp", "--tol"), ("continue", "--tol"), ("sweep", "--tol"), ("nonexist", "--tol"),
            ("continue", "--dlambda0"), ("continue", "--blowup-cap")}

    @pytest.mark.parametrize("argv", [
        ["mp", "--lambda", "inf"],
        ["mp", "--lambda", "nan"],
        ["sweep", "--lambda-grid", "14,inf"],
        ["nonexist", "--lambda-grid", "0.5,nan"],
        ["bubble", "--lambda", "inf"],
        ["bubble", "--sigma-list", "1e2,1e3,inf"],
        ["mp", "--n", "32", "--lambda", "14", "--tol", "0"],
        ["mp", "--n", "32", "--lambda", "14", "--tol", "-1"],
        ["mp", "--n", "32", "--lambda", "14", "--tol", "nan"],
        ["continue", "--lambda-start", "14", "--lambda-end", "13", "--blowup-cap", "nan"],
        ["continue", "--lambda-start", "14", "--lambda-end", "13", "--dlambda0", "inf"],
    ], ids=shlex.join)
    def test_non_finite_or_non_positive_number_rejected(self, tmp_path, capsys, argv):
        try:
            rc = cli(tmp_path, *argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert "finite" in err or "positive" in err
        assert not (tmp_path / argv[0]).exists()

    def test_readme_commands_parse(self):
        # README's "Command line" block shows every subcommand, with live flags only
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        argvs = [shlex.split(line)[1:] for line in block.splitlines()
                 if line.startswith("torusmf ")]
        assert {argv[0] for argv in argvs} == set(self.flags_by_command())
        for argv in argvs:
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv,flag", [
        pytest.param(["constants", "--m", "1"], "--seed", id="--seed"),
        pytest.param(["constants", "--m", "1"], "--tol", id="--tol"),
        # the locator's step cap is fixed: there is no sweep count to set
        pytest.param(["mp", "--n", "16", "--lambda", "14"], "--max-sweeps",
                     id="mp/--max-sweeps"),
        pytest.param(["continue", "--n", "16", "--lambda-start", "14", "--lambda-end", "13"],
                     "--max-sweeps", id="continue/--max-sweeps"),
        pytest.param(["sweep", "--n", "16", "--lambda-grid", "14"], "--sweeps-per-lambda",
                     id="sweep/--sweeps-per-lambda"),
    ])
    def test_unread_option_rejected(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli(tmp_path, *argv, flag, "1")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not (tmp_path / argv[0]).exists()


class TestConstantsCmd:
    def test_writes_summary(self, tmp_path, capsys):
        rc = cli(tmp_path, "constants", "--m", "1")
        assert rc == 0
        out = capsys.readouterr().out
        assert "12.566370614359172" in out
        summary = (tmp_path / "constants" / "summary.csv").read_text()
        assert summary.splitlines()[0].startswith("m,Lambda1")
        assert (tmp_path / "constants" / "config.echo").exists()

    def test_bad_order_is_validation_error(self, tmp_path):
        assert cli(tmp_path, "constants", "--m", "3") == 2


class TestBubbleCmd:
    def test_supercritical_slope_negative(self, tmp_path, capsys):
        rc = cli(tmp_path, "bubble", "--m", "1", "--lambda", "14",
                 "--sigma-list", "1e2,1e3,1e4")
        assert rc == 0
        rows = (tmp_path / "bubble" / "family.csv").read_text().splitlines()
        assert rows[0] == "sigma,norm_sq,energy,log_mass"
        assert len(rows) == 4
        summary = (tmp_path / "bubble" / "summary.csv").read_text().splitlines()
        values = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert float(values["energy_slope"]) < 0.0

    def test_short_list_rejected(self, tmp_path):
        assert cli(tmp_path, "bubble", "--sigma-list", "10,20") == 2

    def test_quadrature_failure_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # with no tolerance every radial integral's two orders disagree
        monkeypatch.setattr(torusmf.bubble, "_QUAD_RTOL", 0.0)
        rc = cli(tmp_path, "bubble", "--sigma-list", "1e2,1e3,1e4")
        assert rc == 3
        assert "numerical failure: radial quadrature" in capsys.readouterr().err


class TestMpCmd:
    def test_solution_dump(self, tmp_path):
        rc = cli(tmp_path, "mp", "--m", "1", "--n", "32", "--lambda", "14",
                 "--tol", "1e-8")
        assert rc == 0
        field = read_field(tmp_path / "mp" / "maximizer.pbfld")
        assert field.spec == make_spec(1, 32)
        assert float(np.max(np.abs(field.values))) > 0.1
        summary = (tmp_path / "mp" / "summary.csv").read_text().splitlines()
        values = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert values["converged"] == "true"
        assert float(values["c_estimate"]) > 0.0
        assert values["path_origin"] == "saddle"
        assert values["c_estimate"] == values["energy"]
        assert summary[0].split(",")[-1] == "unstable_eigenvalue"
        assert float(values["unstable_eigenvalue"]) < 0.0

    def test_run_loads_no_sparse_module(self, tmp_path):
        # the pass through the polished saddle needs no ARPACK run, which
        # would import scipy.sparse.linalg
        code = ("import sys\n"
                "from torusmf.cli import main\n"
                "for lam in ('14', '19'):\n"
                "    assert main(['mp', '--m', '1', '--n', '64', '--lambda', lam, '--tol', '1e-10',\n"
                f"                 '--outdir', {str(tmp_path / 'out')!r} + lam]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n")
        assert run_fresh(code).splitlines()[-1] == "[]"

    def test_failed_polish_exits_3_with_the_captured_path(self, tmp_path, monkeypatch):
        failed = []

        def no_solve(guess, lam, **kwargs):
            failed.append(torusmf.SolveResult(
                field=guess, lam=lam, residual_l2=1.0, grad_norm=1.0,
                energy=torusmf.energy_value(guess, lam), iterations=0, converged=False))
            return failed[-1]

        monkeypatch.setattr(torusmf.mountainpass, "newton_solve", no_solve)
        rc = cli(tmp_path, "mp", "--m", "1", "--n", "32", "--lambda", "14", "--tol", "1e-8")
        assert rc == 3
        assert len(failed) == 1
        summary = (tmp_path / "mp" / "summary.csv").read_text().splitlines()
        values = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert (values["converged"], values["path_origin"], values["sweeps"]) == (
            "false", "located", "2")
        assert math.isnan(float(values["unstable_eigenvalue"]))
        field = read_field(tmp_path / "mp" / "maximizer.pbfld")
        assert np.array_equal(field.values, failed[0].field.values)

    def test_quantum_multiple_rejected(self, tmp_path):
        rc = cli(tmp_path, "mp", "--n", "32", "--lambda", repr(4 * math.pi))
        assert rc == 2

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli(out, "mp", "--m", "1", "--n", "32", "--lambda", "14",
                       "--tol", "1e-8") == 0
        for name in ("summary.csv", "maximizer.pbfld"):
            assert (a / "mp" / name).read_bytes() == (b / "mp" / name).read_bytes()


class TestContinueCmd:
    def test_branch_csv(self, tmp_path):
        rc = cli(tmp_path, "continue", "--m", "1", "--n", "32",
                 "--lambda-start", "14", "--lambda-end", "16",
                 "--dlambda0", "1.0", "--tol", "1e-8")
        assert rc == 0
        rows = (tmp_path / "continue" / "branch.csv").read_text().splitlines()
        assert rows[0] == "lambda,norm,max_abs_u,energy,residual_l2"
        assert len(rows) >= 3

    def test_negative_end_rejected_before_the_pass(self, tmp_path, monkeypatch, capsys):
        # argparse takes "-1e3" after a space for an option, so an exponent
        # form needs "="
        monkeypatch.setattr(torusmf.mountainpass, "mountain_pass", None)
        for end in (["--lambda-end", "-1"], ["--lambda-end=-1e3"]):
            rc = cli(tmp_path, "continue", "--n", "32", "--lambda-start", "14", *end)
            assert rc == 2
            assert "lam_end must be nonnegative" in capsys.readouterr().err
            assert not (tmp_path / "continue").exists()


    def test_newton_failure_exits_3(self, tmp_path, monkeypatch):
        # the pass converges, then every continuation solve fails
        def no_solve(guess, lam, tol):
            return torusmf.SolveResult(field=guess, lam=lam, residual_l2=1.0, grad_norm=1.0,
                                       energy=0.0, iterations=0, converged=False)

        monkeypatch.setattr(torusmf.solver, "newton_solve", no_solve)
        rc = cli(tmp_path, "continue", "--m", "1", "--n", "16", "--lambda-start", "14",
                 "--lambda-end", "16", "--tol", "1e-8")
        assert rc == 3
        summary = (tmp_path / "continue" / "summary.csv").read_text().splitlines()
        assert summary[1].split(",")[:2] == ["newton_failure", "1"]
        assert not (tmp_path / "continue" / "mass_curve.csv").exists()

    def test_blow_up_writes_the_quantization(self, tmp_path):
        # the first step's max|u| is above a cap of 0.1: the branch ends
        # "blow_up" there, and its endpoint's mass curve is written
        rc = cli(tmp_path, "continue", "--m", "1", "--n", "16", "--lambda-start", "14",
                 "--lambda-end", "16", "--blowup-cap", "0.1", "--tol", "1e-8")
        assert rc == 0
        out = tmp_path / "continue"
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1].split(",")[:2] == ["blow_up", "2"]
        curve = (out / "mass_curve.csv").read_text().splitlines()
        assert curve[0] == "radius,mass" and len(curve) > 2
        quant = (out / "quant_summary.csv").read_text().splitlines()
        assert quant[0] == "lambda,plateau_mass,nearest_N,deviation,peak_height,center"
        assert float(quant[1].split(",")[0]) == float(summary[1].split(",")[2])


class TestQuantCmd:
    def test_round_trip(self, tmp_path):
        spec = make_spec(1, 32)
        f = smooth_field(spec, 5, norm=2.0)
        path = tmp_path / "field.pbfld"
        write_field(path, f)
        rc = cli(tmp_path, "quant", "--field", str(path), "--lambda", "7.0")
        assert rc == 0
        curve = (tmp_path / "quant" / "mass_curve.csv").read_text().splitlines()
        assert curve[0] == "radius,mass"
        last_mass = float(curve[-1].split(",")[1])
        assert last_mass == pytest.approx(7.0, abs=1e-12)

    def test_missing_file(self, tmp_path):
        rc = cli(tmp_path, "quant", "--field", str(tmp_path / "nope.pbfld"),
                 "--lambda", "7.0")
        assert rc == 2


class TestNonexistCmd:
    def test_sweep(self, tmp_path):
        rc = cli(tmp_path, "nonexist", "--m", "1", "--n", "32",
                 "--lambda-grid", "0.5,1.0", "--n-seeds", "6", "--jobs", "2")
        assert rc == 0
        summary = (tmp_path / "nonexist" / "summary.csv").read_text().splitlines()
        values = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert values["all_trivial"] == "true"

    def test_out_of_regime(self, tmp_path):
        rc = cli(tmp_path, "nonexist", "--n", "32", "--lambda-grid", "2.5")
        assert rc == 2

    def test_violated_invariant_is_numerical_failure(self, tmp_path, capsys):
        # --tol 1e6 accepts every guess as a root, and the pairing identity
        # ||u||^2 = lam * <W, u> then fails: ArithmeticError exits 3, not a traceback
        rc = cli(tmp_path, "nonexist", "--m", "1", "--n", "16", "--tol", "1e6")
        assert rc == 3
        assert "numerical failure: solution identity violated" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        rc = cli(tmp_path, "nonexist", "--n", "16", "--lambda-grid", "0.5",
                 "--n-seeds", "2", "--jobs", jobs)
        assert rc == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "nonexist").exists()

    def test_jobs_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, jobs in ((a, "1"), (b, "3")):
            assert cli(out, "nonexist", "--n", "32", "--lambda-grid", "0.5",
                       "--n-seeds", "6", "--jobs", jobs) == 0
        assert (a / "nonexist" / "sweep.csv").read_bytes() == \
            (b / "nonexist" / "sweep.csv").read_bytes()


class TestSweepCmd:
    def test_levels_csv(self, tmp_path):
        rc = cli(tmp_path, "sweep", "--n", "32", "--lambda-grid", "14,16", "--tol", "1e-8")
        assert rc == 0
        rows = (tmp_path / "sweep" / "levels.csv").read_text().splitlines()
        assert rows[0] == ("lambda,c_estimate,grad_norm,sweeps,energy,path_origin,"
                           "anchor_min_energy,anchor_failed_floor")
        assert len(rows) == 3
        assert [r.split(",")[5:] for r in rows[1:]] == [["saddle", "-1", "nan"]] * 2
        cs = [float(r.split(",")[1]) for r in rows[1:]]
        assert cs[0] > cs[1] > 0
        assert all(float(r.split(",")[4]) > 0 for r in rows[1:])
        summary = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
        assert summary == ["monotonicity_violations,slack", "0,0.02"]


    def test_unpolished_level_exits_3(self, tmp_path, monkeypatch, capsys):
        def no_solve(guess, lam, **kwargs):
            return torusmf.SolveResult(field=guess, lam=lam, residual_l2=1.0, grad_norm=1.0,
                                       energy=torusmf.energy_value(guess, lam), iterations=0,
                                       converged=False)

        monkeypatch.setattr(torusmf.mountainpass, "newton_solve", no_solve)
        rc = cli(tmp_path, "sweep", "--n", "16", "--lambda-grid", "14,16", "--tol", "1e-8")
        assert rc == 3
        assert "some levels did not polish" in capsys.readouterr().err
        rows = (tmp_path / "sweep" / "levels.csv").read_text().splitlines()
        assert [r.split(",")[5] for r in rows[1:]] == ["located", "located"]


class TestGreenCmd:
    def test_summary_and_dump(self, tmp_path):
        rc = cli(tmp_path, "green", "--m", "1", "--n", "256")
        assert rc == 0
        summary = (tmp_path / "green" / "summary.csv").read_text().splitlines()
        values = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert float(values["log_coefficient"]) == pytest.approx(
            float(values["target"]), rel=0.05)
        g = read_field(tmp_path / "green" / "green.pbfld")
        assert g.spec == make_spec(1, 256)


class TestConfigFile:
    def test_config_provides_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 1\nlambda = 14\nsigma-list = 1e2,1e3,1e4\n")
        rc = cli(tmp_path, "bubble", "--config", str(cfg))
        assert rc == 0
        echo = (tmp_path / "bubble" / "config.echo").read_text()
        assert "lam = 14" in echo

    def test_config_with_equals_sign(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 14\n")
        assert cli(tmp_path, "bubble", f"--config={cfg}") == 0
        assert "lam = 14" in (tmp_path / "bubble" / "config.echo").read_text().splitlines()

    @pytest.mark.parametrize("flag,value", [("--conf", "run.cfg"), ("--out", "out")],
                             ids=["--conf", "--out"])
    def test_abbreviated_flag_rejected(self, tmp_path, monkeypatch, capsys, flag, value):
        # argparse would take --conf for --config, which only _expand_config reads
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("TORUSMF_OUTDIR", raising=False)
        (tmp_path / "run.cfg").write_text("lambda = 14\n")
        with pytest.raises(SystemExit) as exc:
            main(["bubble", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not list(tmp_path.rglob("bubble"))

    def test_old_echo_with_sweep_bound_rejected(self, tmp_path, capsys):
        # config.echo of a version with --max-sweeps: the line must go to replay it
        cfg = tmp_path / "config.echo"
        cfg.write_text("command = mp\nlam = 14.0\nmax_sweeps = 400\nn = 16\n")
        with pytest.raises(SystemExit) as exc:
            main(["mp", "--config", str(cfg), "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-sweeps 400" in capsys.readouterr().err
        assert not (tmp_path / "mp").exists()

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 3\n")
        rc = cli(tmp_path, "constants", "--config", str(cfg), "--m", "2")
        assert rc == 0

    @pytest.mark.parametrize("command,flags", [
        ("constants", ["--m", "2"]),
        ("bubble", ["--lambda", "14", "--sigma-list", "1e2,1e3,1e4"]),
        ("quant", ["--lambda", "7.0"]),
        ("nonexist", ["--n", "16", "--lambda-grid", "0.5", "--n-seeds", "2"]),
        ("green", ["--n", "64", "--base", "3,5"]),
    ])
    def test_echo_round_trips(self, tmp_path, command, flags):
        if command == "quant":
            write_field(tmp_path / "f.pbfld", smooth_field(make_spec(1, 16), 5))
            flags = flags + ["--field", str(tmp_path / "f.pbfld")]
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli(first, command, *flags) == 0
        echo = first / command / "config.echo"
        assert main([command, "--config", str(echo), "--outdir", str(second)]) == 0

        def lines(out):
            text = (out / command / "config.echo").read_text().splitlines()
            return [line for line in text if not line.startswith("outdir =")]

        assert lines(second) == lines(first)

    def test_unset_outdir_in_echo_stays_unset(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TORUSMF_OUTDIR", str(tmp_path / "env"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = constants\nm = 1\noutdir = None\n")
        assert main(["constants", "--config", str(cfg)]) == 0
        assert (tmp_path / "env" / "constants" / "summary.csv").exists()
        assert not (tmp_path / "None").exists()

    def test_jobs_defaults_to_one(self, tmp_path):
        assert cli(tmp_path, "nonexist", "--n", "16", "--lambda-grid", "0.5",
                   "--n-seeds", "2") == 0
        assert "jobs = 1" in (tmp_path / "nonexist" / "config.echo").read_text().splitlines()

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just nonsense\n")
        assert cli(tmp_path, "constants", "--config", str(cfg), "--m", "1") == 2
