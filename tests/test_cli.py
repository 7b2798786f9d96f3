"""Command-line surface: validation, outputs, determinism, exit codes."""

import argparse
import math

import numpy as np
import pytest

from torusmf import make_spec, read_field, write_field
from torusmf.cli import build_parser, main

from conftest import smooth_field


def cli(tmp_path, command, *flags) -> int:
    return main([command, "--outdir", str(tmp_path), *flags])


class TestParser:
    @staticmethod
    def flags_by_command() -> dict[str, set[str]]:
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        return {name: {flag for action in sub._actions for flag in action.option_strings
                       if flag not in ("-h", "--help")}
                for name, sub in subparsers.choices.items()}

    def test_seed_and_tol_only_where_read(self):
        flags = self.flags_by_command()
        assert {c for c, f in flags.items() if "--seed" in f} == {"mp", "nonexist"}
        assert {c for c, f in flags.items() if "--tol" in f} == {
            "mp", "continue", "sweep", "nonexist"}

    @pytest.mark.parametrize("flag", ["--seed", "--tol"])
    def test_unread_option_rejected(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            cli(tmp_path, "constants", "--m", "1", flag, "1")
        assert exc.value.code == 2
        assert not (tmp_path / "constants").exists()


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


class TestMpCmd:
    def test_solution_dump(self, tmp_path):
        rc = cli(tmp_path, "mp", "--m", "1", "--n", "32", "--lambda", "14",
                 "--tol", "1e-8", "--max-sweeps", "200")
        assert rc == 0
        field = read_field(tmp_path / "mp" / "maximizer.pbfld")
        assert field.spec == make_spec(1, 32)
        assert float(np.max(np.abs(field.values))) > 0.1
        summary = (tmp_path / "mp" / "summary.csv").read_text().splitlines()
        values = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert values["converged"] == "true"
        assert float(values["c_estimate"]) > 0.0

    def test_zero_sweeps_rejected(self, tmp_path):
        rc = cli(tmp_path, "mp", "--n", "32", "--lambda", "14", "--max-sweeps", "0")
        assert rc == 2
        assert not (tmp_path / "mp").exists()

    def test_quantum_multiple_rejected(self, tmp_path):
        rc = cli(tmp_path, "mp", "--n", "32", "--lambda", repr(4 * math.pi))
        assert rc == 2

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli(out, "mp", "--m", "1", "--n", "32", "--lambda", "14",
                       "--tol", "1e-8", "--max-sweeps", "200") == 0
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

    def test_jobs_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, jobs in ((a, "1"), (b, "3")):
            assert cli(out, "nonexist", "--n", "32", "--lambda-grid", "0.5",
                       "--n-seeds", "6", "--jobs", jobs) == 0
        assert (a / "nonexist" / "sweep.csv").read_bytes() == \
            (b / "nonexist" / "sweep.csv").read_bytes()


class TestSweepCmd:
    def test_levels_csv(self, tmp_path):
        rc = cli(tmp_path, "sweep", "--n", "32", "--lambda-grid", "14,16",
                 "--sweeps-per-lambda", "30", "--tol", "1e-8")
        assert rc == 0
        rows = (tmp_path / "sweep" / "levels.csv").read_text().splitlines()
        assert rows[0] == "lambda,c_estimate,grad_norm,sweeps,energy"
        assert len(rows) == 3
        cs = [float(r.split(",")[1]) for r in rows[1:]]
        assert cs[0] > cs[1] > 0
        assert all(float(r.split(",")[4]) > 0 for r in rows[1:])
        summary = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
        assert summary[0] == ("monotonicity_violations,slack,anchor_min_energy,"
                              "anchor_failed_floor")
        assert summary[1].split(",")[2:] == ["-1", "nan"]


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
