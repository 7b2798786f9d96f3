"""Command-line delivery: validated configs, deterministic CSV reports, dumps.

Subcommands
    constants   closed-form spectral thresholds
    bubble      growth rates of the concentrating family (CSV table + slopes)
    mp          mountain-pass search plus Newton polish (field dump + summary)
    continue    natural-parameter continuation (branch CSV, quantization on blow-up)
    quant       concentration analysis of a stored field
    sweep       pass-level estimates over a lambda grid (monotonicity check)
    green       discrete Green kernel and its fitted log coefficient
    nonexist    small-lam multistart sweep (uniqueness check)

Every command writes config.echo and summary.csv into its output directory
and exits 0 on success, 2 on validation errors, 3 on numerical failure.
Floats are printed with 17 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bubble as _bubble
from . import diagnostics as _diagnostics
from . import mountainpass as _mountainpass
from . import solver as _solver
from .errors import ConvergenceError, QuadratureError
from .field import make_spec, read_field, sobolev_norm_sq, write_field
from .functional import constants

_FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def _prepare_outdir(args) -> Path:
    """<outdir>/<subcommand>, created, with the parsed arguments echoed to config.echo."""
    base = args.outdir or os.environ.get("TORUSMF_OUTDIR", "torusmf-out")
    out = Path(base) / args.command
    out.mkdir(parents=True, exist_ok=True)
    echo = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")}
    lines = [f"{k} = {_fmt(v)}" for k, v in echo.items()]
    (out / "config.echo").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return out


def _parse_float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise ValueError("empty list")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite entry in {text!r}")
    return values


def _finite(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"want a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    """_finite, and above 0: tolerances, steps and caps."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"want a positive number, got {text!r}")
    return value


def _expand_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Splice `key = value` lines from --config PATH (or --config=PATH) in as flags.

    A key is a flag name without dashes (`lambda`) or a dest as config.echo
    records it (`lam`); the echoed `command` and `None` (unset) values are
    skipped.  Explicit command-line flags still win because argparse keeps
    the last occurrence of a repeated option.
    """
    idx = next((i for i, arg in enumerate(argv) if arg.split("=", 1)[0] == "--config"), None)
    if idx is None:
        return argv
    _, inline, path = argv[idx].partition("=")
    if not inline:
        path = argv[idx + 1] if idx + 1 < len(argv) else ""
    if not path:
        raise ValueError("--config requires a path")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dest_flags = {a.dest: a.option_strings[-1] for sub in subparsers.choices.values()
                  for a in sub._actions if a.option_strings}
    flags: list[str] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key = value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "command" or value == "None":
            continue
        flags.extend([dest_flags.get(key, f"--{key.replace('_', '-')}"), value])
    rest = argv[:idx] + argv[idx + (1 if inline else 2):]
    if not rest:
        raise ValueError("--config needs a subcommand")
    return rest[:1] + flags + rest[1:]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_constants(args) -> int:
    cst = constants(int(args.m))
    out = _prepare_outdir(args)
    header = ["m", "Lambda1", "lambda1", "threshold_low", "threshold_high", "poincare_Cm"]
    row = (cst.m, cst.Lambda1, cst.lambda1, cst.threshold_low, cst.threshold_high, cst.poincare_Cm)
    _write_csv(out / "summary.csv", header, [row])
    for name, value in zip(header, row):
        print(f"{name} = {_fmt(value)}")
    return 0


def cmd_bubble(args) -> int:
    sigmas = _parse_float_list(args.sigma_list)
    report = _bubble.bubble_asymptotics(sigmas, float(args.lam), int(args.m),
                                        alpha=float(args.alpha))
    out = _prepare_outdir(args)
    rows = [
        (s, nsq, e, lm)
        for s, nsq, e, lm in zip(report.sigmas, report.norms_sq, report.energies,
                                 report.log_masses)
    ]
    _write_csv(out / "family.csv", ["sigma", "norm_sq", "energy", "log_mass"], rows)
    _write_csv(out / "summary.csv",
               ["m", "lambda", "alpha", "norm_slope", "norm_target",
                "energy_slope", "energy_target"],
               [(report.m, report.lam, report.alpha, report.norm_slope,
                 report.norm_target, report.energy_slope, report.energy_target)])
    print(f"norm_sq slope  {report.norm_slope:.6f}  (target {report.norm_target:.6f})")
    print(f"energy slope   {report.energy_slope:.6f}  (target {report.energy_target:.6f})")
    return 0


def cmd_mp(args) -> int:
    spec = make_spec(int(args.m), int(args.n))
    result = _mountainpass.mountain_pass(float(args.lam), spec, tol=float(args.tol))
    out = _prepare_outdir(args)
    solve = result.solve
    _write_csv(out / "summary.csv",
               ["lambda", "c_estimate", "grad_norm", "sweeps", "converged",
                "residual_l2", "energy", "norm", "anchor_min_energy", "anchor_failed_floor",
                "path_origin", "unstable_eigenvalue"],
               [(solve.lam, result.c_estimate, solve.grad_norm, result.iterations,
                 result.converged, solve.residual_l2, solve.energy,
                 math.sqrt(sobolev_norm_sq(solve.field)), result.anchor_min_energy,
                 result.anchor_failed_floor, result.path_origin, result.unstable_eigenvalue)])
    write_field(out / "maximizer.pbfld", solve.field)
    print(f"c_estimate = {result.c_estimate:.8f}  converged = {result.converged}")
    if not result.converged:
        print("mountain pass did not converge", file=sys.stderr)
        return 3
    return 0


def cmd_continue(args) -> int:
    spec = make_spec(int(args.m), int(args.n))
    lam_start = float(args.lam_start)
    _solver._check_branch_request(float(args.lam_end), float(args.dlambda0))
    start_mp = _mountainpass.mountain_pass(lam_start, spec, tol=float(args.tol))
    if not start_mp.converged:
        print("no converged starting solution", file=sys.stderr)
        return 3
    branch = _solver.continuation(start_mp.solve, float(args.lam_end),
                                  float(args.dlambda0),
                                  blowup_cap=float(args.blowup_cap),
                                  tol=float(args.tol))
    out = _prepare_outdir(args)
    rows = [
        (r.lam, math.sqrt(sobolev_norm_sq(r.field)), float(np.max(np.abs(r.field.values))),
         r.energy, r.residual_l2)
        for r in branch.results
    ]
    _write_csv(out / "branch.csv", ["lambda", "norm", "max_abs_u", "energy", "residual_l2"], rows)
    _write_csv(out / "summary.csv", ["termination", "steps", "lambda_last"],
               [(branch.termination, len(branch.results), branch.results[-1].lam)])
    last = branch.results[-1]
    write_field(out / "endpoint.pbfld", last.field)
    print(f"branch: {len(branch.results)} solutions, termination = {branch.termination}")
    if branch.termination == "blow_up":
        quant = _diagnostics.concentration(last.field, last.lam)
        _write_quant(out, quant)
        print(f"blow-up endpoint quantization: N = {quant.nearest_N}")
    if branch.termination == "newton_failure":
        return 3
    return 0


def _write_quant(out: Path, quant) -> None:
    _write_csv(out / "mass_curve.csv", ["radius", "mass"],
               list(zip(quant.radii, quant.mass)))
    _write_csv(out / "quant_summary.csv",
               ["lambda", "plateau_mass", "nearest_N", "deviation",
                "peak_height", "center"],
               [(quant.lam, quant.plateau_mass, quant.nearest_N, quant.deviation,
                 quant.peak_height, " ".join(str(c) for c in quant.center))])


def cmd_quant(args) -> int:
    field = read_field(args.field)
    quant = _diagnostics.concentration(field, float(args.lam))
    out = _prepare_outdir(args)
    _write_quant(out, quant)
    _write_csv(out / "summary.csv",
               ["lambda", "plateau_mass", "nearest_N", "deviation"],
               [(quant.lam, quant.plateau_mass, quant.nearest_N, quant.deviation)])
    print(f"plateau mass = {quant.plateau_mass:.6f}, nearest N = {quant.nearest_N}")
    return 0


def cmd_sweep(args) -> int:
    spec = make_spec(int(args.m), int(args.n))
    lams = _parse_float_list(args.lambda_grid)
    report = _mountainpass.level_sweep(lams, spec, tol=float(args.tol))
    out = _prepare_outdir(args)
    rows = [(r.lam, r.c_estimate, r.grad_norm, r.sweeps, r.energy, r.path_origin,
             r.anchor_min_energy, r.anchor_failed_floor)
            for r in report.rows]
    _write_csv(out / "levels.csv",
               ["lambda", "c_estimate", "grad_norm", "sweeps", "energy", "path_origin",
                "anchor_min_energy", "anchor_failed_floor"], rows)
    _write_csv(out / "summary.csv", ["monotonicity_violations", "slack"],
               [(report.monotonicity_violations, report.slack)])
    print(f"{len(rows)} levels, {report.monotonicity_violations} monotonicity "
          f"violations at {report.slack:.0%} slack")
    if any(not r.converged for r in report.rows):
        print("some levels did not polish to a solution", file=sys.stderr)
        return 3
    return 0


def cmd_green(args) -> int:
    spec = make_spec(int(args.m), int(args.n))
    base = tuple(int(tok) for tok in args.base.replace(",", " ").split()) if args.base \
        else (0,) * spec.dim
    g = _diagnostics.green_field(spec, base)
    cst = constants(spec.m)
    out = _prepare_outdir(args)
    _write_csv(out / "summary.csv",
               ["m", "n", "log_coefficient", "target", "base"],
               [(spec.m, spec.n, g.log_coefficient if g.log_coefficient is not None
                 else math.nan, 2.0 / cst.Lambda1, " ".join(str(i) for i in g.base_index))])
    write_field(out / "green.pbfld", g.field)
    print(f"fitted log coefficient {g.log_coefficient} (target {2.0 / cst.Lambda1:.8f})")
    return 0


def cmd_nonexist(args) -> int:
    spec = make_spec(int(args.m), int(args.n))
    lams = _parse_float_list(args.lambda_grid)
    report = _diagnostics.nonexistence_sweep(lams, spec, n_seeds=int(args.n_seeds),
                                             seed=int(args.seed), tol=float(args.tol),
                                             jobs=int(args.jobs))
    out = _prepare_outdir(args)
    rows = [
        (r.lam, r.n_seeds, r.n_converged, r.n_nontrivial, r.max_nontrivial_norm,
         r.norm_sq_over_lam_sq)
        for r in report.rows
    ]
    _write_csv(out / "sweep.csv",
               ["lambda", "n_seeds", "n_converged", "n_nontrivial",
                "max_nontrivial_norm", "norm_sq_over_lam_sq"], rows)
    _write_csv(out / "summary.csv", ["regime_bound", "all_trivial"],
               [(report.regime_bound, report.all_trivial)])
    print(f"regime bound Lambda1/(8m) = {report.regime_bound:.6f}; "
          f"all trivial = {report.all_trivial}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusmf",
        description="Spectral toolkit for polyharmonic mean-field equations on flat tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, *, seed: bool = False,
                tol: bool = False) -> argparse.ArgumentParser:
        # no prefixes: argparse would take --conf for --config, which only _expand_config reads
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key = value file applied as defaults")
        p.add_argument("--outdir", default=None,
                       help="output directory (default $TORUSMF_OUTDIR or ./torusmf-out)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if tol:
            p.add_argument("--tol", type=_positive, default=1e-10)
        return p

    p = command("constants", cmd_constants, "print spectral thresholds")
    p.add_argument("--m", type=int, required=True)

    p = command("bubble", cmd_bubble, "growth rates of the concentrating family")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--lambda", dest="lam", type=_finite, default=0.0)
    p.add_argument("--sigma-list", dest="sigma_list", default="1e2,3.1623e2,1e3",
                   help="comma-separated sigmas")
    p.add_argument("--alpha", type=_finite, default=0.4)

    # mp draws nothing at random; --seed is accepted because bench/worker.py passes it
    p = command("mp", cmd_mp, "mountain-pass search and Newton polish", seed=True, tol=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--lambda", dest="lam", type=_finite, required=True)

    p = command("continue", cmd_continue, "natural-parameter continuation in lambda", tol=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--lambda-start", dest="lam_start", type=_finite, required=True)
    p.add_argument("--lambda-end", dest="lam_end", type=_finite, required=True)
    p.add_argument("--dlambda0", type=_positive, default=0.5)
    p.add_argument("--blowup-cap", dest="blowup_cap", type=_positive, default=12.0)

    p = command("quant", cmd_quant, "concentration analysis of a stored field")
    p.add_argument("--field", required=True, help="PBFLD1 file")
    p.add_argument("--lambda", dest="lam", type=_finite, required=True)

    p = command("sweep", cmd_sweep, "pass-level estimates over a lambda grid", tol=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--lambda-grid", dest="lambda_grid", default="13,14,15,16,17,18,19")

    p = command("green", cmd_green, "discrete Green kernel and its log coefficient")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--base", default=None, help="grid indices of the base point")

    p = command("nonexist", cmd_nonexist, "small-lambda multistart uniqueness sweep",
                seed=True, tol=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--lambda-grid", dest="lambda_grid", default="0.25,0.5,1.0")
    p.add_argument("--n-seeds", dest="n_seeds", type=int, default=20)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads for independent solves")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _expand_config(argv, parser)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, QuadratureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
