"""One round of one benchmark workload, in a fresh interpreter.

Started by run.py with the thread pools pinned and `src` on PYTHONPATH.
It imports torusmf and builds the workload's inputs, prints READY (run.py
times set-up up to that line), then runs the round, checks its outputs and
prints one JSON line: wall time, operations attempted and failed, whether
the checks passed, peak RSS and, when traced, the per-layer summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checker

MP_LAMS = (14.0, 19.0)
NONEXIST_LAMS = [0.25, 0.5, 1.0]
NONEXIST_SEEDS = 20


def build_inputs(workload: str, seed: int, outdir: Path):
    """Import what the workload needs; returns (operations, round runner).

    The runner returns the number of failed operations and raises
    checker.CheckError on a wrong output of an operation that did not fail.
    """
    import torusmf

    if workload == "mp_m1_n64":
        from torusmf import cli

        argvs = {lam: ["mp", "--m", "1", "--n", "64", "--lambda", repr(lam), "--tol", "1e-10",
                       "--seed", str(seed), "--outdir", str(outdir / f"lam{lam:g}")]
                 for lam in MP_LAMS}

        def run() -> int:
            ok = {lam: outdir / f"lam{lam:g}" for lam, argv in argvs.items() if cli.main(argv) == 0}
            checker.check_mp_outputs(ok, m=1)
            return len(argvs) - len(ok)

        return len(MP_LAMS), run

    if workload == "nonexist_m2_n16":
        spec = torusmf.make_spec(2, 16)

        def run() -> int:
            report = torusmf.nonexistence_sweep(NONEXIST_LAMS, spec, n_seeds=NONEXIST_SEEDS,
                                                seed=seed, jobs=1)
            checker.require([r.lam for r in report.rows] == NONEXIST_LAMS, "rows miss a lambda")
            ok = [r for r in report.rows if r.n_converged > 0]
            checker.check_nonexistence(ok, report.regime_bound, m=2)
            return len(NONEXIST_LAMS) - len(ok)

        return len(NONEXIST_LAMS), run
    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    attempted, run = build_inputs(args.workload, abs(args.seed), args.outdir)
    import torusmf

    if not Path(torusmf.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"torusmf imported from {torusmf.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_file is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    t0, cpu0 = time.perf_counter(), time.process_time()
    correct = True
    try:
        failed = run()
    except checker.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        failed, correct = 0, False
    except Exception:
        # a round that raises loses all its operations; the run goes on
        traceback.print_exc()
        failed = attempted
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0

    import numpy
    import scipy

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        args.trace_file.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(args.trace_file)
        result["layers"] = tracer.summary()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
