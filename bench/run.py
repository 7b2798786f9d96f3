"""Benchmark command for torusmf; run from the root of a source checkout.

    python3 bench/run.py --workload mp_m1_n64 --seed 1 --seconds 30 --trace 0

Each round of the workload runs in a fresh interpreter (bench/worker.py)
with the BLAS/OpenMP pools pinned to one thread and `src` on PYTHONPATH, so
every round pays interpreter start, imports and once-per-process caches as
a command-line user does.  A new round starts only if a round of the
average length so far still ends within --seconds, so a run measures about
--seconds, in whole rounds, and `wall_s` is the mean over its rounds.
Set-up time is timed from spawning a worker to its READY line; set-up-only
workers top the samples up to SETUP_SAMPLES.  The last stdout line is the
JSON result; the line before it records the samples and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 165.0  # no round may run past this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.src = root / "src"
        self.workdir = root / "bench-out" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in THREAD_VARS})
        # every worker compiles torusmf from source and writes no __pycache__,
        # so set-up does not depend on what earlier runs left in the checkout
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH", "")) if p)

    def _worker(self, extra: list[str], timeout: float) -> tuple[float, dict | None]:
        """Spawn one worker; returns (set-up seconds, result or None if set-up only)."""
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--src", str(self.src), *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            if ready.strip() != "READY":
                raise WorkerError(f"worker set-up failed (exit {proc.wait(timeout)})")
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}")
        lines = out.strip().splitlines()
        return setup, (json.loads(lines[-1]) if lines else None)

    def run(self, seconds: float) -> tuple[list[float], list[dict]]:
        start = time.monotonic()
        setups: list[float] = []
        rounds: list[dict] = []
        while True:
            begin = time.monotonic()
            extra = ["--outdir", str(self.workdir / f"round{len(rounds)}")]
            if self.trace:
                trace_file = self.root / "bench-out" / "trace" / (
                    f"{self.workload}-seed{self.seed}-round{len(rounds)}.npz")
                extra += ["--trace-file", str(trace_file)]
            setup, result = self._worker(extra, timeout=RUN_LIMIT_S - (begin - start))
            if result is None:
                raise WorkerError("worker printed no result")
            setups.append(setup)
            rounds.append(result)
            # another round only if one of the average length so far ends in time
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(rounds) > min(seconds, RUN_LIMIT_S):
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(self._worker(["--outdir", str(self.workdir), "--setup-only"], 60.0)[0])
        return setups, rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "torusmf" / "__init__.py").is_file():
        print("error: run from the root of a torusmf checkout (src/torusmf not found)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(root, args.workload, args.seed, bool(args.trace))
    try:
        setups, rounds = runner.run(args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    walls = [r["wall_s"] for r in rounds]
    measured = {
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    if args.trace:
        # median_low picks a measured value, so counts stay whole numbers
        measured = {m["name"]: statistics.median_low(r["layers"].get(m["name"], 0) for r in rounds)
                    for m in wanted}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "wall_s_rounds": walls,
        "cpu_s_rounds": [r["cpu_s"] for r in rounds], "setup_s_samples": setups,
        "machine": {"cpu": cpu_model(), "cores": os.cpu_count(), **rounds[0]["versions"]},
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
