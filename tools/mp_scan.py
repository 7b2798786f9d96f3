"""Print every mountain-pass run of the locator scan grids, one line each, or compare two scans.

Run with the package to check on the import path, for example

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/mp_scan.py > scan.txt

Each grid runs at tol 1e-8 and 1e-10.  Then, at tol 1e-8, runs forced into
the "located" fallback follow, each line headed by the way it is forced:
"fallback=descend" patches _descend to return None (the polish solves, but no
saddle path is built), "fallback=polish" patches newton_solve to return an
unconverged SolveResult (the polish fails), and "fallback=runaway" keeps the
locator's first unstable direction, so that it runs away at m=1, n=32,
lam=19.  Last come the criterion-6 level_sweep rows (m=1, n=128,
lam = 13..19, tol 1e-8).  Floats are printed by repr,
and each run line ends with the SHA-256 of its returned path's node values,
so two versions of the code give the same numbers and the same paths
exactly when `diff` of their outputs is empty.  Bit-identity stays the gate
for a change that claims it.

    python3 tools/mp_scan.py --compare OLD NEW

reads two such outputs and prints, for each run, whether its origin and
`converged` agree and the relative change of c_estimate and of the energy.
A change that moves last bits passes when every anchored run keeps its
polished energy within RTOL (the golden first-tier tolerance), keeps its
c_estimate within RTOL where both runs end "saddle", no run that ended
"saddle" or converged stops doing so, and the sweep's violation count does
not rise; the exit status is 1 otherwise.
"""

from __future__ import annotations

import hashlib
import math
import sys
from unittest import mock

import numpy as np

RTOL = 1e-8  # tests/test_golden.py's first-tier tolerance on pass levels and energies

_M1_LAMS = [*np.arange(12.75, 19.5, 0.5).tolist(), *range(13, 20), 19.5, 19.6, 19.7]
GRIDS = [
    *((1, n, _M1_LAMS) for n in (32, 64, 128)),
    (2, 16, [170, 200, 250, 300, 350, 370, 385]),
    (1, 256, [13.25, 14, 16, 18, 19]),
    (2, 8, [200, 250, 300, 350]),
]
FALLBACK_RUNS = [(1, 32, 14), (1, 32, 19), (1, 64, 14), (1, 64, 19), (2, 16, 250)]


def _fallback_patches():
    """(name, the mountainpass attribute to replace, its replacement, runs)."""
    from torusmf.functional import energy_value
    from torusmf.mountainpass import _lowest_eigenpair
    from torusmf.solver import SolveResult

    def no_solve(guess, lam, **kwargs):
        return SolveResult(field=guess, lam=lam, residual_l2=1.0, grad_norm=1.0,
                           energy=energy_value(guess, lam), iterations=0, converged=False)

    first = []

    def keep_first(u, lam, start):
        if not first:
            first.append(_lowest_eigenpair(u, lam, start)[1])
        return math.nan, first[0]

    return [("descend", "_descend", lambda *args: None, FALLBACK_RUNS),
            ("polish", "newton_solve", no_solve, FALLBACK_RUNS),
            ("runaway", "_lowest_eigenpair", keep_first, [(1, 32, 19)])]


def _run_line(head: str, res) -> str:
    """One run's line: head, then its scalars and the SHA-256 of its path's node values."""
    digest = hashlib.sha256(b"".join(node.values.tobytes()
                                     for node in res.path)).hexdigest()
    return " ".join(map(str, (head, res.path_origin, res.converged, repr(res.c_estimate),
                              repr(res.solve.energy), repr(res.unstable_eigenvalue),
                              res.iterations, res.solve.iterations, len(res.path),
                              digest)))


def main() -> None:
    from torusmf import make_spec, mountainpass
    from torusmf.errors import ConvergenceError
    from torusmf.mountainpass import level_sweep, mountain_pass

    for tol in (1e-8, 1e-10):
        for m, n, lams in GRIDS:
            spec = make_spec(m, n)
            for lam in lams:
                head = f"m={m} n={n} tol={tol!r} lam={float(lam)!r}"
                try:
                    res = mountain_pass(float(lam), spec, tol)
                except ConvergenceError:
                    print(head, "noanchor", flush=True)
                    continue
                print(_run_line(head, res), flush=True)
    for name, attr, patch, runs in _fallback_patches():
        with mock.patch.object(mountainpass, attr, patch):
            for m, n, lam in runs:
                head = f"fallback={name} m={m} n={n} tol=1e-08 lam={float(lam)!r}"
                print(_run_line(head, mountain_pass(float(lam), make_spec(m, n), 1e-8)),
                      flush=True)
    report = level_sweep(range(13, 20), make_spec(1, 128), tol=1e-8)
    for row in report.rows:
        print("sweep", repr(row.lam), row.path_origin, row.converged, repr(row.c_estimate),
              repr(row.energy), repr(row.grad_norm), row.sweeps, repr(row.anchor_min_energy),
              repr(row.anchor_failed_floor))
    print("sweep violations", report.monotonicity_violations)


def _runs(path: str) -> tuple[dict[str, tuple], int]:
    """(run key -> (origin, converged, c_estimate, energy), or ("noanchor",)) and the
    sweep's violation count, from one scan output."""
    runs, violations = {}, 0
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            words = line.split()
            if words[:2] == ["sweep", "violations"]:
                violations = int(words[2])
            elif words[0] == "sweep":
                runs[f"sweep lam={words[1]}"] = (words[2], words[3], float(words[4]),
                                                 float(words[5]))
            else:
                # the key is the head: every word up to the first without "="
                k = next(i for i, word in enumerate(words) if "=" not in word)
                key = " ".join(words[:k])
                if words[k] == "noanchor":
                    runs[key] = ("noanchor",)
                else:
                    runs[key] = (words[k], words[k + 1], float(words[k + 2]),
                                 float(words[k + 3]))
    return runs, violations


def _rel(old: float, new: float) -> float:
    return abs(new - old) / abs(old) if old else abs(new - old)


def compare(old_path: str, new_path: str) -> int:
    """Print one line per run of old_path and a summary; return the number of failures."""
    (old, old_violations), (new, new_violations) = _runs(old_path), _runs(new_path)
    failures = 0
    if old.keys() != new.keys():
        print("runs differ:", sorted(old.keys() ^ new.keys()))
        failures += 1
    for key in (key for key in old if key in new):
        a, b = old[key], new[key]
        if a[0] == "noanchor" or b[0] == "noanchor":
            ok = a == b
            print(key, a[0], "->", b[0], "ok" if ok else "FAIL")
            failures += not ok
            continue
        dc, de = _rel(a[2], b[2]), _rel(a[3], b[3])
        ok = (de <= RTOL and not (a[0] == "saddle" != b[0])
              and not (a[1] == "True" != b[1])
              and (dc <= RTOL or not a[0] == b[0] == "saddle"))
        print(key, f"origin {a[0]}->{b[0]}", f"converged {a[1]}->{b[1]}",
              f"dc {dc:.2e}", f"de {de:.2e}", "ok" if ok else "FAIL")
        failures += not ok
    if new_violations > old_violations:
        failures += 1
    origins = [v[0] for v in new.values()]
    print(f"{len(new)} runs: " + ", ".join(f"{origins.count(o)} {o}" for o in sorted(set(origins)))
          + f"; sweep violations {old_violations}->{new_violations}; {failures} failures"
          + f" (bound {RTOL:g})")
    return failures


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        sys.exit(1 if compare(*sys.argv[2:4]) else 0)
    main()
