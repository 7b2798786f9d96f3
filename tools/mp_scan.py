"""Print every mountain-pass run of the locator scan grids, one line each.

Run with the package to check on the import path, for example

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/mp_scan.py > scan.txt

Each grid runs at tol 1e-8 and 1e-10; then the criterion-6 level_sweep rows
(m=1, n=128, lam = 13..19, tol 1e-8) follow.  Floats are printed by repr, so
two versions of the code give the same numbers exactly when `diff` of their
outputs is empty.
"""

from __future__ import annotations

import numpy as np

from torusmf import make_spec
from torusmf.errors import ConvergenceError
from torusmf.mountainpass import level_sweep, mountain_pass

_M1_LAMS = [*np.arange(12.75, 19.5, 0.5).tolist(), *range(13, 20), 19.5, 19.6, 19.7]
GRIDS = [
    *((1, n, _M1_LAMS) for n in (32, 64, 128)),
    (2, 16, [170, 200, 250, 300, 350, 370, 385]),
    (1, 256, [13.25, 14, 16, 18, 19]),
    (2, 8, [200, 250, 300, 350]),
]


def main() -> None:
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
                print(head, res.path_origin, res.converged, repr(res.c_estimate),
                      repr(res.solve.energy), repr(res.unstable_eigenvalue),
                      res.iterations, res.solve.iterations, len(res.path.nodes), flush=True)
    report = level_sweep(range(13, 20), make_spec(1, 128), tol=1e-8)
    for row in report.rows:
        print("sweep", repr(row.lam), row.path_origin, row.converged, repr(row.c_estimate),
              repr(row.energy), repr(row.grad_norm), row.sweeps, repr(row.anchor_min_energy),
              repr(row.anchor_failed_floor))
    print("sweep violations", report.monotonicity_violations)


if __name__ == "__main__":
    main()
