"""Golden values: outputs frozen before the field core moved to real FFTs.

The fixture `golden.json` was written by this module's `capture()` on the
complex-FFT field core; numerics refactors must reproduce it.  Tolerances
were fixed before any refactor ran: 1e-8 relative on pass levels, energies
and norms, 1e-8 times the product of the H^m norms on inner products, and
exact equality on flags and counts.  Regenerate only on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from torusmf import (
    energy_value,
    make_spec,
    mountain_pass,
    nonexistence_sweep,
    sobolev_inner,
    sobolev_norm_sq,
)

from conftest import smooth_field

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-8
MP_LAMS = (14.0, 19.0)
NONEXIST_LAMS = (0.25, 0.5, 1.0)
FIELD_CASES = ((1, 64, 10.0), (2, 16, 100.0))  # (m, n, lam for the energy)


def _mp_values(lam: float) -> dict:
    res = mountain_pass(lam, make_spec(1, 64), tol=1e-10)
    return {"c_estimate": res.c_estimate, "energy": res.solve.energy,
            "converged": res.converged}


def _nonexist_values() -> list[dict]:
    report = nonexistence_sweep(list(NONEXIST_LAMS), make_spec(2, 16), n_seeds=20, seed=1,
                                jobs=1)
    return [{"lam": r.lam, "n_converged": r.n_converged, "n_nontrivial": r.n_nontrivial}
            for r in report.rows]


def _field_values(m: int, n: int, lam: float) -> dict:
    spec = make_spec(m, n)
    f = smooth_field(spec, 1, norm=2.0)
    g = smooth_field(spec, 2, norm=1.5)
    return {"norm_sq_f": sobolev_norm_sq(f), "norm_sq_g": sobolev_norm_sq(g),
            "inner": sobolev_inner(f, g), "energy_f": energy_value(f, lam),
            "energy_g": energy_value(g, lam)}


def capture() -> dict:
    return {
        "mp": {repr(lam): _mp_values(lam) for lam in MP_LAMS},
        "nonexist": _nonexist_values(),
        "fields": {f"{m},{n}": _field_values(m, n, lam) for m, n, lam in FIELD_CASES},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("lam", MP_LAMS)
def test_mountain_pass(golden, lam):
    want = golden["mp"][repr(lam)]
    got = _mp_values(lam)
    assert got["converged"] is want["converged"] is True
    assert got["c_estimate"] == pytest.approx(want["c_estimate"], rel=RTOL, abs=0.0)
    assert got["energy"] == pytest.approx(want["energy"], rel=RTOL, abs=0.0)


def test_nonexistence_counts(golden):
    assert _nonexist_values() == golden["nonexist"]


@pytest.mark.parametrize("m,n,lam", FIELD_CASES)
def test_field_values(golden, m, n, lam):
    want = golden["fields"][f"{m},{n}"]
    got = _field_values(m, n, lam)
    for key in ("norm_sq_f", "norm_sq_g", "energy_f", "energy_g"):
        assert got[key] == pytest.approx(want[key], rel=RTOL, abs=0.0), key
    scale = math.sqrt(want["norm_sq_f"] * want["norm_sq_g"])
    assert abs(got["inner"] - want["inner"]) <= RTOL * scale


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
