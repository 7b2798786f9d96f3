"""Golden values: outputs frozen before numerics refactors.

The fixture `golden.json` was written by this module's `capture()` on the
complex-FFT field core; numerics refactors must reproduce it.  The
find_u0 anchors, concentration directions and Adams values were added on the
real-FFT core, before the anchor search lost its glued-profile stage; the
continuation branch and the Hessian eigenvalue before Newton's inner solve
moved to half-spectrum coordinates; the criterion-6 sweep rows, the
criterion-10 quantization, the cutoff and the radial energies before the
options no caller set were removed and the cutoff lost its symbolic form;
the criterion-6 rows' polished energies when the rows first carried them.
Tolerances were fixed before any refactor ran: 1e-8 relative on pass levels,
energies and norms, 1e-8 times the product of the H^m norms on inner
products, exact equality on flags, counts, sweeps and continuation steps,
1e-6 absolute (ARPACK's tolerance) on the Hessian eigenvalue, 1e-8 absolute
on the quantization deviation (itself a relative gap), and 1e-8 relative or
absolute on cutoff values (the second derivative vanishes at r = 3/8).  Add
entries only on purpose, with

    PYTHONPATH=src python tests/test_golden.py

which keeps every entry already in the fixture as first captured.
"""

import json
import math
from pathlib import Path

import pytest

from torusmf import (
    BubbleParams,
    adams_value,
    bubble_field,
    concentration,
    concentration_direction,
    constants,
    continuation,
    cutoff,
    default_alpha,
    energy_value,
    find_u0,
    make_spec,
    mountain_pass,
    nonexistence_sweep,
    radial_energy,
    smallest_hessian_eigenvalue,
    sobolev_inner,
    sobolev_norm_sq,
)

from conftest import criterion6_sweep, smooth_field

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-8
MP_LAMS = (14.0, 19.0)
NONEXIST_LAMS = (0.25, 0.5, 1.0)
FIELD_CASES = ((1, 64, 10.0), (2, 16, 100.0))  # (m, n, lam for the energy)
ANCHOR_CASES = ((1, 32, 14.0), (2, 16, 300.0))  # (m, n, lam)
GRID_CASES = ((1, 64), (2, 16))
BRANCH = (14.0, 13.0, 0.25)  # (start lam, end lam, first step) at m=1, n=64
EIG_ATOL = 1e-6
CUTOFF_CASES = tuple((k, r) for k in (0, 1, 2) for r in (0.3, 0.375, 0.45))  # (order, r)
RADIAL_SIGMAS = tuple(10**p for p in (2.0, 2.5, 3.0, 3.5, 4.0))  # criterion 2


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


def _anchor_values(m: int, n: int, lam: float) -> dict:
    u0 = find_u0(lam, make_spec(m, n))
    return {"norm_sq": sobolev_norm_sq(u0), "energy": energy_value(u0, lam)}


def _direction_values(m: int, n: int) -> dict:
    direction = concentration_direction(make_spec(m, n))
    return {"norm_sq": sobolev_norm_sq(direction), "max": float(direction.values.max())}


def _adams_value(m: int, n: int) -> float:
    return adams_value(smooth_field(make_spec(m, n), 1, norm=2.0))


def _mp_solve(lam: float):
    return mountain_pass(lam, make_spec(1, 64), tol=1e-10).solve


def _branch_values() -> dict:
    start, end, dlam0 = BRANCH
    branch = continuation(_mp_solve(start), end, dlam0)
    return {"termination": branch.termination, "lams": [r.lam for r in branch.results],
            "energies": [r.energy for r in branch.results],
            "norm_sqs": [sobolev_norm_sq(r.field) for r in branch.results]}


def _hessian_eigenvalue() -> float:
    res = _mp_solve(BRANCH[0])
    return smallest_hessian_eigenvalue(res.field, res.lam)


def _sweep_values(report) -> dict:
    return {"lams": [r.lam for r in report.rows],
            "c_estimates": [r.c_estimate for r in report.rows],
            "sweeps": [r.sweeps for r in report.rows],
            "converged": [r.converged for r in report.rows]}


def _quant_values() -> dict:
    # the criterion-10 bubble at lam = Lambda1
    sigma = 1e3
    u = bubble_field(make_spec(1, 512), BubbleParams(sigma, default_alpha(sigma), (0.0, 0.0)),
                     allow_unresolved=True)
    rep = concentration(u, constants(1).Lambda1)
    return {"plateau_mass": rep.plateau_mass, "deviation": rep.deviation}


def capture() -> dict:
    sweep = criterion6_sweep()
    return {
        "mp": {repr(lam): _mp_values(lam) for lam in MP_LAMS},
        "nonexist": _nonexist_values(),
        "fields": {f"{m},{n}": _field_values(m, n, lam) for m, n, lam in FIELD_CASES},
        "find_u0": {f"{m},{n},{lam!r}": _anchor_values(m, n, lam)
                    for m, n, lam in ANCHOR_CASES},
        "concentration_direction": {f"{m},{n}": _direction_values(m, n) for m, n in GRID_CASES},
        "adams_value": {f"{m},{n}": _adams_value(m, n) for m, n in GRID_CASES},
        "continuation": _branch_values(),
        "hessian_eigenvalue": _hessian_eigenvalue(),
        "level_sweep": _sweep_values(sweep),
        "level_sweep_energies": [r.energy for r in sweep.rows],
        "quant": _quant_values(),
        "cutoff": {f"{k},{r!r}": cutoff(r, k) for k, r in CUTOFF_CASES},
        "radial_energy": {f"{m},{s!r}": radial_energy(s, m)
                          for m in (1, 2) for s in RADIAL_SIGMAS},
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


@pytest.mark.parametrize("m,n,lam", ANCHOR_CASES)
def test_find_u0_anchor(golden, m, n, lam):
    want = golden["find_u0"][f"{m},{n},{lam!r}"]
    got = _anchor_values(m, n, lam)
    for key in ("norm_sq", "energy"):
        assert got[key] == pytest.approx(want[key], rel=RTOL, abs=0.0), key


@pytest.mark.parametrize("m,n", GRID_CASES)
def test_concentration_direction(golden, m, n):
    want = golden["concentration_direction"][f"{m},{n}"]
    got = _direction_values(m, n)
    for key in ("norm_sq", "max"):
        assert got[key] == pytest.approx(want[key], rel=RTOL, abs=0.0), key


@pytest.mark.parametrize("m,n", GRID_CASES)
def test_adams_value(golden, m, n):
    want = golden["adams_value"][f"{m},{n}"]
    assert _adams_value(m, n) == pytest.approx(want, rel=RTOL, abs=0.0)


def test_continuation_branch(golden):
    want = golden["continuation"]
    got = _branch_values()
    assert got["termination"] == want["termination"]
    assert got["lams"] == want["lams"]
    for key in ("energies", "norm_sqs"):
        assert got[key] == pytest.approx(want[key], rel=RTOL, abs=0.0), key


def test_hessian_eigenvalue(golden):
    assert _hessian_eigenvalue() == pytest.approx(golden["hessian_eigenvalue"], rel=0.0,
                                                  abs=EIG_ATOL)


def test_level_sweep_rows(golden, sweep128):
    want = golden["level_sweep"]
    got = _sweep_values(sweep128)
    for key in ("lams", "sweeps", "converged"):
        assert got[key] == want[key], key
    assert got["c_estimates"] == pytest.approx(want["c_estimates"], rel=RTOL, abs=0.0)


def test_level_sweep_energies(golden, sweep128):
    assert [r.energy for r in sweep128.rows] == pytest.approx(golden["level_sweep_energies"],
                                                              rel=RTOL, abs=0.0)


def test_quantization(golden):
    want = golden["quant"]
    got = _quant_values()
    assert got["plateau_mass"] == pytest.approx(want["plateau_mass"], rel=RTOL, abs=0.0)
    assert got["deviation"] == pytest.approx(want["deviation"], rel=0.0, abs=RTOL)


@pytest.mark.parametrize("order,r", CUTOFF_CASES)
def test_cutoff(golden, order, r):
    assert cutoff(r, order) == pytest.approx(golden["cutoff"][f"{order},{r!r}"],
                                             rel=RTOL, abs=RTOL)


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("sigma", RADIAL_SIGMAS)
def test_radial_energy(golden, m, sigma):
    assert radial_energy(sigma, m) == pytest.approx(golden["radial_energy"][f"{m},{sigma!r}"],
                                                    rel=RTOL, abs=0.0)


if __name__ == "__main__":
    # entries already in the fixture stay as first captured; only new ones are added
    frozen = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    GOLDEN.write_text(json.dumps(capture() | frozen, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
