"""Golden values: outputs frozen before numerics refactors.

The fixture `golden.json` was written by this module's `ENTRIES` on the
complex-FFT field core; numerics refactors must reproduce it.  The
find_u0 anchors, concentration directions and Adams values were added on the
real-FFT core, before the anchor search lost its glued-profile stage; the
continuation branch and the Hessian eigenvalue before Newton's inner solve
moved to half-spectrum coordinates; the criterion-6 sweep rows, the
criterion-10 quantization, the cutoff and the radial energies before the
options no caller set were removed and the cutoff lost its symbolic form;
the criterion-6 rows' polished energies when the rows first carried them;
the m=2 existence run (lam = 250, n = 16) once path relaxation made it cheap
enough for every run, without its c-estimate, whose last digits move with
the BLAS thread count.
The criterion-6 c-estimates at lam = 15..18 were re-pinned once, to their
rows' polished energies, when level_sweep took mountain_pass's rule that a
solved row's level is at least its saddle's energy.  When both path drivers
began to return the steepest-descent path through the polished saddle, the
criterion-6 c-estimates (again, to their rows' energies), their sweep
counts (60 to 8) and mp's c-estimate at lam = 19 were re-pinned, and the m=2
run's c-estimate, now its saddle energy and no longer moved by the BLAS
thread count, joined the fixture in the first tier at the m=2 tolerance.
When a min-mode locator replaced the path relaxation, the criterion-6 sweep
counts, which now count its steps, were re-pinned (8 sweeps to 3-5 steps).
Tolerances were fixed before any refactor ran: 1e-8 relative on pass levels,
energies and norms, 1e-8 times the product of the H^m norms on inner
products, exact equality on flags, counts, sweeps and continuation steps,
1e-6 absolute (the tolerance of the ARPACK probe that captured them) on
the Hessian eigenvalues and on the whole m=2 run, 1e-8 absolute on the quantization deviation (itself a
relative gap), and 1e-8 relative or absolute on cutoff values (the second
derivative vanishes at r = 3/8).  Add entries only on purpose, with

    PYTHONPATH=src python tests/test_golden.py

which keeps every entry already in the fixture as first captured.

Re-pin rule.  Every leaf of the fixture (a value that is not a dict: a
number, flag, string or list) belongs to exactly one of two tiers, declared
in FIRST_TIER and SECOND_TIER below and checked by test_tiers_cover_the_fixture.

- First tier: outputs that no discrete decision of the locator (the path
  relaxation before it) reaches: saddle energies, norms, eigenvalues,
  anchors, field values, the continuation branch, the nonexistence counts,
  convergence flags, the lam grid, quant, cutoff and radial energies.  A change reproduces them at
  their tolerances, and no first-tier leaf is ever re-pinned.
- Second tier: outputs of the discrete locator itself: mountain_pass's
  c_estimate and the criterion-6 c-estimates and sweep counts (locator
  steps).  A change may re-pin them, one leaf at a time, with

      PYTHONPATH=src python tests/test_golden.py --repin <leaf> [<leaf> ...]

  (leaf names join the keys with dots, e.g. level_sweep.c_estimates or
  mp.19.0.c_estimate), and only if its CHANGES.md entry gives the old and
  new value of each re-pinned leaf, names the decision of the locator that
  flipped and the first step (or sweep) where the runs diverge, and shows
  that c_estimate >= the polished energy still holds on every row.

Tolerances and the acceptance criteria's bounds do not move under this rule.
"""

import copy
import functools
import json
import math
import sys
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

from conftest import criterion6_sweep, order_two_mountain_pass, smooth_field

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


def _order_two_values(res) -> dict:
    sol = res.solve
    return {"c_estimate": res.c_estimate, "energy": sol.energy,
            "norm_sq": sobolev_norm_sq(sol.field),
            "hessian_eigenvalue": smallest_hessian_eigenvalue(sol.field, sol.lam)}


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


@functools.cache
def _sweep():
    return criterion6_sweep()


# each top-level fixture key and the function that captures its entry
ENTRIES = {
    "mp": lambda: {repr(lam): _mp_values(lam) for lam in MP_LAMS},
    "mp_m2": lambda: _order_two_values(order_two_mountain_pass()),
    "nonexist": _nonexist_values,
    "fields": lambda: {f"{m},{n}": _field_values(m, n, lam) for m, n, lam in FIELD_CASES},
    "find_u0": lambda: {f"{m},{n},{lam!r}": _anchor_values(m, n, lam)
                        for m, n, lam in ANCHOR_CASES},
    "concentration_direction": lambda: {f"{m},{n}": _direction_values(m, n)
                                        for m, n in GRID_CASES},
    "adams_value": lambda: {f"{m},{n}": _adams_value(m, n) for m, n in GRID_CASES},
    "continuation": _branch_values,
    "hessian_eigenvalue": _hessian_eigenvalue,
    "level_sweep": lambda: _sweep_values(_sweep()),
    "level_sweep_energies": lambda: [r.energy for r in _sweep().rows],
    "quant": _quant_values,
    "cutoff": lambda: {f"{k},{r!r}": cutoff(r, k) for k, r in CUTOFF_CASES},
    "radial_energy": lambda: {f"{m},{s!r}": radial_energy(s, m)
                              for m in (1, 2) for s in RADIAL_SIGMAS},
}

# leaf patterns: a pattern covers the leaves whose key path it prefixes ("*" is any key)
SECOND_TIER = (
    ("mp", "*", "c_estimate"),
    ("level_sweep", "c_estimates"),
    ("level_sweep", "sweeps"),
)
FIRST_TIER = (
    ("mp", "*", "energy"),
    ("mp", "*", "converged"),
    ("mp_m2",),
    ("nonexist",),
    ("fields",),
    ("find_u0",),
    ("concentration_direction",),
    ("adams_value",),
    ("continuation",),
    ("hessian_eigenvalue",),
    ("level_sweep", "lams"),
    ("level_sweep", "converged"),
    ("level_sweep_energies",),
    ("quant",),
    ("cutoff",),
    ("radial_energy",),
)


def leaves(tree: dict, prefix: tuple = ()):
    """(key path, value) of every non-dict value in tree."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, prefix + (key,))
        else:
            yield prefix + (key,), value


def _covers(pattern: tuple, path: tuple) -> bool:
    return len(pattern) <= len(path) and all(p in ("*", k) for p, k in zip(pattern, path))


def tiers_of(path: tuple) -> list[int]:
    """The tiers (1, 2) whose patterns cover the leaf at path."""
    return [tier for tier, patterns in ((1, FIRST_TIER), (2, SECOND_TIER))
            if any(_covers(pattern, path) for pattern in patterns)]


def repin(frozen: dict, names: list[str]) -> list[str]:
    """Recapture the named second-tier leaves in frozen (in place); one line per leaf.

    Refuses a name that is no leaf of the fixture, or a leaf that is not in
    the second tier alone, before anything is captured.
    """
    paths = dict((".".join(path), path) for path, _ in leaves(frozen))
    for name in names:
        if name not in paths:
            raise ValueError(f"{name}: no such leaf in {GOLDEN.name}")
        if tiers_of(paths[name]) != [2]:
            raise ValueError(f"{name}: first-tier leaves are never re-pinned")
    fresh = {key: ENTRIES[key]() for key in dict.fromkeys(paths[n][0] for n in names)}
    lines = []
    for name in names:
        *parents, last = paths[name]
        old, new = frozen, fresh
        for key in parents:
            old, new = old[key], new[key]
        lines.append(f"{name}: {old[last]!r} -> {new[last]!r}")
        old[last] = new[last]
    return lines


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


def test_order_two_mountain_pass(golden, mp250):
    want = golden["mp_m2"]
    got = _order_two_values(mp250)
    for key in ("c_estimate", "energy", "norm_sq", "hessian_eigenvalue"):
        assert got[key] == pytest.approx(want[key], rel=0.0, abs=EIG_ATOL), key


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


def test_tiers_cover_the_fixture(golden):
    paths = [path for path, _ in leaves(golden)]
    assert [path for path in paths if len(tiers_of(path)) != 1] == []
    unused = [pattern for pattern in FIRST_TIER + SECOND_TIER
              if not any(_covers(pattern, path) for path in paths)]
    assert unused == []


@pytest.mark.parametrize("name", ["level_sweep.lams", "mp.14.0.energy", "quant.deviation",
                                  "continuation.energies"])
def test_repin_refuses_first_tier(golden, name):
    with pytest.raises(ValueError, match="first-tier"):
        repin(golden, [name])


def test_repin_refuses_unknown_leaf(golden):
    with pytest.raises(ValueError, match="no such leaf"):
        repin(golden, ["level_sweep.c_estimate"])


def test_repin_rewrites_only_the_named_leaf(golden, monkeypatch):
    fresh = {"lams": [0.0], "c_estimates": [1.0], "sweeps": [2], "converged": [False]}
    monkeypatch.setitem(ENTRIES, "level_sweep", lambda: fresh)
    frozen = copy.deepcopy(golden)
    lines = repin(frozen, ["level_sweep.c_estimates"])
    want = copy.deepcopy(golden)
    want["level_sweep"]["c_estimates"] = [1.0]
    assert frozen == want
    assert lines == [f"level_sweep.c_estimates: {golden['level_sweep']['c_estimates']!r} -> [1.0]"]


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
    # with no arguments, capture only the entries missing from the fixture;
    # with --repin, recapture the named second-tier leaves and nothing else
    frozen = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    if sys.argv[1:2] == ["--repin"]:
        print("\n".join(repin(frozen, sys.argv[2:])))
    else:
        frozen |= {key: capture() for key, capture in ENTRIES.items() if key not in frozen}
    GOLDEN.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n", encoding="utf-8")
