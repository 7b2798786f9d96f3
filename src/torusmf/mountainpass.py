"""Numerical min-max: paths from 0 to a negative-energy anchor, through the saddle.

The saddle is located by min-mode following, also called gentlest-ascent
dynamics (E and Zhou, Nonlinearity 24 (2011) 1831; the dimer method of
Henkelman and Jonsson, J. Chem. Phys. 111 (1999) 7010): from the sampled
crest of the straight path t -> t u0, the iterate descends along the
gradient with its component on the unstable direction e reversed, and e is
the lowest eigenvector of the Hessian, refreshed every few steps.  Newton
polishes the located point into a saddle u*.  It has Morse index at most 1
(Hofer, Proc. AMS 90 (1984) 309), and the returned path leaves it along the
eigenvector of its negative eigenvalue: 0 -> steepest descent -> u* ->
steepest descent -> anchor (Fukui, J. Phys. Chem. 74 (1970) 4161; Choi and
McKenna, Nonlinear Anal. 20 (1993) 417).  Its sampled supremum, the energy
of u*, is the pass-level estimate.  When the descent path cannot be built,
or the polish fails, the returned path is 0 -> located point -> anchor, and
the estimate its sampled supremum, raised to the saddle energy when the
polish solved.  Either way it is a sampled maximum of a path from 0 to the
anchor, not a bound: the path is not enclosed between samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .field import (
    Field,
    TorusSpec,
    _log_mean_exp,
    l2_inner,
    lincomb,
    scaled,
    sobolev_inner,
    sobolev_norm_sq,
    zero_field,
)
from .functional import constants, el_residual, energy_value, gradient_h
from .solver import SolveResult, _lowest_eigenpair, concentration_direction, newton_solve

_LEVEL_SLACK = 0.02  # relative rise between sweep rows counted as a violation
_LOCATOR_STEP = 1.0  # s of the min-mode step x <- x - s (g - 2 <g, e> e / <e, e>)
_LOCATOR_GTOL = 0.5  # H^m norm of the gradient at which the locator hands x to Newton
_LOCATOR_REFRESH = 4  # locator steps per refresh of the unstable direction e
_LOCATOR_STEPS = 200  # cap on the locator's steps
_STRAIGHT_TS = tuple(i / 32.0 for i in range(1, 32))  # samples of t -> t u0 for the start
_DESCENT_OFFSET = 3e-2  # eps ||e|| / ||u*|| of the first step off the saddle
_DESCENT_STEPS = 400  # cap on each steepest-descent leg of the saddle path


@dataclass(frozen=True)
class MPResult:
    """Pass level, locator steps, the polish (solved or failed), returned path.

    path is a tuple of nodes from the zero field to the anchor, at solve.lam.
    iterations counts the min-mode locator's steps.  path_origin is "saddle"
    when path is the descent path through the polished saddle and
    c_estimate its sampled supremum, and "located" when path is
    (0, located point, anchor) (see mountain_pass).  The anchor met
    anchor_min_energy: -1, or -0.05 after the search for -1 stalled at
    anchor_failed_floor (NaN when it did not).  unstable_eigenvalue is the
    mu of _saddle_path, NaN when the polish did not solve.
    """

    c_estimate: float
    iterations: int
    converged: bool
    solve: SolveResult
    path: tuple[Field, ...]
    anchor_min_energy: float
    anchor_failed_floor: float
    path_origin: str
    unstable_eigenvalue: float


def _check_lam(lam: float, m: int) -> None:
    """Refuse lam non-finite, on a multiple of Lambda1, or outside the existence interval."""
    if not math.isfinite(lam):
        raise ValueError(f"lam={lam} is not a finite number")
    cst = constants(m)
    k = round(lam / cst.Lambda1)
    if k >= 1 and abs(lam - k * cst.Lambda1) <= 1e-9 * cst.Lambda1:
        raise ValueError(f"lam={lam} is an integer multiple of the quantum {cst.Lambda1:.6f}")
    if not (cst.threshold_low < lam < cst.threshold_high):
        raise ValueError(
            f"lam={lam} outside the existence interval "
            f"({cst.threshold_low:.6f}, {cst.threshold_high:.6f}) for m={m}"
        )


def _armijo_step(u: Field, e: float, lam: float, step: float):
    """First Armijo step along -g = -gradient_h(u) from I(u) = e, or None.

    Trial steps s halve from 2*step down to 1e-14; returns (u - s g, its
    energy, s) for the first one with energy <= e - 1e-4 s ||g||^2.
    """
    g = gradient_h(u, lam)
    gsq = sobolev_norm_sq(g)
    if gsq < 1e-28:
        return None
    s = 2.0 * step
    while s > 1e-14:
        cand = lincomb(1.0, u, -s, g)
        ec = energy_value(cand, lam)
        if ec <= e - 1e-4 * s * gsq:
            return cand, ec, s
        s *= 0.5
    return None


def find_u0(lam: float, spec: TorusSpec, *, min_energy: float = -1.0) -> Field:
    """Anchor t*d with I(t*d) < min_energy and t >= 1, d the unit concentration direction.

    Scans 160 amplitudes t from 0.5 to 40 along the grid's own concentration
    direction (scaled peak profile) and returns the first one with t >= 1
    below min_energy; ||t*d|| = t, so the anchor's norm is at least 1.
    Raises ConvergenceError carrying the deepest scanned energy as its floor
    if no amplitude qualifies (happens for lam barely above the coercivity
    threshold, on fine grids too: lam = 13 fails at n = 32 and n = 128).
    """
    return _scan_anchor(lam, spec, min_energy, min_energy)[0]


def _scan_anchor(lam: float, spec: TorusSpec, min_energy: float, fallback: float):
    """find_u0's one scan: (anchor, its threshold, floor); the first anchor below min_energy
    with floor NaN, else after all 160 amplitudes the first below fallback and the floor."""
    _check_lam(lam, spec.m)
    direction = concentration_direction(spec)
    energies, second = [], None
    for t in np.linspace(0.5, 40.0, 160):
        u = scaled(direction, float(t))
        energies.append(energy_value(u, lam))
        if t >= 1.0 and energies[-1] < min_energy:
            return u, min_energy, math.nan
        if second is None and t >= 1.0 and energies[-1] < fallback:
            second = u
    floor = min(energies)
    if second is None:
        raise ConvergenceError(
            f"no anchor below {fallback} at n={spec.n} (deepest energy found: {floor:.4f}); "
            "refine the grid or relax min_energy", floor=floor)
    return second, fallback, floor


_SEGMENT_TS = (0.25, 0.5, 0.75)
_FINE_TS = tuple(float(t) for t in np.geomspace(1.0 / 256.0, 0.5, 8)) + (0.75, 0.875)
_TAIL_TS = tuple(1.0 - t for t in _FINE_TS)


def _segment_energies(a: Field, b: Field, ab: float, lam: float, ts) -> np.ndarray:
    """I((1-t) a + t b) at each t, without building a field or taking a transform.

    The H^m seminorm is a Hilbert norm, so ||(1-t) a + t b||^2 is a quadratic
    in t with the coefficients ||a||^2, ab = <a, b> and ||b||^2; only the log
    mass needs grid values, and all ts share one (T, N) buffer and one
    batched log-sum-exp, done in place.
    """
    t = np.asarray(ts, dtype=np.float64)
    s = 1.0 - t
    aa, bb = sobolev_norm_sq(a), sobolev_norm_sq(b)
    dirichlet = 0.5 * (s * s * aa + 2.0 * s * t * ab + t * t * bb)
    m2 = 2.0 * a.spec.m
    # 2m is a power of two, so scaling the weights instead of the sum is
    # exact: each row is 2m ((1-t) a + t b) bit for bit
    vals = np.multiply.outer(m2 * s, a.values.reshape(-1))
    bvals = b.values.reshape(-1)
    for row, w in zip(vals, m2 * t):
        row += w * bvals
    return dirichlet - lam / m2 * _log_mean_exp(vals)


def _crest(a: Field, b: Field, lam: float, ts) -> float:
    """Max sampled energy on the segment from a to b, at the parameters ts."""
    return float(np.max(_segment_energies(a, b, sobolev_inner(a, b), lam, ts)))


def _descend(u: Field, lam: float, level: float,
             chord) -> tuple[list[Field], list[float], float] | None:
    """Steepest-descent nodes from u until chord(node) samples below level.

    chord(v) is the sampled crest of the straight segment from v to the
    path's end, as the path samples it (_FINE_TS from 0, _TAIL_TS into the
    anchor).  Each step is _armijo_step's, the next trial starting at twice
    the last one.  Iterates not below level are left out, so the path joins
    the saddle to the first one below it.  Returns the nodes kept, their
    energies and the crest of the last one's chord, or None when the line
    search finds no decrease or _DESCENT_STEPS run out.
    """
    e, step = energy_value(u, lam), 1.0
    nodes: list[Field] = []
    energies: list[float] = []
    for _ in range(_DESCENT_STEPS):
        if e < level:
            nodes.append(u)
            energies.append(e)
            crest = chord(u)
            if crest < level:
                return nodes, energies, crest
        taken = _armijo_step(u, e, lam, step)
        if taken is None:
            return None
        u, e, step = taken
    return None


def _locate(u0: Field, lam: float) -> tuple[Field, Field, int, bool]:
    """Min-mode following from the sampled crest of the straight path t -> t u0.

    The start is the sampled maximum over _STRAIGHT_TS.  Each step is
    x <- x - s (g - 2 <g, e> e / <e, e>) in H^m, with g = gradient_h(x) and
    s = _LOCATOR_STEP.  e comes from _lowest_eigenpair at the step's x,
    refreshed every _LOCATOR_REFRESH steps from the last e (the first start
    is u0).  The locator stops once ||g|| < _LOCATOR_GTOL, or after
    _LOCATOR_STEPS steps.  Returns (x, e, steps, kept).  kept is False when
    a step would leave for a field whose energy is not finite or lies above
    the straight path's sampled maximum.  x is then the last iterate below
    it, and no such field reaches a later gradient or Newton.
    """
    es = _segment_energies(zero_field(u0.spec), u0, 0.0, lam, _STRAIGHT_TS)
    j = int(np.argmax(es))
    ceiling = float(es[j])
    x, e = scaled(u0, _STRAIGHT_TS[j]), u0
    for steps in range(_LOCATOR_STEPS):
        g = gradient_h(x, lam)
        if sobolev_norm_sq(g) < _LOCATOR_GTOL**2:
            break
        if steps % _LOCATOR_REFRESH == 0:
            e = _lowest_eigenpair(x, lam, e)[1]
        flip = 2.0 * sobolev_inner(g, e) / sobolev_norm_sq(e)
        cand = lincomb(1.0, x, -_LOCATOR_STEP, lincomb(1.0, g, -flip, e))
        if not energy_value(cand, lam) <= ceiling:  # also refuses NaN
            return x, e, steps, False
        x = cand
    else:
        steps = _LOCATOR_STEPS
    return x, e, steps, True


def _saddle_path(zero: Field, anchor: Field, solve: SolveResult,
                 start: Field) -> tuple[tuple[Field, ...] | None, float, float]:
    """The path (zero, *down, u*, *up, anchor), its sampled supremum, and mu.

    mu and e are _lowest_eigenpair's at the saddle u* = solve.field, started
    from start (the locator's e): e is the unstable direction.  u* is left
    by the steps +-eps e with eps ||e|| = _DESCENT_OFFSET ||u*||, oriented
    so <e, u*> > 0; the - side descends toward 0 and the + side toward the
    anchor.  The supremum is the max of the node energies, the crests of the
    two end chords that _descend returns, and the segments between them at
    _SEGMENT_TS; u* attains it when no sample lies above solve.energy.  The
    path and supremum are None and NaN when mu is not negative (or NaN), a
    descent stalls, or the supremum exceeds solve.energy by more than 1e-9
    relative.
    """
    lam, saddle, level = solve.lam, solve.field, solve.energy
    mu, e = _lowest_eigenpair(saddle, lam, start)
    if not mu < 0:  # mu >= 0, or NaN: the eigen-solve did not converge
        return None, math.nan, mu
    eps = math.copysign(
        _DESCENT_OFFSET * math.sqrt(sobolev_norm_sq(saddle) / sobolev_norm_sq(e)),
        sobolev_inner(e, saddle))
    down = _descend(lincomb(1.0, saddle, -eps, e), lam, level,
                    lambda v: _crest(zero, v, lam, _FINE_TS))
    up = _descend(lincomb(1.0, saddle, eps, e), lam, level,
                  lambda v: _crest(v, anchor, lam, _TAIL_TS))
    if down is None or up is None:
        return None, math.nan, mu
    inner = [*reversed(down[0]), saddle, *up[0]]
    sup = max(energy_value(zero, lam), *reversed(down[1]), level, *up[1],
              energy_value(anchor, lam), down[2],
              *(_crest(a, b, lam, _SEGMENT_TS) for a, b in zip(inner, inner[1:])), up[2])
    if sup > level + 1e-9 * (1.0 + abs(level)):
        return None, math.nan, mu
    return (zero, *inner, anchor), sup, mu


def mountain_pass(lam: float, spec: TorusSpec, tol: float = 1e-8) -> MPResult:
    """Estimate the pass level and polish the located saddle into a solution.

    The anchor is find_u0's, below -1, or below -0.05 when the search for -1
    fails.  _locate follows the min mode from the crest of the straight path
    to the anchor (iterations counts its steps), and Newton runs once from
    the located point x.

    When the polish converges to tol away from the trivial state u = 0 (H^m
    norm above 1e-6), the returned path is _saddle_path's descent path
    through the saddle, and c_estimate is that path's sampled supremum, the
    saddle energy: origin "saddle".  Otherwise the path is 0 -> x -> anchor,
    origin "located", and c_estimate its sampled supremum (node energies,
    0 -> x at _FINE_TS, x -> anchor at _TAIL_TS): raised to the saddle
    energy when the descent path cannot be built (the saddle has no negative
    eigenvalue, or a descent stalls), with converged False and solve the
    failed polish when the polish does not solve.  When the
    locator runs away (see _locate), Newton does not run: solve is x
    unpolished, with converged False.  converged means: the polished field
    solves the equation to tol (L^2 residual) and is non-constant.
    """
    u0, min_energy, failed_floor = _scan_anchor(lam, spec, -1.0, -0.05)
    x, e, steps, kept = _locate(u0, lam)
    if kept:
        solve = newton_solve(x, lam, tol=tol)
    else:
        r = el_residual(x, lam)
        solve = SolveResult(field=x, lam=lam, residual_l2=math.sqrt(l2_inner(r, r)),
                            grad_norm=math.sqrt(sobolev_norm_sq(gradient_h(x, lam))),
                            energy=energy_value(x, lam), iterations=0, converged=False,
                            message="min-mode locator ran above the straight path's level")
    solved = solve.converged and math.sqrt(sobolev_norm_sq(solve.field)) > 1e-6
    zero = zero_field(spec)
    path, mu, origin = None, math.nan, "saddle"
    if solved:
        path, level, mu = _saddle_path(zero, u0, solve, e)
    if path is None:
        path, origin = (zero, x, u0), "located"
        level = max(*(energy_value(v, lam) for v in path),
                    _crest(zero, x, lam, _FINE_TS), _crest(x, u0, lam, _TAIL_TS))
        if solved:
            level = max(level, solve.energy)
    return MPResult(c_estimate=level, iterations=steps, converged=solved, solve=solve,
                    path=path, anchor_min_energy=min_energy, anchor_failed_floor=failed_floor,
                    path_origin=origin, unstable_eigenvalue=mu)


@dataclass(frozen=True)
class LevelRow:
    """mountain_pass at one lam of a level sweep, without its path.

    energy and grad_norm belong to MPResult.solve, sweeps is
    MPResult.iterations (the locator's steps), and the other fields read as
    in MPResult.
    """

    lam: float
    c_estimate: float
    grad_norm: float
    sweeps: int
    converged: bool
    energy: float
    path_origin: str
    anchor_min_energy: float
    anchor_failed_floor: float


@dataclass(frozen=True)
class LevelSweepReport:
    """Sweep rows in increasing lam and the count of rises beyond slack between them."""

    rows: list[LevelRow]
    monotonicity_violations: int
    slack: float


def level_sweep(lambda_grid, spec: TorusSpec, tol: float = 1e-8) -> LevelSweepReport:
    """mountain_pass at each lam of the grid, in increasing order, and a monotonicity count.

    Every lam is checked before any run.  Each row has its own anchor and
    path; its anchor search cannot fall back to -0.05 where that of a
    smaller lam did not, because I_lam(t d) does not increase with lam.  The
    true pass level does not increase with lam either, but the estimates are
    separate runs, so the report counts each rise of c_estimate between
    successive rows beyond a 2% slack.
    """
    lams = sorted(float(v) for v in lambda_grid)
    if not lams:
        raise ValueError("empty lam grid")
    for lam in lams:
        _check_lam(lam, spec.m)
    rows: list[LevelRow] = []
    for lam in lams:
        res = mountain_pass(lam, spec, tol)
        rows.append(LevelRow(lam=lam, c_estimate=res.c_estimate, grad_norm=res.solve.grad_norm,
                             sweeps=res.iterations, converged=res.converged,
                             energy=res.solve.energy, path_origin=res.path_origin,
                             anchor_min_energy=res.anchor_min_energy,
                             anchor_failed_floor=res.anchor_failed_floor))
    violations = sum(
        1 for a, b in zip(rows, rows[1:])
        if b.c_estimate > a.c_estimate * (1.0 + _LEVEL_SLACK) + 1e-12
    )
    return LevelSweepReport(rows=rows, monotonicity_violations=violations, slack=_LEVEL_SLACK)
