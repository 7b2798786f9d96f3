"""Numerical min-max: paths from 0 to a negative-energy anchor, through the saddle.

A discrete path's dominant nodes are pushed along the preconditioned
descent direction with a backtracking line search for a few sweeps, enough
for Newton to polish its crest into a saddle u*.  It has Morse index at
most 1 (Hofer, Proc. AMS 90 (1984) 309), and the returned path leaves it
along the eigenvector of its negative eigenvalue: 0 -> steepest descent ->
u* -> steepest descent -> anchor (Fukui, J. Phys. Chem. 74 (1970) 4161;
Choi and McKenna, Nonlinear Anal. 20 (1993) 417).  Its sampled supremum,
the energy of u*, is the pass-level estimate.  When the descent path
cannot be built, the estimate is the sampled supremum of the captured
relaxed path, raised to the saddle energy, and when the polish fails, that
supremum.  Either way it is a sampled maximum of a path from 0 to the
anchor, not a bound: the path is not enclosed between samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConvergenceError
from .field import (
    Field,
    TorusSpec,
    _log_mean_exp,
    lincomb,
    scaled,
    sobolev_inner,
    sobolev_norm_sq,
    zero_field,
)
from .functional import constants, energy_value, gradient_h
from .solver import SolveResult, _lowest_eigenpair, concentration_direction, newton_solve

_RESPACE_NORM_WEIGHT = 1e-3  # regularizes energy-gap respacing on flat stretches
_LEVEL_SLACK = 0.02  # relative rise between sweep rows counted as a violation
_LOCATOR_SWEEPS = 8  # relaxation before the polish (see mountain_pass)
_DESCENT_STEPS = 400  # cap on each steepest-descent leg of the saddle path


@dataclass
class PathState:
    """Discrete path of mean-zero fields from 0 to the anchor u0, at one lam."""

    lam: float
    nodes: list[Field]

    def __post_init__(self):
        if len(self.nodes) < 3:
            raise ValueError("path needs at least 3 nodes (2 segments)")
        if float(np.max(np.abs(self.nodes[0].values))) != 0.0:
            raise ValueError("path must start at the zero field")


@dataclass(frozen=True)
class MPResult:
    """Pass level, sweeps used, the polish (solved or failed), returned path.

    path_origin is "saddle" when path is the descent path through the
    polished saddle and c_estimate its sampled supremum, and "relaxed" when
    path is the captured relaxed path (see mountain_pass).  The anchor met
    anchor_min_energy: -1, or -0.05 after the search for -1 stalled at
    anchor_failed_floor (NaN when it did not).  unstable_eigenvalue is the
    mu of _saddle_path, NaN when the polish did not solve.
    """

    c_estimate: float
    iterations: int
    converged: bool
    solve: SolveResult
    path: PathState
    anchor_min_energy: float
    anchor_failed_floor: float
    path_origin: str
    unstable_eigenvalue: float


@dataclass
class RelaxInfo:
    """Trajectory of one relax_path call, one list entry per sweep, and the crest it located.

    captured counts the nodes the crest capture inserted, one entry per
    sweep and a last one for the final capture; respace_rejected counts the
    sweeps whose re-spaced polyline was refused because a node energy or a
    segment crest rose above the max node.  Descent steps are plain Armijo
    steps, never refused.  level is the sampled supremum of the returned
    path, crest the point attaining it (a node, or a segment sample still
    above every node) and top the index of its max node.
    """

    max_energies: list[float] = dataclass_field(default_factory=list)
    captured: list[int] = dataclass_field(default_factory=list)
    respace_rejected: int = 0
    level: float = math.nan
    crest: Field | None = None
    top: int = -1

    @property
    def sweeps(self) -> int:
        return len(self.max_energies)


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


def init_path(u0: Field, segments: int, lam: float) -> PathState:
    """Linear path t -> t*u0 sampled at segments+1 equispaced nodes."""
    nodes = [zero_field(u0.spec)]
    nodes += [scaled(u0, i / segments) for i in range(1, segments)]
    nodes.append(u0)
    return PathState(lam=float(lam), nodes=nodes)


def _respace(nodes: list[Field], energies: list[float], table: _SegmentTable,
             ceiling: float) -> tuple[list[Field], list[float]] | None:
    """Re-sample the polyline so successive energy gaps equalize, or None.

    Interpolated nodes lie on the current polyline; a small H^m-length term
    keeps the weights positive through energy plateaus.  The candidate is
    built left to right, and None is returned at the first node energy or
    segment crest above ceiling, before the rest is built.  Each node energy
    and crest comes from the same operations as when the whole candidate is
    built first, so the verdict is that of its sampled supremum, bit for bit.
    """
    lam = table.lam
    p = len(nodes) - 1
    weights = []
    for a, b, ea, eb in zip(nodes, nodes[1:], energies, energies[1:]):
        # ||b - a||^2 from the cached norms and Gram entry: no transform
        dsq = sobolev_norm_sq(a) + sobolev_norm_sq(b) - 2.0 * table.inner(a, b)
        weights.append(abs(eb - ea) + _RESPACE_NORM_WEIGHT * math.sqrt(max(dsq, 0.0)) + 1e-30)
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    targets = np.linspace(0.0, cum[-1], p + 1)
    new_nodes = [nodes[0]]
    new_energies = [energies[0]]
    for j in range(1, p + 1):
        if j < p:
            seg = min(int(np.searchsorted(cum, targets[j], side="right")) - 1, p - 1)
            theta = (targets[j] - cum[seg]) / (cum[seg + 1] - cum[seg])
            node = lincomb(1.0 - theta, nodes[seg], theta, nodes[seg + 1])
            e = energy_value(node, lam)
        else:
            node, e = nodes[-1], energies[-1]
        if e > ceiling:
            return None
        crest, _ = table.crest(new_nodes[-1], node)
        if crest > ceiling:
            return None
        new_nodes.append(node)
        new_energies.append(e)
    return new_nodes, new_energies


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


class _SegmentTable:
    """Gram entries <a, b> and sampled crests of a path's segments at one lam, keyed on (a, b).

    Sampling parameters follow from the endpoints: _FINE_TS when a segment
    leaves the path's zero node, its mirror when it enters the anchor, and
    _SEGMENT_TS otherwise (no path replaces either endpoint object).  Keys
    are the node objects (a Field is immutable and hashes by identity; ids
    would be reused after garbage collection), and entries are computed by
    the same operations as without the table, so every energy and decision
    taken from them is bit-identical.  A table lives only in the call that
    builds it (relax_path, _saddle_path).
    """

    def __init__(self, lam: float, zero: Field, anchor: Field):
        self.lam, self.zero, self.anchor = lam, zero, anchor
        self._inner: dict[tuple[Field, Field], float] = {}
        self._crest: dict[tuple[Field, Field], tuple[float, float]] = {}

    def ts(self, a: Field, b: Field) -> tuple[float, ...]:
        if a is self.zero:
            return _FINE_TS
        if b is self.anchor:
            return _TAIL_TS
        return _SEGMENT_TS

    def inner(self, a: Field, b: Field) -> float:
        ab = self._inner.get((a, b))
        if ab is None:
            ab = self._inner[(a, b)] = sobolev_inner(a, b)
        return ab

    def crest(self, a: Field, b: Field) -> tuple[float, float]:
        """(max sampled energy, its t) on the segment from a to b."""
        hit = self._crest.get((a, b))
        if hit is None:
            ts = self.ts(a, b)
            es = _segment_energies(a, b, self.inner(a, b), self.lam, ts)
            j = int(np.argmax(es))
            hit = self._crest[(a, b)] = (float(es[j]), ts[j])
        return hit

    def keep_live(self, nodes: list[Field]) -> None:
        """Drop every entry that is not a segment of nodes, freeing dead node arrays."""
        live = set(zip(nodes, nodes[1:]))
        self._crest = {key: v for key, v in self._crest.items() if key in live}
        self._inner = {key: v for key, v in self._inner.items() if key in live}


def _sampled_supremum(nodes: list[Field], energies: list[float], table: _SegmentTable):
    """Max of node energies and segment samples; returns (energy, seg, t).

    seg is -1 when a node already attains the supremum; otherwise the sample
    is (1 - t) nodes[seg] + t nodes[seg + 1].  Segment crests are read
    through table, so a segment it has already sampled costs nothing.
    """
    best_e = max(energies)
    best_seg, best_t = -1, 0.0
    for i, (a, b) in enumerate(zip(nodes, nodes[1:])):
        e, t = table.crest(a, b)
        if e > best_e:
            best_e, best_seg, best_t = e, i, t
    return best_e, best_seg, best_t


def relax_path(path: PathState, sweeps: int) -> tuple[PathState, RelaxInfo]:
    """Descend the dominant nodes of the path; endpoints stay pinned.

    This is a locator: it brings the crest near the saddle for Newton to
    polish.  Each sweep pulls the sampled crest of the path into the node
    set, moves the top-energy node and its two neighbors by plain Armijo
    steps (first trial step 2, then twice the last accepted one; a node with
    no accepted step stays), and re-spaces by energy gaps if a node moved; a
    sweep that moves no node is the last, so info.sweeps < sweeps shows that
    case.  A re-spacing is accepted only if every new node energy and
    segment crest stays below the max node, and abandoned at the first one
    above, so the max-node energy cannot rise within a sweep
    (ArithmeticError if it does).  A step may raise a crest inside a
    neighboring segment; the next capture pulls it into the node set.  A
    final capture of up to 4 crest points ends the call, and info reports
    the returned path's sampled supremum (level), the point attaining it
    (crest, where mountain_pass polishes) and the index of its max node
    (top).

    Gram entries and segment crests are read through one table for the
    call (a segment is sampled once however many checks or sweeps read it),
    pruned to the live segments after each sweep; the results are
    bit-identical to sampling every segment afresh.
    """
    lam = path.lam
    nodes = list(path.nodes)
    energies = [energy_value(nd, lam) for nd in nodes]
    info = RelaxInfo()
    table = _SegmentTable(lam, nodes[0], nodes[-1])
    step = 1.0

    for _ in range(sweeps):
        info.captured.append(_capture_insert(nodes, energies, table, rounds=3))
        # the captured max is the sweep ceiling: Armijo steps lower node
        # energies, and the re-spacing is guarded so it cannot raise it
        ceiling0 = max(energies)
        imax = int(np.argmax(energies))
        targets = [i for i in (imax, imax - 1, imax + 1) if 0 < i < len(nodes) - 1]
        moved = False
        for i in targets:
            taken = _armijo_step(nodes[i], energies[i], lam, step)
            if taken is not None:
                nodes[i], energies[i], step = taken
                moved = True
        if moved:
            ceiling = max(energies) + 1e-12 * (1.0 + abs(max(energies)))
            respaced = _respace(nodes, energies, table, ceiling)
            if respaced is None:
                info.respace_rejected += 1
            else:
                nodes, energies = respaced
        if max(energies) > ceiling0 + 1e-9 * (1.0 + abs(ceiling0)):
            raise ArithmeticError("descent raised the max-node energy within a sweep")
        table.keep_live(nodes)
        info.max_energies.append(max(energies))
        if not moved:
            break
    info.captured.append(_capture_insert(nodes, energies, table, rounds=4))
    info.top = int(np.argmax(energies))
    level, seg, t = _sampled_supremum(nodes, energies, table)
    info.level = float(level)
    info.crest = nodes[info.top] if seg < 0 else lincomb(1.0 - t, nodes[seg], t, nodes[seg + 1])
    return PathState(lam=lam, nodes=nodes), info


def _capture_insert(nodes: list[Field], energies: list[float], table: _SegmentTable,
                    rounds: int) -> int:
    """Insert sampled crest points as nodes (in place); returns how many.

    Insertion refines the polyline without changing it as a set, so the
    path supremum cannot increase; the max node just catches up to it.
    """
    captured = 0
    for _ in range(rounds):
        top_e, seg, t = _sampled_supremum(nodes, energies, table)
        if seg < 0 or top_e <= max(energies) + 1e-9 * (1.0 + abs(top_e)):
            break
        nodes.insert(seg + 1, lincomb(1.0 - t, nodes[seg], t, nodes[seg + 1]))
        energies.insert(seg + 1, top_e)
        captured += 1
    return captured


def _descend(u: Field, end: Field, table: _SegmentTable,
             level: float) -> tuple[list[Field], list[float]] | None:
    """Steepest-descent nodes from u until the straight segment to end samples below level.

    end is the path's zero node or its anchor, and the segment is sampled as
    table samples it on the path (_FINE_TS from 0, _TAIL_TS into the anchor).
    Each step is _armijo_step's, the next trial starting at twice the last
    one.  Iterates not below level are left out, so the path joins the
    saddle to the first one below it.  Returns the nodes kept and their
    energies, or None when the line search finds no decrease or
    _DESCENT_STEPS run out.
    """
    lam = table.lam
    e, step = energy_value(u, lam), 1.0
    nodes: list[Field] = []
    energies: list[float] = []
    for _ in range(_DESCENT_STEPS):
        if e < level:
            nodes.append(u)
            energies.append(e)
            chord = (end, u) if end is table.zero else (u, end)
            if table.crest(*chord)[0] < level:
                return nodes, energies
        taken = _armijo_step(u, e, lam, step)
        if taken is None:
            return None
        u, e, step = taken
    return None


def _saddle_path(captured: PathState, solve: SolveResult,
                 top: int) -> tuple[PathState | None, float, float]:
    """The path 0 -> descent -> saddle -> descent -> anchor, its sampled supremum, and mu.

    mu and e are _lowest_eigenpair's at the saddle u* = solve.field, started
    from the captured path's tangent at its max node top (relax_path's
    info.top): e is the unstable direction.  u* is left by the steps +-eps e
    with eps ||e|| = 1e-3 ||u*||, oriented so <e, u*> > 0; the - side
    descends toward 0 and the + side toward the anchor.  The supremum is
    read through a table of this call's own, and u* attains it when no
    sample lies above solve.energy.  The path and supremum are None and NaN
    when mu is not negative (or NaN), a descent stalls, or the supremum
    exceeds solve.energy by more than 1e-9 relative.
    """
    lam, zero, anchor = captured.lam, captured.nodes[0], captured.nodes[-1]
    saddle, level = solve.field, solve.energy
    d = lincomb(1.0, captured.nodes[top + 1], -1.0, captured.nodes[top - 1])
    mu, e = _lowest_eigenpair(saddle, lam, d)
    if not mu < 0:  # mu >= 0, or NaN: the eigen-solve did not converge
        return None, math.nan, mu
    eps = math.copysign(1e-3 * math.sqrt(sobolev_norm_sq(saddle) / sobolev_norm_sq(e)),
                        sobolev_inner(e, saddle))
    table = _SegmentTable(lam, zero, anchor)
    down = _descend(lincomb(1.0, saddle, -eps, e), zero, table, level)
    up = _descend(lincomb(1.0, saddle, eps, e), anchor, table, level)
    if down is None or up is None:
        return None, math.nan, mu
    nodes = [zero, *reversed(down[0]), saddle, *up[0], anchor]
    energies = [energy_value(zero, lam), *reversed(down[1]), level, *up[1],
                energy_value(anchor, lam)]
    sup, _, _ = _sampled_supremum(nodes, energies, table)
    if sup > level + 1e-9 * (1.0 + abs(level)):
        return None, math.nan, mu
    return PathState(lam=lam, nodes=nodes), sup, mu


def mountain_pass(lam: float, spec: TorusSpec, tol: float = 1e-8) -> MPResult:
    """Estimate the pass level and polish the maximizer into a solution.

    The path runs from 0 to find_u0's anchor below -1, or below -0.05 when
    the search for -1 fails, on 16 segments.  It is relaxed _LOCATOR_SWEEPS
    sweeps (iterations counts them), and Newton runs once from the crest
    that relax_path's final capture located (info.crest); in every
    measured case that polish converges in 4-7 Newton steps.

    When the polish converges to tol away from the trivial state u = 0 (H^m
    norm above 1e-6), the returned path is _saddle_path's descent path
    through the saddle, and c_estimate is that path's sampled supremum, the
    saddle energy: origin "saddle".  When that path cannot be built (the
    saddle has no negative eigenvalue, or a descent stalls), the captured
    path is returned with the larger of its sampled supremum and
    the saddle energy (it crossed the ridge next to the saddle): origin
    "relaxed".  A polish that does not solve returns the captured path with
    its sampled supremum, origin "relaxed", converged False and solve the
    failed polish.  converged means: the polished field solves the equation
    to tol (L^2 residual) and is non-constant.
    """
    u0, min_energy, failed_floor = _scan_anchor(lam, spec, -1.0, -0.05)
    path, info = relax_path(init_path(u0, 16, lam), _LOCATOR_SWEEPS)
    level = info.level
    solve = newton_solve(info.crest, path.lam, tol=tol)
    solved = solve.converged and math.sqrt(sobolev_norm_sq(solve.field)) > 1e-6
    origin, mu = "relaxed", math.nan
    if solved:
        descent, sup, mu = _saddle_path(path, solve, info.top)
        if descent is None:
            level = max(level, solve.energy)
        else:
            path, level, origin = descent, sup, "saddle"
    return MPResult(c_estimate=level, iterations=info.sweeps, converged=solved, solve=solve,
                    path=path, anchor_min_energy=min_energy, anchor_failed_floor=failed_floor,
                    path_origin=origin, unstable_eigenvalue=mu)


@dataclass(frozen=True)
class LevelRow:
    """mountain_pass at one lam of a level sweep, without its path.

    energy and grad_norm belong to MPResult.solve, sweeps is
    MPResult.iterations, and the other fields read as in MPResult.
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
