"""Numerical min-max: paths from 0 to a negative-energy anchor, relaxed downhill.

The pass level is estimated from above by the max-node energy of a discrete
path whose dominant nodes are pushed along the preconditioned descent
direction with a backtracking line search; the near-critical maximizer is
then polished by the Newton solver.  Estimates are always upper bounds of
the discrete min-max level.
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
from .solver import SolveResult, concentration_direction, newton_solve

_RESPACE_NORM_WEIGHT = 1e-3  # regularizes energy-gap respacing on flat stretches
_LEVEL_SLACK = 0.02  # relative rise between sweep rows counted as a violation


@dataclass
class PathState:
    """Discrete path of mean-zero fields from 0 to the anchor u0."""

    lam: float
    nodes: list[Field]

    def __post_init__(self):
        if len(self.nodes) < 9:
            raise ValueError("path needs at least 9 nodes (8 segments)")
        if float(np.max(np.abs(self.nodes[0].values))) != 0.0:
            raise ValueError("path must start at the zero field")


@dataclass(frozen=True)
class MPResult:
    """Pass level, sweeps used, the polished solve (or first failed one), captured path."""

    c_estimate: float
    iterations: int
    converged: bool
    solve: SolveResult
    path: PathState


@dataclass
class RelaxInfo:
    """Trajectory of one relax_path call, one list entry per sweep.

    captured and pruned count the nodes the crest capture inserted and
    removed; descent_refused counts the line-search candidates refused
    because a crest of one of their two segments rose above the ceiling;
    respace_rejected counts the sweeps whose re-spaced polyline was refused
    because a node energy or a segment crest rose above the ceiling.
    """

    max_energies: list[float] = dataclass_field(default_factory=list)
    captured: list[int] = dataclass_field(default_factory=list)
    pruned: list[int] = dataclass_field(default_factory=list)
    descent_refused: list[int] = dataclass_field(default_factory=list)
    respace_rejected: int = 0
    stalled: bool = False

    @property
    def sweeps(self) -> int:
        return len(self.max_energies)


def _interval_check(lam: float, m: int) -> None:
    cst = constants(m)
    if not (cst.threshold_low < lam < cst.threshold_high):
        raise ValueError(
            f"lam={lam} outside the existence interval "
            f"({cst.threshold_low:.6f}, {cst.threshold_high:.6f}) for m={m}"
        )


def _multiple_of_quantum_check(lam: float, m: int) -> None:
    cst = constants(m)
    k = round(lam / cst.Lambda1)
    if k >= 1 and abs(lam - k * cst.Lambda1) <= 1e-9 * cst.Lambda1:
        raise ValueError(f"lam={lam} is an integer multiple of the quantum {cst.Lambda1:.6f}")


def _nontrivial(u: Field) -> bool:
    """Away from the trivial solution u = 0 in the H^m norm."""
    return math.sqrt(sobolev_norm_sq(u)) > 1e-6


def _armijo_steps(u: Field, e: float, lam: float, step: float):
    """Armijo backtracking along -g = -gradient_h(u) from I(u) = e.

    Trial steps s halve from 2*step down to 1e-14; yields (u - s g, its
    energy, s) for each one with energy <= e - 1e-4 s ||g||^2.
    """
    g = gradient_h(u, lam)
    gsq = sobolev_norm_sq(g)
    if gsq < 1e-28:
        return
    s = 2.0 * step
    while s > 1e-14:
        cand = lincomb(1.0, u, -s, g)
        ec = energy_value(cand, lam)
        if ec <= e - 1e-4 * s * gsq:
            yield cand, ec, s
        s *= 0.5


def find_u0(lam: float, spec: TorusSpec, *, min_energy: float = -1.0) -> Field:
    """Anchor t*d with I(t*d) < min_energy and t >= 1, d the unit concentration direction.

    Scans 160 amplitudes t from 0.5 to 40 along the grid's own concentration
    direction (scaled peak profile) and returns the first one with t >= 1
    below min_energy; ||t*d|| = t, so the anchor's norm is at least 1.
    Raises ConvergenceError carrying the deepest scanned energy as its floor
    if no amplitude qualifies (happens for lam barely above the coercivity
    threshold on coarse grids).
    """
    _interval_check(lam, spec.m)
    direction = concentration_direction(spec)
    energies = []
    for t in np.linspace(0.5, 40.0, 160):
        u = scaled(direction, float(t))
        energies.append(energy_value(u, lam))
        if t >= 1.0 and energies[-1] < min_energy:
            return u
    floor = min(energies)
    raise ConvergenceError(
        f"no anchor below {min_energy} at n={spec.n} (deepest energy found: {floor:.4f}); "
        "refine the grid or relax min_energy", floor=floor
    )


def init_path(u0: Field, segments: int, lam: float) -> PathState:
    """Linear path t -> t*u0 sampled at segments+1 equispaced nodes."""
    nodes = [zero_field(u0.spec)]
    nodes += [scaled(u0, i / segments) for i in range(1, segments)]
    nodes.append(u0)
    return PathState(lam=float(lam), nodes=nodes)


def _respace(nodes: list[Field], energies: list[float], cache: _SegmentCache,
             ceiling: float) -> tuple[list[Field], list[float]] | None:
    """Re-sample the polyline so successive energy gaps equalize, or None.

    Interpolated nodes lie on the current polyline; a small H^m-length term
    keeps the weights positive through energy plateaus.  The candidate is
    built left to right, and None is returned at the first node energy or
    segment crest above ceiling, before the rest is built.  Each node energy
    and crest comes from the same operations as when the whole candidate is
    built first, so the verdict is that of its sampled supremum, bit for bit.
    """
    lam = cache.lam
    p = len(nodes) - 1
    weights = []
    for a, b, ea, eb in zip(nodes, nodes[1:], energies, energies[1:]):
        # ||b - a||^2 from the cached norms and Gram entry: no transform
        dsq = sobolev_norm_sq(a) + sobolev_norm_sq(b) - 2.0 * cache.inner(a, b)
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
        crest, _ = cache.crest(new_nodes[-1], node, _segment_ts(j - 1, p))
        if crest > ceiling:
            return None
        new_nodes.append(node)
        new_energies.append(e)
    return new_nodes, new_energies


_SEGMENT_TS = (0.25, 0.5, 0.75)
_FINE_TS = tuple(float(t) for t in np.geomspace(1.0 / 256.0, 0.5, 8)) + (0.75, 0.875)


def _segment_ts(i: int, nseg: int) -> tuple[float, ...]:
    """Sampling parameters inside segment i; end segments get fine geometric tails."""
    if i == 0:
        return _FINE_TS
    if i == nseg - 1:
        return tuple(1.0 - t for t in _FINE_TS)
    return _SEGMENT_TS


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


class _SegmentCache:
    """Gram entries <a, b> and sampled crests of path segments at one lam.

    Entries are keyed on the node objects (a Field is immutable and hashes by
    identity; ids would be reused after garbage collection) and computed by
    the same operations as without the cache, so every energy and every
    decision taken from them is bit-identical.  Local to one caller, so
    concurrent calls share nothing.
    """

    def __init__(self, lam: float):
        self.lam = lam
        self._inner: dict[tuple[Field, Field], float] = {}
        self._crest: dict[tuple[Field, Field, tuple[float, ...]], tuple[float, float]] = {}

    def inner(self, a: Field, b: Field) -> float:
        ab = self._inner.get((a, b))
        if ab is None:
            ab = self._inner[(a, b)] = sobolev_inner(a, b)
        return ab

    def crest(self, a: Field, b: Field, ts: tuple[float, ...]) -> tuple[float, float]:
        """(max sampled energy, its t) on the segment from a to b."""
        key = (a, b, ts)
        hit = self._crest.get(key)
        if hit is None:
            es = _segment_energies(a, b, self.inner(a, b), self.lam, ts)
            j = int(np.argmax(es))
            hit = self._crest[key] = (float(es[j]), ts[j])
        return hit

    def keep_live(self, nodes: list[Field]) -> None:
        """Drop every entry that is not a segment of nodes, freeing dead node arrays."""
        nseg = len(nodes) - 1
        live = {(a, b, _segment_ts(i, nseg)) for i, (a, b) in enumerate(zip(nodes, nodes[1:]))}
        self._crest = {key: v for key, v in self._crest.items() if key in live}
        pairs = {key[:2] for key in live}
        self._inner = {key: v for key, v in self._inner.items() if key in pairs}


def _sampled_supremum(nodes: list[Field], energies: list[float], cache: _SegmentCache):
    """Max of node energies and segment samples; returns (energy, seg, t).

    seg is -1 when a node already attains the supremum; otherwise the sample
    is (1 - t) nodes[seg] + t nodes[seg + 1].  Segment crests are read
    through cache, so a segment already sampled at this lam costs nothing.
    """
    nseg = len(nodes) - 1
    best_e = max(energies)
    best_seg, best_t = -1, 0.0
    for i in range(nseg):
        e, t = cache.crest(nodes[i], nodes[i + 1], _segment_ts(i, nseg))
        if e > best_e:
            best_e, best_seg, best_t = e, i, t
    return best_e, best_seg, best_t


def relax_path(path: PathState, sweeps: int) -> tuple[PathState, RelaxInfo]:
    """Descend the dominant nodes of the path; endpoints stay pinned.

    Each sweep first pulls the sampled crest of the path into the node set
    (so the max node honestly tracks the path maximum even when the ridge is
    thin), then line-searches the top-energy node and its two neighbors
    (first trial step 2, then twice the last accepted step), then re-spaces
    by energy gaps whenever a node moved.  Moves are accepted only if the
    sampled crests of the touched segments stay below the current max-node
    energy, and re-spacings only if every new node energy and segment crest
    does: otherwise a single segment could silently vault the ridge.  A
    re-spacing is abandoned at its first node or crest above that ceiling.
    Within a sweep, descent and re-spacing can only lower the captured max;
    between sweeps the capture may honestly reveal a higher crest hiding
    inside a segment.

    Gram entries and segment crests are cached for the duration of the call
    (a segment is sampled once however many checks read it) and pruned to
    the live segments after each sweep; the results are bit-identical to
    sampling every segment afresh.
    """
    lam = path.lam
    nodes = list(path.nodes)
    energies = [energy_value(nd, lam) for nd in nodes]
    info = RelaxInfo()
    cache = _SegmentCache(lam)
    step = 1.0
    max_nodes = max(3 * len(nodes), 24)

    def crest_free(i: int, cand: Field, ceiling: float) -> bool:
        slack = 1e-9 * (1.0 + abs(ceiling))
        nseg = len(nodes) - 1
        left, _ = cache.crest(nodes[i - 1], cand, _segment_ts(i - 1, nseg))
        if left > ceiling + slack:
            return False
        right, _ = cache.crest(cand, nodes[i + 1], _segment_ts(i, nseg))
        return right <= ceiling + slack

    for _ in range(sweeps):
        captured, pruned = _capture_insert(nodes, energies, cache, rounds=3, max_nodes=max_nodes)
        info.captured.append(captured)
        info.pruned.append(pruned)
        # the captured max is the sweep ceiling: descent and re-spacing below
        # are guarded so they can only lower it
        ceiling0 = max(energies)
        imax = int(np.argmax(energies))
        targets = [i for i in (imax, imax - 1, imax + 1) if 0 < i < len(nodes) - 1]
        moved = False
        refused = 0
        for i in targets:
            ceiling = max(energies)
            for cand, ec, s in _armijo_steps(nodes[i], energies[i], lam, step):
                if crest_free(i, cand, ceiling):
                    nodes[i], energies[i], step, moved = cand, ec, s, True
                    break
                refused += 1
        info.descent_refused.append(refused)
        if moved:
            ceiling = max(energies) + 1e-12 * (1.0 + abs(max(energies)))
            respaced = _respace(nodes, energies, cache, ceiling)
            if respaced is None:
                info.respace_rejected += 1
            else:
                nodes, energies = respaced
        if max(energies) > ceiling0 + 1e-9 * (1.0 + abs(ceiling0)):
            raise ArithmeticError("descent raised the max-node energy within a sweep")
        cache.keep_live(nodes)
        info.max_energies.append(max(energies))
        if not moved:
            info.stalled = True
            break
    return PathState(lam=lam, nodes=nodes), info


def _capture_insert(nodes: list[Field], energies: list[float], cache: _SegmentCache,
                    rounds: int, max_nodes: int) -> tuple[int, int]:
    """Insert sampled crest points as nodes (in place); returns (inserted, pruned).

    Insertion refines the polyline without changing it as a set, so the
    path supremum cannot increase; the max node just catches up to it.
    When the node count exceeds max_nodes, the lowest interior node is
    pruned, but only if the pruned polyline's sampled supremum stays below
    the current max (pruning creates a new chord).
    """
    captured = pruned = 0
    for _ in range(rounds):
        top_e, seg, t = _sampled_supremum(nodes, energies, cache)
        if seg < 0 or top_e <= max(energies) + 1e-9 * (1.0 + abs(top_e)):
            break
        nodes.insert(seg + 1, lincomb(1.0 - t, nodes[seg], t, nodes[seg + 1]))
        energies.insert(seg + 1, top_e)
        captured += 1
        if len(nodes) > max_nodes:
            interior = range(1, len(nodes) - 1)
            k = min((i for i in interior if i != seg + 1), key=lambda i: energies[i])
            pruned_nodes = nodes[:k] + nodes[k + 1:]
            pruned_energies = energies[:k] + energies[k + 1:]
            top_after, _, _ = _sampled_supremum(pruned_nodes, pruned_energies, cache)
            if top_after <= max(energies) + 1e-9 * (1.0 + abs(top_e)):
                nodes[:] = pruned_nodes
                energies[:] = pruned_energies
                pruned += 1
    return captured, pruned


def _capture(path: PathState) -> tuple[PathState, float, Field]:
    """Pull the node sampling up to the sampled path supremum.

    Returns the refined path, its max-node energy (an honest estimate of the
    path sup, the crest) and the point attaining the refined path's sampled
    maximum (a node, or a segment sample still above every node).
    """
    lam = path.lam
    nodes = list(path.nodes)
    energies = [energy_value(nd, lam) for nd in nodes]
    cache = _SegmentCache(lam)
    _capture_insert(nodes, energies, cache, rounds=4, max_nodes=3 * len(nodes))
    _, seg, t = _sampled_supremum(nodes, energies, cache)
    if seg < 0:
        top = nodes[int(np.argmax(energies))]
    else:
        top = lincomb(1.0 - t, nodes[seg], t, nodes[seg + 1])
    return PathState(lam=lam, nodes=nodes), float(max(energies)), top


def _polish(path: PathState, tol: float,
            warm: Field | None = None) -> tuple[PathState, float, SolveResult, bool]:
    """Capture the ridge and polish into a solution; returns (path, level, solve, solved).

    Newton runs from warm (when given), then from the captured path's sampled
    maximum, until a solve converges to tol away from the trivial state (else
    solve is the first failed one).  A path polished to a saddle crossed the
    ridge next to it, so the level is then the larger of crest and saddle
    energy, and the crest otherwise.
    """
    path, crest, top = _capture(path)
    guesses = [top] if warm is None else [warm, top]
    first = None
    for guess in guesses:
        solve = newton_solve(guess, path.lam, tol=tol)
        if solve.converged and _nontrivial(solve.field):
            return path, max(crest, solve.energy), solve, True
        if first is None:
            first = solve
    return path, crest, first, False


def _relax_in_chunks(path: PathState, budget: int) -> tuple[PathState, int]:
    """20-sweep relax_path calls until budget is spent or one stalls; returns (path, used)."""
    used = 0
    while used < budget:
        path, info = relax_path(path, min(20, budget - used))
        used += info.sweeps
        if info.stalled:
            break
    return path, used


def mountain_pass(lam: float, spec: TorusSpec, tol: float = 1e-8,
                  max_sweeps: int = 400, *, segments: int = 16) -> MPResult:
    """Estimate the pass level and polish the maximizer into a solution.

    The path runs from 0 to find_u0's anchor and relaxes in chunks of 30
    sweeps; after each chunk the captured path's sampled maximum is handed
    to the Newton solver (_polish).  A polish that collapses to the trivial
    state just means the sampling is still coarse, and relaxation of the
    uncaptured path resumes.  converged means: the polished field solves the
    equation to tol (L^2 residual) and is non-constant.
    """
    _multiple_of_quantum_check(lam, spec.m)
    _interval_check(lam, spec.m)
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    path = init_path(find_u0(lam, spec), segments, lam)
    total_sweeps = 0
    best: SolveResult | None = None
    while total_sweeps < max_sweeps:
        path, info = relax_path(path, min(30, max_sweeps - total_sweeps))
        total_sweeps += info.sweeps
        captured, c_estimate, solve, solved = _polish(path, tol)
        if solved or best is None:
            best = solve
        if solved or info.stalled:
            break
    return MPResult(c_estimate=c_estimate, iterations=total_sweeps, converged=solved,
                    solve=best, path=captured)


@dataclass(frozen=True)
class LevelRow:
    """One lam of a level sweep; energy and grad_norm belong to the polished solve."""

    lam: float
    c_estimate: float
    grad_norm: float
    sweeps: int
    converged: bool
    energy: float


@dataclass(frozen=True)
class LevelSweepReport:
    """Sweep rows and their monotonicity check.

    The anchor met anchor_min_energy: -1, or -0.05 after the search for -1
    stalled at anchor_failed_floor (NaN when it did not).
    """

    rows: list[LevelRow]
    monotonicity_violations: int
    slack: float
    anchor_min_energy: float
    anchor_failed_floor: float


def level_sweep(lambda_grid, spec: TorusSpec, tol: float = 1e-8,
                *, sweeps_per_lam: int = 60) -> LevelSweepReport:
    """Pass-level estimates over an increasing lam grid with one shared path.

    The anchor is found once at the smallest lam (its energy only decreases
    at larger lam), and the 16-segment path from 0 to it is re-relaxed at
    each lam with a fixed sweep budget.  Because the energy is pointwise
    non-increasing in lam, warm-started estimates are monotone by
    construction; the report still counts violations beyond a 2% slack.
    Each row also carries a polished solution (_polish), continued from the
    previous lam's solution where available; a solved row's estimate is at
    least its solution's energy.
    """
    lams = sorted(float(v) for v in lambda_grid)
    if not lams:
        raise ValueError("empty lam grid")
    for lam in lams:
        _interval_check(lam, spec.m)
    min_energy, failed_floor = -1.0, math.nan
    try:
        u0 = find_u0(lams[0], spec, min_energy=min_energy)
    except ConvergenceError as exc:
        min_energy, failed_floor = -0.05, exc.floor
        u0 = find_u0(lams[0], spec, min_energy=min_energy)
    path = init_path(u0, 16, lams[0])
    rows: list[LevelRow] = []
    prev_solution: Field | None = None
    for lam in lams:
        path, used = _relax_in_chunks(PathState(lam=lam, nodes=list(path.nodes)), sweeps_per_lam)
        path, c_est, best, converged = _polish(path, tol, warm=prev_solution)
        if converged:
            prev_solution = best.field
        rows.append(LevelRow(lam=lam, c_estimate=c_est, grad_norm=best.grad_norm,
                             sweeps=used, converged=converged, energy=best.energy))
    violations = sum(
        1 for a, b in zip(rows, rows[1:])
        if b.c_estimate > a.c_estimate * (1.0 + _LEVEL_SLACK) + 1e-12
    )
    return LevelSweepReport(rows=rows, monotonicity_violations=violations, slack=_LEVEL_SLACK,
                            anchor_min_energy=min_energy, anchor_failed_floor=failed_floor)
