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
    c_estimate: float
    maximizer: Field
    grad_norm: float
    iterations: int
    converged: bool
    lam: float
    solve: SolveResult
    path: PathState


@dataclass
class RelaxInfo:
    max_energies: list[float] = dataclass_field(default_factory=list)
    stalled: bool = False
    sweeps: int = 0


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
    """Anchor with I(u0) < min_energy and ||u0|| >= 1.

    Scans amplitudes along the grid's own concentration direction (scaled
    peak profile) and, if no amplitude dips below min_energy, continues from
    the deepest one by up to 2000 steps of preconditioned descent.  Raises
    ConvergenceError carrying the achieved floor if the grid's
    negative-energy set is too shallow (happens for lam barely above the
    coercivity threshold on coarse grids).
    """
    _interval_check(lam, spec.m)
    direction = concentration_direction(spec)
    ts = np.linspace(0.5, 40.0, 160)
    energies = []
    for t in ts:
        energies.append(energy_value(scaled(direction, float(t)), lam))
        if energies[-1] < min_energy:
            if t >= 1.0:
                return scaled(direction, float(t))
            break
    # the descent starts from the deepest amplitude of the whole scan
    energies += [energy_value(scaled(direction, float(t)), lam) for t in ts[len(energies):]]
    k = int(np.argmin(energies))
    u, e, step = scaled(direction, float(ts[k])), energies[k], 1.0
    for _ in range(2000):
        if e < min_energy:
            break
        accepted = next(_armijo_steps(u, e, lam, step), None)
        if accepted is None:
            break
        u, e, step = accepted
    if not e < min_energy:
        raise ConvergenceError(
            f"no anchor below {min_energy} at n={spec.n} (deepest energy found: {e:.4f}); "
            "refine the grid or relax min_energy", floor=e
        )
    if sobolev_norm_sq(u) < 1.0:
        raise ConvergenceError("anchor found but its norm is below 1", floor=e)
    return u


def init_path(u0: Field, segments: int, lam: float) -> PathState:
    """Linear path t -> t*u0 sampled at segments+1 equispaced nodes."""
    if segments < 8:
        raise ValueError("at least 8 segments required")
    nodes = [zero_field(u0.spec)]
    nodes += [scaled(u0, i / segments) for i in range(1, segments)]
    nodes.append(u0)
    return PathState(lam=float(lam), nodes=nodes)


def _respace(nodes: list[Field], energies: list[float], lam: float) -> tuple[list[Field], list[float]]:
    """Re-sample the polyline so successive energy gaps equalize.

    Interpolated nodes lie on the current polyline; a small H^m-length term
    keeps the weights positive through energy plateaus.
    """
    p = len(nodes) - 1
    weights = []
    for a, b, ea, eb in zip(nodes, nodes[1:], energies, energies[1:]):
        # ||b - a||^2 from the cached norms and one inner product: no transform
        dsq = sobolev_norm_sq(a) + sobolev_norm_sq(b) - 2.0 * sobolev_inner(a, b)
        weights.append(abs(eb - ea) + _RESPACE_NORM_WEIGHT * math.sqrt(max(dsq, 0.0)) + 1e-30)
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    targets = np.linspace(0.0, cum[-1], p + 1)
    new_nodes = [nodes[0]]
    new_energies = [energies[0]]
    for j in range(1, p):
        seg = min(int(np.searchsorted(cum, targets[j], side="right")) - 1, p - 1)
        theta = (targets[j] - cum[seg]) / (cum[seg + 1] - cum[seg])
        node = lincomb(1.0 - theta, nodes[seg], theta, nodes[seg + 1])
        new_nodes.append(node)
        new_energies.append(energy_value(node, lam))
    new_nodes.append(nodes[-1])
    new_energies.append(energies[-1])
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


def _segment_energies(a: Field, b: Field, lam: float, ts) -> np.ndarray:
    """I((1-t) a + t b) at each t, without building a field or taking a transform.

    The H^m seminorm is a Hilbert norm, so ||(1-t) a + t b||^2 is a quadratic
    in t with the coefficients ||a||^2, <a, b> and ||b||^2; only the log mass
    needs grid values, and all ts share one batched log-sum-exp.
    """
    t = np.asarray(ts, dtype=np.float64)
    s = 1.0 - t
    aa, bb, ab = sobolev_norm_sq(a), sobolev_norm_sq(b), sobolev_inner(a, b)
    dirichlet = 0.5 * (s * s * aa + 2.0 * s * t * ab + t * t * bb)
    vals = s[:, None] * a.values.reshape(-1) + t[:, None] * b.values.reshape(-1)
    m = a.spec.m
    return dirichlet - lam / (2.0 * m) * _log_mean_exp(2.0 * m * vals)


def _sampled_supremum(nodes: list[Field], energies: list[float], lam: float):
    """Max of node energies and segment samples; returns (energy, seg, t).

    seg is -1 when a node already attains the supremum; otherwise the sample
    is (1 - t) nodes[seg] + t nodes[seg + 1].
    """
    nseg = len(nodes) - 1
    best_e = max(energies)
    best_seg, best_t = -1, 0.0
    for i in range(nseg):
        ts = _segment_ts(i, nseg)
        es = _segment_energies(nodes[i], nodes[i + 1], lam, ts)
        j = int(np.argmax(es))
        if es[j] > best_e:
            best_e, best_seg, best_t = float(es[j]), i, ts[j]
    return best_e, best_seg, best_t


def relax_path(path: PathState, sweeps: int) -> tuple[PathState, RelaxInfo]:
    """Descend the dominant nodes of the path; endpoints stay pinned.

    Each sweep first pulls the sampled crest of the path into the node set
    (so the max node honestly tracks the path maximum even when the ridge is
    thin), then line-searches the top-energy node and its two neighbors
    (first trial step 2, then twice the last accepted step), then re-spaces
    by energy gaps whenever a node moved.  Moves and re-spacings are
    accepted only if the sampled crests of the touched segments stay below
    the current max-node energy: otherwise a single segment could silently
    vault the ridge.  Within a sweep, descent and re-spacing can only lower
    the captured max; between sweeps the capture may honestly reveal a
    higher crest hiding inside a segment.
    """
    lam = path.lam
    nodes = list(path.nodes)
    energies = [energy_value(nd, lam) for nd in nodes]
    info = RelaxInfo()
    step = 1.0
    max_nodes = max(3 * len(nodes), 24)

    def capture() -> None:
        _capture_insert(nodes, energies, lam, rounds=3, max_nodes=max_nodes)

    def crest_free(i: int, cand: Field, ceiling: float) -> bool:
        slack = 1e-9 * (1.0 + abs(ceiling))
        nseg = len(nodes) - 1
        left = np.max(_segment_energies(nodes[i - 1], cand, lam, _segment_ts(i - 1, nseg)))
        if left > ceiling + slack:
            return False
        right = np.max(_segment_energies(cand, nodes[i + 1], lam, _segment_ts(i, nseg)))
        return bool(right <= ceiling + slack)

    for _ in range(sweeps):
        capture()
        # the captured max is the sweep ceiling: descent and re-spacing below
        # are guarded so they can only lower it
        ceiling0 = max(energies)
        imax = int(np.argmax(energies))
        targets = [i for i in (imax, imax - 1, imax + 1) if 0 < i < len(nodes) - 1]
        moved = False
        for i in targets:
            ceiling = max(energies)
            for cand, ec, s in _armijo_steps(nodes[i], energies[i], lam, step):
                if crest_free(i, cand, ceiling):
                    nodes[i], energies[i], step, moved = cand, ec, s, True
                    break
        if moved:
            cand_nodes, cand_energies = _respace(nodes, energies, lam)
            ceiling = max(energies) + 1e-12 * (1.0 + abs(max(energies)))
            top_e, _, _ = _sampled_supremum(cand_nodes, cand_energies, lam)
            if top_e <= ceiling:
                nodes, energies = cand_nodes, cand_energies
        if max(energies) > ceiling0 + 1e-9 * (1.0 + abs(ceiling0)):
            raise ArithmeticError("descent raised the max-node energy within a sweep")
        info.max_energies.append(max(energies))
        info.sweeps += 1
        if not moved:
            info.stalled = True
            break
    return PathState(lam=lam, nodes=nodes), info


def _path_supremum(path: PathState) -> Field:
    """Point attaining the sampled path maximum (node or segment sample)."""
    lam = path.lam
    nodes = list(path.nodes)
    energies = [energy_value(nd, lam) for nd in nodes]
    _, seg, t = _sampled_supremum(nodes, energies, lam)
    if seg < 0:
        return nodes[int(np.argmax(energies))]
    return lincomb(1.0 - t, nodes[seg], t, nodes[seg + 1])


def _capture_insert(nodes: list[Field], energies: list[float], lam: float,
                    rounds: int, max_nodes: int) -> None:
    """Insert sampled crest points as nodes (in place).

    Insertion refines the polyline without changing it as a set, so the
    path supremum cannot increase; the max node just catches up to it.
    When the node count exceeds max_nodes, the lowest interior node is
    pruned, but only if the pruned polyline's sampled supremum stays below
    the current max (pruning creates a new chord).
    """
    for _ in range(rounds):
        top_e, seg, t = _sampled_supremum(nodes, energies, lam)
        if seg < 0 or top_e <= max(energies) + 1e-9 * (1.0 + abs(top_e)):
            break
        nodes.insert(seg + 1, lincomb(1.0 - t, nodes[seg], t, nodes[seg + 1]))
        energies.insert(seg + 1, top_e)
        if len(nodes) > max_nodes:
            interior = range(1, len(nodes) - 1)
            k = min((i for i in interior if i != seg + 1), key=lambda i: energies[i])
            pruned_nodes = nodes[:k] + nodes[k + 1:]
            pruned_energies = energies[:k] + energies[k + 1:]
            top_after, _, _ = _sampled_supremum(pruned_nodes, pruned_energies, lam)
            if top_after <= max(energies) + 1e-9 * (1.0 + abs(top_e)):
                nodes[:] = pruned_nodes
                energies[:] = pruned_energies


def _capture_ridge(path: PathState) -> tuple[PathState, float]:
    """Pull the node sampling up to the sampled path supremum.

    Returns the refined path and its max-node energy, an honest estimate of
    the path sup.
    """
    lam = path.lam
    nodes = list(path.nodes)
    energies = [energy_value(nd, lam) for nd in nodes]
    _capture_insert(nodes, energies, lam, rounds=4, max_nodes=3 * len(nodes))
    state = PathState(lam=lam, nodes=nodes)
    return state, float(max(energies))


def mountain_pass(lam: float, spec: TorusSpec, tol: float = 1e-8,
                  max_sweeps: int = 400, *, segments: int = 16) -> MPResult:
    """Estimate the pass level and polish the maximizer into a solution.

    The path runs from 0 to find_u0's anchor and relaxes in chunks of 30
    sweeps; after each chunk the path's sampled maximum is handed to the
    Newton solver.  A polish that collapses to the trivial state just
    means the sampling is still coarse, and relaxation resumes.  converged
    means: the polished field solves the equation to tol (L^2 residual), is
    non-constant, and its gradient norm is below tol.
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
        total_sweeps += max(info.sweeps, 1)
        solve = newton_solve(_path_supremum(path), lam, tol=tol)
        if solve.converged and _nontrivial(solve.field):
            best = solve
            break
        if best is None:
            best = solve
        if info.stalled:
            break
    path, c_estimate = _capture_ridge(path)
    converged = bool(best.converged and _nontrivial(best.field) and best.grad_norm <= tol)
    if converged:
        # the path crossed the ridge next to this saddle, so its crest is at
        # least the saddle level; report whichever estimate is sharper
        c_estimate = max(c_estimate, best.energy)
    return MPResult(
        c_estimate=c_estimate,
        maximizer=best.field,
        grad_norm=best.grad_norm,
        iterations=total_sweeps,
        converged=converged,
        lam=float(lam),
        solve=best,
        path=path,
    )


@dataclass(frozen=True)
class LevelRow:
    lam: float
    c_estimate: float
    grad_norm: float
    sweeps: int
    converged: bool


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
    Each row also carries a polished solution, continued from the previous
    lam's solution where available.
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
        path = PathState(lam=lam, nodes=list(path.nodes))
        used = 0
        while used < sweeps_per_lam:
            path, info = relax_path(path, min(20, sweeps_per_lam - used))
            used += max(info.sweeps, 1)
            if info.stalled:
                break
        path, c_est = _capture_ridge(path)
        guesses = []
        if prev_solution is not None:
            guesses.append(prev_solution)
        guesses.append(_path_supremum(path))
        best: SolveResult | None = None
        for guess in guesses:
            solve = newton_solve(guess, lam, tol=tol)
            if solve.converged and _nontrivial(solve.field):
                best = solve
                break
            if best is None:
                best = solve
        converged = bool(best.converged and _nontrivial(best.field))
        if converged:
            prev_solution = best.field
        rows.append(LevelRow(lam=lam, c_estimate=c_est, grad_norm=best.grad_norm,
                             sweeps=used, converged=converged))
    violations = sum(
        1 for a, b in zip(rows, rows[1:])
        if b.c_estimate > a.c_estimate * (1.0 + _LEVEL_SLACK) + 1e-12
    )
    return LevelSweepReport(rows=rows, monotonicity_violations=violations, slack=_LEVEL_SLACK,
                            anchor_min_energy=min_energy, anchor_failed_floor=failed_floor)
