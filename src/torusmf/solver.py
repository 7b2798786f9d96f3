"""Newton-Krylov solution of the Euler-Lagrange equation, continuation, multistart.

The outer iteration is a damped Newton method on the residual of

    (-Lap)^m u + lam = lam * exp(2m u) / integral(exp(2m u)),

restricted to mean-zero fields.  Each step solves H delta = -r by MINRES
(Paige & Saunders 1975), preconditioned by M = (-Lap)^m: H is M plus a
compact part, so Krylov counts are essentially grid-independent, and H is
symmetric but indefinite near saddles.  The right-hand side has unit H^m
dual norm, since MINRES's estimate of ||A|| includes ||b||.

MINRES runs on grid values with scipy.sparse.linalg.minres's recurrences and
stopping tests, but takes ||x|| in the M-norm, so in exact arithmetic its
iterates are those of MINRES on M^-1/2 H M^-1/2 (they are not scipy's bits).
A Lanczos vector is v = M^-1 r / beta, so M v = r / beta is free, and the
recurrences carry (-Lap)^m delta beside delta, so Newton iterates and line
search candidates need no transform.  The forward transform of r gives beta
(and Newton's grad_norm) as field's H^-m mode sum; the inverse runs
only when the next Lanczos step reads it.  A Newton step of k Lanczos steps
costs 2k+1 real FFTs.  Reductions are einsums or numpy means, never BLAS
dots, so a solve gives the same bits under any BLAS thread count.

The lowest eigenpair of H against M (a saddle's unstable direction) comes
from a single-vector LOBPCG preconditioned by M^-1 on such carried pairs:
one M^-1 (two real FFTs) per step, and numpy's eigh only on 3 x 3 matrices.

The Newton loop and MINRES work in per-thread scratch arrays, kept between
calls and reallocated when the grid changes; results never alias them.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .field import (
    Field,
    TorusSpec,
    _forward_rfft,
    _inverse_rfft,
    _mean_product,
    _multiplicity,
    _multiplier,
    _peak_index,
    _sobolev_dot,
    _wavenumbers,
    from_values,
    lincomb,
    scaled,
    sobolev_norm_sq,
    solve_poisson_power,
)
from .functional import (
    _check_nonnegative,
    _normalized_exp_weight,
    _residual_and_weight,
    energy_value,
)

_MAX_ITER = 30  # Newton steps before a solve gives up
_EIG_TOL = 1e-6  # H^-m dual norm of an eigen-solve's residual at an M-normal x
_EIG_MAX_ITER = 40  # M^-1 applications before an eigen-solve gives up


@dataclass(frozen=True)
class SolveResult:
    field: Field
    lam: float
    residual_l2: float
    grad_norm: float
    energy: float
    iterations: int
    converged: bool
    message: str = ""
    residual_history: tuple[float, ...] = ()  # L^2 residual at each iterate


@dataclass
class Branch:
    """Continuation path in lam: converged solutions and why the branch ended."""

    results: list[SolveResult] = dataclass_field(default_factory=list)
    termination: str = "reached_end"


class _Workspace(threading.local):
    """The calling thread's scratch arrays by name, reallocated when the shape changes.

    "newton" holds Newton's iterate, candidate and step pairs, weight, residual
    and six more arrays: MINRES runs in those six, the candidate pair and the
    residual.  "half" is the half spectrum that both transform through.
    """

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        array = self.arrays.get(name)
        if array is None or array.shape != shape:
            array = self.arrays[name] = np.empty(shape, dtype)
        return array


_workspace = _Workspace()


def _dual_norm_sq(half: np.ndarray, spec: TorusSpec) -> float:
    """<f, (-Lap)^-m f>, the squared H^m dual norm of f, from its half spectrum rfftn(f)."""
    return _sobolev_dot(spec, half, half, -spec.m) / spec.npoints**2


def _weight_term(weight: np.ndarray, coef: float, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """coef * [W v - W mean(W v)] into out (which may be v); with coef = -2m lam,
    (-Lap)^m v plus this is the Hessian product H v on a mean-zero v."""
    np.subtract(v, _mean_product(weight, v), out=out)
    out *= weight
    out *= coef
    return out


def _minres(spec: TorusSpec, weight: np.ndarray, lam: float, b: np.ndarray, half: np.ndarray,
            out: np.ndarray, scratch, *, rtol: float, maxiter: int) -> int:
    """MINRES for H x = b from x = 0, preconditioned by M = (-Lap)^m (module docstring).

    H is the Hessian at the normalized exponential weight and lam.  b is a
    mean-zero grid array and half its rfftn; both are overwritten, and so are
    the eight grid arrays of scratch.  x and (-Lap)^m x go to out[0] and
    out[1].  Returns maxiter when the iteration limit ends the solve, else 0.
    No array is zero-filled: the first step writes x and (-Lap)^m x, and
    _direction leaves out the terms that are 0 at steps 1 and 2.
    """
    eps = np.finfo(np.float64).eps
    x, lap_x = out
    beta1 = math.sqrt(_dual_norm_sq(half, spec))
    if beta1 == 0 or maxiter < 1:
        out.fill(0.0)
        return 0
    v, lap_v, hv, r1, w, w2, lap_w, lap_w2 = scratch
    inverse = _multiplier(spec, -float(spec.m))
    coef = -2.0 * spec.m * lam

    oldb = dbar = epsln = sn = gmax = 0
    cs = -1
    beta = phibar = beta1
    tnorm2 = 0
    gmin = np.finfo(np.float64).max
    r2 = b  # r1's storage is not read at the first step
    for itn in range(1, maxiter + 1):
        # Lanczos step: v = M^-1 r2 / beta from r2's half spectrum, M v = r2 / beta;
        # then y = H v - (beta/oldb) r1 - (alfa/beta) r2 becomes the new r2
        half *= inverse
        _inverse_rfft(half, spec, out=v)
        v *= 1.0 / beta
        np.multiply(1.0 / beta, r2, out=lap_v)
        np.add(lap_v, _weight_term(weight, coef, v, out=hv), out=hv)
        if itn >= 2:
            np.multiply(beta / oldb, r1, out=r1)
            y = np.subtract(hv, r1, out=r1)
        else:
            y, hv = hv, r1
        alfa = _mean_product(v, y)
        y -= np.multiply(alfa / beta, r2, out=hv)
        r1, r2 = r2, y
        oldb = beta
        beta = math.sqrt(_dual_norm_sq(_forward_rfft(r2, out=half), spec))
        tnorm2 += alfa**2 + oldb**2 + beta**2

        # apply the previous rotation, then compute the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        denom = 1.0 / gamma
        # w = (v - oldeps * w1 - delta * w2) * denom, and M w from M v alike,
        # each built in the storage of its w1, which no later step reads
        w1, w2 = w2, w
        w = _direction(itn, v, oldeps, w1, delta, w2, denom, hv)
        lap_w1, lap_w2 = lap_w2, lap_w
        lap_w = _direction(itn, lap_v, oldeps, lap_w1, delta, lap_w2, denom, hv)
        if itn == 1:
            np.multiply(phi, w, out=x)
            np.multiply(phi, lap_w, out=lap_x)
        else:
            x += np.multiply(phi, w, out=hv)
            lap_x += np.multiply(phi, lap_w, out=hv)
        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)

        # norm estimates and stopping tests; the first one: b is an
        # eigenvector of the preconditioned operator
        anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(max(_mean_product(x, lap_x), 0.0))
        epsx = anorm * ynorm * eps
        test1 = math.inf if ynorm == 0 or anorm == 0 else phibar / (anorm * ynorm)
        test2 = math.inf if anorm == 0 else root / anorm
        if (itn == 1 and beta / beta1 <= 10 * eps or 1 + test2 <= 1 or 1 + test1 <= 1
                or gmax / gmin >= 0.1 / eps or epsx >= beta1 or test2 <= rtol or test1 <= rtol):
            return 0
    return maxiter


def _direction(itn, v, oldeps, w1, delta, w2, denom, scratch) -> np.ndarray:
    """(v - oldeps * w1 - delta * w2) * denom at Lanczos step itn, written into w1.

    oldeps is 0 at steps 1 and 2 and delta at step 1, where w1 and w2 hold no
    earlier direction (a reused row may hold inf, and 0 * inf is NaN), so
    those terms are left out; the result has the bits of the full formula.
    """
    if itn <= 2:
        np.copyto(w1, v)
    else:
        np.subtract(v, np.multiply(oldeps, w1, out=w1), out=w1)
    if itn >= 2:
        w1 -= np.multiply(delta, w2, out=scratch)
    w1 *= denom
    return w1


def _lowest_eigenpair(u: Field, lam: float, start: Field) -> tuple[float, Field]:
    """Lowest eigenpair (mu, x) of H x = mu M x, M = (-Lap)^m, by LOBPCG (Knyazev 2001).

    H is the Hessian at u.  The iteration runs from start in the M inner
    product with M^-1 as preconditioner (module docstring); x is M-normal.
    Rayleigh-Ritz on span(x, w, p) orthonormalizes by an eigh of the Gram
    matrix, dropping directions below 1e-10 of its largest eigenvalue.  mu is NaN when the
    residual Hx - mu Mx has not reached H^-m dual norm _EIG_TOL after
    _EIG_MAX_ITER steps.
    """
    spec = u.spec
    weight = _normalized_exp_weight(u.values, spec.m).reshape(-1)
    coef = -2.0 * spec.m * lam
    inverse = _multiplier(spec, -float(spec.m))
    # basis[j] = (values, M values, H values) of x, w = M^-1 r (so M w = r) and p
    basis = np.empty((3, 3, spec.npoints))
    x = basis[0]
    x[0], x[1] = (a.reshape(-1) for a in _start_pair(start))
    _hessian_rows(weight, coef, x, math.sqrt(_mean_product(x[0], x[1])))
    mu = _mean_product(x[0], x[2])
    half = _workspace.get("half", _multiplicity(spec).shape, np.complex128)
    w, size = basis[1], 2
    for applied in range(_EIG_MAX_ITER + 1):
        np.subtract(x[2], np.multiply(mu, x[1], out=w[1]), out=w[1])
        res = math.sqrt(_dual_norm_sq(_forward_rfft(w[1].reshape(spec.shape), out=half), spec))
        if res <= _EIG_TOL or applied == _EIG_MAX_ITER:
            break
        half *= inverse
        _inverse_rfft(half, spec, out=w[0].reshape(spec.shape))
        _hessian_rows(weight, coef, w, res)
        gram, proj = np.einsum("in,jkn->kij", basis[:size, 0], basis[:size, 1:]) / spec.npoints
        s, q = np.linalg.eigh(0.5 * (gram + gram.T))
        keep = s > 1e-10 * s[-1]
        z = q[:, keep] / np.sqrt(s[keep])
        theta, y = np.linalg.eigh(z.T @ (0.5 * (proj + proj.T)) @ z)
        c, mu = z @ y[:, 0], float(theta[0])
        # p is the w and p part of the new Ritz vector, x the whole
        basis[0], basis[2] = (np.einsum("j,jkn->kn", c, basis[:size]),
                              np.einsum("j,jkn->kn", c[1:], basis[1:size]))
        size = 3
    return (mu if res <= _EIG_TOL else math.nan), Field(spec, x[0].reshape(spec.shape))


def _hessian_rows(weight: np.ndarray, coef: float, rows: np.ndarray, norm: float) -> None:
    """Scale x = rows[0] and M x = rows[1] by 1/norm, then write H x = M x + W-term into rows[2]."""
    rows[:2] /= norm
    np.add(rows[1], _weight_term(weight, coef, rows[0], out=rows[2]), out=rows[2])


def smallest_hessian_eigenvalue(u: Field, lam: float) -> float:
    """Lowest eigenvalue of the second variation against the H^m inner product.

    _lowest_eigenpair from a fixed random start; NaN when it does not
    converge.  The spectrum accumulates at 1 from the high modes; a value
    near zero signals a bifurcation point, a negative one a saddle direction.
    """
    start = from_values(u.spec, np.random.default_rng(0).standard_normal(u.spec.shape))
    return _lowest_eigenpair(u, lam, start)[0]


def newton_solve(guess: Field, lam: float, tol: float = 1e-10) -> SolveResult:
    """Damped Newton iteration on the Euler-Lagrange residual.

    Convergence means the L^2 residual is below tol (the H^m dual gradient
    norm is then automatically below tol/(2 pi)^m).  A failed solve does not
    raise: it returns converged=False, its last iterate, its residual history
    and a message naming the cause (_MAX_ITER steps spent, a MINRES breakdown
    or a line-search stall).  At a bifurcation point Newton creeps and spends
    its steps; smallest_hessian_eigenvalue tells that from a slow start.
    """
    return _newton(guess.spec, _start_pair(guess), lam, tol)


def _start_pair(guess: Field) -> tuple[np.ndarray, np.ndarray]:
    """The first iterate of Newton or _lowest_eigenpair: a guess's values (mean-zero)
    and (-Lap)^m values, with no Field or spectrum.

    The transforms go through the calling thread's half-spectrum scratch, in
    apply_power_laplacian's operations and order, so the pair has its bits.
    """
    spec = guess.spec
    half = _forward_rfft(guess.values, out=_workspace.get("half", _multiplicity(spec).shape,
                                                          np.complex128))
    half /= spec.npoints
    half *= _multiplier(spec, float(spec.m))
    half *= spec.npoints
    return guess.values, _inverse_rfft(half, spec)


def _newton(spec: TorusSpec, start: tuple, lam: float, tol: float) -> SolveResult:
    """newton_solve from a _start_pair, which it only reads."""
    _check_nonnegative(lam)
    m = spec.m
    # the iterate as (values, (-Lap)^m values), and the step likewise: both
    # move linearly along a step.  A line-search candidate goes to the other
    # array of each pair, its residual and weight over the iterate's, which
    # are no longer read
    rows = _workspace.get("newton", (14,) + spec.shape)
    u, cand, lap, cand_lap, residual, weight, delta, lap_delta = rows[:8]
    np.copyto(u, start[0])
    np.copyto(lap, start[1])
    _residual_and_weight(u, lap, lam, m, residual, weight)
    half = _workspace.get("half", _multiplicity(spec).shape, np.complex128)
    message = ""
    converged = False
    history: list[float] = []
    for iterations in range(_MAX_ITER + 1):
        res_l2 = math.sqrt(_mean_product(residual, residual))
        grad_norm = math.sqrt(_dual_norm_sq(_forward_rfft(residual, out=half), spec))
        history.append(res_l2)
        if res_l2 <= tol:
            converged = True
            break
        if iterations == _MAX_ITER:
            message = f"max_iter={_MAX_ITER} exceeded (residual {res_l2:.3e})"
            break
        rtol = min(1e-2, max(res_l2, 0.01 * tol / res_l2))
        # the right-hand side -r at unit dual norm, in values and half spectrum
        residual *= -1.0 / grad_norm
        half *= -1.0 / grad_norm
        info = _minres(spec, weight, lam, residual, half, rows[6:8], (cand, cand_lap, *rows[8:]),
                       rtol=rtol, maxiter=600)
        if info != 0 or not np.all(np.isfinite(delta)):
            message = f"linear solve breakdown (minres info={info})"
            break
        delta *= grad_norm
        lap_delta *= grad_norm
        delta -= delta.mean()
        step = 1.0
        while step > 1e-12:
            np.add(u, np.multiply(step, delta, out=cand), out=cand)
            cand -= cand.mean()
            np.add(lap, np.multiply(step, lap_delta, out=cand_lap), out=cand_lap)
            _residual_and_weight(cand, cand_lap, lam, m, residual, weight)
            cand_l2 = math.sqrt(_mean_product(residual, residual))
            if cand_l2 <= (1.0 - 1e-4 * step) * res_l2:
                u, cand, lap, cand_lap = cand, u, cand_lap, lap
                break
            step *= 0.5
        else:
            message = "line search stall"
            break
    result = Field(spec, u.copy())
    return SolveResult(
        field=result,
        lam=float(lam),
        residual_l2=res_l2,
        grad_norm=grad_norm,
        energy=energy_value(result, lam),
        iterations=iterations,
        converged=converged,
        message=message,
        residual_history=tuple(history),
    )


def _check_branch_request(lam_end: float, dlam0: float) -> None:
    """Refuse a branch end below 0 or a first step not above 0, or either not finite, before any solve."""
    _check_nonnegative(lam_end, "lam_end")
    if not 0 < dlam0 < math.inf:
        raise ValueError(f"invalid step: dlam0 must be positive and finite, got {dlam0}")


def continuation(start: SolveResult, lam_end: float, dlam0: float,
                 *, blowup_cap: float = 12.0, tol: float = 1e-10) -> Branch:
    """Natural-parameter continuation with adaptive steps and a blow-up guard.

    Steps halve on Newton failure; below dlam0/1024 the branch ends with
    termination "newton_failure".  It stops early (termination "blow_up")
    once max|u| exceeds blowup_cap, leaving the offending solution as the
    endpoint for concentration analysis, and ends with termination
    "max_steps" after 500 accepted steps short of lam_end.
    """
    if not start.converged:
        raise ValueError("continuation must start from a converged solution")
    _check_branch_request(lam_end, dlam0)
    direction = math.copysign(1.0, lam_end - start.lam)
    branch = Branch(results=[start])
    if lam_end == start.lam:
        return branch
    lam_cur = start.lam
    dlam = dlam0
    prev = start
    prev2: SolveResult | None = None
    streak = 0
    while len(branch.results) <= 500:
        lam_try = lam_cur + direction * dlam
        if (lam_end - lam_try) * direction < 0:
            lam_try = lam_end
        if prev2 is not None and prev.lam != prev2.lam:
            ratio = (lam_try - prev.lam) / (prev.lam - prev2.lam)
            guess = lincomb(1.0 + ratio, prev.field, -ratio, prev2.field)
        else:
            guess = prev.field
        res = newton_solve(guess, lam_try, tol=tol)
        if res.converged:
            branch.results.append(res)
            prev2, prev = prev, res
            lam_cur = lam_try
            if float(np.max(np.abs(res.field.values))) > blowup_cap:
                branch.termination = "blow_up"
                return branch
            if lam_cur == lam_end:
                branch.termination = "reached_end"
                return branch
            streak += 1
            if streak >= 2:
                dlam = min(dlam * 1.4, dlam0 * 4.0)
        else:
            streak = 0
            dlam *= 0.5
            if dlam < dlam0 / 1024.0:
                branch.termination = "newton_failure"
                return branch
    branch.termination = "max_steps"
    return branch


def concentration_direction(spec: TorusSpec) -> Field:
    """Unit-norm peak profile: the discrete kernel of (-Lap)^m at the origin.

    This is the grid-scale limit shape of the concentrating family and the
    best max-per-norm concentrator the grid supports.
    """
    g = _green_kernel(spec, (0,) * spec.dim)
    return scaled(g, 1.0 / math.sqrt(sobolev_norm_sq(g)))


def _green_kernel(spec: TorusSpec, base: tuple[int, ...]) -> Field:
    """Discrete kernel of (-Lap)^m at a grid point: the inverse power of the mean-zero delta."""
    delta = np.zeros(spec.shape)
    delta[base] = spec.npoints
    return solve_poisson_power(from_values(spec, delta), spec.m)


def random_low_mode_field(spec: TorusSpec, rng: np.random.Generator,
                          target_norm: float, max_wavenumber: int = 2) -> Field:
    """Random band-limited mean-zero field scaled to an H^m norm target."""
    c = _forward_rfft(rng.standard_normal(spec.shape))
    keep = True
    for k in _wavenumbers(spec):
        keep = keep & (k <= max_wavenumber)
    c[~keep] = 0.0
    c.flat[0] = 0.0
    norm = math.sqrt(_sobolev_dot(spec, c, c, spec.m)) / spec.npoints
    if norm == 0.0:
        raise ValueError("degenerate random draw")
    vals = _inverse_rfft(c, spec)
    return Field(spec, (vals - vals.mean()) * (target_norm / norm))


def _peak_aligned(values: np.ndarray) -> np.ndarray:
    offsets = tuple(-i for i in _peak_index(values))
    return np.roll(values, shift=offsets, axis=tuple(range(values.ndim)))


def _same_modulo_translation(a: Field, b: Field) -> bool:
    diff = _peak_aligned(a.values) - _peak_aligned(b.values)
    return math.sqrt(float((diff**2).mean())) <= 1e-6


def multi_start(lam: float, spec: TorusSpec, n_seeds: int, seed: int,
                *, tol: float = 1e-10, jobs: int = 1) -> list[SolveResult]:
    """Newton solves from deterministic seeds: directed probes plus random draws.

    n_seeds // 4 seeds walk a fixed amplitude ladder along the grid's
    concentration direction (random low-mode fields of moderate norm have
    essentially no overlap with the concentrated solution family, so purely
    random seeding finds only the trivial root); the rest are random
    band-limited fields with H^m norms drawn uniformly from [0.1, 3].
    Converged results are deduplicated modulo grid translations; per-seed
    failures are kept in the list with converged=False.  One pass over lazily
    drawn guesses reduces each result as it returns.  Solves are independent
    and run on `jobs` threads (at least 1); results are reduced in seed order,
    so the output does not depend on the degree of parallelism.
    """
    return _solve_from_guesses([lam], _multistart_guesses(spec, n_seeds, seed),
                               tol=tol, jobs=jobs)[0]


def _multistart_guesses(spec: TorusSpec, n_seeds: int, seed: int) -> Iterator[Field]:
    """multi_start's starting fields, drawn lazily in seed order; they do not depend on lam."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    n_directed = n_seeds // 4
    # the direction's values alone: a guess, as scaled would build it, without
    # a carried spectrum, which _start_pair does not read
    direction = concentration_direction(spec).values if n_directed else None
    for amp in np.geomspace(2.0, 12.0, n_directed):
        yield Field(spec, float(amp) * direction)
    for child in np.random.SeedSequence(seed).spawn(n_seeds - n_directed):
        rng = np.random.default_rng(child)
        yield random_low_mode_field(spec, rng, rng.uniform(0.1, 3.0))


def _solve_from_guesses(lams: list[float], guesses: Iterable[Field], *, tol: float,
                        jobs: int) -> list[list[SolveResult]]:
    """multi_start's unique roots, then its failures, at each lam of lams, in one pass.

    Each guess is solved at every lam from one _start_pair, and each result
    is deduplicated against its lam's kept roots as it returns.  With jobs > 1
    one pool serves the pass; its tasks are guesses, reduced in guess order,
    and at most jobs drawn guesses await reduction at any time.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    def solves(guess: Field) -> Iterator[SolveResult]:
        start = _start_pair(guess)
        return (_newton(guess.spec, start, lam, tol) for lam in lams)

    def reduce(outcomes: Iterable[Iterable[SolveResult]]) -> list[list[SolveResult]]:
        unique, failures = [[] for _ in lams], [[] for _ in lams]
        for results in outcomes:
            # results goes first, so zip runs a lazy guess's solves to their end,
            # which drops its start before the next guess is drawn
            for res, kept, failed in zip(results, unique, failures):
                if not res.converged:
                    failed.append(res)
                elif not any(_same_modulo_translation(res.field, k.field) for k in kept):
                    kept.append(res)
        return [kept + failed for kept, failed in zip(unique, failures)]

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        def outcomes(pool) -> Iterator[list[SolveResult]]:
            # a guess is drawn only when fewer than jobs drawn guesses await reduction
            pending = deque()
            for guess in guesses:
                pending.append(pool.submit(lambda guess: list(solves(guess)), guess))
                if len(pending) == jobs:
                    yield pending.popleft().result()
            yield from (future.result() for future in pending)

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return reduce(outcomes(pool))
    return reduce(map(solves, guesses))
