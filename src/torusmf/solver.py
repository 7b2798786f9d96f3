"""Newton-Krylov solution of the Euler-Lagrange equation, continuation, multistart.

The outer iteration is a damped Newton method on the residual of

    (-Lap)^m u + lam = lam * exp(2m u) / integral(exp(2m u)),

restricted to mean-zero fields.  Inner linear solves use MINRES on the
symmetrized, H^m-preconditioned linearization: with B the spectral square
root of (-Lap)^m, the operator B^-1 H B^-1 equals the identity plus a
compact exponential-weight part, so Krylov iteration counts are essentially
grid-independent.  The preconditioned operator is symmetric but indefinite
near saddle points, which is exactly MINRES territory.

MINRES runs in scaled real half-spectrum coordinates: the float64 view of
sqrt(mu) * rfftn(w)/N, with mu each half-grid mode's multiplicity in the
full spectrum.  The map is an isometry up to the factor 1/N with irfftn as
its adjoint, so the operator stays symmetric; it is the identity on the
components irfftn discards (the non-Hermitian parts of the self-conjugate
planes) and on the constant mode.  B^-1 is diagonal there, so a product
costs one irfftn and one rfftn.  MINRES gets the right-hand side scaled to
unit norm: its estimate of ||A|| includes ||b||, which would otherwise let a
large right-hand side pass the stopping test after one iteration.
Each Newton iterate carries its values and its (-Lap)^m values, so line
search candidates u + s*delta need no transform.

The Newton loop, MINRES and the operator's products work in per-thread
scratch arrays, kept between calls and reallocated when the grid changes, so
a solve allocates almost nothing per iteration; each in-place operation
keeps the order of its out-of-place form, so the iterates are the same bits.
Results never alias the scratch arrays, and each thread has its own.

MINRES itself is an in-house port of scipy.sparse.linalg.minres for the one
case used here (zero start, no preconditioner, no shift), with scipy's
recurrences and stopping tests in scipy's order, so its iterates are
bit-identical to scipy's.  Importing scipy.sparse.linalg costs more than the
rest of the package together; it loads only when ARPACK runs
(smallest_hessian_eigenvalue).
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .field import (
    Field,
    TorusSpec,
    _forward_rfft,
    _inverse_rfft,
    _multiplicity,
    _multiplier,
    _sobolev_weight,
    apply_power_laplacian,
    from_values,
    lincomb,
    scaled,
    sobolev_norm_sq,
    solve_poisson_power,
)
from .functional import (
    _normalized_exp_weight,
    _residual_and_weight,
    energy_value,
)

_MAX_ITER = 30  # Newton steps before a solve gives up


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

    Uses of one array are never live together: "pair" is the operator's two
    grid temporaries and Newton's step pair; row 0 of "spectra" is the
    operator's half spectrum, row 1 Newton's right-hand side, and both rows
    are Newton's step spectra once MINRES has returned.
    """

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        array = self.arrays.get(name)
        if array is None or array.shape != shape:
            array = self.arrays[name] = np.empty(shape, dtype)
        return array


_workspace = _Workspace()


@functools.lru_cache(maxsize=16)
def _coordinate_diagonals(spec: TorusSpec) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (inward, outward) of the half-spectrum coordinates, mean mode zeroed.

    inward * rfftn(f) is the coordinate array of B^-1 f.  For a coordinate
    array y, outward * y stacks the unnormalized half spectra (ready for
    irfftn) of B^-1 y and of B y.
    """
    root_mu = np.sqrt(_multiplicity(spec))
    npts = spec.npoints
    inverse = _multiplier(spec, -spec.m / 2.0)
    inward = root_mu * inverse / npts
    outward = np.stack((inverse, _multiplier(spec, spec.m / 2.0))) * (npts / root_mu)
    inward.flags.writeable = False
    outward.flags.writeable = False
    return inward, outward


def _as_coordinates(z: np.ndarray, spec: TorusSpec) -> np.ndarray:
    """Complex half-grid view of a flat float64 coordinate vector."""
    return np.ascontiguousarray(z).view(np.complex128).reshape(_multiplicity(spec).shape)


def _preconditioned_operator(spec: TorusSpec, weight: np.ndarray, lam: float):
    """Matvec of B^-1 H(u) B^-1 on flat half-spectrum coordinate vectors.

    B^-1 (-Lap)^m B^-1 is the mean-zero projector, so the operator reduces to
    the identity minus 2m lam B^-1 [W v - W mean(W v)] B^-1, with W the
    normalized exponential weight of u.  The constant mode and the components
    irfftn discards pass through unchanged: they are invisible to the
    mean-zero problem and would otherwise fake null directions.
    """
    inward, outward = _coordinate_diagonals(spec)
    coef = -2.0 * spec.m * lam
    size = 2 * inward.size

    def matvec(z: np.ndarray) -> np.ndarray:
        wv, nonlinear = _workspace.get("pair", (2,) + spec.shape)
        half = _workspace.get("spectra", (2,) + inward.shape, np.complex128)[0]
        np.multiply(_as_coordinates(z, spec), outward[0], out=half)
        _inverse_rfft(half, spec, out=wv)
        wv *= weight
        np.multiply(weight, wv.mean(), out=nonlinear)
        np.subtract(wv, nonlinear, out=nonlinear)
        nonlinear *= coef
        _forward_rfft(nonlinear, out=half)
        half *= inward
        return z.reshape(size) + half.view(np.float64).reshape(size)

    return matvec


def minres(matvec, b: np.ndarray, *, rtol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """MINRES (Paige & Saunders 1975) for A x = b, A symmetric, from x = 0.

    A port of scipy.sparse.linalg.minres without preconditioner or shift:
    the same Lanczos and plane-rotation recurrences, reductions and stopping
    tests in the same order, so x is bit-identical to scipy's.  info is
    maxiter when the iteration limit ends the solve, else 0.

    matvec must return a new array, which minres updates in place; b is
    only read.  x is a new array, the other vectors are scratch arrays.
    """
    n = b.shape[0]
    eps = np.finfo(np.float64).eps
    x = np.zeros(n)
    beta1 = np.inner(b, b)
    if beta1 == 0:
        return x, 0
    beta1 = math.sqrt(beta1)
    v, w, w2, scratch = _workspace.get("minres", (4, n))
    w.fill(0.0)
    w2.fill(0.0)

    istop = itn = 0
    oldb = dbar = epsln = sn = gmax = 0
    cs = -1
    beta = phibar = beta1
    tnorm2 = 0
    gmin = np.finfo(np.float64).max
    r1 = r2 = y = b
    while itn < maxiter:
        itn += 1
        # Lanczos step: y becomes beta_{k+1} v_{k+1}
        np.multiply(1.0 / beta, y, out=v)
        y = matvec(v)
        if itn >= 2:
            y -= np.multiply(beta / oldb, r1, out=scratch)
        alfa = np.inner(v, y)
        y -= np.multiply(alfa / beta, r2, out=scratch)
        r1, r2 = r2, y
        oldb = beta
        beta = math.sqrt(np.inner(r2, y))
        tnorm2 += alfa**2 + oldb**2 + beta**2
        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1  # b is an eigenvector of A

        # apply the previous rotation, then compute the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.linalg.norm([gbar, dbar])
        gamma = max(np.linalg.norm([gbar, beta]), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        denom = 1.0 / gamma
        # w = (v - oldeps * w1 - delta * w2) * denom, built in the storage
        # of w1, which no later step reads
        w1, w2 = w2, w
        w = np.multiply(oldeps, w1, out=w1)
        np.subtract(v, w, out=w)
        w -= np.multiply(delta, w2, out=scratch)
        w *= denom
        x += np.multiply(phi, w, out=scratch)
        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)

        # norm estimates and stopping tests; a later test overrides an earlier one
        anorm = math.sqrt(tnorm2)
        ynorm = np.linalg.norm(x)
        epsx = anorm * ynorm * eps
        test1 = math.inf if ynorm == 0 or anorm == 0 else phibar / (anorm * ynorm)
        test2 = math.inf if anorm == 0 else root / anorm
        if istop == 0:
            if 1 + test2 <= 1:
                istop = 2
            if 1 + test1 <= 1:
                istop = 1
            if itn >= maxiter:
                istop = 6
            if gmax / gmin >= 0.1 / eps:
                istop = 4
            if epsx >= beta1:
                istop = 3
            if test2 <= rtol:
                istop = 2
            if test1 <= rtol:
                istop = 1
        if istop != 0:
            break
    return x, (maxiter if istop == 6 else 0)


def smallest_hessian_eigenvalue(u: Field, lam: float) -> float:
    """Lowest eigenvalue of the preconditioned second variation (Lanczos probe).

    ARPACK runs to relative tolerance 1e-6.  The spectrum accumulates at 1
    from the high modes; a value near zero signals a bifurcation point, a
    negative one a saddle direction.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    size = 2 * _multiplicity(u.spec).size
    matvec = _preconditioned_operator(u.spec, _normalized_exp_weight(u.values, u.spec.m), lam)
    op = LinearOperator((size, size), matvec=matvec, dtype=np.float64)
    vals = eigsh(op, k=1, which="SA", tol=1e-6, return_eigenvectors=False, maxiter=5000)
    return float(vals[0])


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
    """Newton's first iterate from a guess: values and (-Lap)^m values, no Field or spectrum."""
    start = Field(guess.spec, guess.values - float(guess.values.mean()))
    return start.values, apply_power_laplacian(start, guess.spec.m).values


def _newton(spec: TorusSpec, start: tuple, lam: float, tol: float) -> SolveResult:
    """newton_solve from a _start_pair, which it only reads."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    m = spec.m
    inward, outward = _coordinate_diagonals(spec)
    # the iterate as (values, (-Lap)^m values): both move linearly along a
    # step.  A line-search candidate goes to the other array of each pair,
    # its residual and weight over the iterate's, which are no longer read
    u, cand, lap, cand_lap, residual, weight, squares = _workspace.get(
        "newton", (7,) + spec.shape)
    np.copyto(u, start[0])
    np.copyto(lap, start[1])
    _residual_and_weight(u, lap, lam, m, residual, weight)
    spectra = _workspace.get("spectra", (2,) + inward.shape, np.complex128)
    delta, lap_delta = step_pair = _workspace.get("pair", (2,) + spec.shape)
    rhs = spectra[1].view(np.float64).reshape(-1)  # MINRES's float view of row 1
    message = ""
    converged = False
    iterations = 0
    history: list[float] = []
    for iterations in range(_MAX_ITER + 1):
        res_l2 = math.sqrt(float(np.square(residual, out=squares).mean()))
        # coordinates of -B^-1 r; their norm is the H^m dual norm of the residual
        half = _forward_rfft(residual, out=spectra[1])
        half *= inward
        np.negative(rhs, out=rhs)
        grad_norm = float(np.linalg.norm(rhs))
        history.append(res_l2)
        if res_l2 <= tol:
            converged = True
            break
        if iterations == _MAX_ITER:
            message = f"max_iter={_MAX_ITER} exceeded (residual {res_l2:.3e})"
            break
        rtol = min(1e-2, max(res_l2, 0.01 * tol / max(res_l2, tol)))
        rhs /= grad_norm
        y, info = minres(_preconditioned_operator(spec, weight, lam), rhs,
                         rtol=rtol, maxiter=600)
        if info != 0 or not np.all(np.isfinite(y)):
            message = f"linear solve breakdown (minres info={info})"
            break
        y *= grad_norm
        np.multiply(_as_coordinates(y, spec), outward, out=spectra)
        _inverse_rfft(spectra, spec, out=step_pair)
        delta -= delta.mean()
        step = 1.0
        accepted = False
        while step > 1e-12:
            np.add(u, np.multiply(step, delta, out=cand), out=cand)
            cand -= cand.mean()
            np.add(lap, np.multiply(step, lap_delta, out=cand_lap), out=cand_lap)
            _residual_and_weight(cand, cand_lap, lam, m, residual, weight)
            cand_l2 = math.sqrt(float(np.square(residual, out=squares).mean()))
            if cand_l2 <= (1.0 - 1e-4 * step) * res_l2:
                u, cand, lap, cand_lap = cand, u, cand_lap, lap
                accepted = True
                break
            step *= 0.5
        if not accepted:
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
    """Refuse a branch end below 0 or a nonpositive first step, before any solve."""
    if lam_end < 0:
        raise ValueError(f"lam_end must be nonnegative, got {lam_end}")
    if dlam0 <= 0:
        raise ValueError("invalid step: dlam0 must be positive")


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
    k = np.abs(np.fft.fftfreq(spec.n, d=1.0 / spec.n))
    keep = np.ones(c.shape, dtype=bool)
    for axis in range(spec.dim):
        ks = k[:c.shape[axis]]  # the last (half) axis holds k = 0 .. n/2
        keep &= ks.reshape([-1 if a == axis else 1 for a in range(spec.dim)]) <= max_wavenumber
    c[~keep] = 0.0
    c.flat[0] = 0.0
    coef = c / spec.npoints
    norm = math.sqrt(float(np.vdot(_sobolev_weight(spec) * coef, coef).real))
    if norm == 0.0:
        raise ValueError("degenerate random draw")
    vals = _inverse_rfft(c, spec)
    return Field(spec, (vals - vals.mean()) * (target_norm / norm))


def _peak_aligned(values: np.ndarray) -> np.ndarray:
    idx = np.unravel_index(int(np.argmax(values)), values.shape)
    return np.roll(values, shift=tuple(-i for i in idx), axis=tuple(range(values.ndim)))


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
    direction = concentration_direction(spec) if n_directed else None
    for amp in np.geomspace(2.0, 12.0, n_directed):
        yield scaled(direction, float(amp))
    for child in np.random.SeedSequence(seed).spawn(n_seeds - n_directed):
        rng = np.random.default_rng(child)
        yield random_low_mode_field(spec, rng, rng.uniform(0.1, 3.0))


def _solve_from_guesses(lams: list[float], guesses: Iterable[Field], *, tol: float,
                        jobs: int) -> list[list[SolveResult]]:
    """multi_start's unique roots, then its failures, at each lam of lams, in one pass.

    Each guess is solved at every lam from one _start_pair, and each result
    is deduplicated against its lam's kept roots as it returns.  With jobs > 1
    one pool serves the pass; its tasks are guesses, reduced in guess order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    def solves(guess: Field) -> Iterator[SolveResult]:
        start = _start_pair(guess)
        return (_newton(guess.spec, start, lam, tol) for lam in lams)

    def reduce(outcomes: Iterable[Iterable[SolveResult]]) -> list[list[SolveResult]]:
        unique, failures = [[] for _ in lams], [[] for _ in lams]
        for results in outcomes:
            for kept, failed, res in zip(unique, failures, results):
                if not res.converged:
                    failed.append(res)
                elif not any(_same_modulo_translation(res.field, k.field) for k in kept):
                    kept.append(res)
        return [kept + failed for kept, failed in zip(unique, failures)]

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return reduce(pool.map(lambda guess: list(solves(guess)), guesses))
    return reduce(map(solves, guesses))
