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
unit norm: scipy's estimate of ||A|| includes ||b||, which would otherwise
let a large right-hand side pass the stopping test after one iteration.
Each Newton iterate carries its values and its (-Lap)^m values, so line
search candidates u + s*delta need no transform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, minres

from .errors import SingularHessianError
from .field import (
    Field,
    TorusSpec,
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

_SINGULAR_EIG_TOL = 1e-4  # on the preconditioned Hessian, whose spectrum is O(1)


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


@dataclass
class Branch:
    """Continuation path in lam: converged solutions and why the branch ended."""

    results: list[SolveResult] = dataclass_field(default_factory=list)
    termination: str = "reached_end"


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


def _preconditioned_operator(spec: TorusSpec, weight: np.ndarray, lam: float) -> LinearOperator:
    """LinearOperator for B^-1 H(u) B^-1 in half-spectrum coordinates.

    B^-1 (-Lap)^m B^-1 is the mean-zero projector, so the operator reduces to
    the identity minus 2m lam B^-1 [W v - W mean(W v)] B^-1, with W the
    normalized exponential weight of u.  The constant mode and the components
    irfftn discards pass through unchanged: they are invisible to the
    mean-zero problem and would otherwise fake null directions.
    """
    inward, outward = _coordinate_diagonals(spec)
    coef = -2.0 * spec.m * lam
    axes = tuple(range(spec.dim))
    size = 2 * inward.size

    def matvec(z: np.ndarray) -> np.ndarray:
        v = np.fft.irfftn(_as_coordinates(z, spec) * outward[0], s=spec.shape, axes=axes)
        wv = weight * v
        nonlinear = coef * (wv - weight * wv.mean())
        return z.reshape(size) + (np.fft.rfftn(nonlinear) * inward).view(np.float64).reshape(size)

    return LinearOperator((size, size), matvec=matvec, dtype=np.float64)


def smallest_hessian_eigenvalue(u: Field, lam: float) -> float:
    """Lowest eigenvalue of the preconditioned second variation (Lanczos probe).

    ARPACK runs to relative tolerance 1e-6.  The spectrum accumulates at 1
    from the high modes; a value near zero signals a bifurcation point, a
    negative one a saddle direction.
    """
    op = _preconditioned_operator(u.spec, _normalized_exp_weight(u.values, u.spec.m), lam)
    vals = eigsh(op, k=1, which="SA", tol=1e-6, return_eigenvectors=False, maxiter=5000)
    return float(vals[0])


def _probe_singular(u: Field, lam: float) -> None:
    try:
        low = smallest_hessian_eigenvalue(u, lam)
    except ArpackNoConvergence:
        return
    if abs(low) < _SINGULAR_EIG_TOL:
        raise SingularHessianError(low)


def newton_solve(guess: Field, lam: float, tol: float = 1e-10, max_iter: int = 30) -> SolveResult:
    """Damped Newton iteration on the Euler-Lagrange residual.

    Convergence means the L^2 residual is below tol (the H^m dual gradient
    norm is then automatically below tol/(2 pi)^m).  A numerically singular
    linearization raises SingularHessianError; other failures come back as a
    non-converged SolveResult.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    spec = guess.spec
    m = spec.m
    inward, outward = _coordinate_diagonals(spec)
    axes = tuple(range(1, spec.dim + 1))
    # the iterate as (values, (-Lap)^m values): both move linearly along a step
    u = Field(spec, guess.values - float(guess.values.mean()))
    u, lap = u.values, apply_power_laplacian(u, m).values
    residual, weight = _residual_and_weight(u, lap, lam, m)
    message = ""
    converged = False
    iterations = 0
    history: list[float] = []
    probed = False
    for iterations in range(max_iter + 1):
        res_l2 = math.sqrt(float(np.mean(residual**2)))
        # coordinates of -B^-1 r; their norm is the H^m dual norm of the residual
        rhs = -(np.fft.rfftn(residual) * inward).view(np.float64).reshape(-1)
        grad_norm = float(np.linalg.norm(rhs))
        history.append(res_l2)
        if res_l2 <= tol:
            converged = True
            break
        if iterations == max_iter:
            message = f"max_iter={max_iter} exceeded (residual {res_l2:.3e})"
            break
        if not probed and len(history) >= 8 and history[-1] > 0.02 * history[-6]:
            # geometric stalling is the signature of a (near-)null direction
            # of the linearization, e.g. at a bifurcation point
            probed = True
            _probe_singular(Field(spec, u), lam)
        rtol = min(1e-2, max(res_l2, 0.01 * tol / max(res_l2, tol)))
        y, info = minres(_preconditioned_operator(spec, weight, lam), rhs / grad_norm,
                         rtol=rtol, maxiter=600)
        if info != 0 or not np.all(np.isfinite(y)):
            _probe_singular(Field(spec, u), lam)
            message = f"linear solve breakdown (minres info={info})"
            break
        y = _as_coordinates(y * grad_norm, spec)
        delta, lap_delta = np.fft.irfftn(y * outward, s=spec.shape, axes=axes)
        delta -= delta.mean()
        step = 1.0
        accepted = False
        while step > 1e-12:
            cand = u + step * delta
            cand -= cand.mean()
            cand_lap = lap + step * lap_delta
            cand_residual, cand_weight = _residual_and_weight(cand, cand_lap, lam, m)
            if math.sqrt(float(np.mean(cand_residual**2))) <= (1.0 - 1e-4 * step) * res_l2:
                u, lap, residual, weight = cand, cand_lap, cand_residual, cand_weight
                accepted = True
                break
            step *= 0.5
        if not accepted:
            _probe_singular(Field(spec, u), lam)
            message = "line search stall"
            break
    result = Field(spec, u)
    return SolveResult(
        field=result,
        lam=float(lam),
        residual_l2=res_l2,
        grad_norm=grad_norm,
        energy=energy_value(result, lam),
        iterations=iterations,
        converged=converged,
        message=message,
    )


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
    if dlam0 <= 0:
        raise ValueError("invalid step: dlam0 must be positive")
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
        try:
            res = newton_solve(guess, lam_try, tol=tol)
        except SingularHessianError:
            res = None
        if res is not None and res.converged:
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
    c = np.fft.rfftn(rng.standard_normal(spec.shape))
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
    failures are kept in the list with converged=False.  Solves are
    independent and run on `jobs` threads; results are reduced in seed
    order, so the output does not depend on the degree of parallelism.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    n_directed = n_seeds // 4
    guesses: list[Field] = []
    if n_directed:
        direction = concentration_direction(spec)
        for amp in np.geomspace(2.0, 12.0, n_directed):
            guesses.append(scaled(direction, float(amp)))
    sequences = np.random.SeedSequence(seed).spawn(n_seeds - n_directed)
    for child in sequences:
        rng = np.random.default_rng(child)
        guesses.append(random_low_mode_field(spec, rng, rng.uniform(0.1, 3.0)))

    def solve_one(guess: Field) -> SolveResult:
        try:
            return newton_solve(guess, lam, tol=tol)
        except SingularHessianError as exc:
            return SolveResult(
                field=guess, lam=float(lam), residual_l2=math.inf,
                grad_norm=math.inf, energy=energy_value(guess, lam),
                iterations=0, converged=False, message=str(exc),
            )

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(solve_one, guesses))
    else:
        outcomes = [solve_one(guess) for guess in guesses]

    unique: list[SolveResult] = []
    failures: list[SolveResult] = []
    for res in outcomes:
        if not res.converged:
            failures.append(res)
            continue
        if any(_same_modulo_translation(res.field, kept.field) for kept in unique):
            continue
        unique.append(res)
    return unique + failures
