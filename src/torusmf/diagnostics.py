"""Concentration quantization, exponential-inequality functionals, Green kernels.

These analyses sit downstream of the solver: given fields (solutions,
profiles, branch endpoints) they report where the nonlinear mass sits, how
close the concentrated quantum is to an integer multiple of the blow-up
constant, how the sharp exponential inequality behaves along families, the
coercivity offset below the threshold, and the discrete Green identity that
drives the small-parameter uniqueness argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubble import BubbleParams, _fit_slope, bubble_field, required_resolution
from .field import (
    Field,
    TorusSpec,
    _log_mean_exp,
    _mean_product,
    _peak_index,
    log_integrate_exp,
    scaled,
    sobolev_norm_sq,
    zero_field,
)
from .functional import _normalized_exp_weight, constants, energy_value
from .solver import (
    SolveResult,
    _green_kernel,
    _multistart_guesses,
    _solve_from_guesses,
    concentration_direction,
    random_low_mode_field,
)

_PLATEAU_DERIVATIVE_FRACTION = 0.05  # heuristic; raw curves are always reported
_VALIDATION_SLACK = 0.10  # relative excess of a held-out coercivity gap over the fit


def _torus_radii_from(spec: TorusSpec, center_index: tuple[int, ...]) -> np.ndarray:
    """Wrapped Euclidean distance of every grid point from a grid center."""
    r2 = np.zeros(spec.shape)
    for axis, c in enumerate(center_index):
        offs = (np.arange(spec.n) - int(c) + spec.n // 2) % spec.n - spec.n // 2
        d = np.abs(offs) / spec.n
        view = d.reshape([-1 if a == axis else 1 for a in range(spec.dim)])
        r2 = r2 + view**2
    return np.sqrt(r2)


@dataclass(frozen=True)
class QuantizationReport:
    """Radial distribution of the nonlinear mass around the field peak."""

    lam: float
    center: tuple[int, ...]
    radii: np.ndarray
    mass: np.ndarray
    plateau_mass: float
    nearest_N: int
    deviation: float
    peak_height: float


def concentration(u: Field, lam: float) -> QuantizationReport:
    """Cumulative mass lam * integral_{B_r} W with W the normalized exp weight.

    The radii are 160 geometric steps from one grid spacing to the largest
    distance from the peak.  The plateau is the mass at the end of the
    first contiguous radius run (after the peak of dmass/dr) where the
    derivative stays below 5% of its peak; reading the threshold against
    the raw curve is always possible since the full curve is returned.
    nearest_N rounds the plateau against the blow-up quantum when the
    plateau exceeds half of it.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    spec = u.spec
    cst = constants(spec.m)
    center = _peak_index(u.values)
    dist = _torus_radii_from(spec, center)
    weight = _normalized_exp_weight(u.values, spec.m)
    order = np.argsort(dist, axis=None, kind="stable")
    sorted_dist = dist.reshape(-1)[order]
    cumulative = np.cumsum(weight.reshape(-1)[order])
    cumulative = lam * (cumulative / cumulative[-1])  # total mass is lam exactly
    rmax = float(sorted_dist[-1])
    radii = np.unique(np.concatenate([np.geomspace(1.0 / spec.n, rmax, 160), [rmax]]))
    idx = np.searchsorted(sorted_dist, radii, side="right")
    mass = np.where(idx > 0, cumulative[np.maximum(idx - 1, 0)], 0.0)

    spread = float(u.values.max() - u.values.min())
    if spread <= 1e-12 * (1.0 + float(np.max(np.abs(u.values)))):
        return QuantizationReport(
            lam=float(lam), center=center, radii=radii, mass=mass,
            plateau_mass=0.0, nearest_N=0, deviation=float("nan"),
            peak_height=float(u.values.max()),
        )

    dmass = np.diff(mass) / np.diff(radii)
    ipeak = int(np.argmax(dmass))
    threshold = _PLATEAU_DERIVATIVE_FRACTION * dmass[ipeak]
    plateau_mass = float(mass[-1])
    run = np.nonzero(dmass[ipeak + 1:] < threshold)[0]
    if run.size:
        start = ipeak + 1 + int(run[0])
        end = start
        while end + 1 < dmass.size and dmass[end + 1] < threshold:
            end += 1
        plateau_mass = float(mass[end + 1])
    nearest = int(round(plateau_mass / cst.Lambda1)) if plateau_mass > cst.Lambda1 / 2 else 0
    deviation = abs(plateau_mass - nearest * cst.Lambda1) / cst.Lambda1
    return QuantizationReport(
        lam=float(lam), center=center, radii=radii, mass=mass,
        plateau_mass=plateau_mass, nearest_N=nearest, deviation=deviation,
        peak_height=float(u.values.max()),
    )


def adams_value(u: Field) -> float:
    """Integral of exp(m * Lambda1 * u^2 / ||u||^2) (log-safe evaluation).

    The exponent is invariant under u -> c*u, so the value depends only on
    the direction of u.
    """
    norm_sq = sobolev_norm_sq(u)
    if norm_sq == 0.0:
        raise ValueError("adams_value is undefined for the zero field")
    cst = constants(u.spec.m)
    q = (u.spec.m * cst.Lambda1 / norm_sq) * u.values**2
    log_value = float(_log_mean_exp(q.reshape(-1)))
    return math.exp(log_value) if log_value < 709.0 else math.inf


@dataclass(frozen=True)
class CoercivityBand:
    lam: float
    fitted_C: float
    validation_max: float | None


def coercivity_families(spec: TorusSpec, seed: int = 0):
    """Default (fit, validation) families for the coercivity offset.

    The offset is only visible on nearly-extremal concentrators, so both
    families walk an amplitude ladder along the grid's concentration
    direction; peaked profiles and random low-mode fields fill in the
    moderate regime.  The two families are disjoint by construction.
    """
    direction = concentration_direction(spec)
    fit = [zero_field(spec)]
    fit += [scaled(direction, t) for t in (3.0, 6.0, 9.0, 12.0, 15.0)]
    validation = [scaled(direction, t) for t in (4.5, 7.5, 10.5, 13.5)]
    for sigma, bucket in ((2.0, fit), (3.0, fit), (2.5, validation)):
        params = BubbleParams(sigma, 0.4, (0.0,) * spec.dim)
        if spec.n >= required_resolution(params):
            bucket.append(bubble_field(spec, params))
    rng_fit = np.random.default_rng(seed)
    rng_val = np.random.default_rng(seed + 1)
    fit += [random_low_mode_field(spec, rng_fit, t) for t in (0.5, 1.0, 2.0)]
    validation += [random_low_mode_field(spec, rng_val, t) for t in (0.75, 1.5)]
    return fit, validation


def coercivity_band(lam: float, family, validation=None) -> CoercivityBand:
    """Fit the offset C in energy >= (1/2 - lam/(2*Lambda1)) ||u||^2 - C.

    C is the largest violation of the offset-free bound over the sample
    family.  When a disjoint validation family is supplied, its violations
    must stay below the fitted C with 10% slack, else a RuntimeError.
    """
    family = list(family)
    if not family:
        raise ValueError("empty sample family")
    cst = constants(family[0].spec.m)
    if lam >= cst.Lambda1:
        raise ValueError(
            f"lam={lam} is not below the coercivity threshold {cst.Lambda1:.6f}"
        )

    def gap(u: Field) -> float:
        quad = (0.5 - lam / (2.0 * cst.Lambda1)) * sobolev_norm_sq(u)
        return quad - energy_value(u, lam)

    fitted = max(0.0, max(gap(u) for u in family))
    validation_max = None
    if validation is not None:
        validation = list(validation)
        if validation:
            validation_max = max(gap(u) for u in validation)
            if not validation_max <= fitted * (1.0 + _VALIDATION_SLACK) + 1e-9:
                raise RuntimeError(
                    f"coercivity validation failed: held-out gap {validation_max:.6g} "
                    f"exceeds fitted C={fitted:.6g} with {_VALIDATION_SLACK:.0%} slack"
                )
    return CoercivityBand(lam=float(lam), fitted_C=fitted, validation_max=validation_max)


@dataclass(frozen=True)
class GreenField:
    """Discrete Green function of (-Lap)^m at a grid base point."""

    base_index: tuple[int, ...]
    field: Field
    log_coefficient: float | None


def green_field(spec: TorusSpec, base_index: tuple[int, ...]) -> GreenField:
    """Fourier synthesis of the kernel reproducing u(base) from (-Lap)^m u.

    The reproduction identity l2_inner(apply_power_laplacian(u, m), G) =
    u(base) is exact in the discretization.  Near the base point the kernel
    grows like (2/Lambda1) * log(1/r); the report fits that coefficient over
    the window r in [4/n, 1/8] when the grid is fine enough to expose it.
    """
    if len(base_index) != spec.dim:
        raise ValueError(f"base index needs {spec.dim} coordinates")
    base = tuple(int(i) % spec.n for i in base_index)
    g = _green_kernel(spec, base)
    dist = _torus_radii_from(spec, base)
    lo, hi = 4.0 / spec.n, 1.0 / 8.0
    coefficient = None
    window = (dist >= lo) & (dist <= hi)
    if np.count_nonzero(window) >= 8 and lo < hi:
        coefficient = _fit_slope(np.log(1.0 / dist[window]), g.values[window])
    return GreenField(base_index=base, field=g, log_coefficient=coefficient)


@dataclass(frozen=True)
class NonexistenceRow:
    lam: float
    n_seeds: int
    n_converged: int
    n_nontrivial: int
    max_nontrivial_norm: float
    norm_sq_over_lam_sq: float


@dataclass(frozen=True)
class NonexistenceReport:
    rows: list[NonexistenceRow]
    regime_bound: float
    all_trivial: bool


def _check_solution_inequalities(res: SolveResult) -> None:
    """Assert the inequality chain behind the small-parameter uniqueness proof."""
    u = res.field
    m = u.spec.m
    # Jensen: the exponential mass of a mean-zero field is at least 1
    log_mass = log_integrate_exp(u, 2.0 * m)
    if log_mass < -1e-12:
        raise ArithmeticError(f"Jensen inequality violated: log mass {log_mass:.3e}")
    # pairing the equation with u: ||u||^2 = lam * integral(W u)
    weight = _normalized_exp_weight(u.values, m)
    norm_sq = sobolev_norm_sq(u)
    paired = res.lam * _mean_product(weight, u.values)
    tol = 1e-6 * max(1.0, norm_sq)
    if abs(norm_sq - paired) > tol:
        raise ArithmeticError(
            f"solution identity violated: ||u||^2={norm_sq:.6e} vs lam*<W,u>={paired:.6e}"
        )
    if norm_sq > res.lam * float(u.values.max()) + tol:
        raise ArithmeticError("norm bound ||u||^2 <= lam * max(u) violated")
    # scalar inequality a*b <= e^a + b(log b - 1) with a = log(1/d), b = e^(2mu)
    center = _peak_index(u.values)
    dist = _torus_radii_from(u.spec, center).reshape(-1)
    b = weight.reshape(-1) * math.exp(log_mass)  # exp(2m u)
    mask = dist > 0
    a = np.log(1.0 / dist[mask])
    lhs = a * b[mask]
    rhs = 1.0 / dist[mask] + b[mask] * (np.log(b[mask]) - 1.0)
    if np.any(lhs > rhs + 1e-9 * (1.0 + np.abs(rhs))):
        raise ArithmeticError("pointwise inequality a*b <= e^a + b(log b - 1) violated")


def nonexistence_sweep(lambda_grid, spec: TorusSpec, n_seeds: int = 20, seed: int = 0,
                       *, tol: float = 1e-10, jobs: int = 1) -> NonexistenceReport:
    """Multistart hunt for nontrivial solutions in the small-lam regime.

    Valid for 0 < lam < Lambda1/(8m), where only the trivial solution
    exists; any nontrivial converged candidate is reported (and would fail
    the acceptance suite).  Converged candidates are also run through the
    inequality chain assertions.  multi_start's guesses do not depend on lam,
    so one pass over them, drawn lazily, solves each at every lam and reduces
    each result in seed order as it returns.
    """
    lams = [float(v) for v in lambda_grid]
    if not lams:
        raise ValueError("empty lam grid")
    cst = constants(spec.m)
    bound = cst.Lambda1 / (8.0 * spec.m)
    for lam in lams:
        if not (0.0 < lam < bound):
            raise ValueError(f"lam={lam} outside the working regime (0, {bound:.6f})")
    per_lam = _solve_from_guesses(lams, _multistart_guesses(spec, n_seeds, seed),
                                  tol=tol, jobs=jobs)
    rows = []
    for lam, results in zip(lams, per_lam):
        converged = [r for r in results if r.converged]
        for r in converged:
            _check_solution_inequalities(r)
        nontrivial = [r for r in converged if math.sqrt(sobolev_norm_sq(r.field)) > 1e-8]
        max_norm = max((math.sqrt(sobolev_norm_sq(r.field)) for r in nontrivial), default=0.0)
        ratio = max((sobolev_norm_sq(r.field) / lam**2 for r in nontrivial), default=0.0)
        rows.append(NonexistenceRow(
            lam=lam, n_seeds=n_seeds, n_converged=len(converged), n_nontrivial=len(nontrivial),
            max_nontrivial_norm=max_norm, norm_sq_over_lam_sq=ratio))
    return NonexistenceReport(rows=rows, regime_bound=bound,
                              all_trivial=all(row.n_nontrivial == 0 for row in rows))
