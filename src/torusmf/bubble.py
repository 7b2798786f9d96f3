"""Concentrating test profiles and their radial calculus.

The profile glues the logarithmic peak  w(sigma, r) = log(2 sigma / (1 +
sigma^2 r^2))  to its boundary value with a smooth radial cutoff supported in
the unit ball, then embeds the result in the torus by the dilation
x -> center + alpha * x (exact on a flat torus).  Along this one-parameter
family the squared H^m seminorm grows like 2*Lambda1*log(sigma) and the
energy like (Lambda1 - lam)*log(sigma), which is what makes the functional
unbounded below past the coercivity threshold.

Radial quantities are computed two independent ways where possible: adaptive
1-D quadrature of closed-form derivatives here, and grid embeddings through
field.py; tests cross-check the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, UnresolvedBubbleError
from .field import Field, TorusSpec, from_values, grid_coordinates
from .functional import constants

# Surface volume of S^(2m-1), i.e. the weight of radial integration in R^(2m).
OMEGA_SPHERE = {1: 2.0 * math.pi, 2: 2.0 * math.pi**2}

_PLATEAU_EPS = 1e-8  # snap-to-plateau margin for the cutoff (flat to ~exp(-1/eps))


def ball_volume(m: int) -> float:
    """Volume of the unit ball in R^(2m)."""
    return OMEGA_SPHERE[m] / (2.0 * m)


# ---------------------------------------------------------------------------
# Smooth cutoff: 1 on [0, 1/4], 0 on [1/2, inf), C-infinity in between.
# The transition is the standard exp(-1/t) smooth step in t = 4 (1/2 - r),
# with its first two r-derivatives in closed form.
# ---------------------------------------------------------------------------


def _cutoff_transition(r: np.ndarray, order: int) -> np.ndarray:
    """Order-th r-derivative of S = rise / (rise + fall), rise = exp(-1/t), fall = exp(-1/(1-t)).

    dS/dt = S (1 - S) q with q = t^-2 + (1 - t)^-2, and dt/dr = -4.
    """
    t = 4.0 * (0.5 - r)  # maps [1/4, 1/2] onto [1, 0]
    rise = np.exp(-1.0 / t)
    fall = np.exp(-1.0 / (1.0 - t))
    step = rise / (rise + fall)
    if order == 0:
        return step
    # the complement directly: 1 - step loses every digit near r = 1/4
    rest = fall / (rise + fall)
    q = t**-2 + (1.0 - t) ** -2
    if order == 1:
        return -4.0 * step * rest * q
    dq = -2.0 * t**-3 + 2.0 * (1.0 - t) ** -3
    return 16.0 * (step * rest * q * (rest - step) * q + step * rest * dq)


def cutoff(r, order: int = 0):
    """Radial cutoff value (order 0) or its exact derivative of order 1 or 2."""
    if order not in (0, 1, 2):
        raise ValueError("cutoff derivatives are provided for orders 0, 1 and 2")
    arr = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(arr)
    if order == 0:
        out[arr <= 0.25 + _PLATEAU_EPS] = 1.0
    trans = (arr > 0.25 + _PLATEAU_EPS) & (arr < 0.5 - _PLATEAU_EPS)
    if np.any(trans):
        out[trans] = _cutoff_transition(arr[trans], order)
    if np.isscalar(r):
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Peak profile w and its radial derivatives (closed forms, orders 0..2).
# ---------------------------------------------------------------------------


def w_profile(sigma: float, r, order: int = 0):
    """log(2 sigma / (1 + sigma^2 r^2)) and derivatives d^j/dr^j, j <= 2."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rr = np.asarray(r, dtype=np.float64)
    s2 = sigma * sigma
    q = (sigma * rr) ** 2
    d = 1.0 + q
    if order == 0:
        out = math.log(2.0 * sigma) - np.log(d)
    elif order == 1:
        out = -2.0 * s2 * rr / d
    elif order == 2:
        out = -2.0 * s2 * (1.0 - q) / d**2
    else:
        raise ValueError("w_profile derivatives are provided up to order 2")
    if np.isscalar(r):
        return float(out)
    return out


def profile_value(sigma: float, r):
    """Glued radial profile: cutoff * (w - w(1)) + w(1)."""
    w1 = w_profile(sigma, 1.0)
    return cutoff(r) * (w_profile(sigma, r) - w1) + w1


def profile_half_laplacian(sigma: float, r, m: int):
    """Signed Delta^(m/2) of the glued profile (radial gradient for odd power).

    Assembled by the exact product rule from the cutoff and w derivatives;
    the w'(r)/r combination is simplified analytically so r = 0 is regular.
    """
    rr = np.asarray(r, dtype=np.float64)
    w1 = w_profile(sigma, 1.0)
    dw = w_profile(sigma, rr, 0) - w1
    phi0 = cutoff(rr, 0)
    phi1 = cutoff(rr, 1)
    w_r = w_profile(sigma, rr, 1)
    if m == 1:
        out = phi1 * dw + phi0 * w_r
    elif m == 2:
        s2 = sigma * sigma
        d = 1.0 + (sigma * rr) ** 2
        w_r_over_r = -2.0 * s2 / d  # exact: w' = -2 sigma^2 r / d
        phi2 = cutoff(rr, 2)
        w_rr = w_profile(sigma, rr, 2)
        # cutoff derivatives are supported on [1/4, 1/2], so dividing by r there is safe
        phi1_over_r = np.where(phi1 != 0.0, phi1 / np.where(rr > 0, rr, 1.0), 0.0)
        dim_minus_1 = 3.0
        out = (
            phi2 * dw
            + 2.0 * phi1 * w_r
            + phi0 * w_rr
            + dim_minus_1 * (phi1_over_r * dw + phi0 * w_r_over_r)
        )
    else:
        raise ValueError(f"unsupported order m={m}")
    if np.isscalar(r):
        return float(out)
    return out


def _quad(fn, breaks) -> float:
    from scipy.integrate import quad

    pts = sorted({float(b) for b in breaks if 0.0 < b < 1.0})
    out = quad(
        fn, 0.0, 1.0, points=pts or None, epsabs=1e-8, epsrel=1e-9,
        limit=400, full_output=1,
    )
    if len(out) > 3:  # message present => warning/failure
        raise QuadratureError(f"radial quadrature did not converge: {out[3]}")
    return float(out[0])


def radial_energy(sigma: float, m: int) -> float:
    """Integral over the unit ball of |Delta^(m/2) v|^2, by 1-D quadrature.

    Grows like 2*Lambda1*log(sigma) with an O(1) remainder; equals the grid
    Sobolev seminorm of any torus embedding exactly (flat metric, any alpha).
    """
    if sigma < 2:
        raise ValueError("sigma must be >= 2")
    omega = OMEGA_SPHERE[m]
    power = 2 * m - 1

    def integrand(r: float) -> float:
        lap = profile_half_laplacian(sigma, r, m)
        return omega * r**power * lap * lap

    return _quad(integrand, (1.0 / sigma, 0.25, 0.5))


def radial_exp_mass(sigma: float, m: int) -> float:
    """Integral over the unit ball of exp(2m v); bounded in sigma."""
    omega = OMEGA_SPHERE[m]
    power = 2 * m - 1

    def integrand(r: float) -> float:
        return omega * r**power * math.exp(2.0 * m * profile_value(sigma, r))

    breaks = (0.5 / sigma, 1.0 / sigma, 3.0 / sigma, 10.0 / sigma, 30.0 / sigma, 0.25, 0.5)
    return _quad(integrand, breaks)


def radial_profile_mean(sigma: float, alpha: float, m: int) -> float:
    """Mean over the torus of the embedded (pre-projection) profile."""
    omega = OMEGA_SPHERE[m]
    power = 2 * m - 1

    def integrand(r: float) -> float:
        return omega * r**power * profile_value(sigma, r)

    inner = _quad(integrand, (1.0 / sigma, 0.25, 0.5))
    w1 = w_profile(sigma, 1.0)
    cap_volume = ball_volume(m) * alpha ** (2 * m)
    return (1.0 - cap_volume) * w1 + alpha ** (2 * m) * inner


def radial_log_mass(sigma: float, alpha: float, m: int) -> float:
    """log integral of exp(2m u) for the mean-zero embedded profile."""
    w1 = w_profile(sigma, 1.0)
    cap_volume = ball_volume(m) * alpha ** (2 * m)
    outside = (1.0 - cap_volume) * math.exp(2.0 * m * w1)
    inside = alpha ** (2 * m) * radial_exp_mass(sigma, m)
    return math.log(outside + inside) - 2.0 * m * radial_profile_mean(sigma, alpha, m)


def default_alpha(sigma: float) -> float:
    """Dilation schedule min(0.4, sigma^-1/2): shrinks, yet slower than the core."""
    if sigma <= 1:
        raise ValueError("sigma must exceed 1")
    return min(0.4, sigma**-0.5)


@dataclass(frozen=True)
class BubbleParams:
    """Peak sharpness sigma, ball dilation alpha, and torus center."""

    sigma: float
    alpha: float
    center: tuple[float, ...]

    def __post_init__(self):
        if not self.sigma > 1:
            raise ValueError("sigma must exceed 1")
        if not (0.0 < self.alpha <= 0.5 - 1e-9):
            raise ValueError("alpha must lie in (0, 1/2) (torus injectivity radius)")
        if any(not (0.0 <= c < 1.0) for c in self.center):
            raise ValueError("center coordinates must lie in [0, 1)")


def required_resolution(params: BubbleParams) -> int:
    """Smallest n with >= 6 grid points across the core half-width alpha/sigma."""
    return math.ceil(6.0 * params.sigma / params.alpha)


def bubble_field(spec: TorusSpec, params: BubbleParams, *, allow_unresolved: bool = False) -> Field:
    """Mean-zero grid embedding of the glued profile.

    Refuses grids with fewer than 6 points across the core half-width unless
    allow_unresolved is set; under-resolved embeddings silently corrupt
    Sobolev norms and are acceptable only for pointwise-mass diagnostics.
    """
    if len(params.center) != spec.dim:
        raise ValueError(f"center must have {spec.dim} coordinates")
    need = required_resolution(params)
    if spec.n < need and not allow_unresolved:
        raise UnresolvedBubbleError(spec.n, need, params.sigma, params.alpha)
    coords = grid_coordinates(spec)
    r2 = np.zeros(spec.shape)
    for axis, x in enumerate(coords):
        d = np.mod(x - params.center[axis] + 0.5, 1.0) - 0.5
        r2 = r2 + d * d
    rho = np.sqrt(r2) / params.alpha  # radius in unit-ball coordinates
    vals = profile_value(params.sigma, np.minimum(rho, 1.0))
    w1 = w_profile(params.sigma, 1.0)
    vals = np.where(rho < 1.0, vals, w1)
    return from_values(spec, vals)


@dataclass(frozen=True)
class BubbleAsymptotics:
    """Least-squares growth rates of the profile family against log(sigma)."""

    m: int
    lam: float
    alpha: float
    sigmas: np.ndarray
    norms_sq: np.ndarray
    log_masses: np.ndarray
    energies: np.ndarray
    norm_slope: float
    energy_slope: float
    norm_target: float
    energy_target: float


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0])


def bubble_asymptotics(sigma_list, lam: float, m: int, alpha: float = 0.4) -> BubbleAsymptotics:
    """Fit norm-squared and energy growth of the family against log(sigma).

    The fit holds alpha fixed across the family so the dilation contributes
    only to the intercept: the energy slope then targets Lambda1 - lam and
    the norm-squared slope 2*Lambda1.  (A sigma-dependent alpha with
    power-law decay would leak lam * d(log alpha)/d(log sigma) into the
    slope.)
    """
    sigmas = np.asarray(list(sigma_list), dtype=np.float64)
    if sigmas.size < 3:
        raise ValueError("need at least 3 sigma values")
    if np.any(np.diff(sigmas) <= 0):
        raise ValueError("sigma values must be strictly increasing")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if not (0.0 < alpha <= 0.5 - 1e-9):
        raise ValueError("alpha must lie in (0, 1/2)")
    cst = constants(m)
    norms_sq = np.array([radial_energy(s, m) for s in sigmas])
    log_masses = np.array([radial_log_mass(s, alpha, m) for s in sigmas])
    energies = 0.5 * norms_sq - lam / (2.0 * m) * log_masses
    x = np.log(sigmas)
    norm_slope = _fit_slope(x, norms_sq)
    energy_slope = _fit_slope(x, energies)
    return BubbleAsymptotics(
        m=m,
        lam=float(lam),
        alpha=float(alpha),
        sigmas=sigmas,
        norms_sq=norms_sq,
        log_masses=log_masses,
        energies=energies,
        norm_slope=norm_slope,
        energy_slope=energy_slope,
        norm_target=2.0 * cst.Lambda1,
        energy_target=cst.Lambda1 - float(lam),
    )
