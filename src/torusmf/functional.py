"""Energy functional on mean-zero fields, its variations, and spectral thresholds.

The functional is

    I(u) = 1/2 * ||u||^2 - (lam / 2m) * log( integral of exp(2m u) )

with ||.|| the H^m seminorm of field.py.  Its critical points solve

    (-Lap)^m u + lam = lam * exp(2m u) / integral(exp(2m u)).

Everything below is a pure function of immutable fields; lam is always an
explicit argument, never global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import (
    Field,
    FOUR_PI_SQ,
    SUPPORTED_ORDERS,
    _check_same_spec,
    apply_power_laplacian,
    l2_inner,
    lincomb,
    log_integrate_exp,
    sobolev_norm_sq,
    solve_poisson_power,
)


def sphere_volume(dim: int) -> float:
    """Surface volume of the round unit sphere S^dim."""
    return 2.0 * math.pi ** ((dim + 1) / 2) / math.gamma((dim + 1) / 2)


@dataclass(frozen=True)
class Constants:
    """Closed-form spectral thresholds of the problem at order m.

    Lambda1 is the concentration quantum (total curvature of the round
    2m-sphere); lambda1 the smallest eigenvalue of (-Lap)^m on mean-zero
    fields of the unit torus.  The trivial state is a strict local minimum
    for lam < threshold_high, and the functional is coercive for
    lam <= threshold_low.
    """

    m: int
    Lambda1: float
    lambda1: float
    threshold_low: float
    threshold_high: float
    poincare_Cm: float


def constants(m: int) -> Constants:
    if m not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported order m={m}")
    Lambda1 = math.factorial(2 * m - 1) * sphere_volume(2 * m)
    lambda1 = FOUR_PI_SQ**m
    return Constants(
        m=m,
        Lambda1=Lambda1,
        lambda1=lambda1,
        threshold_low=Lambda1,  # unit volume
        threshold_high=lambda1 / (2 * m),
        poincare_Cm=1.0 / lambda1,
    )


def _check_nonnegative(value: float, name: str = "lam") -> None:
    """Refuse a value below 0 or not finite (nan, +-inf); name is its parameter."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def energy_value(u: Field, lam: float) -> float:
    """I(u): the quadratic part minus lam/2m times the (overflow-safe) log mass."""
    _check_nonnegative(lam)
    m = u.spec.m
    return 0.5 * sobolev_norm_sq(u) - lam / (2.0 * m) * log_integrate_exp(u, 2.0 * m)


def _normalized_exp_weight(values: np.ndarray, m: int,
                           out: np.ndarray | None = None) -> np.ndarray:
    """exp(2m u) / integral(exp(2m u)) on grid values; grid mean exactly 1, overflow-safe.

    Computed in one array, out when given.
    """
    p = np.multiply(2.0 * m, values, out=out)
    p -= p.max()
    np.exp(p, out=p)
    p /= p.mean()
    return p


def _residual_and_weight(values: np.ndarray, lap_values: np.ndarray, lam: float, m: int,
                         res: np.ndarray | None = None,
                         weight: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Residual values from the values of u and of (-Lap)^m u, and the weight W.

    The residual integrates to zero analytically; the tiny numerical mean is
    checked against 1e-10 * scale and then removed.  Both are written into
    res and weight when given.
    """
    weight = _normalized_exp_weight(values, m, out=weight)
    res = np.subtract(1.0, weight, out=res)
    np.multiply(lam, res, out=res)
    np.add(lap_values, res, out=res)
    mean = float(res.mean())
    # max|res| without a temporary; NaN propagates through both reductions
    scale = 1.0 + max(float(res.max()), -float(res.min()))
    if abs(mean) > 1e-10 * scale:
        raise ArithmeticError(f"residual mean {mean:.3e} exceeds 1e-10 * {scale:.3e}")
    res -= mean
    return res, weight


def el_residual(u: Field, lam: float) -> Field:
    """Residual (-Lap)^m u + lam - lam * W, with W = exp(2m u)/integral(exp(2m u))."""
    m = u.spec.m
    res, _ = _residual_and_weight(u.values, apply_power_laplacian(u, m).values, lam, m)
    return Field(u.spec, res)


def gradient_h(u: Field, lam: float) -> Field:
    """H^m-Riesz representative of the first variation.

    Pairs in the H^m inner product against any mean-zero v exactly as the
    directional derivative d/dt I(u + t v) at t = 0, so its H^m norm equals
    the dual norm of the first variation.
    """
    return solve_poisson_power(el_residual(u, lam), u.spec.m)


def hessian_action(u: Field, lam: float, v: Field) -> Field:
    """Linearization of el_residual at u, applied to v (mean-zero projected).

    (-Lap)^m v - 2m lam [ W v - W * integral(W v) ]  with  W the normalized
    exponential weight; symmetric in the L^2 pairing.
    """
    # kept apart from solver._weight_term: the reference its grid products are tested against
    _check_same_spec(u, v)
    m = u.spec.m
    weight = _normalized_exp_weight(u.values, m)
    wv = weight * v.values
    out = apply_power_laplacian(v, m).values - 2.0 * m * lam * (wv - weight * wv.mean())
    return Field(u.spec, out - out.mean())


def hessian_quadratic_form(u: Field, lam: float, v: Field) -> float:
    return l2_inner(hessian_action(u, lam, v), v)


def expansion_gap(u: Field, v: Field, mu: float) -> float:
    """Slack in I(u+v) <= I(u) + <I'(u), v> + 1/2 ||v||^2 (nonnegative)."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    base = energy_value(u, mu)
    expanded = energy_value(lincomb(1.0, u, 1.0, v), mu)
    gap = base + l2_inner(el_residual(u, mu), v) + 0.5 * sobolev_norm_sq(v) - expanded
    if gap < -1e-10 * (1.0 + abs(base)):
        raise ArithmeticError(f"expansion inequality violated: gap={gap:.3e}")
    return gap


def dual_lipschitz_gap(u: Field, mu: float, nu: float) -> float:
    """||I'_mu(u) - I'_nu(u)|| / |mu - nu| in the H^m dual norm."""
    if mu == nu:
        raise ValueError("mu and nu must differ")
    diff = lincomb(1.0, gradient_h(u, mu), -1.0, gradient_h(u, nu))
    return math.sqrt(max(sobolev_norm_sq(diff), 0.0)) / abs(mu - nu)
