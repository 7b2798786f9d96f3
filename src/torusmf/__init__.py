"""Spectral toolkit for polyharmonic mean-field equations on flat tori.

Finds, verifies and diagnoses solutions of

    (-Lap)^m u + lam = lam * exp(2m u) / integral(exp(2m u))

on the unit-volume torus of dimension 2m (m = 1 or 2): spectral field
calculus, the variational energy and its derivatives, concentrating test
families, a numerical mountain pass, Newton-Krylov continuation, and the
quantization / Green-kernel / small-lam diagnostics.
"""

from .errors import (
    ConvergenceError,
    QuadratureError,
    UnresolvedBubbleError,
)
from .field import (
    Field,
    TorusSpec,
    apply_power_laplacian,
    from_values,
    grid_coordinates,
    l2_inner,
    lincomb,
    log_integrate_exp,
    make_spec,
    read_field,
    scaled,
    shift,
    sobolev_inner,
    sobolev_norm_sq,
    solve_poisson_power,
    transform,
    upsample,
    write_field,
    zero_field,
)
from .functional import (
    Constants,
    constants,
    dual_lipschitz_gap,
    el_residual,
    energy_value,
    expansion_gap,
    gradient_h,
    hessian_action,
    hessian_quadratic_form,
    sphere_volume,
)
from .bubble import (
    BubbleAsymptotics,
    BubbleParams,
    bubble_asymptotics,
    bubble_field,
    cutoff,
    default_alpha,
    profile_half_laplacian,
    profile_value,
    radial_energy,
    radial_exp_mass,
    radial_log_mass,
    radial_profile_mean,
    required_resolution,
    w_profile,
)
from .mountainpass import (
    LevelRow,
    LevelSweepReport,
    MPResult,
    find_u0,
    level_sweep,
    mountain_pass,
)
from .solver import (
    Branch,
    SolveResult,
    concentration_direction,
    continuation,
    multi_start,
    newton_solve,
    random_low_mode_field,
    smallest_hessian_eigenvalue,
)
from .diagnostics import (
    CoercivityBand,
    GreenField,
    NonexistenceReport,
    NonexistenceRow,
    QuantizationReport,
    adams_value,
    coercivity_band,
    concentration,
    green_field,
    nonexistence_sweep,
)

__version__ = "0.1.0"
