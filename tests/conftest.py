import numpy as np
import pytest

from torusmf import (
    Field,
    TorusSpec,
    grid_coordinates,
    level_sweep,
    make_spec,
    mountain_pass,
    random_low_mode_field,
)


@pytest.fixture(scope="session")
def spec64() -> TorusSpec:
    return make_spec(1, 64)


@pytest.fixture(scope="session")
def spec32() -> TorusSpec:
    return make_spec(1, 32)


def criterion6_sweep():
    """The criterion-6 pass-level sweep: lam = 13..19 at m=1, n=128 (about 7 s)."""
    return level_sweep([13, 14, 15, 16, 17, 18, 19], make_spec(1, 128), tol=1e-8)


@pytest.fixture(scope="session")
def sweep128():
    """criterion6_sweep() computed once per session: criterion 6 and its golden rows."""
    return criterion6_sweep()


def order_two_mountain_pass():
    """The m=2 existence run: mountain_pass at lam = 250, n = 16 (about 4 s)."""
    return mountain_pass(250.0, make_spec(2, 16))


@pytest.fixture(scope="session")
def mp250():
    """order_two_mountain_pass() computed once per session: m=2 tests and golden values."""
    return order_two_mountain_pass()


def cos_mode(spec: TorusSpec, axis: int = 0, freq: int = 1) -> Field:
    """cos(2 pi freq x_axis) sampled on the grid."""
    x = grid_coordinates(spec)[axis]
    vals = np.broadcast_to(np.cos(2.0 * np.pi * freq * x), spec.shape).copy()
    return Field(spec, vals)


def sin_mode(spec: TorusSpec, axis: int = 0, freq: int = 1) -> Field:
    x = grid_coordinates(spec)[axis]
    vals = np.broadcast_to(np.sin(2.0 * np.pi * freq * x), spec.shape).copy()
    return Field(spec, vals)


def smooth_field(spec: TorusSpec, seed: int, norm: float = 1.0) -> Field:
    """Deterministic random band-limited mean-zero field with given H^m norm."""
    return random_low_mode_field(spec, np.random.default_rng(seed), norm, max_wavenumber=3)
