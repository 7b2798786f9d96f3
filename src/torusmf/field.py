"""Mean-zero scalar fields on the unit flat torus, represented on uniform grids.

The torus has dimension 2m (m = 1 or 2), side length 1 and volume 1.  A field
is identified with its trigonometric interpolant through the FFT, so all the
calculus used elsewhere -- fractional powers of the (negative) Laplacian,
Sobolev seminorms, quadrature of smooth integrands -- is spectral.  Fourier
coefficients follow the series convention f(x) = sum_k c(k) exp(2*pi*i k.x)
with integer wave vectors k in [-n/2, n/2) per axis.  Fields are real, so
only the half spectrum of the real FFT (last-axis k in [0, n/2]) is stored:
c(-k) = conj(c(k)) holds by construction.

Fields are immutable after construction; every operation here is a pure
function and safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SUPPORTED_ORDERS = (1, 2)
MEAN_ZERO_RTOL = 1e-12
FOUR_PI_SQ = 4.0 * math.pi**2

_MAX_GRID_POINTS = 2**31


@dataclass(frozen=True)
class TorusSpec:
    """Uniform n**(2m) grid on the flat torus of dimension 2m (unit volume)."""

    m: int
    n: int

    @property
    def dim(self) -> int:
        return 2 * self.m

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def npoints(self) -> int:
        return self.n**self.dim


def make_spec(m: int, n: int) -> TorusSpec:
    """Validated grid spec; rejects unsupported order and odd or tiny n."""
    if m not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported order m={m}; supported orders are {SUPPORTED_ORDERS}")
    n = int(n)
    if n % 2 != 0 or n < 8:
        raise ValueError(f"grid size n={n} must be even and >= 8")
    if n ** (2 * m) > _MAX_GRID_POINTS:
        raise ValueError(f"grid of {n}**{2 * m} points is not representable here")
    return TorusSpec(int(m), n)


@dataclass(frozen=True, eq=False)
class Field:
    """Real mean-zero scalar grid function; values are row-major with axis 0 slowest.

    Construction checks the shape, finiteness and a grid average within
    MEAN_ZERO_RTOL of zero relative to 1 + max|v|, so every Field is
    mean-zero and no operation re-checks it.  It takes ownership of the value
    array and freezes it; from_values is the entry point for raw arrays.
    """

    spec: TorusSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.spec.shape:
            raise ValueError(f"value array shape {v.shape} does not match grid {self.spec.shape}")
        # NaN and +-inf carry through abs and max, so max|v| is finite
        # exactly when every entry is
        vmax = float(np.max(np.abs(v)))
        if not math.isfinite(vmax):
            raise ValueError("non-finite entry in field values")
        mean = float(v.mean())
        if abs(mean) > MEAN_ZERO_RTOL * (1.0 + vmax):
            raise ValueError(f"field values are not mean-zero (grid average {mean:.3e}); "
                             "from_values projects a raw array")
        if v.flags.writeable:
            v = v.copy() if not v.flags.owndata else v
            v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_cache", {})


def zero_field(spec: TorusSpec) -> Field:
    return Field(spec, np.zeros(spec.shape))


def from_values(spec: TorusSpec, values: np.ndarray) -> Field:
    """Field from a raw array: copied, reshaped, checked finite, grid average subtracted.

    The equation and the functional are unchanged under u -> u + const, so
    the projection loses nothing; the subtracted constant is mean(values).
    """
    v = np.array(values, dtype=np.float64, copy=True)
    if v.size == spec.npoints and v.shape != spec.shape:
        v = v.reshape(spec.shape)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite entry in field values")
    return Field(spec, v - float(v.mean()))


def lincomb(a: float, f: Field, b: float, g: Field) -> Field:
    _check_same_spec(f, g)
    return Field(f.spec, a * f.values + b * g.values)


def scaled(f: Field, a: float) -> Field:
    return Field(f.spec, a * f.values)


def shift(f: Field, offsets: tuple[int, ...]) -> Field:
    """Translate by whole grid cells (periodic roll); an exact torus symmetry."""
    if len(offsets) != f.spec.dim:
        raise ValueError("one integer offset per axis required")
    rolled = np.roll(f.values, shift=tuple(int(o) for o in offsets), axis=tuple(range(f.spec.dim)))
    return Field(f.spec, rolled)


def grid_coordinates(spec: TorusSpec):
    """Sparse meshgrid of coordinates i/n per axis, broadcastable to spec.shape."""
    x = np.arange(spec.n) / spec.n
    return np.meshgrid(*([x] * spec.dim), indexing="ij", sparse=True)


def _check_same_spec(f: Field, g: Field) -> None:
    if f.spec != g.spec:
        raise ValueError(f"grid spec mismatch: {f.spec} vs {g.spec}")


@functools.lru_cache(maxsize=64)
def _multiplier(spec: TorusSpec, s: float) -> np.ndarray:
    """(4 pi^2 |k|^2)**s on the rfftn half grid (last axis k >= 0), k=0 entry zeroed."""
    k = np.fft.fftfreq(spec.n, d=1.0 / spec.n)
    axes = np.meshgrid(*([k] * (spec.dim - 1) + [np.abs(k[:spec.n // 2 + 1])]),
                       indexing="ij", sparse=True)
    base = FOUR_PI_SQ * sum(a**2 for a in axes)
    if s >= 0:
        mult = base**s
        mult.flat[0] = 0.0
    else:
        mult = np.zeros(base.shape)
        np.divide(1.0, base**(-s), out=mult, where=base > 0)
    mult.flags.writeable = False
    return mult


@functools.lru_cache(maxsize=16)
def _multiplicity(spec: TorusSpec) -> np.ndarray:
    """Each half-grid mode's multiplicity in the full spectrum: 2 (the mode and
    its conjugate), but 1 on the last-axis k=0 and k=n/2 planes."""
    mu = np.full((spec.n,) * (spec.dim - 1) + (spec.n // 2 + 1,), 2.0)
    mu[..., 0] = 1.0
    mu[..., -1] = 1.0
    mu.flags.writeable = False
    return mu


@functools.lru_cache(maxsize=16)
def _sobolev_weight(spec: TorusSpec) -> np.ndarray:
    """H^m multiplier times each half-grid mode's multiplicity."""
    weight = _multiplicity(spec) * _multiplier(spec, float(spec.m))
    weight.flags.writeable = False
    return weight


def transform(f: Field) -> np.ndarray:
    """Normalized real FFT (rfftn(values)/N, read-only); cached on the field."""
    cached = f._cache.get("spectrum")
    if cached is None:
        cached = np.fft.rfftn(f.values) / f.spec.npoints
        cached.flags.writeable = False
        f._cache["spectrum"] = cached
    return cached


def _inverse_rfft(c: np.ndarray, spec: TorusSpec) -> np.ndarray:
    """Grid values from an unnormalized half spectrum (the inverse of rfftn)."""
    return np.fft.irfftn(c, s=spec.shape, axes=tuple(range(spec.dim)))


def _apply_multiplier(f: Field, mult: np.ndarray) -> np.ndarray:
    return _inverse_rfft(transform(f) * mult * f.spec.npoints, f.spec)


def apply_power_laplacian(f: Field, s: float) -> Field:
    """Fourier multiplier (4 pi^2 |k|^2)**s on a mean-zero field; s >= 0."""
    if s < 0:
        raise ValueError("negative power: use solve_poisson_power instead")
    return Field(f.spec, _apply_multiplier(f, _multiplier(f.spec, float(s))))


def solve_poisson_power(f: Field, s: float) -> Field:
    """Inverse of apply_power_laplacian(., s) on mean-zero fields; s > 0."""
    if s <= 0:
        raise ValueError("power must be positive")
    return Field(f.spec, _apply_multiplier(f, _multiplier(f.spec, -float(s))))


def sobolev_norm_sq(f: Field) -> float:
    """Squared H^m seminorm: sum over k of (4 pi^2 |k|^2)^m |c(k)|^2; cached on the field."""
    cached = f._cache.get("norm_sq")
    if cached is None:
        c = transform(f)
        cached = float(np.vdot(_sobolev_weight(f.spec) * c, c).real)
        f._cache["norm_sq"] = cached
    return cached


def sobolev_inner(f: Field, g: Field) -> float:
    """H^m inner product of two mean-zero fields (real part of the mode sum)."""
    _check_same_spec(f, g)
    return float(np.vdot(_sobolev_weight(f.spec) * transform(f), transform(g)).real)


def l2_inner(f: Field, g: Field) -> float:
    _check_same_spec(f, g)
    return float((f.values * g.values).mean())


def log_integrate_exp(f: Field, c: float) -> float:
    """log of the grid mean of exp(c*f), via max-subtraction (never overflows)."""
    return float(_log_mean_exp(c * f.values.reshape(-1)))


def _log_mean_exp(t: np.ndarray) -> np.ndarray:
    """log of the mean of exp(t) over the last axis, via max-subtraction.

    Takes ownership of t and overwrites it (callers pass a temporary), so the
    only array it allocates is the row maxima.
    """
    tmax = t.max(axis=-1)
    t -= tmax[..., None]
    np.exp(t, out=t)
    return tmax + np.log(t.mean(axis=-1))


def upsample(f: Field, n_new: int) -> Field:
    """Spectral zero-padding onto a finer grid (exact for the trig interpolant)."""
    if n_new < f.spec.n or n_new % 2 != 0:
        raise ValueError("upsample target must be an even n >= current n")
    if n_new == f.spec.n:
        return f
    from scipy.signal import resample

    vals = f.values
    for axis in range(f.spec.dim):
        vals = resample(vals, n_new, axis=axis)
    new_spec = make_spec(f.spec.m, n_new)
    return Field(new_spec, np.ascontiguousarray(vals - vals.mean()))


# ---------------------------------------------------------------------------
# PBFLD1 on-disk format: ASCII header, then little-endian float64 in C order.
# ---------------------------------------------------------------------------

_PBFLD_MAGIC = b"PBFLD1"


def write_field(path, f: Field) -> None:
    """Write in the PBFLD1 format (header lines, blank line, raw doubles)."""
    with open(path, "wb") as fh:
        fh.write(_PBFLD_MAGIC + b"\n")
        fh.write(f"m={f.spec.m}\n".encode("ascii"))
        fh.write(f"n={f.spec.n}\n".encode("ascii"))
        fh.write(b"kind=values\n")
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes(order="C"))


def read_field(path) -> Field:
    """Read a PBFLD1 file through from_values (so the field is projected to mean zero)."""
    with open(path, "rb") as fh:
        lines = []
        while True:
            line = fh.readline()
            if not line:
                raise ValueError("truncated PBFLD1 header")
            line = line.rstrip(b"\n")
            if line == b"":
                break
            lines.append(line)
        if len(lines) != 4 or lines[0] != _PBFLD_MAGIC or lines[3] != b"kind=values":
            raise ValueError("not a PBFLD1 values file")
        try:
            m = int(lines[1].decode("ascii").removeprefix("m="))
            n = int(lines[2].decode("ascii").removeprefix("n="))
        except ValueError as exc:
            raise ValueError(f"bad PBFLD1 header: {exc}") from exc
        spec = make_spec(m, n)
        raw = fh.read()
    data = np.frombuffer(raw, dtype="<f8", count=-1)
    if data.size != spec.npoints:
        raise ValueError(f"payload has {data.size} doubles, expected {spec.npoints}")
    return from_values(spec, data)
