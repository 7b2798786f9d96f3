"""Mean-zero scalar fields on the unit flat torus, represented on uniform grids.

The torus has dimension 2m (m = 1 or 2), side length 1 and volume 1.  A field
is identified with its trigonometric interpolant through the FFT, so all the
calculus used elsewhere -- fractional powers of the (negative) Laplacian,
Sobolev seminorms, quadrature of smooth integrands -- is spectral.  Fourier
coefficients follow the series convention f(x) = sum_k c(k) exp(2*pi*i k.x)
with integer wave vectors k in [-n/2, n/2) per axis.  Fields are real, so
only the half spectrum of the real FFT (last-axis k in [0, n/2]) is stored:
c(-k) = conj(c(k)) holds by construction.

The linear operations carry spectra: lincomb, scaled, apply_power_laplacian
and solve_poisson_power store their output's normalized half spectrum
(a*c_f + b*c_g, a*c_f, or c_f times the multiplier) whenever their inputs
hold one, so transform on the output is a cache hit.  A carried spectrum
equals rfftn(values)/N up to rounding, not bit for bit.  A field built from
raw values (Field, from_values, read_field, shift, upsample) transforms
lazily, on the first call of transform.

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
    out = Field(f.spec, a * f.values + b * g.values)
    cf, cg = f._cache.get("spectrum"), g._cache.get("spectrum")
    if cf is not None and cg is not None:
        _carry(out, a * cf + b * cg)
    return out


def scaled(f: Field, a: float) -> Field:
    out = Field(f.spec, a * f.values)
    cf = f._cache.get("spectrum")
    if cf is not None:
        _carry(out, a * cf)
    return out


def _carry(f: Field, spectrum: np.ndarray) -> None:
    """Store a normalized half spectrum computed by linearity (a new array) on f."""
    spectrum.flags.writeable = False
    f._cache["spectrum"] = spectrum


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


@functools.lru_cache(maxsize=16)
def _wavenumbers(spec: TorusSpec) -> tuple[np.ndarray, ...]:
    """Sparse |k| axes of the rfftn half grid (last axis k = 0 .. n/2), read-only."""
    k = np.abs(np.fft.fftfreq(spec.n, d=1.0 / spec.n))
    axes = np.meshgrid(*([k] * (spec.dim - 1) + [k[:spec.n // 2 + 1]]), indexing="ij", sparse=True)
    for a in axes:
        a.flags.writeable = False
    return tuple(axes)


@functools.lru_cache(maxsize=64)
def _multiplier(spec: TorusSpec, s: float) -> np.ndarray:
    """(4 pi^2 |k|^2)**s on the rfftn half grid (last axis k >= 0), k=0 entry zeroed."""
    base = FOUR_PI_SQ * sum(a**2 for a in _wavenumbers(spec))
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
def _sobolev_weight(spec: TorusSpec, s: float) -> np.ndarray:
    """H^s multiplier times each half-grid mode's multiplicity (s = m, or -m for the dual)."""
    weight = _multiplicity(spec) * _multiplier(spec, s)
    weight.flags.writeable = False
    return weight


def transform(f: Field) -> np.ndarray:
    """Normalized real FFT (rfftn(values)/N, read-only); cached on the field.

    The outputs of lincomb, scaled, apply_power_laplacian and
    solve_poisson_power carry theirs from their inputs' when those hold one
    (module docstring); it equals rfftn(values)/N up to rounding.
    """
    cached = f._cache.get("spectrum")
    if cached is None:
        cached = _forward_rfft(f.values)
        cached /= f.spec.npoints
        cached.flags.writeable = False
        f._cache["spectrum"] = cached
    return cached


def _forward_rfft(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized half spectrum rfftn(values), written into out when given."""
    return np.fft.rfftn(values, out=out)


def _inverse_rfft(c: np.ndarray, spec: TorusSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Grid values from an unnormalized half spectrum (the inverse of rfftn); overwrites c.

    c may carry leading batch axes.  The complex passes run in place on c in
    irfftn's axis order (ifftn goes last to first), then the real pass
    writes into out, so the result is bit-identical to irfftn's.
    """
    axes = tuple(range(c.ndim - spec.dim, c.ndim))
    np.fft.ifftn(c, axes=axes[-2::-1], out=c)
    return np.fft.irfftn(c, s=(spec.n,), axes=axes[-1:], out=out)


def _apply_multiplier(f: Field, mult: np.ndarray) -> Field:
    """The field with half spectrum transform(f) * mult, which it carries."""
    spectrum = transform(f) * mult
    out = Field(f.spec, _inverse_rfft(spectrum * f.spec.npoints, f.spec))
    _carry(out, spectrum)
    return out


def apply_power_laplacian(f: Field, s: float) -> Field:
    """Fourier multiplier (4 pi^2 |k|^2)**s on a mean-zero field; s >= 0."""
    if s < 0:
        raise ValueError("negative power: use solve_poisson_power instead")
    return _apply_multiplier(f, _multiplier(f.spec, float(s)))


def solve_poisson_power(f: Field, s: float) -> Field:
    """Inverse of apply_power_laplacian(., s) on mean-zero fields; s > 0."""
    if s <= 0:
        raise ValueError("power must be positive")
    return _apply_multiplier(f, _multiplier(f.spec, -float(s)))


def _sobolev_dot(spec: TorusSpec, c: np.ndarray, d: np.ndarray, s: float) -> float:
    """Real part of the H^s mode sum of two half spectra (any strides), by einsum:
    a fixed order on numpy's own loops, never a BLAS dot that threads."""
    weight = _sobolev_weight(spec, float(s))
    terms = "{0},{0},{0}->".format("ijkl"[:spec.dim])
    return float(np.einsum(terms, weight, c.real, d.real)
                 + np.einsum(terms, weight, c.imag, d.imag))


def sobolev_norm_sq(f: Field) -> float:
    """Squared H^m seminorm: sum over k of (4 pi^2 |k|^2)^m |c(k)|^2; cached on the field."""
    cached = f._cache.get("norm_sq")
    if cached is None:
        c = transform(f)
        cached = f._cache["norm_sq"] = _sobolev_dot(f.spec, c, c, f.spec.m)
    return cached


def sobolev_inner(f: Field, g: Field) -> float:
    """H^m inner product of two mean-zero fields (real part of the mode sum)."""
    _check_same_spec(f, g)
    return _sobolev_dot(f.spec, transform(f), transform(g), f.spec.m)


def _mean_product(a: np.ndarray, b: np.ndarray) -> float:
    """Grid mean of a * b: the L^2 inner product, summed in a fixed order."""
    return float(np.einsum("i,i->", a.reshape(-1), b.reshape(-1))) / a.size


def l2_inner(f: Field, g: Field) -> float:
    _check_same_spec(f, g)
    return _mean_product(f.values, g.values)


def _peak_index(values: np.ndarray) -> tuple[int, ...]:
    """Grid index of the first maximum of values."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(values)), values.shape))


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
    """Spectral zero-padding onto a finer grid (exact for the trig interpolant).

    Each Nyquist plane k = -n/2 of the field's half spectrum is split in half
    between -n/2 and +n/2, as scipy.signal.resample does axis by axis.
    """
    n, h = f.spec.n, f.spec.n // 2
    if n_new < n or n_new % 2 != 0:
        raise ValueError("upsample target must be an even n >= current n")
    if n_new == n:
        return f
    new_spec = make_spec(f.spec.m, n_new)
    padded = np.zeros(new_spec.shape[:-1] + (n_new // 2 + 1,), dtype=np.complex128)
    full = np.r_[0:h, n_new - h:n_new]  # where the wave numbers 0..n/2-1, -n/2..-1 go
    padded[np.ix_(*[full] * (f.spec.dim - 1), np.arange(h + 1))] = transform(f)
    for axis in range(f.spec.dim - 1):
        planes = np.moveaxis(padded, axis, 0)
        planes[n_new - h] *= 0.5
        planes[h] = planes[n_new - h]
    padded[..., h] *= 0.5
    padded *= new_spec.npoints
    vals = _inverse_rfft(padded, new_spec)
    return Field(new_spec, vals - vals.mean())


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
