"""Spectral field calculus: transforms, norms, quadrature, file format."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusmf import (
    Field,
    apply_power_laplacian,
    from_values,
    l2_inner,
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

from conftest import cos_mode, sin_mode, smooth_field

PI = math.pi


class TestMakeSpec:
    def test_t2(self):
        spec = make_spec(1, 64)
        assert spec.dim == 2 and spec.npoints == 4096

    def test_t4(self):
        spec = make_spec(2, 16)
        assert spec.dim == 4 and spec.npoints == 65536

    @pytest.mark.parametrize("m,n", [(3, 16), (0, 16), (1, 63), (1, 4)])
    def test_rejects(self, m, n):
        with pytest.raises(ValueError):
            make_spec(m, n)


class TestFromValues:
    def test_zeros(self, spec64):
        f = from_values(spec64, np.zeros(spec64.shape))
        assert f.values.mean() == 0.0

    def test_cos_mean_tiny(self, spec64):
        f = cos_mode(spec64)
        assert abs(f.values.mean()) <= 1e-14

    def test_nan_rejected(self, spec64):
        bad = np.zeros(spec64.shape)
        bad[3, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            from_values(spec64, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects_non_finite(self, spec64, bad):
        vals = np.zeros(spec64.shape)
        vals[3, 5] = bad
        with pytest.raises(ValueError, match="non-finite entry in field values"):
            Field(spec64, vals)

    def test_length_mismatch(self, spec64):
        with pytest.raises(ValueError):
            from_values(spec64, np.zeros(17))


class TestProjectMeanZero:
    def test_constant_becomes_zero(self, spec64):
        f = from_values(spec64, 5.0 * np.ones(spec64.shape))
        assert np.max(np.abs(f.values)) == 0.0

    def test_cos_unchanged(self, spec64):
        f = cos_mode(spec64)
        g = from_values(spec64, f.values)
        assert np.max(np.abs(g.values - f.values)) <= 1e-14

    def test_subtracts_the_grid_average(self, spec32):
        vals = np.random.default_rng(8).standard_normal(spec32.shape) + 3.0
        assert np.array_equal(from_values(spec32, vals).values, vals - float(vals.mean()))

    def test_field_has_spec_and_values_only(self):
        assert [f.name for f in dataclasses.fields(Field)] == ["spec", "values"]


def _multiplicity(spec):
    """How often each half-grid mode occurs in the full spectrum of a real field."""
    w = np.full(spec.shape[:-1] + (spec.n // 2 + 1,), 2.0)
    w[..., 0] = w[..., -1] = 1.0
    return w


class TestTransform:
    def test_zero_spectrum(self, spec64):
        c = transform(zero_field(spec64))
        assert c.shape == (64, 33)
        assert np.max(np.abs(c)) == 0.0

    def test_cos_coefficients(self, spec64):
        c = transform(cos_mode(spec64))
        assert abs(c[1, 0] - 0.5) <= 1e-14
        assert abs(c[-1, 0] - 0.5) <= 1e-14
        mask = np.ones(c.shape, dtype=bool)
        mask[1, 0] = mask[-1, 0] = False
        assert np.max(np.abs(c[mask])) <= 1e-14

    def test_cached_and_read_only(self, spec32):
        f = smooth_field(spec32, 4)
        c = transform(f)
        assert transform(f) is c
        assert not c.flags.writeable

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip(self, seed):
        spec = make_spec(1, 32)
        vals = np.random.default_rng(seed).standard_normal(spec.shape)
        f = from_values(spec, vals)
        back = np.fft.irfftn(transform(f) * spec.npoints, s=spec.shape, axes=(0, 1))
        scale = 1.0 + np.max(np.abs(vals))
        assert np.max(np.abs(back - f.values)) <= 1e-12 * scale

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_parseval(self, seed):
        spec = make_spec(1, 32)
        f = from_values(spec, np.random.default_rng(seed).standard_normal(spec.shape))
        lhs = float(np.mean(f.values**2))
        rhs = float(np.sum(_multiplicity(spec) * np.abs(transform(f)) ** 2))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)


class TestHalfGridSeminorm:
    """Half-spectrum seminorms against a full complex-FFT reference."""

    @staticmethod
    def _reference(f, g):
        spec = f.spec
        k = np.fft.fftfreq(spec.n, d=1.0 / spec.n)
        ksq = sum(a**2 for a in np.meshgrid(*([k] * spec.dim), indexing="ij", sparse=True))
        mult = (4 * PI**2 * ksq) ** spec.m
        cf = np.fft.fftn(f.values) / spec.npoints
        cg = np.fft.fftn(g.values) / spec.npoints
        return float(np.real(np.sum(mult * cf * np.conj(cg))))

    @staticmethod
    def _with_nyquist(spec, seed):
        """Mean-zero white noise: every mode, the k = n/2 planes included, is excited."""
        vals = np.random.default_rng(seed).standard_normal(spec.shape)
        return from_values(spec, vals)

    @pytest.mark.parametrize("m,n", [(1, 16), (1, 32), (2, 8)])
    def test_matches_full_spectrum(self, m, n):
        spec = make_spec(m, n)
        f, g = self._with_nyquist(spec, 1), self._with_nyquist(spec, 2)
        ref_ff, ref_fg = self._reference(f, f), self._reference(f, g)
        assert sobolev_norm_sq(f) == pytest.approx(ref_ff, rel=1e-12)
        assert abs(sobolev_inner(f, g) - ref_fg) <= 1e-12 * ref_ff

    def test_nyquist_plane_counted_once(self):
        spec = make_spec(1, 16)
        x = np.arange(spec.n)
        alternating = np.broadcast_to((-1.0) ** x, spec.shape)  # cos(pi n x) on the last axis
        f = from_values(spec, alternating)
        expected = (4 * PI**2 * (spec.n / 2) ** 2) ** spec.m  # |c| = 1 on the k = n/2 plane
        assert sobolev_norm_sq(f) == pytest.approx(expected, rel=1e-12)
        assert sobolev_norm_sq(f) == pytest.approx(self._reference(f, f), rel=1e-12)


class TestPowerLaplacian:
    def test_cos_eigenfunction_m1(self, spec64):
        f = cos_mode(spec64)
        g = apply_power_laplacian(f, 1.0)
        assert np.max(np.abs(g.values - 4 * PI**2 * f.values)) <= 1e-10

    def test_cos_eigenfunction_m2(self):
        spec = make_spec(2, 16)
        f = cos_mode(spec)
        g = apply_power_laplacian(f, 2.0)
        assert np.max(np.abs(g.values - 16 * PI**4 * f.values)) <= 1e-9

    def test_zero(self, spec64):
        g = apply_power_laplacian(zero_field(spec64), 1.5)
        assert np.max(np.abs(g.values)) == 0.0

    def test_negative_power_rejected(self, spec64):
        with pytest.raises(ValueError, match="solve_poisson_power"):
            apply_power_laplacian(zero_field(spec64), -1.0)

    def test_mean_zero_required(self, spec64):
        with pytest.raises(ValueError, match="mean-zero"):
            Field(spec64, 1.0 + cos_mode(spec64).values)

    def test_composition(self, spec32):
        f = smooth_field(spec32, 7)
        a = apply_power_laplacian(apply_power_laplacian(f, 0.5), 1.5)
        b = apply_power_laplacian(f, 2.0)
        scale = np.max(np.abs(b.values))
        assert np.max(np.abs(a.values - b.values)) <= 1e-10 * scale


class TestPoissonPower:
    def test_cos(self, spec64):
        f = scaled(cos_mode(spec64), 4 * PI**2)
        g = solve_poisson_power(f, 1.0)
        assert np.max(np.abs(g.values - cos_mode(spec64).values)) <= 1e-12

    def test_zero(self, spec64):
        assert np.max(np.abs(solve_poisson_power(zero_field(spec64), 2.0).values)) == 0.0

    def test_round_trip(self, spec32):
        f = smooth_field(spec32, 3)
        g = apply_power_laplacian(solve_poisson_power(f, 1.0), 1.0)
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(g.values - f.values)) <= 1e-10 * scale

    def test_rejects_nonpositive_power(self, spec64):
        with pytest.raises(ValueError):
            solve_poisson_power(zero_field(spec64), 0.0)


class TestSobolevNorm:
    def test_cos_m1(self, spec64):
        assert abs(sobolev_norm_sq(cos_mode(spec64)) - 2 * PI**2) <= 1e-10

    def test_cos_m2(self):
        spec = make_spec(2, 16)
        assert abs(sobolev_norm_sq(cos_mode(spec)) - 8 * PI**4) <= 1e-8

    def test_zero(self, spec64):
        assert sobolev_norm_sq(zero_field(spec64)) == 0.0

    def test_equals_half_power_l2(self, spec32):
        f = smooth_field(spec32, 11)
        half = apply_power_laplacian(f, spec32.m / 2.0)
        direct = sobolev_norm_sq(f)
        assert abs(direct - l2_inner(half, half)) <= 1e-10 * max(1.0, direct)

    def test_poincare_optimal(self, spec32):
        # l2 norm^2 <= (4 pi^2)^-m * sobolev norm^2, equality on the first mode
        for seed in range(5):
            f = smooth_field(spec32, seed)
            assert l2_inner(f, f) <= sobolev_norm_sq(f) / (4 * PI**2) * (1 + 1e-12)
        mode = cos_mode(spec32)
        assert abs(l2_inner(mode, mode) - sobolev_norm_sq(mode) / (4 * PI**2)) <= 1e-12


class TestQuadrature:
    def test_l2_inner_cos_cos(self, spec64):
        assert abs(l2_inner(cos_mode(spec64), cos_mode(spec64)) - 0.5) <= 1e-14

    def test_l2_inner_cos_sin(self, spec64):
        assert abs(l2_inner(cos_mode(spec64), sin_mode(spec64))) <= 1e-14

    def test_spec_mismatch(self, spec64, spec32):
        with pytest.raises(ValueError, match="mismatch"):
            l2_inner(zero_field(spec64), zero_field(spec32))


class TestIntegrateExp:
    """log_integrate_exp: log of the grid mean of exp(c*f)."""

    def test_zero(self, spec64):
        assert log_integrate_exp(zero_field(spec64), 2.0) == 0.0

    def test_bessel_value(self, spec64):
        # grid mean of exp(cos(2 pi x)) is the modified Bessel series
        # sum_j (1/4)^j / (j!)^2, frozen from that series
        series = sum(0.25**j / math.factorial(j) ** 2 for j in range(25))
        assert abs(series - 1.2660658777520084) < 1e-15
        value = log_integrate_exp(scaled(cos_mode(spec64), 0.5), 2.0)
        assert abs(value - math.log(series)) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_jensen(self, seed):
        spec = make_spec(1, 16)
        f = smooth_field(spec, seed, norm=1.0)
        assert log_integrate_exp(f, 2 * spec.m) >= 0.0

    def test_jensen_strict(self, spec32):
        assert log_integrate_exp(smooth_field(spec32, 5, norm=1.0), 2.0) > 1e-6

    def test_no_overflow(self, spec64):
        # exponents up to 1000 overflow exp() in float64; the log form does not
        f = scaled(cos_mode(spec64), 500.0)
        tmax = float(np.max(2.0 * f.values))
        value = log_integrate_exp(f, 2.0)
        assert math.isfinite(value)
        assert tmax - math.log(spec64.npoints) <= value <= tmax


class TestShiftAndUpsample:
    def test_shift_is_permutation(self, spec64):
        f = smooth_field(spec64, 21)
        g = shift(f, (5, -3))
        assert sorted(f.values.ravel()) == sorted(g.values.ravel())
        assert abs(sobolev_norm_sq(f) - sobolev_norm_sq(g)) <= 1e-10

    def test_upsample_exact_on_modes(self, spec32):
        f = cos_mode(spec32)
        g = upsample(f, 64)
        assert g.spec.n == 64
        assert np.max(np.abs(g.values[::2, ::2] - f.values)) <= 1e-12
        assert abs(sobolev_norm_sq(g) - sobolev_norm_sq(f)) <= 1e-9

    def test_upsample_rejects_downsample(self, spec64):
        with pytest.raises(ValueError):
            upsample(zero_field(spec64), 32)


class TestFieldFile:
    def test_round_trip(self, tmp_path, spec32):
        f = smooth_field(spec32, 2)
        path = tmp_path / "f.pbfld"
        write_field(path, f)
        g = read_field(path)
        assert g.spec == spec32
        assert np.array_equal(g.values, f.values - float(f.values.mean()))

    def test_header_layout(self, tmp_path, spec32):
        path = tmp_path / "f.pbfld"
        write_field(path, zero_field(spec32))
        raw = path.read_bytes()
        header = b"PBFLD1\nm=1\nn=32\nkind=values\n\n"
        assert raw.startswith(header)
        assert len(raw) == len(header) + 8 * spec32.npoints

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pbfld"
        path.write_bytes(b"NOTFLD\nm=1\nn=32\nkind=values\n\n")
        with pytest.raises(ValueError):
            read_field(path)

    def test_rejects_short_payload(self, tmp_path):
        path = tmp_path / "short.pbfld"
        path.write_bytes(b"PBFLD1\nm=1\nn=32\nkind=values\n\n" + b"\x00" * 64)
        with pytest.raises(ValueError, match="doubles"):
            read_field(path)

    def test_rejects_bad_header_value(self, tmp_path):
        path = tmp_path / "bad.pbfld"
        path.write_bytes(b"PBFLD1\nm=one\nn=32\nkind=values\n\n" + b"\x00" * 8 * 32**2)
        with pytest.raises(ValueError, match="bad PBFLD1 header"):
            read_field(path)

    def test_reading_projects_to_mean_zero(self, tmp_path, spec32):
        shifted = 5.0 + cos_mode(spec32).values
        path = tmp_path / "shifted.pbfld"
        path.write_bytes(b"PBFLD1\nm=1\nn=32\nkind=values\n\n" + shifted.astype("<f8").tobytes())
        g = read_field(path)
        assert np.array_equal(g.values, shifted - float(shifted.mean()))
        assert np.max(np.abs(g.values - cos_mode(spec32).values)) <= 1e-14

    def test_rejects_nan_payload(self, tmp_path, spec32):
        vals = np.zeros(spec32.shape)
        vals[4, 9] = np.nan
        path = tmp_path / "nan.pbfld"
        path.write_bytes(b"PBFLD1\nm=1\nn=32\nkind=values\n\n" + vals.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="non-finite"):
            read_field(path)
