"""Quantization, exponential functionals, Green kernels, small-lam sweep."""

import math

import numpy as np
import pytest

from torusmf import (
    BubbleParams,
    adams_value,
    apply_power_laplacian,
    bubble_field,
    coercivity_band,
    concentration,
    constants,
    default_alpha,
    from_values,
    green_field,
    l2_inner,
    make_spec,
    multi_start,
    nonexistence_sweep,
    scaled,
    sobolev_norm_sq,
    zero_field,
)

from conftest import cos_mode, run_fresh, smooth_field, traced_peak

PI = math.pi


class TestConcentration:
    def test_flat_field(self, spec64):
        rep = concentration(zero_field(spec64), 1.0)
        assert rep.nearest_N == 0
        assert rep.plateau_mass == 0.0
        assert rep.mass[-1] == 1.0  # whole-torus mass is lam exactly

    def test_mass_monotone_and_total(self, spec64):
        u = smooth_field(spec64, 3, norm=2.0)
        lam = 7.0
        rep = concentration(u, lam)
        assert np.all(np.diff(rep.mass) >= -1e-15)
        assert rep.mass[-1] == lam

    def test_embedded_bubble_quantum(self):
        # sharply concentrated profile at lam = Lambda1: the plateau captures
        # one quantum of mass (grid used for pointwise masses only)
        spec = make_spec(1, 256)
        lam = 4 * PI
        u = bubble_field(spec, BubbleParams(1e3, default_alpha(1e3), (0.0, 0.0)),
                         allow_unresolved=True)
        rep = concentration(u, lam)
        assert rep.nearest_N == 1
        assert rep.deviation <= 0.20

    def test_rejects_nonpositive_lam(self, spec64):
        with pytest.raises(ValueError):
            concentration(zero_field(spec64), 0.0)


class TestAdams:
    def test_small_direction_tends_to_one(self, spec64):
        v = cos_mode(spec64)
        # exponent is scale-free, so take a genuinely small-exponent field:
        # a high-frequency mode has small sup^2/norm^2
        w = from_values(
            spec64, np.cos(2 * PI * 8 * np.arange(64) / 64)[:, None] * np.ones((1, 64)))
        assert adams_value(w) < adams_value(v)

    def test_zero_homogeneity(self, spec64):
        u = smooth_field(spec64, 9, norm=1.3)
        assert adams_value(u) == adams_value(scaled(u, 2.0))  # exact for powers of 2
        assert adams_value(u) == pytest.approx(adams_value(scaled(u, 3.0)), rel=1e-12)

    def test_bubble_family_bounded(self):
        # radial evaluation of the same integrand: the family stays within a
        # bounded band as the peak sharpens over two decades
        from scipy.integrate import quad
        from torusmf import profile_value, radial_energy, radial_profile_mean

        def radial_adams(sigma: float) -> float:
            alpha = 0.4
            norm_sq = radial_energy(sigma, 1)
            mean = radial_profile_mean(sigma, alpha, 1)
            w1 = math.log(2 * sigma / (1 + sigma**2))
            t = 4 * PI / norm_sq
            outside = (1 - PI * alpha**2) * math.exp(t * (w1 - mean) ** 2)
            val, _ = quad(
                lambda r: 2 * PI * r * math.exp(t * (profile_value(sigma, r) - mean) ** 2),
                0.0, 1.0, points=[1.0 / sigma, 0.25, 0.5], limit=400,
            )
            return outside + alpha**2 * val

        values = [radial_adams(s) for s in (1e2, 1e3, 1e4)]
        assert max(values) / min(values) <= 10.0

    def test_zero_field_rejected(self, spec64):
        with pytest.raises(ValueError):
            adams_value(zero_field(spec64))


class TestCoercivity:
    def test_zero_family(self, spec64):
        band = coercivity_band(10.0, [zero_field(spec64)])
        assert band.fitted_C == 0.0

    def test_default_families_validate(self, spec64):
        from torusmf.diagnostics import coercivity_families

        fit, val = coercivity_families(spec64, seed=4)
        band = coercivity_band(10.0, fit, val)
        # the discrete exponential inequality is slightly stricter than the
        # continuum one, so the fitted offset can legitimately be zero
        assert math.isfinite(band.fitted_C) and band.fitted_C >= 0.0
        assert band.validation_max is not None

    def test_offset_bound_holds_on_samples(self, spec64):
        lam = 10.0
        cst = constants(1)
        from torusmf import energy_value
        from torusmf.diagnostics import coercivity_families

        fit, val = coercivity_families(spec64, seed=2)
        band = coercivity_band(lam, fit, val)

        def gap(u):
            return (0.5 - lam / (2 * cst.Lambda1)) * sobolev_norm_sq(u) - energy_value(u, lam)

        assert all(gap(u) <= band.fitted_C + 1e-12 for u in fit)
        assert all(gap(u) <= band.fitted_C * 1.1 + 1e-9 for u in val)

    def test_rejects_lam_at_threshold(self, spec64):
        with pytest.raises(ValueError, match="threshold"):
            coercivity_band(13.0, [zero_field(spec64)])

    def test_failed_validation_raises(self, spec64, monkeypatch):
        # real data never trips the held-out check, so lower one held-out
        # energy until its gap clears the fitted C by more than the 10% slack
        from torusmf import diagnostics

        lam = 10.0
        fit = [zero_field(spec64), smooth_field(spec64, 1, norm=1.0)]
        held = smooth_field(spec64, 2, norm=1.0)
        fitted_C = coercivity_band(lam, fit).fitted_C
        energy = diagnostics.energy_value

        def lowered(u, lam):
            return energy(u, lam) - (fitted_C + 1.0) if u is held else energy(u, lam)

        monkeypatch.setattr(diagnostics, "energy_value", lowered)
        with pytest.raises(RuntimeError,
                           match=r"held-out gap .* exceeds fitted C=.* with 10% slack"):
            coercivity_band(lam, fit, [held])


class TestGreen:
    def test_reproduction_identity(self):
        spec = make_spec(1, 128)
        g = green_field(spec, (17, 40))
        for seed in range(3):
            u = smooth_field(spec, seed, norm=1.0)
            lhs = l2_inner(apply_power_laplacian(u, 1.0), g.field)
            target = u.values[17, 40]
            assert lhs == pytest.approx(target, rel=1e-10, abs=1e-12)

    def test_mean_zero(self):
        spec = make_spec(1, 128)
        g = green_field(spec, (0, 0))
        assert abs(float(g.field.values.mean())) <= 1e-14

    def test_log_coefficient(self):
        spec = make_spec(1, 512)
        g = green_field(spec, (0, 0))
        assert g.log_coefficient == pytest.approx(1.0 / (2 * PI), rel=0.05)

    def test_m2_reproduction(self):
        spec = make_spec(2, 16)
        g = green_field(spec, (3, 5, 7, 9))
        u = smooth_field(spec, 5, norm=1.0)
        lhs = l2_inner(apply_power_laplacian(u, 2.0), g.field)
        assert lhs == pytest.approx(u.values[3, 5, 7, 9], rel=1e-10, abs=1e-12)

    def test_bad_base_index(self):
        spec = make_spec(1, 64)
        with pytest.raises(ValueError):
            green_field(spec, (1, 2, 3))


class TestNonexistence:
    def test_small_lam_all_trivial(self, spec32):
        rep = nonexistence_sweep([0.5, 1.0], spec32, n_seeds=6, seed=0)
        assert rep.all_trivial
        assert rep.regime_bound == pytest.approx(PI / 2, rel=1e-14)
        for row in rep.rows:
            assert row.n_converged >= 1
            assert row.n_nontrivial == 0
            assert row.max_nontrivial_norm == 0.0

    def test_rejects_out_of_regime(self, spec32):
        with pytest.raises(ValueError, match="regime"):
            nonexistence_sweep([2.0], spec32)

    def test_rejects_empty_grid(self, spec32):
        with pytest.raises(ValueError):
            nonexistence_sweep([], spec32)

    def test_sweep_is_multi_start_at_each_lam(self, spec32, monkeypatch):
        # one pass over the guesses gives each lam the results multi_start
        # gives there, bit for bit, and draws each guess's start once
        from torusmf import diagnostics, solver

        lams, seen, starts = [0.25, 0.5, 1.0], [], []
        solve_from_guesses, start_pair = diagnostics._solve_from_guesses, solver._start_pair
        monkeypatch.setattr(diagnostics, "_solve_from_guesses",
                            lambda *a, **kw: seen.append(solve_from_guesses(*a, **kw)) or seen[-1])
        monkeypatch.setattr(solver, "_start_pair", lambda g: starts.append(g) or start_pair(g))
        swept = nonexistence_sweep(lams, spec32, n_seeds=8, seed=0)
        assert len(starts) == 8
        per_lam = [multi_start(lam, spec32, 8, 0) for lam in lams]
        (got,) = seen
        for mine, theirs in zip(got, per_lam, strict=True):
            assert len(mine) == len(theirs)
            for a, b in zip(mine, theirs):
                assert a.field.values.tobytes() == b.field.values.tobytes()
                assert (a.energy, a.residual_history, a.converged) == \
                    (b.energy, b.residual_history, b.converged)
        monkeypatch.setattr(diagnostics, "_solve_from_guesses", lambda *a, **kw: per_lam)
        assert nonexistence_sweep(lams, spec32, n_seeds=8, seed=0) == swept

    def test_threads_do_not_change_the_sweep(self):
        # one pool serves the whole sweep; one BLAS thread, because threaded
        # BLAS reductions round differently
        code = ("import os\n"
                "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
                "from torusmf import diagnostics, make_spec\n"
                "inner = diagnostics._solve_from_guesses\n"
                "seen = []\n"
                "diagnostics._solve_from_guesses = lambda *a, **kw: seen.append(inner(*a, **kw)) or seen[-1]\n"
                "for jobs in (1, 2):\n"
                "    rep = diagnostics.nonexistence_sweep([0.25, 1.0], make_spec(2, 16), 8, seed=3,\n"
                "                                         jobs=jobs)\n"
                "    res = [r for per_lam in seen.pop() for r in per_lam]\n"
                "    print(repr(rep), b''.join(r.field.values.tobytes() for r in res).hex(),\n"
                "          [(r.energy, r.residual_history) for r in res])\n")
        serial, threaded = run_fresh(code).splitlines()
        assert serial == threaded

    def test_sweep_holds_few_fields(self):
        # the pass holds the workspace, one guess and the kept roots: every
        # duplicate, spent guess and finished start is dropped on the spot
        # (70 field-sized arrays when each lam kept all 20 results)
        spec = make_spec(2, 16)
        nonexistence_sweep([0.5], spec, n_seeds=1, seed=1)  # warm the workspace and caches
        rep, peak = traced_peak(lambda: nonexistence_sweep([0.25, 0.5, 1.0], spec,
                                                           n_seeds=20, seed=1))
        assert rep.all_trivial
        assert peak <= 24 * 8 * spec.npoints, peak / (8 * spec.npoints)
