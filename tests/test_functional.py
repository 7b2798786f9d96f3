"""Energy, first/second variations, thresholds."""

import math

import numpy as np
import pytest

from torusmf import (
    constants,
    directional_derivative,
    dual_lipschitz_gap,
    el_residual,
    energy,
    energy_value,
    expansion_gap,
    gradient_h,
    hessian_action,
    hessian_quadratic_form,
    l2_inner,
    lincomb,
    scaled,
    shift,
    sobolev_inner,
    sobolev_norm_sq,
    sphere_volume,
    solve_poisson_power,
    zero_field,
)

from conftest import cos_mode, smooth_field

PI = math.pi


class TestConstants:
    def test_m1_closed_forms(self):
        c = constants(1)
        assert c.Lambda1 == pytest.approx(4 * PI, abs=1e-12)
        assert c.lambda1 == pytest.approx(4 * PI**2, abs=1e-12)
        assert c.threshold_high == pytest.approx(2 * PI**2, abs=1e-12)
        assert c.poincare_Cm == pytest.approx(1 / (4 * PI**2), abs=1e-15)

    def test_m2_closed_forms(self):
        c = constants(2)
        assert sphere_volume(4) == pytest.approx(8 * PI**2 / 3, rel=1e-14)
        assert c.Lambda1 == pytest.approx(16 * PI**2, rel=1e-14)
        assert c.lambda1 == pytest.approx(16 * PI**4, rel=1e-14)
        assert c.threshold_high == pytest.approx(4 * PI**4, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 2])
    def test_interval_nonempty(self, m):
        c = constants(m)
        assert c.threshold_low < c.threshold_high

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            constants(3)


class TestEnergy:
    def test_zero_field(self, spec64):
        for lam in (0.0, 5.0, 14.0):
            assert energy_value(zero_field(spec64), lam) == 0.0

    def test_cos_quadratic(self, spec64):
        rep = energy(cos_mode(spec64), 0.0)
        assert rep.energy == pytest.approx(PI**2, rel=1e-12)
        assert rep.log_mass > 0.0

    def test_report_consistency(self, spec32):
        rep = energy(smooth_field(spec32, 4), 7.0)
        assert rep.energy == rep.dirichlet - rep.lam / 2.0 * rep.log_mass

    def test_jensen_log_mass(self, spec32):
        rep = energy(smooth_field(spec32, 8), 3.0)
        assert rep.log_mass >= 0.0

    def test_negative_lam_rejected(self, spec32):
        with pytest.raises(ValueError):
            energy_value(zero_field(spec32), -1.0)

    def test_translation_invariance(self, spec64):
        u = smooth_field(spec64, 17, norm=1.5)
        e0 = energy_value(u, 14.0)
        for tau in [(1, 0), (7, 13), (-5, 31)]:
            assert energy_value(shift(u, tau), 14.0) == pytest.approx(e0, abs=1e-12 * (1 + abs(e0)))


class TestElResidual:
    def test_zero_solves(self, spec64):
        for lam in (0.0, 14.0):
            r = el_residual(zero_field(spec64), lam)
            assert math.sqrt(l2_inner(r, r)) <= 1e-14

    def test_cos_lambda0(self, spec64):
        f = cos_mode(spec64)
        r = el_residual(f, 0.0)
        assert np.max(np.abs(r.values - 4 * PI**2 * f.values)) <= 1e-10

    def test_residual_mean_zero(self, spec32):
        r = el_residual(smooth_field(spec32, 5, norm=2.0), 10.0)
        assert abs(r.values.mean()) <= 1e-12 * (1.0 + np.max(np.abs(r.values)))


class TestGradient:
    def test_zero_at_critical_point(self, spec64):
        g = gradient_h(zero_field(spec64), 14.0)
        assert np.max(np.abs(g.values)) <= 1e-14

    @pytest.mark.parametrize("lam", [0.0, 5.0, 14.0])
    def test_directional_derivative_fd(self, spec64, lam):
        h = 1e-5
        for seed in range(7):
            u = smooth_field(spec64, seed, norm=1.0)
            v = smooth_field(spec64, 100 + seed, norm=1.0)
            pairing = sobolev_inner(gradient_h(u, lam), v)
            fd = (energy_value(lincomb(1, u, h, v), lam)
                  - energy_value(lincomb(1, u, -h, v), lam)) / (2 * h)
            assert pairing == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_pairing_equals_l2_form(self, spec32):
        u = smooth_field(spec32, 3)
        v = smooth_field(spec32, 33)
        lam = 9.0
        assert sobolev_inner(gradient_h(u, lam), v) == pytest.approx(
            directional_derivative(u, lam, v), rel=1e-10
        )

    def test_noncritical_bubble_direction(self, spec64):
        from torusmf import BubbleParams, bubble_field

        u = bubble_field(spec64, BubbleParams(4.0, 0.4, (0.0, 0.0)))
        assert math.sqrt(sobolev_norm_sq(gradient_h(u, 14.0))) > 0.1


class TestHessian:
    def test_action_at_zero(self, spec64):
        lam = 7.0
        v = smooth_field(spec64, 12, norm=1.0)
        hv = hessian_action(zero_field(spec64), lam, v)
        from torusmf import apply_power_laplacian

        expected = apply_power_laplacian(v, 1.0).values - 2 * lam * v.values
        assert np.max(np.abs(hv.values - expected)) <= 1e-9 * (1 + np.max(np.abs(expected)))

    def test_threshold_mode_is_null(self, spec64):
        lam = 2 * PI**2
        v = cos_mode(spec64)
        q = hessian_quadratic_form(zero_field(spec64), lam, v)
        assert abs(q) <= 1e-10

    def test_symmetry(self, spec32):
        u = smooth_field(spec32, 1, norm=1.2)
        v = smooth_field(spec32, 2, norm=0.7)
        w = smooth_field(spec32, 3, norm=1.9)
        lam = 11.0
        a = l2_inner(hessian_action(u, lam, v), w)
        b = l2_inner(hessian_action(u, lam, w), v)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_matches_gradient_fd(self, spec64):
        lam = 14.0
        h = 1e-5
        for seed in range(5):
            u = smooth_field(spec64, seed, norm=1.0)
            v = smooth_field(spec64, 50 + seed, norm=1.0)
            riesz = solve_poisson_power(hessian_action(u, lam, v), 1.0)
            gp = gradient_h(lincomb(1, u, h, v), lam)
            gm = gradient_h(lincomb(1, u, -h, v), lam)
            fd = scaled(lincomb(1, gp, -1, gm), 1 / (2 * h))
            err = math.sqrt(sobolev_norm_sq(lincomb(1, riesz, -1, fd)))
            assert err <= 1e-5 * max(1.0, math.sqrt(sobolev_norm_sq(riesz)))

    def test_second_variation_sign_change(self, spec64):
        cst = constants(1)
        v = cos_mode(spec64)
        norm = l2_inner(v, v)

        def min_form(lam):
            return hessian_quadratic_form(zero_field(spec64), lam, v) / norm

        assert min_form(0.99 * cst.threshold_high) > 0.0
        assert min_form(1.01 * cst.threshold_high) < 0.0
        assert abs(min_form(cst.threshold_high)) <= 1e-10
        # closed form of the smallest quadratic-form value over unit-L2 modes
        for lam in (10.0, 15.0, 19.0):
            assert min_form(lam) == pytest.approx(4 * PI**2 - 2 * lam, rel=1e-10)


class TestExpansionGap:
    def test_v_zero(self, spec32):
        u = smooth_field(spec32, 6)
        assert expansion_gap(u, zero_field(spec32), 14.0) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative_batch(self, spec32):
        rng = np.random.default_rng(0)
        for k in range(100):
            u = smooth_field(spec32, 2 * k, norm=float(rng.uniform(0.1, 2.0)))
            v = smooth_field(spec32, 2 * k + 1, norm=float(rng.uniform(0.1, 2.0)))
            mu = float(rng.uniform(0.0, 20.0))
            assert expansion_gap(u, v, mu) >= -1e-10

    def test_quadratic_case_zero(self, spec32):
        u = smooth_field(spec32, 40)
        v = smooth_field(spec32, 41)
        assert expansion_gap(u, v, 0.0) == pytest.approx(0.0, abs=1e-10)


class TestDualLipschitz:
    def test_zero_field_ratio_zero(self, spec64):
        assert dual_lipschitz_gap(zero_field(spec64), 14.0, 14.01) <= 1e-12

    def test_stable_as_nu_approaches_mu(self, spec32):
        u = smooth_field(spec32, 13, norm=2.0)
        ratios = [dual_lipschitz_gap(u, 14.0, 14.0 + eps) for eps in (1e-2, 1e-4, 1e-6)]
        assert all(np.isfinite(ratios))
        assert max(ratios) - min(ratios) <= 1e-6 * max(ratios)

    def test_scaling_stays_below_family_bound(self, spec32):
        u = smooth_field(spec32, 14, norm=1.0)
        family = [scaled(u, c) for c in (0.5, 1.0, 1.5, 2.0)]
        ratios = [dual_lipschitz_gap(f, 14.0, 14.01) for f in family]
        fitted = max(ratios)
        assert dual_lipschitz_gap(scaled(u, 2.0), 14.0, 14.01) <= fitted * (1 + 1e-12)

    def test_equal_parameters_rejected(self, spec32):
        with pytest.raises(ValueError):
            dual_lipschitz_gap(zero_field(spec32), 14.0, 14.0)
