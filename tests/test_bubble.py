"""Concentrating profiles: cutoff, closed-form derivatives, growth rates."""

import math

import numpy as np
import pytest

from torusmf import (
    BubbleParams,
    UnresolvedBubbleError,
    bubble_asymptotics,
    bubble_field,
    cutoff,
    default_alpha,
    log_integrate_exp,
    make_spec,
    profile_half_laplacian,
    profile_value,
    radial_energy,
    radial_exp_mass,
    radial_log_mass,
    radial_profile_mean,
    required_resolution,
    sobolev_norm_sq,
    w_profile,
)
from torusmf.bubble import _ball_integral
from torusmf.errors import QuadratureError

PI = math.pi


class TestCutoff:
    def test_plateaus_exact(self):
        for r in (0.0, 0.1, 0.25):
            assert cutoff(r) == 1.0
            assert all(cutoff(r, k) == 0.0 for k in range(1, 3))
        for r in (0.5, 0.6, 3.0):
            assert all(cutoff(r, k) == 0.0 for k in range(0, 3))

    def test_transition_value_range(self):
        assert 0.0 < cutoff(0.375) < 1.0

    @pytest.mark.parametrize("r0", [0.3, 0.375, 0.45])
    @pytest.mark.parametrize("order", [1, 2])
    def test_derivatives_match_central_differences(self, r0, order):
        h = 1e-6
        fd = (cutoff(r0 + h, order - 1) - cutoff(r0 - h, order - 1)) / (2 * h)
        an = cutoff(r0, order)
        assert fd == pytest.approx(an, rel=1e-7, abs=1e-7)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_closed_form_against_symbolic(self, order):
        # independent oracle: sympy differentiates the smooth step in r
        import sympy as sp

        rs = sp.symbols("r", positive=True)
        t = (sp.Rational(1, 2) - rs) / sp.Rational(1, 4)
        step = sp.exp(-1 / t) / (sp.exp(-1 / t) + sp.exp(-1 / (1 - t)))
        fn = sp.lambdify(rs, sp.diff(step, rs, order), modules="numpy")
        r = np.linspace(0.25, 0.5, 2001)[1:-1]
        got = cutoff(r, order)
        peak = np.max(np.abs(got))
        assert np.max(np.abs(got - fn(r))) <= 1e-12 * peak

    def test_rejects_order_three(self):
        with pytest.raises(ValueError, match="orders 0, 1 and 2"):
            cutoff(0.375, 3)

    def test_vectorized(self):
        r = np.linspace(0, 1, 101)
        vals = cutoff(r)
        assert vals.shape == r.shape
        assert np.all((vals >= 0) & (vals <= 1))
        assert np.all(np.diff(vals) <= 1e-12)  # non-increasing


class TestProfile:
    def test_w_at_origin(self):
        assert w_profile(1.0, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_w_first_derivative_formula(self):
        sigma, r = 5.0, 0.3
        expected = -2 * sigma**2 * r / (1 + sigma**2 * r**2)
        assert w_profile(sigma, r, 1) == pytest.approx(expected, rel=1e-14)

    def test_w_derivatives_against_symbolic(self):
        # independent oracle: sympy differentiates log(2 s / (1 + s^2 r^2))
        import sympy as sp

        r, s = sp.symbols("r s", positive=True)
        w = sp.log(2 * s / (1 + s**2 * r**2))
        for order in (1, 2):
            expr = sp.diff(w, r, order)
            fn = sp.lambdify((s, r), expr, modules="math")
            for sigma in (2.0, 7.0, 40.0):
                for rr in (0.01, 0.2, 0.8):
                    assert w_profile(sigma, rr, order) == pytest.approx(
                        fn(sigma, rr), rel=1e-12
                    )

    def test_bilaplacian_magnitude_m2(self):
        # |Lap w| = 4 s^2 (s^2 r^2 + 2) / (1 + s^2 r^2)^2 in dimension 4,
        # cross-checked against symbolic w'' + (3/r) w'
        import sympy as sp

        rs, ss = sp.symbols("r s", positive=True)
        w = sp.log(2 * ss / (1 + ss**2 * rs**2))
        lap = sp.diff(w, rs, 2) + 3 / rs * sp.diff(w, rs)
        fn = sp.lambdify((ss, rs), lap, modules="math")
        for sigma in (3.0, 9.0):
            for rr in (0.05, 0.2):
                direct = profile_half_laplacian(sigma, rr, 2)
                closed = -4 * sigma**2 * (sigma**2 * rr**2 + 2) / (1 + sigma**2 * rr**2) ** 2
                assert direct == pytest.approx(fn(sigma, rr), rel=1e-12)
                assert direct == pytest.approx(closed, rel=1e-12)

    def test_envelope_inequality(self):
        for sigma in (2.0, 50.0, 1e3):
            r = np.linspace(0, 1, 801)
            v = profile_value(sigma, r)
            lower = math.log(2 * sigma / (1 + sigma**2))
            upper = np.log(2 * sigma / (1 + sigma**2 * r**2))
            assert np.all(v >= lower - 1e-12)
            assert np.all(v <= upper + 1e-12)


class TestRadialEnergy:
    def test_rejects_small_sigma(self):
        with pytest.raises(ValueError):
            radial_energy(1.5, 1)

    def test_decade_slope_m1(self):
        diff = radial_energy(1000.0, 1) - radial_energy(100.0, 1)
        assert diff == pytest.approx(8 * PI * math.log(10.0), rel=0.05)

    def test_decade_slope_m2(self):
        diff = radial_energy(1000.0, 2) - radial_energy(100.0, 2)
        assert diff == pytest.approx(32 * PI**2 * math.log(10.0), rel=0.05)

    def test_leading_term_closed_form(self):
        # core integral 8 pi int_0^1 s^4 r^3/(1+s^2 r^2)^2 dr has antiderivative
        # 2 pi [log(1+s^2 r^2) + 1/(1+s^2 r^2)]; the ball integral supplies 2 pi r
        for sigma in (50.0, 400.0):
            val = _ball_integral(1, sigma,
                                 lambda r: 4 * sigma**4 * r**2 / (1 + sigma**2 * r**2) ** 2)
            closed = 4 * PI * (math.log(1 + sigma**2) + 1 / (1 + sigma**2) - 1)
            assert val == pytest.approx(closed, rel=1e-12)

    def test_cutoff_corrections_bounded(self):
        # energy minus pure-core term stays O(1) while both grow like log sigma
        def core(sigma):
            return 4 * PI * (math.log(1 + sigma**2) + 1 / (1 + sigma**2) - 1)

        deviations = [radial_energy(s, 1) - core(s) for s in (1e2, 1e3, 1e4)]
        assert max(deviations) - min(deviations) <= 1.0
        assert max(map(abs, deviations)) <= 60.0

    def test_o1_band(self):
        sigmas = [10**p for p in (2.0, 2.5, 3.0, 3.5, 4.0)]
        band = [radial_energy(s, 1) - 2 * (4 * PI) * math.log(s) for s in sigmas]
        assert max(band) - min(band) <= 10.0


class TestBallIntegral:
    @pytest.mark.parametrize("m, sigma", [(2, 1e6), (2, 1e8), (1, 1e8)])
    def test_exp_mass_reaches_the_bubble_mass(self, m, sigma):
        # the whole-space masses are 4 pi (m=1) and 8 pi^2/3 (m=2); what the
        # cutoff and the ball miss is O(sigma^-2m).  Adaptive quad read these
        # 3.7e-6 (m=2) and 1.1e-3 (m=1, sigma=1e8) off, with no error raised
        closed = 4 * PI if m == 1 else 8 * PI**2 / 3
        assert radial_exp_mass(sigma, m) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("sigma", [0.01, 0.5, 10.0, 1e3])
    def test_matches_adaptive_quadrature(self, m, sigma):
        # scipy's quad split at the core scale and the cutoff band as the
        # reference; sigma < 1/16 exercises the clipped core panels
        from scipy.integrate import quad

        omega = 2 * PI if m == 1 else 2 * PI**2
        fns = [lambda r: profile_value(sigma, r),
               lambda r: np.exp(2 * m * profile_value(sigma, r))]
        if sigma >= 2:
            fns.append(lambda r: profile_half_laplacian(sigma, r, m) ** 2)
        for fn in fns:
            want, _ = quad(lambda r: omega * r ** (2 * m - 1) * fn(r), 0.0, 1.0,
                           points=[p for p in (1.0 / sigma, 0.25, 0.5) if p < 1.0],
                           epsabs=0.0, epsrel=1e-13,
                           limit=400)
            got = _ball_integral(m, sigma, fn)
            assert got == pytest.approx(want, rel=1e-10)

    def test_jump_raises_quadrature_error(self):
        # a step inside a cutoff-band panel: the two orders differ (7e-4 of the
        # integral) and the rule says so instead of returning a value
        jump = 0.3 + 1e-3 * PI
        with pytest.raises(QuadratureError, match="orders differ"):
            _ball_integral(1, 100.0, lambda r: np.where(r > jump, 1.0, 0.0))


class TestDefaultAlpha:
    def test_examples(self):
        assert default_alpha(4.0) == pytest.approx(0.4)
        assert default_alpha(100.0) == pytest.approx(0.1)
        assert default_alpha(1e4) == pytest.approx(0.01)
        assert 1e4 * default_alpha(1e4) >= 3.0

    def test_rejects_sigma_below_one(self):
        with pytest.raises(ValueError):
            default_alpha(0.5)


class TestBubbleField:
    def test_far_value_before_projection(self):
        spec = make_spec(1, 64)
        sigma, alpha = 3.0, 0.4
        u = bubble_field(spec, BubbleParams(sigma, alpha, (0.5, 0.5)))
        # undo the mean-zero projection at the corner farthest from the center
        w1 = math.log(2 * sigma / (1 + sigma**2))
        offset = u.values[0, 0] - w1
        far_region = u.values[:8, :8]
        assert np.max(np.abs(far_region - w1 - offset)) <= 1e-12
        assert abs(u.values.mean()) <= 1e-13

    def test_grid_matches_radial_quadrature(self):
        spec = make_spec(1, 1024)
        sigma = 20.0
        u = bubble_field(spec, BubbleParams(sigma, 0.3, (0.0, 0.0)))
        grid = sobolev_norm_sq(u)
        radial = radial_energy(sigma, 1)
        assert grid == pytest.approx(radial, rel=0.03)

    def test_grid_log_mass_matches_radial(self):
        spec = make_spec(1, 1024)
        sigma, alpha = 20.0, 0.3
        u = bubble_field(spec, BubbleParams(sigma, alpha, (0.0, 0.0)))
        assert log_integrate_exp(u, 2.0) == pytest.approx(
            radial_log_mass(sigma, alpha, 1), rel=1e-6
        )

    def test_under_resolution_error(self):
        spec = make_spec(1, 64)
        params = BubbleParams(1e4, 0.01, (0.0, 0.0))
        with pytest.raises(UnresolvedBubbleError) as err:
            bubble_field(spec, params)
        assert err.value.required_n == required_resolution(params)
        assert err.value.required_n > 64

    def test_param_validation(self):
        with pytest.raises(ValueError):
            BubbleParams(0.5, 0.3, (0.0, 0.0))
        with pytest.raises(ValueError):
            BubbleParams(4.0, 0.6, (0.0, 0.0))
        with pytest.raises(ValueError):
            BubbleParams(4.0, 0.3, (1.5, 0.0))


class TestAsymptotics:
    SIGMAS = [10**p for p in (2.0, 2.5, 3.0, 3.5, 4.0)]

    def test_norm_slope(self):
        rep = bubble_asymptotics(self.SIGMAS, 0.0, 1)
        assert rep.norm_slope == pytest.approx(8 * PI, rel=0.05)

    def test_energy_slope_lambda0(self):
        rep = bubble_asymptotics(self.SIGMAS, 0.0, 1)
        assert rep.energy_slope == pytest.approx(4 * PI, rel=0.10)

    def test_energy_slope_supercritical_negative(self):
        rep = bubble_asymptotics(self.SIGMAS, 14.0, 1)
        assert rep.energy_slope == pytest.approx(4 * PI - 14.0, rel=0.10)
        assert rep.energy_slope < 0.0

    def test_exp_mass_bounded_with_known_limit(self):
        masses = [radial_exp_mass(s, 1) for s in self.SIGMAS]
        assert max(masses) / min(masses) <= 2.0
        assert masses[-1] == pytest.approx(4 * PI, rel=1e-3)

    def test_one_exp_mass_quadrature_per_sigma(self, monkeypatch):
        import torusmf.bubble as bubble

        calls = []

        def counted(sigma, m):
            calls.append(sigma)
            return radial_exp_mass(sigma, m)

        monkeypatch.setattr(bubble, "radial_exp_mass", counted)
        bubble_asymptotics(self.SIGMAS, 0.0, 1)
        assert calls == self.SIGMAS

    def test_mean_estimate(self):
        sigma = 1e4
        mean = radial_profile_mean(sigma, default_alpha(sigma), 1)
        assert abs(mean + math.log(sigma)) / math.log(sigma) <= 0.15

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bubble_asymptotics([10.0, 5.0, 20.0], 0.0, 1)
        with pytest.raises(ValueError):
            bubble_asymptotics([10.0, 20.0], 0.0, 1)
