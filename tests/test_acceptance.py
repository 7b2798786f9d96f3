"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 5 and 6 drive the full mountain-pass pipeline and dominate
the runtime (about 15 s total on a 2-core Xeon VM, half of it criterion 6's
level sweep).
"""

import math

import numpy as np
import pytest

from torusmf import (
    apply_power_laplacian,
    bubble_asymptotics,
    bubble_field,
    BubbleParams,
    concentration,
    constants,
    default_alpha,
    energy_value,
    expansion_gap,
    gradient_h,
    green_field,
    hessian_quadratic_form,
    l2_inner,
    lincomb,
    make_spec,
    mountain_pass,
    newton_solve,
    radial_energy,
    scaled,
    sobolev_inner,
    sobolev_norm_sq,
    solve_poisson_power,
    upsample,
    zero_field,
)
from torusmf.diagnostics import nonexistence_sweep

from conftest import cos_mode, smooth_field

PI = math.pi


def report(criterion: int, detail: str) -> None:
    print(f"CRITERION {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def spec_n64():
    return make_spec(1, 64)


@pytest.fixture(scope="module")
def mp_solutions(spec_n64):
    """Criterion 5 pipeline, shared with criterion 11."""
    out = {}
    for lam in (14.0, 19.0):
        res = mountain_pass(lam, spec_n64, tol=1e-10, max_sweeps=400)
        assert res.converged, f"mountain pass failed at lam={lam}"
        out[lam] = res
    return out


def test_criterion_1_constants():
    c1 = constants(1)
    assert abs(c1.Lambda1 - 4 * PI) <= 1e-12
    assert abs(c1.threshold_high - 2 * PI**2) <= 1e-12
    c2 = constants(2)
    assert abs(c2.Lambda1 - 16 * PI**2) <= 1e-12 * 16 * PI**2
    assert abs(c2.threshold_high - 4 * PI**4) <= 1e-12 * 4 * PI**4
    report(1, f"thresholds m=1: ({c1.Lambda1:.12f}, {c1.threshold_high:.12f}); "
              f"m=2: ({c2.Lambda1:.6f}, {c2.threshold_high:.6f})")


def test_criterion_2_norm_growth_rate():
    sigmas = [10**p for p in (2.0, 2.5, 3.0, 3.5, 4.0)]
    for m in (1, 2):
        target = 2 * constants(m).Lambda1
        x = np.log(sigmas)
        y = np.array([radial_energy(s, m) for s in sigmas])
        slope = float(np.polyfit(x, y, 1)[0])
        assert abs(slope - target) <= 0.05 * target, f"m={m}: {slope} vs {target}"
        if m == 1:
            detail = f"m=1 slope {slope:.4f} (target {target:.4f})"
    report(2, detail + "; m=2 within 5% as well")


def test_criterion_3_energy_growth_rate():
    sigmas = [10**p for p in (2.0, 2.5, 3.0, 3.5, 4.0)]
    details = []
    for lam in (0.0, 14.0):
        rep = bubble_asymptotics(sigmas, lam, 1)
        target = rep.energy_target
        assert abs(rep.energy_slope - target) <= 0.10 * abs(target)
        if lam == 14.0:
            assert rep.energy_slope < 0.0
        details.append(f"lam={lam}: {rep.energy_slope:.4f} (target {target:.4f})")
    report(3, "; ".join(details))


def test_criterion_4_local_minimum_threshold(spec_n64):
    cst = constants(1)
    mode = cos_mode(spec_n64)
    weight = l2_inner(mode, mode)

    def min_form(lam):
        return hessian_quadratic_form(zero_field(spec_n64), lam, mode) / weight

    assert min_form(0.99 * cst.threshold_high) > 0.0
    assert min_form(1.01 * cst.threshold_high) < 0.0
    at_threshold = min_form(cst.threshold_high)
    assert abs(at_threshold) <= 1e-10
    report(4, f"sign change across {cst.threshold_high:.6f}; value at threshold "
              f"{at_threshold:.2e}")


def test_criterion_5_existence_run(mp_solutions):
    details = []
    for lam, res in mp_solutions.items():
        sol = res.solve
        norm = math.sqrt(sobolev_norm_sq(sol.field))
        assert sol.residual_l2 <= 1e-8
        assert norm >= 0.1
        assert sol.energy > 0.0
        details.append(f"lam={lam}: residual {sol.residual_l2:.1e}, "
                       f"norm {norm:.3f}, energy {sol.energy:.5f}")
    report(5, "; ".join(details))


def test_criterion_6_level_monotonicity(sweep128):
    rep = sweep128
    assert rep.monotonicity_violations == 0
    assert all(r.c_estimate > 0 for r in rep.rows)
    cs = ", ".join(f"{r.c_estimate:.4f}" for r in rep.rows)
    report(6, f"c estimates over 13..19: [{cs}], 0 violations at 2% slack")


def test_criterion_7_variational_checks(spec_n64):
    h = 1e-5
    worst_grad = 0.0
    for seed in range(20):
        lam = (0.0, 5.0, 14.0)[seed % 3]
        u = smooth_field(spec_n64, seed, norm=1.0)
        v = smooth_field(spec_n64, 1000 + seed, norm=1.0)
        pairing = sobolev_inner(gradient_h(u, lam), v)
        fd = (energy_value(lincomb(1, u, h, v), lam)
              - energy_value(lincomb(1, u, -h, v), lam)) / (2 * h)
        err = abs(pairing - fd) / max(abs(fd), 1e-12)
        worst_grad = max(worst_grad, err)
        assert err <= 1e-6
    worst_hess = 0.0
    for seed in range(20):
        lam = 14.0
        u = smooth_field(spec_n64, 70 + seed, norm=1.0)
        v = smooth_field(spec_n64, 7000 + seed, norm=1.0)
        from torusmf import hessian_action

        riesz = solve_poisson_power(hessian_action(u, lam, v), 1.0)
        fd = scaled(lincomb(1, gradient_h(lincomb(1, u, h, v), lam),
                            -1, gradient_h(lincomb(1, u, -h, v), lam)), 1 / (2 * h))
        err = math.sqrt(sobolev_norm_sq(lincomb(1, riesz, -1, fd)))
        err /= max(math.sqrt(sobolev_norm_sq(riesz)), 1e-12)
        worst_hess = max(worst_hess, err)
        assert err <= 1e-5
    rng = np.random.default_rng(0)
    spec_small = make_spec(1, 32)
    for k in range(100):
        u = smooth_field(spec_small, 2 * k, norm=float(rng.uniform(0.1, 2.0)))
        v = smooth_field(spec_small, 2 * k + 1, norm=float(rng.uniform(0.1, 2.0)))
        assert expansion_gap(u, v, float(rng.uniform(0.0, 20.0))) >= -1e-10
    report(7, f"gradient FD worst {worst_grad:.2e} (<=1e-6); Hessian FD worst "
              f"{worst_hess:.2e} (<=1e-5); 100 expansion gaps nonnegative")


def test_criterion_8_green_identity():
    spec = make_spec(1, 512)
    g = green_field(spec, (0, 0))
    worst = 0.0
    for seed in range(5):
        u = smooth_field(spec, seed, norm=1.0)
        lhs = l2_inner(apply_power_laplacian(u, 1.0), g.field)
        err = abs(lhs - u.values[0, 0]) / max(abs(u.values[0, 0]), 1e-12)
        worst = max(worst, err)
        assert err <= 1e-10
    target = 1.0 / (2 * PI)
    assert g.log_coefficient == pytest.approx(target, rel=0.05)
    report(8, f"reproduction worst {worst:.1e} (<=1e-10); log coefficient "
              f"{g.log_coefficient:.6f} vs {target:.6f} (within 5%)")


def test_criterion_9_nonexistence(spec_n64):
    rep = nonexistence_sweep([0.25, 0.5, 1.0], spec_n64, n_seeds=20, seed=0)
    assert rep.all_trivial
    for row in rep.rows:
        assert row.n_converged >= 1
        assert row.n_nontrivial == 0
    report(9, "lam in {0.25, 0.5, 1.0} x 20 seeds: every converged result has "
              f"norm <= 1e-8 (regime bound {rep.regime_bound:.4f})")


def test_criterion_10_quantization_direction():
    spec = make_spec(1, 512)
    lam = constants(1).Lambda1
    u = bubble_field(spec, BubbleParams(1e3, default_alpha(1e3), (0.0, 0.0)),
                     allow_unresolved=True)
    rep = concentration(u, lam)
    assert rep.nearest_N == 1
    assert rep.deviation <= 0.20
    report(10, f"sigma=1e3 plateau {rep.plateau_mass:.4f} vs quantum "
               f"{lam:.4f}: deviation {rep.deviation:.3f} (<=0.20), N=1")


def test_criterion_11_resolution_robustness(mp_solutions):
    details = []
    for lam, res in mp_solutions.items():
        sol = res.solve
        fine = newton_solve(upsample(sol.field, 128), lam, tol=1e-10)
        assert fine.converged
        for name, coarse_val, fine_val in (
            ("energy", sol.energy, fine.energy),
            ("norm_sq", sobolev_norm_sq(sol.field), sobolev_norm_sq(fine.field)),
            ("max_u", float(sol.field.values.max()), float(fine.field.values.max())),
        ):
            rel = abs(fine_val - coarse_val) / max(abs(coarse_val), 1e-12)
            assert rel <= 0.01, f"lam={lam} {name}: {rel:.4%}"
        details.append(f"lam={lam} scalars within 1% at n=128")
    spec_fine = make_spec(1, 1024)
    g_fine = green_field(spec_fine, (0, 0))
    g_coarse = green_field(make_spec(1, 512), (0, 0))
    rel = abs(g_fine.log_coefficient - g_coarse.log_coefficient) / abs(g_coarse.log_coefficient)
    assert rel <= 0.01
    details.append(f"green coefficient shift {rel:.4%} at n=1024")
    report(11, "; ".join(details))
