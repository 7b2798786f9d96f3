"""Newton-Krylov solver, continuation, multistart."""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

from torusmf import (
    SingularHessianError,
    concentration,
    concentration_direction,
    continuation,
    el_residual,
    from_values,
    hessian_action,
    l2_inner,
    make_spec,
    mountain_pass,
    multi_start,
    newton_solve,
    scaled,
    shift,
    smallest_hessian_eigenvalue,
    sobolev_norm_sq,
    solve_poisson_power,
    zero_field,
)
from torusmf.field import _multiplicity
from torusmf.functional import _normalized_exp_weight
from torusmf.solver import _preconditioned_operator

from conftest import cos_mode, smooth_field

PI = math.pi


@pytest.fixture(scope="module")
def saddle32(spec32):
    """Converged nonconstant solution at lam=14 on the coarse grid."""
    res = mountain_pass(14.0, spec32, tol=1e-10, max_sweeps=300)
    assert res.converged
    return res.solve


class TestNewton:
    def test_trivial_root_is_instant(self, spec32):
        out = newton_solve(zero_field(spec32), 7.0, tol=1e-12)
        assert out.converged and out.iterations <= 1
        assert out.residual_l2 <= 1e-14

    def test_polish_from_mountain_pass(self, saddle32):
        assert saddle32.residual_l2 <= 1e-10
        assert math.sqrt(sobolev_norm_sq(saddle32.field)) > 0.1

    def test_grad_norm_below_residual_scale(self, saddle32):
        assert saddle32.grad_norm <= 10 * max(saddle32.residual_l2, 1e-300)

    def test_singular_hessian_at_bifurcation(self, spec32):
        lam = 2 * PI**2  # threshold: first Fourier modes are null directions
        guess = scaled(cos_mode(spec32), 1e-2)
        with pytest.raises(SingularHessianError) as err:
            newton_solve(guess, lam, tol=1e-12)
        assert abs(err.value.eigenvalue) < 1e-4

    def test_smallest_eigenvalue_probe(self, spec32):
        low = smallest_hessian_eigenvalue(zero_field(spec32), 2 * PI**2)
        assert abs(low) <= 1e-8
        low_sub = smallest_hessian_eigenvalue(zero_field(spec32), 10.0)
        assert low_sub == pytest.approx(1 - 2 * 10.0 / (4 * PI**2), abs=1e-6)

    def test_quadratic_convergence_at_nondegenerate_root(self, spec32):
        # the trivial state below the threshold is a nondegenerate root;
        # run one Newton step at a time and check r_{k+1} <= C r_k^2
        lam = 5.0
        u = smooth_field(spec32, 3, norm=1.0)
        r = el_residual(u, lam)
        residuals = [math.sqrt(l2_inner(r, r))]
        for _ in range(8):
            out = newton_solve(u, lam, tol=1e-300, max_iter=1)
            u = out.field
            residuals.append(out.residual_l2)
            if residuals[-1] < 1e-13:
                break
        tail = [(residuals[i + 1], residuals[i]) for i in range(len(residuals) - 1)]
        ratios = [nxt / prev**2 for nxt, prev in tail[-3:] if prev > 1e-13]
        assert ratios and max(ratios) < 1e3

    def test_negative_lam_rejected(self, spec32):
        with pytest.raises(ValueError):
            newton_solve(zero_field(spec32), -2.0)

    def test_large_right_hand_side_start_converges(self):
        # the first MINRES right-hand side has norm ~1.6e3 here; the solve
        # must not stop on a stopping test that scales with that norm
        spec = make_spec(2, 16)
        out = newton_solve(scaled(concentration_direction(spec), 12.0), 300.0)
        assert out.converged, out.message
        assert math.sqrt(sobolev_norm_sq(out.field)) > 1.0

    def test_transform_count_per_newton_step(self, monkeypatch):
        # a guard on the work per step: at most one rfftn/irfftn pair per
        # MINRES product and three transforms per Newton iteration
        from torusmf import solver

        spec = make_spec(2, 16)
        guess = smooth_field(spec, 2, norm=2.0)
        counts = {"fft": 0, "matvec": 0}
        for name in ("rfftn", "irfftn"):
            original = getattr(np.fft, name)

            def counting(*args, _original=original, **kwargs):
                counts["fft"] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        minres = solver.minres

        def counted_minres(A, b, *args, **kwargs):
            def matvec(x):
                counts["matvec"] += 1
                return A.matvec(x)

            return minres(LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), b,
                          *args, **kwargs)

        monkeypatch.setattr(solver, "minres", counted_minres)
        out = newton_solve(guess, 50.0)
        assert out.converged and out.iterations >= 2
        assert counts["fft"] <= 2 * counts["matvec"] + 3 * out.iterations + 4, counts


def _coordinates(f) -> np.ndarray:
    """Scaled half-spectrum coordinates sqrt(mu) * rfftn(values)/N, as float64."""
    c = np.sqrt(_multiplicity(f.spec)) * np.fft.rfftn(f.values) / f.spec.npoints
    return c.view(np.float64).reshape(-1)


class TestPreconditionedOperator:
    """The MINRES operator in half-spectrum coordinates against public pieces."""

    CASES = ((1, 32, 10.0), (2, 8, 100.0))

    @staticmethod
    def _operator(m: int, n: int, lam: float):
        spec = make_spec(m, n)
        u = smooth_field(spec, 1, norm=2.0)
        return u, _preconditioned_operator(spec, _normalized_exp_weight(u.values, m), lam)

    @pytest.mark.parametrize("m,n,lam", CASES)
    def test_matches_physical_operator(self, m, n, lam):
        u, op = self._operator(m, n, lam)
        spec = u.spec
        rng = np.random.default_rng(5)
        for _ in range(3):
            w = from_values(spec, rng.standard_normal(spec.shape))
            # B^-1 H B^-1 w, with B = (-Lap)^(m/2)
            ref = solve_poisson_power(hessian_action(u, lam, solve_poisson_power(w, m / 2)), m / 2)
            want = _coordinates(ref)
            got = op.matvec(_coordinates(w))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("m,n,lam", CASES)
    def test_symmetric_on_full_coordinate_space(self, m, n, lam):
        _, op = self._operator(m, n, lam)
        rng = np.random.default_rng(6)
        for _ in range(3):
            z1, z2 = rng.standard_normal((2, op.shape[0]))
            a1, a2 = op.matvec(z1), op.matvec(z2)
            scale = np.linalg.norm(z1) * np.linalg.norm(a2)
            assert abs(z1 @ a2 - a1 @ z2) <= 1e-12 * scale


class TestSingularityProbe:
    """_probe_singular tolerates only ARPACK non-convergence; other errors surface."""

    def test_arpack_no_convergence_tolerated(self, spec32, monkeypatch):
        from scipy.sparse.linalg import ArpackNoConvergence

        from torusmf import solver

        def no_convergence(u, lam):
            raise ArpackNoConvergence("no convergence", np.array([]), np.array([]))

        monkeypatch.setattr(solver, "smallest_hessian_eigenvalue", no_convergence)
        solver._probe_singular(zero_field(spec32), 2 * PI**2)

    def test_other_error_propagates(self, spec32, monkeypatch):
        from torusmf import solver

        def broken(u, lam):
            raise ValueError("broken probe")

        monkeypatch.setattr(solver, "smallest_hessian_eigenvalue", broken)
        with pytest.raises(ValueError, match="broken probe"):
            solver._probe_singular(zero_field(spec32), 2 * PI**2)


class TestSolutionIdentities:
    def test_pairing_identity(self, saddle32):
        # pairing the equation with u: ||u||^2 = lam * integral(W u)
        u = saddle32.field
        weight = _normalized_exp_weight(u.values, u.spec.m)
        norm_sq = sobolev_norm_sq(u)
        paired = saddle32.lam * float((weight * u.values).mean())
        assert norm_sq == pytest.approx(paired, rel=1e-6)
        assert norm_sq <= saddle32.lam * float(u.values.max()) + 1e-6

    def test_translate_solution_still_solves(self, saddle32):
        for tau in [(3, 0), (11, 7)]:
            moved = shift(saddle32.field, tau)
            r = el_residual(moved, saddle32.lam)
            assert math.sqrt(l2_inner(r, r)) <= 1e-10


class TestContinuation:
    def test_branch_up_to_19(self, saddle32, spec32):
        branch = continuation(saddle32, 19.0, 0.5, tol=1e-10)
        assert branch.termination == "reached_end"
        assert all(r.converged for r in branch.results)
        lams = [r.lam for r in branch.results]
        assert lams == sorted(lams)
        assert all(math.sqrt(sobolev_norm_sq(r.field)) > 0.1 for r in branch.results)

    def test_downward_blowup_guard(self, saddle32, spec32):
        # a tight amplitude cap must stop the branch on its way down
        branch = continuation(saddle32, 12.6, 0.25, blowup_cap=4.0, tol=1e-10)
        assert branch.termination in ("blow_up", "newton_failure")
        if branch.termination == "blow_up":
            last = branch.results[-1]
            assert float(np.max(np.abs(last.field.values))) > 4.0
            report = concentration(last.field, last.lam)
            assert report.nearest_N >= 1

    def test_invalid_step(self, saddle32):
        with pytest.raises(ValueError, match="invalid step"):
            continuation(saddle32, 19.0, 0.0)

    def test_needs_converged_start(self, saddle32, spec32):
        from torusmf import SolveResult

        bad = SolveResult(field=zero_field(spec32), lam=14.0, residual_l2=1.0,
                          grad_norm=1.0, energy=0.0, iterations=0, converged=False)
        with pytest.raises(ValueError):
            continuation(bad, 19.0, 0.5)


class TestMultiStart:
    def test_only_trivial_at_small_lam(self, spec32):
        results = multi_start(1.0, spec32, 10, 0)
        converged = [r for r in results if r.converged]
        assert converged
        assert all(math.sqrt(sobolev_norm_sq(r.field)) <= 1e-8 for r in converged)

    def test_nontrivial_found_at_14(self, spec32):
        results = multi_start(14.0, spec32, 20, 0)
        nontrivial = [r for r in results
                      if r.converged and math.sqrt(sobolev_norm_sq(r.field)) > 1e-6]
        assert nontrivial

    def test_deterministic(self, spec32):
        a = multi_start(5.0, spec32, 3, 7)
        b = multi_start(5.0, spec32, 3, 7)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.field.values, y.field.values)
            assert x.residual_l2 == y.residual_l2

    def test_dedup_collapses_translations(self, saddle32, spec32):
        from torusmf.solver import _same_modulo_translation

        assert _same_modulo_translation(saddle32.field, shift(saddle32.field, (5, 9)))
        assert not _same_modulo_translation(saddle32.field, scaled(saddle32.field, 2.0))

    def test_rejects_no_seeds(self, spec32):
        with pytest.raises(ValueError):
            multi_start(1.0, spec32, 0, 0)
