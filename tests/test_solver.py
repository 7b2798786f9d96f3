"""Newton-Krylov solver, continuation, multistart."""

import math

import numpy as np
import pytest

import torusmf
from torusmf import (
    Field,
    SolveResult,
    apply_power_laplacian,
    bubble_asymptotics,
    concentration,
    concentration_direction,
    continuation,
    el_residual,
    energy_value,
    from_values,
    gradient_h,
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
from torusmf.field import _sobolev_dot, _wavenumbers, transform
from torusmf.functional import _normalized_exp_weight
from torusmf.solver import (
    _EIG_TOL,
    _dual_norm_sq,
    _hessian_rows,
    _lowest_eigenpair,
    _minres,
    _weight_term,
)

from conftest import cos_mode, count_transforms, run_fresh, smooth_field, traced_peak

PI = math.pi


@pytest.fixture(scope="module")
def saddle_m2():
    """Converged nonconstant solution at lam=250, m=2, on the coarsest grid."""
    res = mountain_pass(250.0, make_spec(2, 8), tol=1e-10)
    assert res.converged
    return res.solve


@pytest.fixture(scope="module")
def saddle32(spec32):
    """Converged nonconstant solution at lam=14 on the coarse grid."""
    res = mountain_pass(14.0, spec32, tol=1e-10)
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
        # Parseval: the H^m dual norm is at most the L^2 residual over (2 pi)^m,
        # so a residual below tol bounds the gradient norm too
        m = saddle32.field.spec.m
        assert saddle32.grad_norm <= saddle32.residual_l2 / (2 * PI) ** m

    def test_fails_at_bifurcation(self, spec32):
        # threshold: the first Fourier modes are null directions of the
        # linearization (test_smallest_eigenvalue_probe), so Newton only
        # creeps and spends its steps
        out = newton_solve(scaled(cos_mode(spec32), 1e-2), 2 * PI**2, tol=1e-12)
        assert not out.converged
        assert out.iterations == 30
        assert out.message.startswith("max_iter=30 exceeded")
        assert len(out.residual_history) == 31
        assert out.residual_history[-1] == out.residual_l2 > 1e-12

    def test_smallest_eigenvalue_probe(self, spec32):
        low = smallest_hessian_eigenvalue(zero_field(spec32), 2 * PI**2)
        assert abs(low) <= 1e-8
        low_sub = smallest_hessian_eigenvalue(zero_field(spec32), 10.0)
        assert low_sub == pytest.approx(1 - 2 * 10.0 / (4 * PI**2), abs=1e-6)

    def test_quadratic_convergence_at_nondegenerate_root(self, spec32):
        # the trivial state below the threshold is a nondegenerate root;
        # r_{k+1} <= C r_k^2 along one solve's history, until rounding
        # (near 1e-14) ends the quadratic phase
        u = smooth_field(spec32, 3, norm=1.0)
        history = newton_solve(u, 5.0, tol=1e-300).residual_history
        r = el_residual(u, 5.0)
        assert history[0] == pytest.approx(math.sqrt(l2_inner(r, r)), rel=1e-12)
        ratios = [nxt / prev**2 for prev, nxt in zip(history, history[1:]) if prev > 1e-13]
        assert len(ratios) >= 3 and max(ratios) < 1e3

    def test_negative_lam_rejected(self, spec32):
        with pytest.raises(ValueError):
            newton_solve(zero_field(spec32), -2.0)

    def test_residual_history(self, spec32):
        out = newton_solve(scaled(concentration_direction(spec32), 6.0), 14.0)
        assert out.converged and out.iterations >= 2
        assert len(out.residual_history) == out.iterations + 1
        assert out.residual_history[-1] == out.residual_l2
        assert out.residual_history[0] > out.residual_history[-1]

    def test_failed_start_keeps_its_solve(self, spec32):
        # multi_start reports a failed start as newton_solve returned it
        from torusmf.solver import _solve_from_guesses

        guess = scaled(cos_mode(spec32), 1e-2)  # at the threshold, as above
        ((out,),) = _solve_from_guesses([2 * PI**2], [guess], tol=1e-12, jobs=1)
        direct = newton_solve(guess, 2 * PI**2, tol=1e-12)
        assert not out.converged and out.message == direct.message
        assert len(out.residual_history) == out.iterations + 1
        assert out.residual_history == direct.residual_history
        assert np.array_equal(out.field.values, direct.field.values)

    @pytest.mark.parametrize("fault,info", [("iteration_limit", 600), ("non_finite_step", 0)])
    def test_linear_solve_breakdown(self, monkeypatch, spec32, fault, info):
        # MINRES ends on its iteration limit, or leaves a non-finite step:
        # the solve stops at once and returns its start
        minres = torusmf.solver._minres

        def faulty(*args, **kwargs):
            out = minres(*args, **kwargs)
            if fault == "non_finite_step":
                args[5][0].flat[0] = math.nan
                return out
            return kwargs["maxiter"]

        monkeypatch.setattr(torusmf.solver, "_minres", faulty)
        guess = scaled(concentration_direction(spec32), 6.0)
        out = newton_solve(guess, 14.0)
        assert (out.converged, out.iterations) == (False, 0)
        assert out.message == f"linear solve breakdown (minres info={info})"
        assert len(out.residual_history) == 1
        assert np.array_equal(out.field.values, guess.values)

    def test_line_search_stall(self, monkeypatch, spec32):
        # the Newton step reversed raises the residual at every damping, down
        # to a step of 1e-12: the solve stops and returns its start
        minres = torusmf.solver._minres

        def uphill(*args, **kwargs):
            out = minres(*args, **kwargs)
            step = args[5]  # the step and its (-Lap)^m image
            step *= -1.0
            return out

        monkeypatch.setattr(torusmf.solver, "_minres", uphill)
        guess = scaled(concentration_direction(spec32), 6.0)
        out = newton_solve(guess, 14.0)
        assert (out.converged, out.iterations, out.message) == (False, 0, "line search stall")
        assert np.array_equal(out.field.values, guess.values)

    def test_large_right_hand_side_start_converges(self):
        # the first MINRES right-hand side has norm ~1.6e3 here; the solve
        # must not stop on a stopping test that scales with that norm
        spec = make_spec(2, 16)
        out = newton_solve(scaled(concentration_direction(spec), 12.0), 300.0)
        assert out.converged, out.message
        assert math.sqrt(sobolev_norm_sq(out.field)) > 1.0

    def test_transform_count_per_newton_step(self, monkeypatch):
        # the exact work of a solve: 2k+1 transforms per Newton step of k
        # Lanczos steps, 1 at the final iterate, 2 for the start pair and 1
        # for energy_value; each field of a batched transform counts
        from torusmf import solver

        spec = make_spec(2, 16)
        guess = smooth_field(spec, 2, norm=2.0)
        counts = count_transforms(monkeypatch, spec)
        counts["lanczos"] = 0

        def counted_term(*args, **kwargs):
            counts["lanczos"] += 1
            return weight_term(*args, **kwargs)

        weight_term = solver._weight_term
        monkeypatch.setattr(solver, "_weight_term", counted_term)
        out = newton_solve(guess, 50.0)
        assert out.converged and out.iterations >= 2
        k = counts.pop("lanczos")
        assert counts == {"forward": k + out.iterations + 3, "inverse": k + 1}, (k, counts)

    def test_same_bits_under_any_blas_thread_count(self):
        # every reduction of a solve and of its energy is an einsum or a
        # numpy mean, never a threaded BLAS dot
        code = ("import os\n"
                "os.environ['OPENBLAS_NUM_THREADS'] = '{threads}'\n"
                "import numpy as np\n"
                "import torusmf\n"
                "spec = torusmf.make_spec(2, 16)\n"
                "x = torusmf.grid_coordinates(spec)\n"
                "bump = 6 * np.exp(-30 * sum((c - 0.5)**2 for c in x))\n"
                "start = torusmf.from_values(spec, bump)\n"
                "for lam in (0.5, 100.0, 250.0):\n"
                "    r = torusmf.newton_solve(start, lam)\n"
                "    print(r.field.values.tobytes().hex(), r.residual_history,\n"
                "          repr(r.grad_norm), repr(r.energy))\n")
        one, two = (run_fresh(code.format(threads=threads)) for threads in (1, 2))
        assert one == two


class TestDualNorm:
    """Newton's grad_norm, summed on rfftn's half spectrum, is the field calculus's."""

    @pytest.mark.parametrize("m,n,lam", [(1, 32, 14.0), (2, 8, 100.0)])
    def test_grad_norm_is_the_dual_norm_of_the_gradient(self, m, n, lam):
        # tol 1e6 ends the solve at its start, so grad_norm is read at the guess
        spec = make_spec(m, n)
        out = newton_solve(smooth_field(spec, 3, norm=2.0), lam, tol=1e6)
        assert out.iterations == 0
        want = math.sqrt(sobolev_norm_sq(gradient_h(out.field, lam)))
        assert out.grad_norm == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("m,n", [(1, 16), (2, 8)])
    def test_sum_reads_a_strided_half_spectrum(self, m, n):
        # a half spectrum that is not C-contiguous (a float64 view of it would raise)
        from torusmf.solver import _dual_norm_sq

        spec = make_spec(m, n)
        half = np.fft.rfftn(np.random.default_rng(n).standard_normal(spec.shape))
        strided = np.zeros(half.shape[:-1] + (2 * half.shape[-1],), complex)[..., ::2]
        strided[...] = half
        assert not strided.flags.c_contiguous
        want = _dual_norm_sq(half, spec)
        assert want > 0 and _dual_norm_sq(strided, spec) == pytest.approx(want, rel=1e-14)


class TestScratchArrays:
    """The solver's per-thread scratch arrays: reused, never aliased, never shared."""

    def test_results_survive_interleaved_solves(self, spec32):
        def solve32():
            return newton_solve(scaled(concentration_direction(spec32), 6.0), 14.0)

        first = solve32()
        kept = first.field.values.tobytes()
        spec64 = make_spec(1, 64)
        assert newton_solve(scaled(concentration_direction(spec64), 6.0), 14.0).converged
        assert not newton_solve(scaled(cos_mode(spec32), 1e-2), 2 * PI**2, tol=1e-12).converged
        again = solve32()
        assert first.converged and again.converged
        assert again.field.values.tobytes() == kept
        assert first.field.values.tobytes() == kept
        assert not first.field.values.flags.writeable

    def test_threads_do_not_change_order_two_output(self):
        # two threads solve at once, each in its own scratch arrays; one BLAS
        # thread, because threaded BLAS reductions round differently
        code = ("import os\n"
                "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
                "import torusmf\n"
                "spec = torusmf.make_spec(2, 16)\n"
                "for jobs in (1, 2):\n"
                "    res = torusmf.multi_start(0.5, spec, 8, seed=3, jobs=jobs)\n"
                "    print(b''.join(r.field.values.tobytes() for r in res).hex(),\n"
                "          [r.residual_history for r in res])\n")
        serial, threaded = run_fresh(code).splitlines()
        assert serial == threaded

    def test_warm_solve_allocates_little(self):
        # the m=2 Newton loop works in the scratch arrays: a warm solve
        # allocates its result, MINRES solutions and operator products
        # (11.2 MB peak when every temporary was a new array)
        from torusmf.solver import _multistart_guesses

        guess = list(_multistart_guesses(make_spec(2, 16), 20, 1))[7]
        newton_solve(guess, 0.5)
        out, peak = traced_peak(lambda: newton_solve(guess, 0.5))
        assert out.converged
        assert peak <= 6_000_000, peak


class TestPreconditionedOperator:
    """MINRES's Hessian product and the eigen-solver's M-normal rows (x, M x, H x) on grid values."""

    CASES = ((1, 32, 10.0), (2, 8, 100.0))

    @staticmethod
    def _state(m: int, n: int):
        """The point u at which the Hessian is taken."""
        return smooth_field(make_spec(m, n), 1, norm=2.0)

    @pytest.mark.parametrize("m,n,lam", CASES)
    def test_grid_product_matches_hessian_action(self, m, n, lam):
        u = self._state(m, n)
        spec = u.spec
        weight = _normalized_exp_weight(u.values, m)
        rng = np.random.default_rng(5)
        for _ in range(3):
            v = from_values(spec, rng.standard_normal(spec.shape))
            got = apply_power_laplacian(v, m).values + _weight_term(
                weight, -2.0 * m * lam, v.values, np.empty(spec.shape))
            want = hessian_action(u, lam, v).values
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @staticmethod
    def _rows(u, lam: float, v):
        """The eigen-solver's rows of v: v and M v scaled to unit M-norm, then H of that."""
        spec = u.spec
        rows = np.stack([v.values.reshape(-1), apply_power_laplacian(v, spec.m).values.reshape(-1),
                         np.full(spec.npoints, np.nan)])
        _hessian_rows(_normalized_exp_weight(u.values, spec.m).reshape(-1), -2.0 * spec.m * lam,
                      rows, math.sqrt(sobolev_norm_sq(v)))
        return rows

    @pytest.mark.parametrize("m,n,lam", CASES)
    def test_matches_physical_operator(self, m, n, lam):
        u = self._state(m, n)
        spec = u.spec
        rng = np.random.default_rng(6)
        for _ in range(3):
            v = from_values(spec, rng.standard_normal(spec.shape))
            x = scaled(v, 1.0 / math.sqrt(sobolev_norm_sq(v)))
            rows = self._rows(u, lam, v)
            assert np.linalg.norm(rows[0] - x.values.reshape(-1)) <= 1e-12 * np.linalg.norm(rows[0])
            want = hessian_action(u, lam, x).values.reshape(-1)
            assert np.linalg.norm(rows[2] - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("m,n,lam", CASES)
    def test_symmetric_in_the_m_inner_product(self, m, n, lam):
        # M^-1 H is self-adjoint for <a, b>_M = <a, M b>: <a, M^-1 H b>_M = <a, H b>
        u = self._state(m, n)
        spec = u.spec
        rng = np.random.default_rng(7)
        for _ in range(3):
            v1, v2 = (from_values(spec, z) for z in rng.standard_normal((2,) + spec.shape))
            (x1, _, h1), (x2, _, h2) = self._rows(u, lam, v1), self._rows(u, lam, v2)
            a1, a2 = (solve_poisson_power(from_values(spec, h), m) for h in (h1, h2))
            left = torusmf.sobolev_inner(from_values(spec, x1), a2)
            right = torusmf.sobolev_inner(a1, from_values(spec, x2))
            scale = math.sqrt(sobolev_norm_sq(a1) * sobolev_norm_sq(a2))
            assert abs(left - right) <= 1e-12 * scale


class TestLowestEigenpair:
    """The LOBPCG eigen-solver for H x = mu M x against closed forms, its residual and ARPACK."""

    @staticmethod
    def _start(spec):
        return from_values(spec, np.random.default_rng(3).standard_normal(spec.shape))

    @pytest.mark.parametrize("m,n,lam", [(1, 16, 10.0), (2, 8, 100.0)])
    def test_closed_form_at_the_trivial_state(self, m, n, lam):
        # at u = 0, W = 1 and H = M - 2m lam on mean-zero fields: the lowest
        # eigenvalue 1 - 2m lam/(4 pi^2)^m belongs to the |k| = 1 modes, and
        # x's part on the others has M-norm at most the residual over the gap
        # to the |k|^2 = 2 eigenvalue
        spec = make_spec(m, n)
        mu, x = _lowest_eigenpair(zero_field(spec), lam, self._start(spec))
        assert mu == pytest.approx(1 - 2 * m * lam / (4 * PI**2) ** m, abs=1e-10)
        assert sobolev_norm_sq(x) == pytest.approx(1.0, rel=1e-10)
        rest = np.where(sum(k**2 for k in _wavenumbers(spec)) == 1, 0.0, transform(x))
        gap = 2 * m * lam * ((4 * PI**2) ** -m - (8 * PI**2) ** -m)
        assert math.sqrt(_sobolev_dot(spec, rest, rest, m)) <= _EIG_TOL / gap

    @pytest.mark.parametrize("case", ["m1", "m2"])
    def test_residual_within_tolerance(self, case, saddle32, saddle_m2):
        sol = {"m1": saddle32, "m2": saddle_m2}[case]
        u, lam = sol.field, sol.lam
        mu, x = _lowest_eigenpair(u, lam, self._start(u.spec))
        assert mu < 0.0
        assert sobolev_norm_sq(x) == pytest.approx(1.0, rel=1e-10)
        r = hessian_action(u, lam, x).values - mu * apply_power_laplacian(x, u.spec.m).values
        assert math.sqrt(_dual_norm_sq(np.fft.rfftn(r), u.spec)) <= _EIG_TOL

    @pytest.mark.parametrize("case", ["m1", "m2"])
    def test_matches_arpack(self, case, saddle32, saddle_m2):
        # eigsh on B^-1 H B^-1, B = (-Lap)^(m/2), the identity on the constant mode
        from scipy.sparse.linalg import LinearOperator, eigsh

        sol = {"m1": saddle32, "m2": saddle_m2}[case]
        u, lam = sol.field, sol.lam
        spec, m = u.spec, u.spec.m

        def matvec(z):
            w = from_values(spec, z)
            out = solve_poisson_power(hessian_action(u, lam, solve_poisson_power(w, m / 2)), m / 2)
            return out.values.reshape(-1) + z.mean()

        op = LinearOperator((spec.npoints,) * 2, matvec=matvec, dtype=np.float64)
        want = eigsh(op, k=1, which="SA", tol=1e-10, return_eigenvectors=False)[0]
        assert smallest_hessian_eigenvalue(u, lam) == pytest.approx(want, abs=1e-6)

    def test_one_transform_pair_per_step(self, monkeypatch, spec32):
        # M of the start costs a forward and an inverse transform; each step
        # one forward (the residual's dual norm) and one inverse (M^-1)
        counts = count_transforms(monkeypatch, spec32)
        assert smallest_hessian_eigenvalue(zero_field(spec32), 10.0) > 0.0
        steps = counts["inverse"] - 1
        assert 1 <= steps <= 20 and counts == {"forward": steps + 2, "inverse": steps + 1}

    def test_unconverged_probe_is_nan(self, monkeypatch, spec32):
        monkeypatch.setattr(torusmf.solver, "_EIG_MAX_ITER", 1)
        assert math.isnan(smallest_hessian_eigenvalue(zero_field(spec32), 10.0))


class TestMinres:
    """Grid MINRES against scipy.sparse.linalg.minres(H, b, M=(-Lap)^-m).

    scipy measures ||x|| in the Euclidean norm where _minres uses the
    (-Lap)^m norm, so their stopping tests differ by design; at a fixed
    iteration count the recurrences agree to rounding.
    """

    CASES = TestPreconditionedOperator.CASES

    @staticmethod
    def _problem(m: int, n: int):
        u = TestPreconditionedOperator._state(m, n)
        spec = u.spec
        b = from_values(spec, np.random.default_rng(8).standard_normal(spec.shape)).values
        return u, b

    @staticmethod
    def _ours(u, lam: float, b: np.ndarray, **kwargs):
        spec = u.spec
        out = np.full((2,) + spec.shape, np.nan)
        info = _minres(spec, _normalized_exp_weight(u.values, spec.m), lam, b.copy(),
                       np.fft.rfftn(b), out, np.empty((8,) + spec.shape), **kwargs)
        return out, info

    @staticmethod
    def _scipy(u, lam: float, b: np.ndarray, **kwargs):
        from scipy.sparse.linalg import LinearOperator, minres as scipy_minres

        spec = u.spec

        def on_grid(op):
            return LinearOperator((spec.npoints,) * 2, dtype=np.float64,
                                  matvec=lambda x: op(from_values(spec, x)).values.reshape(-1))

        return scipy_minres(on_grid(lambda f: hessian_action(u, lam, f)), b.reshape(-1),
                            M=on_grid(lambda f: solve_poisson_power(f, spec.m)), **kwargs)

    @pytest.mark.parametrize("rtol", [1e-2, 1e-6, 1e-10])
    @pytest.mark.parametrize("m,n,lam", CASES)
    def test_matches_scipy(self, m, n, lam, rtol):
        # scipy solves to rtol; _minres runs the same number of iterations
        u, b = self._problem(m, n)
        iterations = []
        want, want_info = self._scipy(u, lam, b, rtol=rtol, maxiter=600,
                                      callback=lambda xk: iterations.append(1))
        (x, lap_x), info = self._ours(u, lam, b, rtol=0.0, maxiter=len(iterations))
        assert want_info == 0 and info == len(iterations)
        x = x.reshape(-1)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
        want_lap = apply_power_laplacian(from_values(u.spec, want), m).values.reshape(-1)
        assert np.linalg.norm(lap_x.reshape(-1) - want_lap) <= 1e-10 * np.linalg.norm(want_lap)

    @pytest.mark.parametrize("m,n,lam", CASES)
    def test_iteration_limit(self, m, n, lam):
        u, b = self._problem(m, n)
        assert self._ours(u, lam, b, rtol=1e-10, maxiter=3)[1] == 3
        assert self._ours(u, lam, b, rtol=1e-10, maxiter=600)[1] == 0

    @pytest.mark.parametrize("maxiter", [1, 2, 3, 600])
    @pytest.mark.parametrize("m,n,lam", CASES)
    def test_reused_rows_are_written_before_read(self, m, n, lam, maxiter):
        # out and the scratch rows start as whatever an earlier solve left;
        # inf there must not reach the solution (0 * inf is NaN)
        u, b = self._problem(m, n)
        spec = u.spec
        solutions = []
        for fill in (0.0, np.inf):
            out = np.full((2,) + spec.shape, fill)
            _minres(spec, _normalized_exp_weight(u.values, m), lam, b.copy(), np.fft.rfftn(b),
                    out, np.full((8,) + spec.shape, fill), rtol=1e-10, maxiter=maxiter)
            solutions.append(out)
        assert np.all(np.isfinite(solutions[1]))
        assert np.array_equal(solutions[0], solutions[1])

    def test_zero_right_hand_side(self):
        m, n, lam = self.CASES[0]
        u, b = self._problem(m, n)
        out, info = self._ours(u, lam, np.zeros_like(b), rtol=1e-6, maxiter=600)
        assert info == 0
        assert not np.any(out)


def test_import_loads_no_sparse_linalg():
    # scipy.sparse.linalg costs more to import than the rest of torusmf;
    # neither the import, nor a Newton solve, converged or failed at the
    # threshold 2 pi^2, nor an eigenvalue probe may load any scipy.sparse module
    code = ("import sys\n"
            "import numpy as np\n"
            "import torusmf, torusmf.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "spec = torusmf.make_spec(1, 16)\n"
            "guess = torusmf.scaled(torusmf.concentration_direction(spec), 2.0)\n"
            "assert torusmf.newton_solve(guess, 10.0).converged\n"
            "x = torusmf.grid_coordinates(spec)[0]\n"
            "u = torusmf.from_values(spec, 1e-2 * np.cos(2 * np.pi * x) + np.zeros(spec.shape))\n"
            "assert not torusmf.newton_solve(u, 2 * np.pi**2, tol=1e-12).converged\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
            "print(torusmf.smallest_hessian_eigenvalue(torusmf.zero_field(spec), 10.0))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n")
    on_import, after_solves, low, after_probe = run_fresh(code).splitlines()
    assert on_import == after_solves == after_probe == "[]"
    assert float(low) == pytest.approx(1 - 2 * 10.0 / (4 * PI**2), abs=1e-6)


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


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0])
def test_lam_out_of_range_refused_before_any_solve(saddle32, monkeypatch, lam):
    # each entry point that takes lam checks 0 <= lam < inf (0 < lam for
    # concentration) before it solves or integrates anything
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the lam check")

    monkeypatch.setattr(torusmf.solver, "_minres", unreachable)
    monkeypatch.setattr(torusmf.bubble, "_ball_integral", unreachable)
    u = saddle32.field
    for call in (lambda: energy_value(u, lam), lambda: newton_solve(u, lam),
                 lambda: continuation(saddle32, lam, 0.5), lambda: concentration(u, lam),
                 lambda: bubble_asymptotics([1e2, 3e2, 1e3], lam, 1)):
        with pytest.raises(ValueError, match="finite"):
            call()


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

    def test_failed_solves_end_the_branch(self, saddle32, monkeypatch):
        # every solve fails: the step halves after each, and the branch ends
        # "newton_failure" once the step falls below dlam0/1024
        tried = []

        def no_solve(guess, lam, tol):
            tried.append(lam)
            return SolveResult(field=guess, lam=lam, residual_l2=1.0, grad_norm=1.0,
                               energy=0.0, iterations=0, converged=False)

        monkeypatch.setattr(torusmf.solver, "newton_solve", no_solve)
        branch = continuation(saddle32, 19.0, 0.5)
        assert branch.termination == "newton_failure"
        assert len(branch.results) == 1 and branch.results[0] is saddle32
        assert tried == [14.0 + 0.5 / 2**k for k in range(11)]

    def test_step_cap_ends_the_branch(self, saddle32, monkeypatch):
        # every solve accepts its guess; steps of at most 4 dlam0 cannot
        # reach lam_end in 500 steps, and the branch ends "max_steps"
        def accept(guess, lam, tol):
            return SolveResult(field=guess, lam=lam, residual_l2=0.0, grad_norm=0.0,
                               energy=0.0, iterations=0, converged=True)

        monkeypatch.setattr(torusmf.solver, "newton_solve", accept)
        branch = continuation(saddle32, 19.0, 1e-3)
        assert branch.termination == "max_steps"
        assert len(branch.results) == 501
        assert 14.0 < branch.results[-1].lam <= 14.0 + 500 * 4e-3 < 19.0

    def test_invalid_step(self, saddle32):
        with pytest.raises(ValueError, match="invalid step"):
            continuation(saddle32, 19.0, 0.0)

    @pytest.mark.parametrize("dlam0", [math.nan, math.inf, 0.0, -1.0])
    def test_step_out_of_range_refused_before_any_solve(self, saddle32, monkeypatch, dlam0):
        # an infinite first step would jump to lam_end and, halved on each
        # failure, never fall below dlam0/1024
        calls = []

        def no_solve(spec, start, lam, tol):
            calls.append(lam)
            return SolveResult(field=zero_field(spec), lam=lam, residual_l2=1.0, grad_norm=1.0,
                               energy=0.0, iterations=0, converged=False)

        monkeypatch.setattr(torusmf.solver, "_newton", no_solve)
        with pytest.raises(ValueError, match=r"invalid step: dlam0 .* got"):
            continuation(saddle32, 19.0, dlam0)
        assert calls == []

    def test_negative_end_refused_before_any_solve(self, saddle32, monkeypatch):
        calls = []
        monkeypatch.setattr(torusmf.solver, "newton_solve", lambda *args, **kw: calls.append(args))
        with pytest.raises(ValueError, match="lam_end must be nonnegative"):
            continuation(saddle32, -1.0, 4.0)
        assert calls == []

    def test_needs_converged_start(self, saddle32, spec32):
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

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_rejects_jobs_below_one_before_any_solve(self, monkeypatch, spec32, jobs):
        monkeypatch.setattr(torusmf.solver, "newton_solve",
                            lambda *args, **kwargs: pytest.fail("solved before the check"))
        with pytest.raises(ValueError) as err:
            multi_start(1.0, spec32, 4, 0, jobs=jobs)
        assert str(err.value) == f"jobs must be >= 1, got {jobs}"

    def test_rejects_jobs_below_one_before_any_guess(self, monkeypatch, spec32):
        monkeypatch.setattr(torusmf.solver, "random_low_mode_field",
                            lambda *args, **kwargs: pytest.fail("drew a guess before the check"))
        monkeypatch.setattr(torusmf.solver, "_start_pair",
                            lambda *args, **kwargs: pytest.fail("solved before the check"))
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            multi_start(1.0, spec32, 4, 0, jobs=0)

    def test_jobs_bound_the_guesses_drawn_ahead(self, monkeypatch, spec32):
        # a guess is drawn only when fewer than jobs drawn guesses await
        # reduction, so when a solve returns at most (solves returned before
        # it) + jobs guesses have been drawn
        from torusmf import solver

        jobs = 2
        drawn, seen = [], []

        def guesses():
            for guess in solver._multistart_guesses(spec32, 8, 0):
                drawn.append(guess)
                yield guess

        def recorded(*args, _newton=solver._newton):
            out = _newton(*args)
            seen.append((len(drawn), len(seen)))
            return out

        monkeypatch.setattr(solver, "_newton", recorded)
        solver._solve_from_guesses([1.0], guesses(), tol=1e-10, jobs=jobs)
        assert len(seen) == len(drawn) == 8
        assert all(n_drawn <= returned + jobs for n_drawn, returned in seen), seen
