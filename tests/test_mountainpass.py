"""Min-max machinery: anchors, the min-mode locator, saddle paths, pass levels."""

import dataclasses
import math

import numpy as np
import pytest

import torusmf
from torusmf import (
    ConvergenceError,
    SolveResult,
    concentration_direction,
    continuation,
    energy_value,
    find_u0,
    gradient_h,
    level_sweep,
    lincomb,
    make_spec,
    mountain_pass,
    newton_solve,
    scaled,
    smallest_hessian_eigenvalue,
    sobolev_inner,
    sobolev_norm_sq,
    upsample,
    zero_field,
)

from conftest import (
    assert_honest_path,
    count_transforms,
    path_supremum,
    run_fresh,
    smooth_field,
)

PI = math.pi


@pytest.fixture(scope="module")
def anchor32(spec32):
    return find_u0(14.0, spec32)


class TestFindU0:
    def test_below_sea_level_with_norm(self, anchor32):
        assert energy_value(anchor32, 14.0) < -1.0
        assert sobolev_norm_sq(anchor32) >= 1.0

    def test_rejects_lambda_below_interval(self, spec32):
        with pytest.raises(ValueError, match="interval"):
            find_u0(12.0, spec32)

    def test_rejects_lambda_above_interval(self, spec32):
        with pytest.raises(ValueError, match="interval"):
            find_u0(20.0, spec32)

    def test_shallow_regime_reports_floor(self, spec32):
        # at lam barely above the coercivity threshold no scanned amplitude
        # reaches -1 (at n = 128 neither); the failure must carry the floor
        with pytest.raises(ConvergenceError, match="deepest") as err:
            find_u0(13.0, spec32)
        assert err.value.floor > -1.0
        assert f"{err.value.floor:.4f}" in str(err.value)

    def test_floor_is_the_deepest_scanned_energy(self, spec32):
        direction = concentration_direction(spec32)
        scanned = [energy_value(scaled(direction, float(t)), 13.0)
                   for t in np.linspace(0.5, 40.0, 160)]
        with pytest.raises(ConvergenceError) as err:
            find_u0(13.0, spec32)
        assert err.value.floor == min(scanned)

    def test_failed_search_is_one_scan(self, monkeypatch):
        # no amplitude reaches -1 at lam = 13, n = 128: the search gives up
        # after the 160 scanned energies, without a descent step
        calls = []
        energy = torusmf.mountainpass.energy_value
        monkeypatch.setattr(torusmf.mountainpass, "energy_value",
                            lambda u, lam: calls.append(lam) or energy(u, lam))
        monkeypatch.setattr(torusmf.mountainpass, "gradient_h",
                            lambda u, lam: pytest.fail("find_u0 took a descent step"))
        with pytest.raises(ConvergenceError):
            find_u0(13.0, make_spec(1, 128))
        assert len(calls) == 160

    def test_fallback_anchor_reuses_the_first_scan(self, monkeypatch):
        # lam = 13, n = 128 falls back to -0.05; the anchor search before the
        # locator starts evaluates each of the 160 amplitudes once (201 calls
        # with a rescan up to the fallback anchor)
        mp = torusmf.mountainpass
        calls, scanned = [], []
        energy, locate = mp.energy_value, mp._locate
        monkeypatch.setattr(mp, "energy_value",
                            lambda u, lam: calls.append(u.values.tobytes()) or energy(u, lam))
        monkeypatch.setattr(mp, "_locate",
                            lambda *args: scanned.extend(calls) or locate(*args))
        res = mountain_pass(13.0, make_spec(1, 128))
        assert res.anchor_min_energy == -0.05 and res.anchor_failed_floor > -1.0
        assert len(scanned) == 160
        assert len(set(scanned)) == 160

    def test_order_two_anchor(self):
        spec = make_spec(2, 16)
        u0 = find_u0(300.0, spec)
        assert energy_value(u0, 300.0) < -1.0

    def test_anchor_search_does_not_import_sympy(self):
        # sympy is a test-only oracle: neither the solve path nor the
        # concentrating profiles (criterion-3 sigmas) may import it
        code = ("import sys\n"
                "from torusmf import BubbleParams, bubble_asymptotics, bubble_field, "
                "find_u0, make_spec\n"
                "find_u0(14.0, make_spec(1, 32))\n"
                "bubble_field(make_spec(1, 64), BubbleParams(3.0, 0.4, (0.0, 0.0)))\n"
                "bubble_asymptotics([10**p for p in (2.0, 2.5, 3.0, 3.5, 4.0)], 14.0, 1)\n"
                "print('sympy' in sys.modules)\n")
        assert run_fresh(code) == "False"


class TestInitPath:
    """The straight path t -> t u0 the locator starts on."""

    def test_max_energy_node_interior(self, monkeypatch, anchor32):
        # with no step allowed, the located point is the sampled maximum of
        # t -> t u0 over t = 1/32, ..., 31/32: interior, above the level 0
        mp = torusmf.mountainpass
        monkeypatch.setattr(mp, "_LOCATOR_STEPS", 0)
        x, e, steps, kept = mp._locate(anchor32, 14.0)
        assert (steps, kept, e) == (0, True, anchor32)
        ts = np.arange(1, 32) / 32
        energies = [energy_value(scaled(anchor32, float(t)), 14.0) for t in ts]
        t = ts[int(np.argmax(energies))]
        assert 0.0 < t < 1.0 and max(energies) > 0.0
        assert np.array_equal(x.values, scaled(anchor32, float(t)).values)


class TestLocator:
    """Min-mode following from the crest of the straight path to the anchor."""

    # energies of the saddles mountain_pass reached with the path relaxation
    # at tol 1e-10 (n = 64 and m = 2 are also in tests/golden.json)
    SADDLES = [(1, 32, 14.0, 1.2027092781503956), (1, 32, 19.0, 0.0091359348556872),
               (1, 64, 14.0, 1.202714405941645), (1, 64, 19.0, 0.009135934855688088),
               (2, 16, 250.0, 16.70537372805599)]

    @pytest.mark.parametrize("m,n,lam,energy", SADDLES)
    def test_newton_from_the_located_point_reaches_the_saddle(self, m, n, lam, energy):
        # every scan run took 2-6 steps; the bound is the largest of them
        u0 = find_u0(lam, make_spec(m, n))
        x, e, steps, kept = torusmf.mountainpass._locate(u0, lam)
        assert kept and 1 <= steps <= 6
        assert sobolev_norm_sq(gradient_h(x, lam)) < 0.5**2
        solve = newton_solve(x, lam, tol=1e-10)
        assert solve.converged
        assert solve.energy == pytest.approx(energy, rel=1e-8, abs=0.0)

    def test_refreshes_the_unstable_direction_every_fourth_step(self, monkeypatch, spec32):
        # the first eigen-solve starts from u0, each later one from the last e
        mp = torusmf.mountainpass
        eigenpair, starts, found = mp._lowest_eigenpair, [], []

        def recorded(u, lam, start):
            starts.append(start)
            found.append(eigenpair(u, lam, start)[1])
            return found[-1]

        monkeypatch.setattr(mp, "_lowest_eigenpair", lambda *args: (math.nan, recorded(*args)))
        u0 = find_u0(19.0, spec32)
        _, e, steps, _ = mp._locate(u0, 19.0)
        assert steps == 5
        assert len(starts) == 2 and starts[0] is u0 and starts[1] is found[0] and e is found[1]

    def test_a_runaway_iterate_reaches_no_newton(self, monkeypatch, spec32):
        # the unstable direction is never refreshed: after 9 steps the next
        # one would climb above the straight path's crest.  The locator stops
        # there, Newton does not run, and the run returns 0 -> x -> u0
        mp = torusmf.mountainpass
        eigenpair, first = mp._lowest_eigenpair, []

        def keep_first(u, lam, start):
            if not first:
                first.append(eigenpair(u, lam, start)[1])
            return math.nan, first[0]

        monkeypatch.setattr(mp, "_lowest_eigenpair", keep_first)
        monkeypatch.setattr(mp, "newton_solve", lambda *args, **kwargs: pytest.fail("polished"))
        res = mountain_pass(19.0, spec32)
        assert (res.converged, res.path_origin, res.iterations) == (False, "located", 9)
        assert res.solve.iterations == 0 and "ran above" in res.solve.message
        assert res.path[1] is res.solve.field
        u0 = res.path[-1]
        crest = max(energy_value(scaled(u0, i / 32), 19.0) for i in range(1, 32))
        assert res.solve.energy <= crest
        assert_honest_path(res)


class TestArmijoDescent:
    def test_line_search_stops_at_its_first_armijo_step(self, monkeypatch, spec32):
        # each line search draws candidates u - s g, s halving, and stops at
        # the first that passes the Armijo test: no candidate is drawn after
        # an accepted one (up to a slack of 1e-12)
        mp = torusmf.mountainpass
        lam = 14.0
        searches = []
        gradient, combine, energy = mp.gradient_h, mp.lincomb, mp.energy_value

        def gradient_recorded(u, lam):
            g = gradient(u, lam)
            searches.append((energy(u, lam), g, []))
            return g

        def combine_recorded(a, f, b, g):
            out = combine(a, f, b, g)
            if searches and g is searches[-1][1]:
                searches[-1][2].append((-b, out))
            return out

        monkeypatch.setattr(mp, "gradient_h", gradient_recorded)
        monkeypatch.setattr(mp, "lincomb", combine_recorded)
        assert mountain_pass(lam, spec32).path_origin == "saddle"
        # the locator's gradients draw no line search
        searches = [search for search in searches if search[2]]
        assert searches
        for e, g, candidates in searches:
            slack = 1e-12 * (1.0 + abs(e))
            bar = [e - 1e-4 * s * sobolev_norm_sq(g) for s, _ in candidates]
            drawn = [energy(cand, lam) for _, cand in candidates]
            assert all(ec > b - slack for ec, b in zip(drawn[:-1], bar[:-1]))
            assert drawn[-1] <= bar[-1] + slack or candidates[-1][0] <= 2e-14


    def test_no_step_from_a_critical_point(self, spec32):
        # the gradient vanishes at the zero field: the line search offers no
        # step, and a descent from there stops with no path
        mp = torusmf.mountainpass
        zero = zero_field(spec32)
        assert mp._armijo_step(zero, 0.0, 14.0, 1.0) is None
        assert mp._descend(zero, 14.0, 1.0, lambda v: math.inf) is None

    def test_no_candidate_passes_the_armijo_test(self, monkeypatch, anchor32):
        # no candidate reaches a start energy of -inf: the trial steps halve
        # from 2 down to 1e-14, one energy each, and the search gives up
        mp = torusmf.mountainpass
        calls = []
        energy = mp.energy_value
        monkeypatch.setattr(mp, "energy_value", lambda u, lam: calls.append(1) or energy(u, lam))
        assert mp._armijo_step(scaled(anchor32, 0.5), -math.inf, 14.0, 1.0) is None
        assert len(calls) == 48

    def test_descent_gives_up_when_its_steps_run_out(self, monkeypatch, anchor32):
        # a chord that never samples below the level: each of the
        # _DESCENT_STEPS iterations takes one Armijo step, and then no path
        mp = torusmf.mountainpass
        armijo, calls = mp._armijo_step, []
        monkeypatch.setattr(mp, "_DESCENT_STEPS", 5)
        monkeypatch.setattr(mp, "_armijo_step", lambda *args: calls.append(1) or armijo(*args))
        assert mp._descend(scaled(anchor32, 0.5), 14.0, math.inf, lambda v: math.inf) is None
        assert len(calls) == 5

    def test_short_descents_leave_the_located_path(self, monkeypatch, spec32):
        # at lam = 19 the + side needs more than one step to pass under the
        # level; with one step allowed, the polish stands and the path is
        # 0 -> located point -> anchor
        monkeypatch.setattr(torusmf.mountainpass, "_DESCENT_STEPS", 1)
        res = mountain_pass(19.0, spec32)
        assert (res.converged, res.path_origin) == (True, "located")
        assert res.unstable_eigenvalue < 0.0
        assert res.c_estimate == max(_located_path_supremum(res), res.solve.energy)
        assert_honest_path(res)


class TestSegmentCache:
    """Each segment and Gram pair is evaluated once per run at one lam, on the
    saddle path and on the located fallback path 0 -> x -> anchor."""

    def test_no_segment_or_gram_pair_evaluated_twice(self, monkeypatch, anchor32):
        mp = torusmf.mountainpass
        segments, pairs = [], []
        sample, inner = mp._segment_energies, mp.sobolev_inner

        def sample_counted(*args):
            segments.append((args[0], args[1], args[-1]))
            return sample(*args)

        def inner_counted(a, b):
            pairs.append((a, b))
            return inner(a, b)

        monkeypatch.setattr(mp, "_segment_energies", sample_counted)
        monkeypatch.setattr(mp, "sobolev_inner", inner_counted)
        for origin in ("saddle", "located"):
            if origin == "located":
                monkeypatch.setattr(mp, "_descend", lambda *args: None)
            segments.clear()
            pairs.clear()
            assert mountain_pass(14.0, anchor32.spec).path_origin == origin
            # the lists keep every node alive, so no id is reused
            assert segments
            assert len({(id(a), id(b), ts) for a, b, ts in segments}) == len(segments)
            assert len({(id(a), id(b)) for a, b in pairs}) == len(pairs)


class TestSegmentEnergies:
    """Closed-form segment samples against the energy of the built field."""

    @pytest.mark.parametrize("m,n,lam", [(1, 64, 14.0), (2, 16, 250.0)])
    def test_matches_energy_value(self, m, n, lam):
        from torusmf.mountainpass import _FINE_TS, _SEGMENT_TS, _TAIL_TS, _segment_energies

        spec = make_spec(m, n)
        a, b = smooth_field(spec, 1, norm=2.0), smooth_field(spec, 2, norm=3.0)
        # three segments: the geometric tail at t -> 0 (from the zero field, as
        # a path starts), the interior samples, and the tail at t -> 1 (into
        # the anchor a)
        ends = [(zero_field(spec), a, _FINE_TS), (a, b, _SEGMENT_TS), (b, a, _TAIL_TS)]
        for i, (left, right, ts) in enumerate(ends):
            got = _segment_energies(left, right, sobolev_inner(left, right), lam, ts)
            for t, e in zip(ts, got):
                want = energy_value(lincomb(1.0 - t, left, t, right), lam)
                assert e == pytest.approx(want, rel=1e-12, abs=0.0), (i, t)

    @pytest.mark.parametrize("m,n,lam", [(1, 64, 14.0), (2, 16, 250.0)])
    def test_in_place_sampler_is_bit_exact(self, m, n, lam):
        # reference: the out-of-place formula, 2m applied after the sum
        from torusmf.mountainpass import _FINE_TS, _SEGMENT_TS, _TAIL_TS, _segment_energies

        spec = make_spec(m, n)
        a, b = smooth_field(spec, 1, norm=2.0), smooth_field(spec, 2, norm=3.0)
        ends = [(zero_field(spec), a, _FINE_TS), (a, b, _SEGMENT_TS), (b, a, _TAIL_TS)]
        for i, (left, right, ts) in enumerate(ends):
            t = np.asarray(ts)
            s = 1.0 - t
            ab = sobolev_inner(left, right)
            dirichlet = 0.5 * (s * s * sobolev_norm_sq(left) + 2.0 * s * t * ab
                               + t * t * sobolev_norm_sq(right))
            vals = 2.0 * m * (s[:, None] * left.values.reshape(-1)
                              + t[:, None] * right.values.reshape(-1))
            vmax = vals.max(axis=-1)
            log_mass = vmax + np.log(np.exp(vals - vmax[:, None]).mean(axis=-1))
            want = dirichlet - lam / (2.0 * m) * log_mass
            assert np.array_equal(_segment_energies(left, right, ab, lam, ts), want), i


class TestMountainPass:
    def test_converged_solution(self, spec32):
        res = mountain_pass(14.0, spec32, tol=1e-8)
        assert res.converged
        assert res.c_estimate > 0.0
        assert res.solve.grad_norm <= 1e-8
        assert res.solve.residual_l2 <= 1e-8
        assert math.sqrt(sobolev_norm_sq(res.solve.field)) > 0.1

    def test_c_estimate_dominates_solution_level(self, spec32):
        res = mountain_pass(14.0, spec32, tol=1e-8)
        assert res.c_estimate >= res.solve.energy - 1e-9

    def test_solve_path_does_not_import_quadrature(self):
        # torusmf imports no scipy module at all (tests/test_cli.py checks every
        # command); a path solve in particular loads none of these three
        code = ("import sys\n"
                "from torusmf import make_spec, mountain_pass\n"
                "mountain_pass(14.0, make_spec(1, 32))\n"
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', "
                "'scipy.special') if m in sys.modules))\n")
        assert run_fresh(code) == "[]"

    def test_path_work_reuses_spectra(self, monkeypatch, spec32):
        # path nodes, candidates and gradients carry their spectra from the
        # fields they combine: this run took 343 forward (91 inverse)
        # transforms when every energy transformed its field, and takes 56
        counts = count_transforms(monkeypatch, spec32)
        assert mountain_pass(14.0, spec32).converged
        assert counts["forward"] <= 343 // 2, counts

    def test_rejects_quantum_multiple(self, spec32):
        with pytest.raises(ValueError, match="quantum"):
            mountain_pass(4 * PI, spec32)

    def test_rejects_outside_interval(self, spec32):
        with pytest.raises(ValueError, match="interval"):
            mountain_pass(2 * PI**2, spec32)

    def test_anchor_fallback_recorded(self):
        # at lam = 13, n = 128 no amplitude reaches -1; the anchor comes from
        # the second search at -0.05, as in level_sweep
        res = mountain_pass(13.0, make_spec(1, 128), tol=1e-10)
        assert res.converged
        assert res.anchor_min_energy == -0.05
        assert -1.0 < res.anchor_failed_floor < -0.05

    def test_refinement_weakly_decreases_estimate(self, monkeypatch, spec32):
        # each refinement of the path weakly lowers its sampled supremum: the
        # straight path 0 -> u0, then 0 -> located point -> u0 (the run's
        # c_estimate when no descent path is built), then the descent path
        # through the polished saddle (c_estimate = its energy)
        lam = 15.0
        saddle = mountain_pass(lam, spec32)
        monkeypatch.setattr(torusmf.mountainpass, "_descend", lambda *args: None)
        located = mountain_pass(lam, spec32)
        zero, u0 = located.path[0], located.path[-1]
        straight = path_supremum([zero, u0], lam)
        assert (saddle.path_origin, located.path_origin) == ("saddle", "located")
        assert straight >= located.c_estimate >= saddle.c_estimate == saddle.solve.energy


class TestOrderTwo:
    """m=2 end to end: the existence run at lam = 250, n = 16 and what follows from it."""

    def test_converged_solution(self, mp250):
        assert mp250.converged
        assert mp250.solve.residual_l2 <= 1e-8
        assert mp250.solve.energy > 0.0
        # the pass level is the saddle's energy, whatever the BLAS thread count
        assert (mp250.iterations, mp250.path_origin) == (5, "saddle")
        assert mp250.c_estimate == pytest.approx(mp250.solve.energy, rel=0.0, abs=1e-6)

    def test_solution_is_a_saddle(self, mp250):
        assert smallest_hessian_eigenvalue(mp250.solve.field, 250.0) < 0.0

    def test_continuation_reaches_end(self, mp250):
        branch = continuation(mp250.solve, 240.0, 5.0)
        assert branch.termination == "reached_end"
        assert branch.results[-1].lam == 240.0

    def test_same_bits_under_any_blas_thread_count(self):
        # every H^m reduction is an einsum, never a threaded BLAS dot: the
        # level and the path nodes do not depend on the thread count
        code = ("import os\n"
                "os.environ['OPENBLAS_NUM_THREADS'] = '{threads}'\n"
                "import hashlib\n"
                "import torusmf\n"
                "res = torusmf.mountain_pass(250.0, torusmf.make_spec(2, 16))\n"
                "nodes = b''.join(node.values.tobytes() for node in res.path)\n"
                "print(repr(res.c_estimate), hashlib.md5(nodes).hexdigest())\n")
        one, two = (run_fresh(code.format(threads=threads)) for threads in (1, 2))
        assert one == two

    def test_resolution_robustness(self, mp250):
        sol = mp250.solve
        fine = newton_solve(upsample(sol.field, 24), 250.0, tol=1e-8)
        assert fine.converged
        for name, coarse_val, fine_val in (
            ("energy", sol.energy, fine.energy),
            ("norm_sq", sobolev_norm_sq(sol.field), sobolev_norm_sq(fine.field)),
            ("max_u", float(sol.field.values.max()), float(fine.field.values.max())),
        ):
            assert abs(fine_val - coarse_val) <= 0.01 * abs(coarse_val), name


@pytest.mark.parametrize("run", [mountain_pass, lambda lam, spec: level_sweep([lam], spec)],
                         ids=["mountain_pass", "level_sweep"])
@pytest.mark.parametrize("m,lam,want", [
    (1, 4 * PI, "lam={lam} is an integer multiple of the quantum 12.566371"),
    (1, 2 * PI**2, "lam={lam} outside the existence interval (12.566371, 19.739209) for m=1"),
    (2, 32 * PI**2, "lam={lam} is an integer multiple of the quantum 157.913670"),
], ids=["quantum_m1", "interval_m1", "quantum_m2"])
def test_pass_and_sweep_refuse_the_same_lam(run, m, lam, want):
    # Lambda1 and 2 Lambda1 are quantum multiples; 2 pi^2 ends the m = 1 interval
    with pytest.raises(ValueError) as err:
        run(lam, make_spec(m, 8))
    assert str(err.value) == want.format(lam=lam)


def recorded_calls(monkeypatch) -> list[tuple]:
    """Record ("locate", lam, steps), ("newton_solve", lam, from_located) and
    ("saddle_path", lam, built); from_located: the guess is the last _locate's x."""
    mp = torusmf.mountainpass
    calls, located = [], []
    locate, solve, assemble = mp._locate, mp.newton_solve, mp._saddle_path

    def locate_recorded(u0, lam):
        out = locate(u0, lam)
        calls.append(("locate", lam, out[2]))
        located.append(out[0])
        return out

    def solve_recorded(guess, lam, **kwargs):
        calls.append(("newton_solve", lam, guess is located[-1]))
        return solve(guess, lam, **kwargs)

    def assemble_recorded(zero, anchor, solve, start):
        built = assemble(zero, anchor, solve, start)
        calls.append(("saddle_path", solve.lam, built[0] is not None))
        return built

    monkeypatch.setattr(mp, "_locate", locate_recorded)
    monkeypatch.setattr(mp, "newton_solve", solve_recorded)
    monkeypatch.setattr(mp, "_saddle_path", assemble_recorded)
    return calls


def test_mountain_pass_locates_polishes_then_assembles(monkeypatch, spec32):
    calls = recorded_calls(monkeypatch)
    res = mountain_pass(14.0, spec32)
    assert calls == [("locate", 14.0, 2), ("newton_solve", 14.0, True),
                     ("saddle_path", 14.0, True)]
    assert (res.iterations, res.path_origin) == (2, "saddle")


def _located_path_supremum(res) -> float:
    """Sampled supremum of res.path, which must be 0 -> the polish's start -> anchor."""
    assert len(res.path) == 3
    return path_supremum(res.path, res.solve.lam)


def test_unbuilt_saddle_path_returns_the_captured_path(monkeypatch, spec32):
    # no descent path: the polish stands, and the path 0 -> located point ->
    # anchor comes back at once with the level max(sup, E), sup its sampled
    # supremum
    monkeypatch.setattr(torusmf.mountainpass, "_descend", lambda *args: None)
    calls = recorded_calls(monkeypatch)
    res = mountain_pass(14.0, spec32, tol=1e-8)
    assert calls == [("locate", 14.0, 2), ("newton_solve", 14.0, True),
                     ("saddle_path", 14.0, False)]
    assert (res.iterations, res.converged, res.path_origin) == (2, True, "located")
    assert res.c_estimate == max(_located_path_supremum(res), res.solve.energy)
    assert_honest_path(res)


def test_failing_polish_returns_the_captured_path(monkeypatch, spec32):
    # the polish fails: one locator run, one polish, and the path 0 -> located
    # point -> anchor comes back at once with its sampled supremum as the level
    mp = torusmf.mountainpass
    failed = []

    def no_solve(guess, lam, **kwargs):
        failed.append(SolveResult(field=guess, lam=lam, residual_l2=1.0, grad_norm=1.0,
                                  energy=energy_value(guess, lam), iterations=0,
                                  converged=False))
        return failed[-1]

    monkeypatch.setattr(mp, "newton_solve", no_solve)
    calls = recorded_calls(monkeypatch)
    res = mountain_pass(14.0, spec32, tol=1e-8)
    assert calls == [("locate", 14.0, 2), ("newton_solve", 14.0, True)]
    assert len(failed) == 1 and res.solve is failed[0]
    assert (res.iterations, res.converged, res.path_origin) == (2, False, "located")
    assert res.path[1] is failed[0].field
    assert res.c_estimate == _located_path_supremum(res)
    assert_honest_path(res)


@pytest.mark.parametrize("lam", [14.0, 19.0])
def test_returned_path_is_honest(spec32, lam):
    res = mountain_pass(lam, spec32, tol=1e-10)
    assert res.path_origin == "saddle"
    assert_honest_path(res)


def test_short_saddle_path_is_not_padded(monkeypatch, spec32):
    # keep only each descent's last node: the path 0, down, u*, up, anchor
    # has 5 nodes, two more than the located path 0 -> x -> anchor, and is
    # returned as built
    descend = torusmf.mountainpass._descend
    kept = []

    def last_node(*args):
        nodes, energies, crest = descend(*args)
        kept.append(nodes[-1])
        return nodes[-1:], energies[-1:], crest

    monkeypatch.setattr(torusmf.mountainpass, "_descend", last_node)
    res = mountain_pass(14.0, spec32, tol=1e-10)
    assert res.path_origin == "saddle"
    nodes = res.path
    assert len(nodes) == 5
    assert nodes[1] is kept[0] and nodes[2] is res.solve.field and nodes[3] is kept[1]
    assert_honest_path(res)


class TestUnstableDirection:
    """The saddle path leaves u* along the eigenvector of its one negative eigenvalue."""

    def test_flat_ridge_descends_in_few_steps(self, monkeypatch, spec32):
        # at lam = 19 the ridge is flat; leaving along a tangent of the relaxed
        # path took 75 Armijo calls and kept 49 nodes.  The saddle's eigen-solve
        # starts from the locator's e (two earlier solves refreshed it) and
        # takes 5 steps, one inverse transform each, after the one that gives
        # M of its start
        mp = torusmf.mountainpass
        armijo, eigenpair, calls, inverse = mp._armijo_step, mp._lowest_eigenpair, [], []
        counts = count_transforms(monkeypatch, spec32)

        def counted(*args):
            calls.append(1)
            return armijo(*args)

        def solve_counted(*args):
            before = counts["inverse"]
            out = eigenpair(*args)
            inverse.append(counts["inverse"] - before)
            return out

        monkeypatch.setattr(mp, "_armijo_step", counted)
        monkeypatch.setattr(mp, "_lowest_eigenpair", solve_counted)
        res = mountain_pass(19.0, spec32)
        assert res.path_origin == "saddle" and res.unstable_eigenvalue < 0.0
        assert len(res.path) <= 20 and len(calls) <= 40
        assert len(inverse) == 3 and inverse[-1] <= 7
        assert_honest_path(res)

    def test_saddle_path_near_the_upper_threshold(self, spec64):
        # at lam = 19.7 the unstable eigenvalue is -0.0039 and the escape from
        # u* grows like exp(|mu| t): with the first step at 1e-3 ||u*|| the
        # descents ran out of steps and the run ended "relaxed" with c_estimate
        # 110 times the saddle energy.  At 3e-2 ||u*|| the path keeps 349 nodes
        res = mountain_pass(19.7, spec64)
        assert res.path_origin == "saddle" and res.converged
        assert res.c_estimate == res.solve.energy
        assert len(res.path) <= 360
        assert_honest_path(res)

    def test_reports_the_saddle_eigenvalue(self, spec32):
        res = mountain_pass(14.0, spec32, tol=1e-10)
        want = smallest_hessian_eigenvalue(res.solve.field, 14.0)
        assert res.unstable_eigenvalue < 0.0
        assert res.unstable_eigenvalue == pytest.approx(want, abs=1e-6)

    def test_no_descent_from_a_stable_state(self, spec32):
        # negative control: u = 0 at lam = 10 < threshold_high is a strict
        # local minimum, lowest eigenvalue 1 - 20/(4 pi^2) > 0
        mp = torusmf.mountainpass
        anchor = scaled(concentration_direction(spec32), 5.0)
        zero = SolveResult(field=zero_field(spec32), lam=10.0, residual_l2=0.0, grad_norm=0.0,
                           energy=0.0, iterations=0, converged=True)
        descent, sup, mu = mp._saddle_path(zero_field(spec32), anchor, zero, anchor)
        assert descent is None and math.isnan(sup)
        assert mu == pytest.approx(1 - 20 / (4 * PI**2), abs=1e-10)

    def test_nonnegative_eigenvalue_returns_the_captured_path(self, monkeypatch, spec32):
        # every eigen-solve reports mu = 0 and returns its start, so the
        # locator keeps e = u0 (and still reaches the saddle at lam = 14)
        mp = torusmf.mountainpass
        monkeypatch.setattr(mp, "_lowest_eigenpair", lambda u, lam, start: (0.0, start))
        res = mountain_pass(14.0, spec32, tol=1e-8)
        assert (res.converged, res.path_origin, res.unstable_eigenvalue) == (True, "located", 0.0)
        assert res.c_estimate == max(_located_path_supremum(res), res.solve.energy)

    def test_refuses_a_path_sampled_above_the_saddle_energy(self, spec32):
        # told a saddle energy 0.1 below u*'s own, the descents still end
        # below it, but the segments next to u* sample above it: no path
        mp = torusmf.mountainpass
        u0 = find_u0(14.0, spec32)
        x, e, _, _ = mp._locate(u0, 14.0)
        solve = newton_solve(x, 14.0, tol=1e-8)
        path, sup, mu = mp._saddle_path(zero_field(spec32), u0, solve, e)
        assert path is not None and sup == solve.energy and mu < 0.0
        low = dataclasses.replace(solve, energy=solve.energy - 0.1)
        path, sup, low_mu = mp._saddle_path(zero_field(spec32), u0, low, e)
        assert path is None and math.isnan(sup) and low_mu == mu

    def test_failed_polish_has_no_eigenvalue(self, monkeypatch, spec32):
        def no_solve(guess, lam, **kwargs):
            return SolveResult(field=guess, lam=lam, residual_l2=1.0, grad_norm=1.0,
                               energy=energy_value(guess, lam), iterations=0, converged=False)

        monkeypatch.setattr(torusmf.mountainpass, "newton_solve", no_solve)
        assert math.isnan(mountain_pass(14.0, spec32, tol=1e-8).unstable_eigenvalue)


class TestLevelSweep:
    def test_locator_chunk_then_polish_then_assembly_per_lam(self, monkeypatch, spec32):
        calls = recorded_calls(monkeypatch)
        rep = level_sweep([14.0, 16.0], spec32, tol=1e-8)
        assert calls == [("locate", 14.0, 2), ("newton_solve", 14.0, True),
                         ("saddle_path", 14.0, True),
                         ("locate", 16.0, 3), ("newton_solve", 16.0, True),
                         ("saddle_path", 16.0, True)]
        assert [(r.sweeps, r.path_origin) for r in rep.rows] == [(2, "saddle"), (3, "saddle")]

    def test_rows_are_mountain_pass_results(self, monkeypatch, spec32):
        # one mountain_pass call per lam, in increasing order, and each row
        # copies its result; the anchor search reaches -1 at n = 32, so both
        # floors are NaN
        calls = []

        def recorded(*args):
            calls.append(args)
            return mountain_pass(*args)

        monkeypatch.setattr(torusmf.mountainpass, "mountain_pass", recorded)
        rep = level_sweep([16, 14.0], spec32, tol=1e-8)
        assert calls == [(14.0, spec32, 1e-8), (16.0, spec32, 1e-8)]
        for row, lam in zip(rep.rows, (14.0, 16.0)):
            res = mountain_pass(lam, spec32, tol=1e-8)
            assert (row.lam, row.c_estimate, row.grad_norm, row.sweeps, row.converged,
                    row.energy, row.path_origin, row.anchor_min_energy) == (
                res.solve.lam, res.c_estimate, res.solve.grad_norm, res.iterations,
                res.converged, res.solve.energy, res.path_origin, res.anchor_min_energy)
            assert math.isnan(row.anchor_failed_floor) and math.isnan(res.anchor_failed_floor)

    def test_single_point_grid(self, spec32):
        rep = level_sweep([14.0], spec32, tol=1e-8)
        assert len(rep.rows) == 1
        assert rep.monotonicity_violations == 0
        assert rep.rows[0].c_estimate > 0.0
        assert rep.rows[0].anchor_min_energy == -1.0
        assert math.isnan(rep.rows[0].anchor_failed_floor)

    def test_anchor_fallback_recorded(self, sweep128):
        # at lam=13, n=128 the descent toward -1 stalls, and the anchor comes
        # from the second search at -0.05; from lam=14 on the search for -1
        # succeeds
        first, *rest = sweep128.rows
        assert first.lam == 13.0
        assert first.anchor_min_energy == -0.05
        assert -1.0 < first.anchor_failed_floor < -0.05
        assert [r.lam for r in rest] == [14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        for row in rest:
            assert row.anchor_min_energy == -1.0, row.lam
            assert math.isnan(row.anchor_failed_floor), row.lam

    def test_c_estimate_dominates_solution_level(self, sweep128):
        rows = [r for r in sweep128.rows if r.converged]
        assert rows
        for row in rows:
            assert row.c_estimate >= row.energy, row.lam
            if row.path_origin == "saddle":
                assert row.c_estimate == row.energy, row.lam

    def test_three_point_monotone(self, spec32):
        rep = level_sweep([14.0, 16.0, 18.0], spec32, tol=1e-8)
        assert rep.monotonicity_violations == 0
        cs = [r.c_estimate for r in rep.rows]
        assert all(c > 0 for c in cs)
        assert cs == sorted(cs, reverse=True)

    def test_row_energy_is_the_polished_solution_energy(self, monkeypatch, spec32):
        solves = []
        solve = torusmf.mountainpass.newton_solve
        monkeypatch.setattr(torusmf.mountainpass, "newton_solve",
                            lambda *args, **kwargs: solves.append(solve(*args, **kwargs))
                            or solves[-1])
        rep = level_sweep([14.0, 16.0], spec32, tol=1e-8)
        assert all(r.converged for r in rep.rows)
        for row in rep.rows:
            polished = [s for s in solves if s.lam == row.lam and s.converged][0]
            assert row.energy == energy_value(polished.field, row.lam)

    def test_empty_grid_rejected(self, spec32):
        with pytest.raises(ValueError):
            level_sweep([], spec32)
