"""Min-max machinery: anchors, path relaxation, pass levels."""

import math

import numpy as np
import pytest

import torusmf
from torusmf import (
    ConvergenceError,
    PathState,
    SolveResult,
    concentration_direction,
    continuation,
    energy_value,
    find_u0,
    init_path,
    level_sweep,
    lincomb,
    make_spec,
    mountain_pass,
    newton_solve,
    relax_path,
    scaled,
    smallest_hessian_eigenvalue,
    sobolev_inner,
    sobolev_norm_sq,
    upsample,
    zero_field,
)

from conftest import assert_honest_path, count_transforms, run_fresh, smooth_field

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
        # path is built evaluates each of the 160 amplitudes once (201 calls
        # with a rescan up to the fallback anchor)
        mp = torusmf.mountainpass
        calls, scanned = [], []
        energy, init = mp.energy_value, mp.init_path
        monkeypatch.setattr(mp, "energy_value",
                            lambda u, lam: calls.append(u.values.tobytes()) or energy(u, lam))
        monkeypatch.setattr(mp, "init_path",
                            lambda *args: scanned.extend(calls) or init(*args))
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
    def test_nodes_and_endpoints(self, anchor32):
        path = init_path(anchor32, 8, 14.0)
        assert len(path.nodes) == 9
        assert np.max(np.abs(path.nodes[0].values)) == 0.0
        assert np.array_equal(path.nodes[-1].values, anchor32.values)

    def test_max_energy_node_interior(self, anchor32):
        path = init_path(anchor32, 16, 14.0)
        energies = [energy_value(nd, 14.0) for nd in path.nodes]
        imax = int(np.argmax(energies))
        assert 0 < imax < len(path.nodes) - 1
        assert energies[imax] > 0.0

    def test_rejects_few_segments(self, anchor32):
        # 0, one interior node and the anchor is the shortest path
        assert len(init_path(anchor32, 2, 14.0).nodes) == 3
        with pytest.raises(ValueError, match="at least 3 nodes"):
            init_path(anchor32, 1, 14.0)

    def test_rejects_nonzero_start(self, anchor32, spec32):
        with pytest.raises(ValueError, match="zero field"):
            PathState(lam=14.0, nodes=[anchor32] * 10)


class TestRelaxPath:
    def test_max_energy_decreases(self, anchor32):
        path = init_path(anchor32, 16, 14.0)
        start = max(energy_value(nd, 14.0) for nd in path.nodes)
        relaxed, info = relax_path(path, 5)
        assert info.sweeps == 5
        assert info.max_energies[-1] < start
        assert all(b <= a + 1e-9 * (1 + abs(a))
                   for a, b in zip(info.max_energies, info.max_energies[1:]))

    def test_endpoints_pinned(self, anchor32):
        path = init_path(anchor32, 16, 14.0)
        relaxed, _ = relax_path(path, 20)
        assert np.max(np.abs(relaxed.nodes[0].values)) == 0.0
        assert np.array_equal(relaxed.nodes[-1].values, anchor32.values)

    def test_near_critical_path_barely_moves(self, spec32):
        # nodes scaled along a tiny ray: gradients are small, so a sweep
        # changes the max energy by a tiny amount only
        u = smooth_field(spec32, 4, norm=1e-4)
        nodes = [zero_field(spec32)] + [lincomb(0.0, u, (i + 1) / 16, u) for i in range(16)]
        path = PathState(lam=14.0, nodes=nodes)
        start = max(energy_value(nd, 14.0) for nd in path.nodes)
        relaxed, info = relax_path(path, 1)
        assert abs(info.max_energies[-1] - start) <= 1e-6

    def test_node_count_bookkeeping(self, spec32):
        path = init_path(find_u0(19.0, spec32), 8, 19.0)
        relaxed, info = relax_path(path, 30)
        assert len(info.captured) == info.sweeps + 1  # the final capture counts too
        assert len(relaxed.nodes) == len(path.nodes) + sum(info.captured)
        assert 0 <= info.respace_rejected <= info.sweeps

    @pytest.mark.parametrize("lam,rel", [(14.0, 0.0), (19.0, 1e-12)])
    def test_reports_the_supremum_of_its_path(self, spec32, lam, rel):
        # level is the returned path's sampled supremum, recomputed with a
        # fresh table and fresh node energies, and crest attains it.  At
        # lam = 19 the max node is one the final capture inserted, whose
        # energy is the segment formula's: energy_value differs in the last
        # bits; at lam = 14 the final capture inserts none
        from torusmf.mountainpass import _SegmentTable, _sampled_supremum

        relaxed, info = relax_path(init_path(find_u0(lam, spec32), 16, lam), 8)
        assert (info.captured[-1] == 0) == (rel == 0.0)
        nodes = relaxed.nodes
        energies = [energy_value(node, lam) for node in nodes]
        sup, seg, t = _sampled_supremum(nodes, energies, _SegmentTable(lam, nodes[0], nodes[-1]))
        assert info.level == pytest.approx(sup, rel=rel, abs=0.0)
        assert info.top == int(np.argmax(energies))
        if seg < 0:
            assert info.crest is nodes[info.top]
        else:
            want = lincomb(1.0 - t, nodes[seg], t, nodes[seg + 1])
            assert np.array_equal(info.crest.values, want.values)


def _eager_respace(nodes, energies, lam):
    """The whole energy-gap re-spacing of the polyline, every node built first."""
    from torusmf.mountainpass import _RESPACE_NORM_WEIGHT

    p = len(nodes) - 1
    weights = []
    for a, b, ea, eb in zip(nodes, nodes[1:], energies, energies[1:]):
        dsq = sobolev_norm_sq(a) + sobolev_norm_sq(b) - 2.0 * sobolev_inner(a, b)
        weights.append(abs(eb - ea) + _RESPACE_NORM_WEIGHT * math.sqrt(max(dsq, 0.0)) + 1e-30)
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    targets = np.linspace(0.0, cum[-1], p + 1)
    new_nodes, new_energies = [nodes[0]], [energies[0]]
    for j in range(1, p):
        seg = min(int(np.searchsorted(cum, targets[j], side="right")) - 1, p - 1)
        theta = (targets[j] - cum[seg]) / (cum[seg + 1] - cum[seg])
        node = lincomb(1.0 - theta, nodes[seg], theta, nodes[seg + 1])
        new_nodes.append(node)
        new_energies.append(energy_value(node, lam))
    return new_nodes + [nodes[-1]], new_energies + [energies[-1]]


@pytest.fixture(scope="module")
def respace_calls(spec32):
    """(lam, nodes, energies, ceiling) of every re-spacing of 30 sweeps at lam = 14, 19, n = 32."""
    mp = torusmf.mountainpass
    calls = []
    respace = mp._respace

    def recorded(nodes, energies, table, ceiling):
        calls.append((table.lam, list(nodes), list(energies), ceiling))
        return respace(nodes, energies, table, ceiling)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mp, "_respace", recorded)
        for lam in (14.0, 19.0):
            relax_path(init_path(find_u0(lam, spec32), 16, lam), 30)
    return calls


class TestRespace:
    """Early-exit re-spacing against the candidate built whole."""

    def test_matches_eager_candidate(self, respace_calls):
        from torusmf.mountainpass import _SegmentTable, _respace, _sampled_supremum

        verdicts = set()
        for lam, nodes, energies, ceiling in respace_calls:
            cand_nodes, cand_energies = _eager_respace(nodes, energies, lam)
            eager_table = _SegmentTable(lam, nodes[0], nodes[-1])
            table = _SegmentTable(lam, nodes[0], nodes[-1])
            top, _, _ = _sampled_supremum(cand_nodes, cand_energies, eager_table)
            got = _respace(nodes, energies, table, ceiling)
            assert (got is None) == (top > ceiling)
            verdicts.add(got is None)
            if got is not None:
                assert got[1] == cand_energies
                assert all(np.array_equal(a.values, b.values)
                           for a, b in zip(got[0], cand_nodes))
                # the accepted candidate's crests are in the table under the
                # node pairs the next sweep reads
                for i in range(len(nodes) - 1):
                    assert (table._crest[(got[0][i], got[0][i + 1])]
                            == eager_table.crest(cand_nodes[i], cand_nodes[i + 1]))
        assert verdicts == {True, False}

    def test_rejection_stops_early(self, monkeypatch, respace_calls):
        mp = torusmf.mountainpass
        segments = []
        sample = mp._segment_energies
        monkeypatch.setattr(mp, "_segment_energies",
                            lambda *args: segments.append(args) or sample(*args))
        def fresh():
            return mp._SegmentTable(lam, nodes[0], nodes[-1])

        for lam, nodes, energies, ceiling in respace_calls:
            candidate = _eager_respace(nodes, energies, lam)
            if mp._sampled_supremum(*candidate, fresh())[0] > ceiling:
                break
        segments.clear()
        assert mp._respace(nodes, energies, fresh(), ceiling) is None
        assert 0 < len(segments) < len(nodes) - 1
        # a first new node above the ceiling ends it before any segment is sampled
        segments.clear()
        assert mp._respace(nodes, energies, fresh(), -1e300) is None
        assert not segments

    @pytest.mark.parametrize("lam,rejected", [(14.0, 26), (19.0, 27)])
    def test_rejection_counts(self, spec64, lam, rejected):
        # 30 sweeps from mountain_pass's starting path at n = 64
        _, info = relax_path(init_path(find_u0(lam, spec64), 16, lam), 30)
        assert info.sweeps == 30
        assert info.respace_rejected == rejected


class TestArmijoDescent:
    def test_line_search_stops_at_its_first_armijo_step(self, monkeypatch, spec32):
        # each line search draws candidates u - s g, s halving, and stops at
        # the first that passes the Armijo test: no candidate is drawn after
        # an accepted one (a slack of 1e-12 covers node energies taken from
        # segment samples rather than energy_value)
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
        relax_path(init_path(find_u0(lam, spec32), 16, lam), 30)
        assert searches
        for e, g, candidates in searches:
            slack = 1e-12 * (1.0 + abs(e))
            bar = [e - 1e-4 * s * sobolev_norm_sq(g) for s, _ in candidates]
            drawn = [energy(cand, lam) for _, cand in candidates]
            assert all(ec > b - slack for ec, b in zip(drawn[:-1], bar[:-1]))
            assert drawn[-1] <= bar[-1] + slack or candidates[-1][0] <= 2e-14


class TestSegmentCache:
    """Each segment is sampled once per path at one lam, with unchanged results."""

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
        relax_path(init_path(anchor32, 16, 14.0), 10)
        # the lists keep every node alive, so no id is reused
        assert segments
        assert len({(id(a), id(b), ts) for a, b, ts in segments}) == len(segments)
        assert len({(id(a), id(b)) for a, b in pairs}) == len(pairs)

    def test_cached_supremum_equals_uncached(self, anchor32):
        from torusmf.mountainpass import _SegmentTable, _sampled_supremum

        lam = 14.0
        relaxed, _ = relax_path(init_path(anchor32, 16, lam), 5)
        nodes = list(relaxed.nodes)
        energies = [energy_value(nd, lam) for nd in nodes]
        k = len(nodes) // 2
        mid = lincomb(0.5, nodes[k], 0.5, nodes[k + 1])
        table = _SegmentTable(lam, nodes[0], nodes[-1])
        # warm the table on a refinement sharing every segment but the split one
        _sampled_supremum(nodes[:k + 1] + [mid] + nodes[k + 1:],
                          energies[:k + 1] + [energy_value(mid, lam)] + energies[k + 1:], table)
        cached = _sampled_supremum(nodes, energies, table)
        fresh = _SegmentTable(lam, nodes[0], nodes[-1])
        assert cached == _sampled_supremum(nodes, energies, fresh)
        assert cached == _sampled_supremum(nodes, energies, table)


class TestSegmentEnergies:
    """Closed-form segment samples against the energy of the built field."""

    @pytest.mark.parametrize("m,n,lam", [(1, 64, 14.0), (2, 16, 250.0)])
    def test_matches_energy_value(self, m, n, lam):
        from torusmf.mountainpass import _SegmentTable, _segment_energies

        spec = make_spec(m, n)
        a, b = smooth_field(spec, 1, norm=2.0), smooth_field(spec, 2, norm=3.0)
        # three segments: the geometric tail at t -> 0 (from the zero field, as
        # a path starts), the interior samples, and the tail at t -> 1 (into
        # the anchor a)
        ends = [(zero_field(spec), a), (a, b), (b, a)]
        table = _SegmentTable(lam, ends[0][0], a)
        for i, (left, right) in enumerate(ends):
            ts = table.ts(left, right)
            got = _segment_energies(left, right, sobolev_inner(left, right), lam, ts)
            for t, e in zip(ts, got):
                want = energy_value(lincomb(1.0 - t, left, t, right), lam)
                assert e == pytest.approx(want, rel=1e-12, abs=0.0), (i, t)

    @pytest.mark.parametrize("m,n,lam", [(1, 64, 14.0), (2, 16, 250.0)])
    def test_in_place_sampler_is_bit_exact(self, m, n, lam):
        # reference: the out-of-place formula, 2m applied after the sum
        from torusmf.mountainpass import _SegmentTable, _segment_energies

        spec = make_spec(m, n)
        a, b = smooth_field(spec, 1, norm=2.0), smooth_field(spec, 2, norm=3.0)
        ends = [(zero_field(spec), a), (a, b), (b, a)]
        table = _SegmentTable(lam, ends[0][0], a)
        for i, (left, right) in enumerate(ends):
            ts = table.ts(left, right)
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
        # transforms when every energy transformed its field, and takes 65
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

    def test_refinement_weakly_decreases_estimate(self, spec32):
        # refine the SAME relaxed path by midpoint insertion (the polyline is
        # unchanged, so its supremum cannot rise), then relax further: the
        # sampled level estimates must weakly decrease through P = 8, 16, 32
        lam = 15.0
        u0 = find_u0(lam, spec32)

        def subdivide(path: PathState) -> PathState:
            nodes = [path.nodes[0]]
            for a, b in zip(path.nodes, path.nodes[1:]):
                nodes.append(lincomb(0.5, a, 0.5, b))
                nodes.append(b)
            return PathState(lam=path.lam, nodes=nodes)

        estimates = []
        path = init_path(u0, 8, lam)
        for _ in range(3):
            path, info = relax_path(path, 200)
            estimates.append(info.level)
            path = subdivide(path)
        assert estimates[1] <= estimates[0] * 1.02 + 1e-12
        assert estimates[2] <= estimates[1] * 1.02 + 1e-12


class TestOrderTwo:
    """m=2 end to end: the existence run at lam = 250, n = 16 and what follows from it."""

    def test_converged_solution(self, mp250):
        assert mp250.converged
        assert mp250.solve.residual_l2 <= 1e-8
        assert mp250.solve.energy > 0.0
        # the pass level is the saddle's energy, whatever the BLAS thread count
        assert (mp250.iterations, mp250.path_origin) == (8, "saddle")
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
                "nodes = b''.join(node.values.tobytes() for node in res.path.nodes)\n"
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
    """Record ("relax_path", lam, sweeps), ("newton_solve", lam, from_crest) and
    ("saddle_path", lam, built); from_crest: the guess is the last relax_path's info.crest."""
    mp = torusmf.mountainpass
    calls, crests = [], []
    relax, solve, assemble = mp.relax_path, mp.newton_solve, mp._saddle_path

    def relax_recorded(path, sweeps):
        calls.append(("relax_path", path.lam, sweeps))
        relaxed, info = relax(path, sweeps)
        crests.append(info.crest)
        return relaxed, info

    def solve_recorded(guess, lam, **kwargs):
        calls.append(("newton_solve", lam, guess is crests[-1]))
        return solve(guess, lam, **kwargs)

    def assemble_recorded(captured, solve, top):
        built = assemble(captured, solve, top)
        calls.append(("saddle_path", captured.lam, built[0] is not None))
        return built

    monkeypatch.setattr(mp, "relax_path", relax_recorded)
    monkeypatch.setattr(mp, "newton_solve", solve_recorded)
    monkeypatch.setattr(mp, "_saddle_path", assemble_recorded)
    return calls


def test_mountain_pass_locates_polishes_then_assembles(monkeypatch, spec32):
    calls = recorded_calls(monkeypatch)
    res = mountain_pass(14.0, spec32)
    assert calls == [("relax_path", 14.0, 8), ("newton_solve", 14.0, True),
                     ("saddle_path", 14.0, True)]
    assert (res.iterations, res.path_origin) == (8, "saddle")


def test_unbuilt_saddle_path_returns_the_captured_path(monkeypatch, spec32):
    # no descent path: the locator's polish stands, and the captured relaxed
    # path comes back at once with the level max(sup, E), sup its sampled
    # supremum
    from torusmf.mountainpass import _SegmentTable, _sampled_supremum

    monkeypatch.setattr(torusmf.mountainpass, "_descend", lambda *args: None)
    calls = recorded_calls(monkeypatch)
    res = mountain_pass(14.0, spec32, tol=1e-8)
    assert calls == [("relax_path", 14.0, 8), ("newton_solve", 14.0, True),
                     ("saddle_path", 14.0, False)]
    assert (res.iterations, res.converged, res.path_origin) == (8, True, "relaxed")
    nodes = res.path.nodes
    energies = [energy_value(node, 14.0) for node in nodes]
    sup, _, _ = _sampled_supremum(nodes, energies, _SegmentTable(14.0, nodes[0], nodes[-1]))
    assert res.c_estimate == pytest.approx(max(sup, res.solve.energy), rel=1e-12, abs=0.0)


def test_failing_polish_returns_the_captured_path(monkeypatch, spec32):
    # the polish fails: one locator run, one polish, and the captured path
    # comes back at once with its sampled supremum as the level
    from torusmf.mountainpass import _SegmentTable, _sampled_supremum

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
    assert calls == [("relax_path", 14.0, 8), ("newton_solve", 14.0, True)]
    assert len(failed) == 1 and res.solve is failed[0]
    assert (res.iterations, res.converged, res.path_origin) == (8, False, "relaxed")
    # captured nodes carry segment-formula energies, so a fresh recompute
    # may differ in the last bits
    nodes = res.path.nodes
    energies = [energy_value(node, 14.0) for node in nodes]
    sup, _, _ = _sampled_supremum(nodes, energies, _SegmentTable(14.0, nodes[0], nodes[-1]))
    assert res.c_estimate == pytest.approx(sup, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", [14.0, 19.0])
def test_returned_path_is_honest(spec32, lam):
    res = mountain_pass(lam, spec32, tol=1e-10)
    assert res.path_origin == "saddle"
    assert_honest_path(res)


def test_short_saddle_path_is_not_padded(monkeypatch, spec32):
    # keep only each descent's last node: the path 0, down, u*, up, anchor
    # has 5 nodes, above PathState's minimum of 3, and is returned as built
    descend = torusmf.mountainpass._descend
    kept = []

    def last_node(*args):
        nodes, energies = descend(*args)
        kept.append(nodes[-1])
        return nodes[-1:], energies[-1:]

    monkeypatch.setattr(torusmf.mountainpass, "_descend", last_node)
    res = mountain_pass(14.0, spec32, tol=1e-10)
    assert res.path_origin == "saddle"
    nodes = res.path.nodes
    assert len(nodes) == 5
    assert nodes[1] is kept[0] and nodes[2] is res.solve.field and nodes[3] is kept[1]
    assert_honest_path(res)


class TestUnstableDirection:
    """The saddle path leaves u* along the eigenvector of its one negative eigenvalue."""

    def test_flat_ridge_descends_in_few_steps(self, monkeypatch, spec32):
        # at lam = 19 the ridge is flat; leaving along the captured tangent
        # took 75 Armijo calls and kept 49 nodes.  The eigen-solve from that
        # tangent takes at most 10 steps, one inverse transform each, after
        # the one that gives M of the tangent
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
        assert len(res.path.nodes) <= 20 and len(calls) <= 40
        assert len(inverse) == 1 and inverse[0] <= 11
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
        path = init_path(scaled(concentration_direction(spec32), 5.0), 16, 10.0)
        zero = SolveResult(field=zero_field(spec32), lam=10.0, residual_l2=0.0, grad_norm=0.0,
                           energy=0.0, iterations=0, converged=True)
        descent, sup, mu = mp._saddle_path(path, zero, 8)
        assert descent is None and math.isnan(sup)
        assert mu == pytest.approx(1 - 20 / (4 * PI**2), abs=1e-10)

    def test_nonnegative_eigenvalue_returns_the_captured_path(self, monkeypatch, spec32):
        from torusmf.mountainpass import _SegmentTable, _sampled_supremum

        mp = torusmf.mountainpass
        monkeypatch.setattr(mp, "_lowest_eigenpair", lambda u, lam, start: (0.0, None))
        res = mountain_pass(14.0, spec32, tol=1e-8)
        assert (res.converged, res.path_origin, res.unstable_eigenvalue) == (True, "relaxed", 0.0)
        nodes = res.path.nodes
        energies = [energy_value(node, 14.0) for node in nodes]
        sup, _, _ = _sampled_supremum(nodes, energies, _SegmentTable(14.0, nodes[0], nodes[-1]))
        assert res.c_estimate == pytest.approx(max(sup, res.solve.energy), rel=1e-12, abs=0.0)

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
        assert calls == [("relax_path", 14.0, 8), ("newton_solve", 14.0, True),
                         ("saddle_path", 14.0, True),
                         ("relax_path", 16.0, 8), ("newton_solve", 16.0, True),
                         ("saddle_path", 16.0, True)]
        assert [(r.sweeps, r.path_origin) for r in rep.rows] == [(8, "saddle")] * 2

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
