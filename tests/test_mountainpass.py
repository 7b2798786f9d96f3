"""Min-max machinery: anchors, path relaxation, pass levels."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torusmf
from torusmf import (
    ConvergenceError,
    PathState,
    concentration_direction,
    energy_value,
    find_u0,
    init_path,
    level_sweep,
    lincomb,
    make_spec,
    mountain_pass,
    relax_path,
    scaled,
    sobolev_inner,
    sobolev_norm_sq,
    zero_field,
)

from conftest import smooth_field

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
        # at lam barely above the coercivity threshold the coarse grid has no
        # point below -1; the failure must carry the achieved floor
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
        src = Path(torusmf.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


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
        with pytest.raises(ValueError):
            init_path(anchor32, 4, 14.0)

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
        # 9 nodes cap the path at 27, so the capture also prunes
        path = init_path(find_u0(19.0, spec32), 8, 19.0)
        relaxed, info = relax_path(path, 30)
        assert len(info.captured) == len(info.pruned) == info.sweeps
        assert sum(info.pruned) > 0
        assert len(relaxed.nodes) == len(path.nodes) + sum(info.captured) - sum(info.pruned)
        assert 0 <= info.respace_rejected <= info.sweeps


class TestSegmentCache:
    """Each segment is sampled once per relax_path call, with unchanged results."""

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
        from torusmf.mountainpass import _SegmentCache, _sampled_supremum

        lam = 14.0
        relaxed, _ = relax_path(init_path(anchor32, 16, lam), 5)
        nodes = list(relaxed.nodes)
        energies = [energy_value(nd, lam) for nd in nodes]
        k = len(nodes) // 2
        mid = lincomb(0.5, nodes[k], 0.5, nodes[k + 1])
        cache = _SegmentCache(lam)
        # warm the cache on a refinement sharing every segment but the split one
        _sampled_supremum(nodes[:k + 1] + [mid] + nodes[k + 1:],
                          energies[:k + 1] + [energy_value(mid, lam)] + energies[k + 1:], cache)
        cached = _sampled_supremum(nodes, energies, cache)
        assert cached == _sampled_supremum(nodes, energies, _SegmentCache(lam))
        assert cached == _sampled_supremum(nodes, energies, cache)


class TestSegmentEnergies:
    """Closed-form segment samples against the energy of the built field."""

    @pytest.mark.parametrize("m,n,lam", [(1, 64, 14.0), (2, 16, 250.0)])
    def test_matches_energy_value(self, m, n, lam):
        from torusmf.mountainpass import _segment_energies, _segment_ts

        spec = make_spec(m, n)
        a, b = smooth_field(spec, 1, norm=2.0), smooth_field(spec, 2, norm=3.0)
        # three segments: the geometric tail at t -> 0 (from the zero field, as
        # a path starts), the interior samples, and the tail at t -> 1
        ends = [(zero_field(spec), a), (a, b), (b, a)]
        for i, (left, right) in enumerate(ends):
            ts = _segment_ts(i, len(ends))
            got = _segment_energies(left, right, sobolev_inner(left, right), lam, ts)
            for t, e in zip(ts, got):
                want = energy_value(lincomb(1.0 - t, left, t, right), lam)
                assert e == pytest.approx(want, rel=1e-12, abs=0.0), (i, t)

    @pytest.mark.parametrize("m,n,lam", [(1, 64, 14.0), (2, 16, 250.0)])
    def test_in_place_sampler_is_bit_exact(self, m, n, lam):
        # reference: the out-of-place formula, 2m applied after the sum
        from torusmf.mountainpass import _segment_energies, _segment_ts

        spec = make_spec(m, n)
        a, b = smooth_field(spec, 1, norm=2.0), smooth_field(spec, 2, norm=3.0)
        ends = [(zero_field(spec), a), (a, b), (b, a)]
        for i, (left, right) in enumerate(ends):
            ts = _segment_ts(i, len(ends))
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
        res = mountain_pass(14.0, spec32, tol=1e-8, max_sweeps=300)
        assert res.converged
        assert res.c_estimate > 0.0
        assert res.grad_norm <= 1e-8
        assert res.solve is not None and res.solve.residual_l2 <= 1e-8
        assert math.sqrt(sobolev_norm_sq(res.maximizer)) > 0.1

    def test_c_estimate_dominates_solution_level(self, spec32):
        res = mountain_pass(14.0, spec32, tol=1e-8, max_sweeps=300)
        assert res.c_estimate >= res.solve.energy - 1e-9

    def test_rejects_quantum_multiple(self, spec32):
        with pytest.raises(ValueError, match="quantum"):
            mountain_pass(4 * PI, spec32)

    def test_rejects_outside_interval(self, spec32):
        with pytest.raises(ValueError, match="interval"):
            mountain_pass(2 * PI**2, spec32)

    def test_refinement_weakly_decreases_estimate(self, spec32):
        # refine the SAME relaxed path by midpoint insertion (the polyline is
        # unchanged, so its supremum cannot rise), then relax further: the
        # sampled level estimates must weakly decrease through P = 8, 16, 32
        from torusmf.mountainpass import _capture_ridge

        lam = 15.0
        u0 = find_u0(lam, spec32)

        def subdivide(path: PathState) -> PathState:
            nodes = [path.nodes[0]]
            for a, b in zip(path.nodes, path.nodes[1:]):
                nodes.append(lincomb(0.5, a, 0.5, b))
                nodes.append(b)
            return PathState(lam=path.lam, nodes=nodes)

        def relax_to_stall(path: PathState, budget: int) -> PathState:
            used = 0
            while used < budget:
                path, info = relax_path(path, 20)
                used += max(info.sweeps, 1)
                if info.stalled:
                    break
            return path

        estimates = []
        path = init_path(u0, 8, lam)
        for _ in range(3):
            path = relax_to_stall(path, 200)
            path, c = _capture_ridge(path)
            estimates.append(c)
            path = subdivide(path)
        assert estimates[1] <= estimates[0] * 1.02 + 1e-12
        assert estimates[2] <= estimates[1] * 1.02 + 1e-12


class TestLevelSweep:
    def test_single_point_grid(self, spec32):
        rep = level_sweep([14.0], spec32, tol=1e-8, sweeps_per_lam=40)
        assert len(rep.rows) == 1
        assert rep.monotonicity_violations == 0
        assert rep.rows[0].c_estimate > 0.0
        assert rep.anchor_min_energy == -1.0
        assert math.isnan(rep.anchor_failed_floor)

    def test_anchor_fallback_recorded(self, sweep128):
        # at lam=13, n=128 the descent toward -1 stalls, and the anchor comes
        # from the second search at -0.05
        assert sweep128.rows[0].lam == 13.0
        assert sweep128.anchor_min_energy == -0.05
        assert -1.0 < sweep128.anchor_failed_floor < -0.05

    def test_three_point_monotone(self, spec32):
        rep = level_sweep([14.0, 16.0, 18.0], spec32, tol=1e-8, sweeps_per_lam=40)
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
        rep = level_sweep([14.0, 16.0], spec32, tol=1e-8, sweeps_per_lam=20)
        assert all(r.converged for r in rep.rows)
        for row in rep.rows:
            polished = [s for s in solves if s.lam == row.lam and s.converged][0]
            assert row.energy == energy_value(polished.field, row.lam)

    def test_empty_grid_rejected(self, spec32):
        with pytest.raises(ValueError):
            level_sweep([], spec32)
