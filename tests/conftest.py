import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torusmf
from torusmf import (
    Field,
    TorusSpec,
    energy_value,
    find_u0,
    grid_coordinates,
    level_sweep,
    make_spec,
    mountain_pass,
    random_low_mode_field,
    sobolev_inner,
)


def run_fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this torusmf."""
    src = Path(torusmf.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def traced_peak(fn):
    """(fn(), the traced peak allocation during the call above the allocation at its start).

    Starts tracemalloc when it is off and stops it only then, so a run under
    python -X tracemalloc (or PYTHONTRACEMALLOC) keeps tracing.
    """
    import tracemalloc

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return out, peak - base


def count_transforms(monkeypatch, spec: TorusSpec) -> dict[str, int]:
    """Counts of forward and inverse real FFTs on spec's grid, kept up to date
    from now on; each field of a batched transform counts."""
    counts = {"forward": 0, "inverse": 0}
    for name, key, size in (("rfftn", "forward", spec.npoints),
                            ("irfftn", "inverse", spec.npoints // spec.n * (spec.n // 2 + 1))):
        original = getattr(np.fft, name)

        def counting(a, *args, _original=original, _key=key, _size=size, **kwargs):
            counts[_key] += np.asarray(a).size // _size
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return counts


@pytest.fixture(scope="session")
def spec64() -> TorusSpec:
    return make_spec(1, 64)


@pytest.fixture(scope="session")
def spec32() -> TorusSpec:
    return make_spec(1, 32)


def criterion6_sweep():
    """The criterion-6 pass-level sweep: lam = 13..19 at m=1, n=128 (about 0.35 s)."""
    return level_sweep([13, 14, 15, 16, 17, 18, 19], make_spec(1, 128), tol=1e-8)


@pytest.fixture(scope="session")
def sweep128():
    """criterion6_sweep() computed once per session: criterion 6 and its golden rows."""
    return criterion6_sweep()


def order_two_mountain_pass():
    """The m=2 existence run: mountain_pass at lam = 250, n = 16 (about 0.2 s)."""
    return mountain_pass(250.0, make_spec(2, 16))


@pytest.fixture(scope="session")
def mp250():
    """order_two_mountain_pass() computed once per session: m=2 tests and golden values."""
    return order_two_mountain_pass()


def path_supremum(nodes, lam: float) -> float:
    """Sampled supremum of the path through nodes: the max of the node energies
    and of segment samples at _FINE_TS on the first segment, _TAIL_TS on the
    last and _SEGMENT_TS between them (a one-segment path takes _FINE_TS)."""
    from torusmf.mountainpass import _FINE_TS, _SEGMENT_TS, _TAIL_TS, _segment_energies

    last = len(nodes) - 2
    crests = [
        float(np.max(_segment_energies(a, b, sobolev_inner(a, b), lam,
                                       _FINE_TS if i == 0 else _TAIL_TS if i == last
                                       else _SEGMENT_TS)))
        for i, (a, b) in enumerate(zip(nodes, nodes[1:]))
    ]
    return max(*(energy_value(node, lam) for node in nodes), *crests)


def assert_honest_path(res) -> None:
    """res.path runs from the zero field to find_u0's anchor, and c_estimate is its sampled max.

    The path is a tuple of at least 3 nodes (2 segments) at res.solve.lam.
    The supremum is recomputed by path_supremum from fresh node energies and
    must equal c_estimate bit for bit; a path through the polished saddle
    must have the saddle's energy as that maximum.
    """
    path, lam = res.path, res.solve.lam
    assert isinstance(path, tuple) and len(path) >= 3
    assert all(isinstance(node, Field) for node in path)
    zero, anchor = path[0], path[-1]
    assert float(np.max(np.abs(zero.values))) == 0.0
    want = find_u0(lam, zero.spec, min_energy=res.anchor_min_energy)
    assert np.array_equal(anchor.values, want.values)
    assert path_supremum(path, lam) == res.c_estimate
    if res.path_origin == "saddle":
        assert res.c_estimate == res.solve.energy


def cos_mode(spec: TorusSpec, axis: int = 0, freq: int = 1) -> Field:
    """cos(2 pi freq x_axis) sampled on the grid."""
    x = grid_coordinates(spec)[axis]
    vals = np.broadcast_to(np.cos(2.0 * np.pi * freq * x), spec.shape).copy()
    return Field(spec, vals)


def sin_mode(spec: TorusSpec, axis: int = 0, freq: int = 1) -> Field:
    x = grid_coordinates(spec)[axis]
    vals = np.broadcast_to(np.sin(2.0 * np.pi * freq * x), spec.shape).copy()
    return Field(spec, vals)


def smooth_field(spec: TorusSpec, seed: int, norm: float = 1.0) -> Field:
    """Deterministic random band-limited mean-zero field with given H^m norm."""
    return random_low_mode_field(spec, np.random.default_rng(seed), norm, max_wavenumber=3)
