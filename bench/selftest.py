"""Tests of the benchmark's output checker against closed forms.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import checker


def _grid(n: int, dim: int):
    x = np.arange(n) / n
    return np.meshgrid(*([x] * dim), indexing="ij", sparse=True)


def _cosine_mode(n: int, m: int, k: tuple[int, ...], amp: float) -> np.ndarray:
    axes = _grid(n, 2 * m)
    phase = sum(ki * xi for ki, xi in zip(k, axes))
    return amp * np.cos(2.0 * math.pi * phase) + np.zeros((n,) * (2 * m))


def test_zero_field_solves_for_every_lambda():
    for m, n in ((1, 16), (2, 8)):
        u = np.zeros((n,) * (2 * m))
        for lam in (0.0, 5.0, 14.0):
            assert checker.residual_l2(u, lam, m) == 0.0
            assert checker.energy(u, lam, m) == 0.0
            assert checker.norm_sq(u, m) == 0.0
            assert checker.pairing_gap(u, lam, m) == 0.0


def test_cosine_mode_at_lambda_zero():
    amp = 0.3
    for m, n, k in ((1, 16, (1, 0)), (1, 16, (1, 2)), (2, 8, (1, 0, 0, 0)), (2, 8, (0, 1, 0, 1))):
        u = _cosine_mode(n, m, k, amp)
        eig = (4.0 * math.pi**2 * sum(ki * ki for ki in k)) ** m
        np.testing.assert_allclose(checker.residual(u, 0.0, m), eig * u, rtol=0, atol=1e-9 * eig)
        assert math.isclose(checker.residual_l2(u, 0.0, m), eig * amp / math.sqrt(2), rel_tol=1e-12)
        assert math.isclose(checker.norm_sq(u, m), eig * amp**2 / 2, rel_tol=1e-12)
        assert math.isclose(checker.energy(u, 0.0, m), eig * amp**2 / 4, rel_tol=1e-12)
        assert math.isclose(checker.pairing_gap(u, 0.0, m), eig * amp**2 / 2, rel_tol=1e-12)


def test_regime_bound_closed_forms():
    assert math.isclose(checker.regime_bound(2), math.pi**2, rel_tol=1e-15)
    assert math.isclose(checker.regime_bound(1), math.pi / 2, rel_tol=1e-15)


def _write_pbfld(path: Path, m: int, n: int, values: np.ndarray) -> None:
    header = f"PBFLD1\nm={m}\nn={n}\nkind=values\n\n".encode("ascii")
    path.write_bytes(header + np.ascontiguousarray(values, dtype="<f8").tobytes())


def test_pbfld_round_trip_and_truncation():
    u = _cosine_mode(8, 1, (1, 1), 0.5) + 1e-3 * np.arange(64).reshape(8, 8)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u.pbfld"
        _write_pbfld(path, 1, 8, u)
        m, back = checker.read_pbfld(path)
        assert m == 1 and np.array_equal(back, u)
        path.write_bytes(path.read_bytes()[:-8])
        try:
            checker.read_pbfld(path)
        except checker.CheckError:
            pass
        else:
            raise AssertionError("truncated payload was accepted")


def test_mp_check_rejects_a_non_solution():
    u = _cosine_mode(16, 1, (1, 0), 0.3)
    e = checker.energy(u, 14.0, 1)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "mp"
        out.mkdir()
        _write_pbfld(out / "maximizer.pbfld", 1, 16, u)
        (out / "summary.csv").write_text(
            "lambda,c_estimate,grad_norm,sweeps,converged,residual_l2,energy,norm\n"
            f"14,{e!r},0,1,true,0,{e!r},1\n")
        try:
            checker.check_mp_outputs({14.0: Path(tmp)}, m=1)
        except checker.CheckError as exc:
            assert "residual" in str(exc)
        else:
            raise AssertionError("a cosine mode passed as a solution at lambda=14")


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok  {fn.__name__}")
    sys.exit(0)
