"""Output checks for the benchmark, computed without torusmf.

Fields are read from PBFLD1 files with a parser of our own, and every
quantity is recomputed with numpy's real FFT (torusmf uses complex FFTs
through its own Field/Spectrum layer), so a check cannot pass merely because
torusmf agrees with itself.

The equation on the unit torus of dimension 2m, over mean-zero u, is

    (-Lap)^m u + lam = lam * W,   W = exp(2m u) / integral(exp(2m u)),

with energy I(u) = 1/2 ||u||^2 - lam/(2m) * log(integral(exp(2m u))) and
||u||^2 = integral(u * (-Lap)^m u).  Pairing the equation with u gives the
identity ||u||^2 = lam * integral(W u).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Bound here, before a traced run wraps numpy.fft, so checks never show up
# in the per-layer FFT counts.
_rfftn = np.fft.rfftn
_irfftn = np.fft.irfftn

RESIDUAL_MAX = 1e-8
NORM_MIN = 0.1
PAIRING_RTOL = 1e-6
ENERGY_RTOL = 1e-8
MEAN_RTOL = 1e-12


class CheckError(AssertionError):
    """A benchmark output violates a property the method must have."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_pbfld(path) -> tuple[int, np.ndarray]:
    """Parse a PBFLD1 values file; returns (m, values of shape (n,)*2m)."""
    raw = Path(path).read_bytes()
    header_end = raw.find(b"\n\n")
    require(header_end >= 0, f"{path}: no blank line ends the header")
    lines = raw[:header_end].split(b"\n")
    require(len(lines) == 4 and lines[0] == b"PBFLD1" and lines[3] == b"kind=values",
            f"{path}: not a PBFLD1 values header: {lines!r}")
    require(lines[1].startswith(b"m=") and lines[2].startswith(b"n="),
            f"{path}: header lacks m= / n= lines")
    m = int(lines[1][2:])
    n = int(lines[2][2:])
    values = np.frombuffer(raw, dtype="<f8", offset=header_end + 2)
    require(values.size == n ** (2 * m),
            f"{path}: {values.size} doubles, expected {n}**{2 * m}")
    return m, values.reshape((n,) * (2 * m)).astype(np.float64)


def _symbol(shape: tuple[int, ...], m: int) -> np.ndarray:
    """(4 pi^2 |k|^2)^m on the real-FFT half grid."""
    n = shape[0]
    full = np.fft.fftfreq(n, d=1.0 / n)
    half = np.fft.rfftfreq(n, d=1.0 / n)
    axes = [full] * (len(shape) - 1) + [half]
    ksq = sum(a**2 for a in np.meshgrid(*axes, indexing="ij", sparse=True))
    return (4.0 * math.pi**2 * ksq) ** m


def power_laplacian(u: np.ndarray, m: int) -> np.ndarray:
    """(-Lap)^m u on the unit torus, spectrally exact for the trig interpolant."""
    return _irfftn(_rfftn(u) * _symbol(u.shape, m), s=u.shape, axes=tuple(range(u.ndim)))


def norm_sq(u: np.ndarray, m: int) -> float:
    return float(np.mean(u * power_laplacian(u, m)))


def exp_weight(u: np.ndarray, m: int) -> np.ndarray:
    t = 2.0 * m * u
    w = np.exp(t - t.max())
    return w / w.mean()


def residual(u: np.ndarray, lam: float, m: int) -> np.ndarray:
    return power_laplacian(u, m) + lam * (1.0 - exp_weight(u, m))


def residual_l2(u: np.ndarray, lam: float, m: int) -> float:
    return math.sqrt(float(np.mean(residual(u, lam, m) ** 2)))


def energy(u: np.ndarray, lam: float, m: int) -> float:
    t = 2.0 * m * u
    tmax = float(t.max())
    log_mass = tmax + math.log(float(np.mean(np.exp(t - tmax))))
    return 0.5 * norm_sq(u, m) - lam / (2.0 * m) * log_mass


def pairing_gap(u: np.ndarray, lam: float, m: int) -> float:
    """| ||u||^2 - lam * integral(W u) |, zero at every solution."""
    return abs(norm_sq(u, m) - lam * float(np.mean(exp_weight(u, m) * u)))


def read_csv_row(path) -> dict[str, str]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == 1, f"{path}: expected one data row, found {len(rows)}")
    return rows[0]


def check_mp_outputs(out_dirs: dict[float, Path], m: int) -> None:
    """Check `torusmf mp` outputs, one directory per lambda, lambdas increasing."""
    levels = []
    for lam, out in out_dirs.items():
        summary = read_csv_row(out / "mp" / "summary.csv")
        file_m, u = read_pbfld(out / "mp" / "maximizer.pbfld")
        require(file_m == m, f"lam={lam}: field has m={file_m}, expected {m}")
        require(float(summary["lambda"]) == lam and summary["converged"] == "true",
                f"lam={lam}: summary row {summary}")
        mean = float(u.mean())
        require(abs(mean) <= MEAN_RTOL * (1.0 + float(np.abs(u).max())),
                f"lam={lam}: field mean {mean:.3e} is not zero")
        res = residual_l2(u, lam, m)
        require(res <= RESIDUAL_MAX, f"lam={lam}: residual {res:.3e} > {RESIDUAL_MAX}")
        nsq = norm_sq(u, m)
        require(math.sqrt(nsq) >= NORM_MIN, f"lam={lam}: norm {math.sqrt(nsq):.3e} < {NORM_MIN}")
        e = energy(u, lam, m)
        require(e > 0.0, f"lam={lam}: energy {e:.6e} is not positive")
        e_csv = float(summary["energy"])
        require(abs(e - e_csv) <= ENERGY_RTOL * max(1.0, abs(e)),
                f"lam={lam}: energy {e:.17g} vs summary.csv {e_csv:.17g}")
        gap = pairing_gap(u, lam, m)
        require(gap <= PAIRING_RTOL * max(1.0, nsq), f"lam={lam}: pairing gap {gap:.3e}")
        levels.append((lam, float(summary["c_estimate"])))
    for (lam_a, c_a), (lam_b, c_b) in zip(levels, levels[1:]):
        require(c_a > c_b, f"pass level c({lam_a})={c_a} not above c({lam_b})={c_b}")


def sphere_volume(dim: int) -> float:
    return 2.0 * math.pi ** ((dim + 1) / 2) / math.gamma((dim + 1) / 2)


def regime_bound(m: int) -> float:
    """Lambda1/(8m) with Lambda1 = (2m-1)! vol(S^2m); pi^2 for m = 2."""
    return math.factorial(2 * m - 1) * sphere_volume(2 * m) / (8.0 * m)


def check_nonexistence(rows, reported_bound: float, m: int) -> None:
    """No nontrivial solution at any lambda, and the stated regime bound."""
    for r in rows:
        require(r.n_nontrivial == 0, f"lam={r.lam}: {r.n_nontrivial} nontrivial solutions")
    bound = regime_bound(m)
    require(math.isclose(reported_bound, bound, rel_tol=1e-12),
            f"regime bound {reported_bound!r} != Lambda1/(8m) = {bound!r}")
