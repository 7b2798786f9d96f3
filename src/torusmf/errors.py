"""Exception types shared across the toolkit.

Validation problems (bad arguments, mismatched grids, unresolvable
parameters) derive from ValueError, numerical failures at run time (no
mountain-pass anchor, quadrature breakdown) from RuntimeError, and a violated
numerical invariant raises ArithmeticError; the CLI exits 2 on the first, 3
on the others.  A failed Newton solve does not raise: converged=False says so.
"""

from __future__ import annotations


class UnresolvedBubbleError(ValueError):
    """Grid too coarse to resolve the concentration core of a peaked profile."""

    def __init__(self, n: int, required_n: int, sigma: float, alpha: float):
        self.n = int(n)
        self.required_n = int(required_n)
        super().__init__(
            f"under-resolution: n={n} gives {n * alpha / sigma:.2f} grid points across "
            f"the core half-width alpha/sigma={alpha / sigma:.3g}; need n >= {required_n}"
        )


class ConvergenceError(RuntimeError):
    """An iterative procedure stalled before its target; floor is the deepest energy reached."""

    def __init__(self, message: str, floor: float):
        self.floor = float(floor)
        super().__init__(message)


class QuadratureError(RuntimeError):
    """Radial quadrature whose two Gauss-Legendre orders disagree beyond its tolerance."""
