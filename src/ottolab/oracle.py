"""Derivative-free scalar maximization and finite differences.

This is the package's independent verification machinery: it knows nothing
about thermodynamics, only about scalar functions on an interval.  Every
closed-form optimum elsewhere in the package is replayed against it in the
test and verification suites, so it deliberately shares no code with the
analytic modules.

Method: a coarse grid scan brackets the global maximum, then golden-section
search refines the bracket to the requested x-tolerance.  Grid-then-golden
beats derivative-based methods here because the objectives are cheap, smooth
and unimodal on their feasible windows, and the oracle must not reuse the
derivative algebra it is meant to check.  Everything is deterministic:
identical problems yield bit-identical reports.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import NoFeasiblePointError

__all__ = ["ScalarProblem", "OptimumReport", "maximize", "central_derivative"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: relative endpoint margin, keeps the optimizer off boundary singularities
EDGE_MARGIN = 1e-9


class _ProblemFields(NamedTuple):
    objective: Callable[[float], float]
    lo: float
    hi: float
    tolerance: float


class ScalarProblem(_ProblemFields):
    """A one-dimensional maximization task on the open interval (lo, hi)."""

    __slots__ = ()

    def __new__(
        cls,
        objective: Callable[[float], float],
        lo: float,
        hi: float,
        tolerance: float = 1e-10,
    ) -> ScalarProblem:
        if not lo < hi:
            raise ValueError(f"empty domain ({lo}, {hi})")
        if tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        return tuple.__new__(cls, (objective, lo, hi, tolerance))

    @classmethod
    def _make(cls, iterable) -> ScalarProblem:
        # ``_replace`` builds through ``_make``: validate there too
        return cls(*iterable)


class OptimumReport(NamedTuple):
    x_star: float
    f_star: float
    evaluations: int
    bracket: tuple[float, float]


def maximize(problem: ScalarProblem, grid_points: int = 512) -> OptimumReport:
    """Globally bracket and refine the maximum of a unimodal objective.

    Non-finite objective values are treated as -inf during bracketing; if the
    whole grid is non-finite there is nothing to refine and
    NoFeasiblePointError is raised.
    """
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    margin = EDGE_MARGIN * (problem.hi - problem.lo)
    lo, hi = problem.lo + margin, problem.hi - margin
    evaluations = grid_points  # the scan below; f counts the golden-section steps

    def f(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        value = problem.objective(x)
        return value if math.isfinite(value) else -math.inf

    step = (hi - lo) / (grid_points - 1)
    xs = [lo + i * step for i in range(grid_points)]
    fs = [v if math.isfinite(v) else -math.inf for v in map(problem.objective, xs)]
    best = fs.index(max(fs))
    if fs[best] == -math.inf:
        raise NoFeasiblePointError(
            f"objective is non-finite at all {grid_points} grid points"
        )
    x_star, f_star = xs[best], fs[best]

    a = xs[best - 1] if best > 0 else lo
    b = xs[best + 1] if best < grid_points - 1 else hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > problem.tolerance:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        if fc > f_star:
            x_star, f_star = c, fc
        if fd > f_star:
            x_star, f_star = d, fd
    return OptimumReport(x_star, f_star, evaluations, (a, b))


def central_derivative(f: Callable[[float], float], x: float, h: float) -> float:
    """Richardson-extrapolated central difference, O(h^4) for smooth f."""
    if h <= 0.0:
        raise ValueError(f"step h must be positive, got {h}")

    def slope(step: float) -> float:
        above, below = f(x + step), f(x - step)
        if not (math.isfinite(above) and math.isfinite(below)):
            raise ValueError(f"non-finite samples at {x} +/- {step}")
        return (above - below) / (2.0 * step)

    return (4.0 * slope(h / 2.0) - slope(h)) / 3.0
