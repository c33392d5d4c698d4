"""Derivative-free scalar maximization.

This is the package's independent verification machinery: it knows nothing
about thermodynamics, only about scalar functions on an interval.  Every
closed-form optimum elsewhere in the package is replayed against it in the
test and verification suites, so it deliberately shares no code with the
analytic modules.

Method: a coarse grid scan of ``GRID_POINTS`` points brackets the global
maximum, then golden-section search refines the bracket to the fixed
x-tolerance ``TOLERANCE``.  Grid-then-golden beats derivative-based methods
here because the objectives are cheap, smooth and unimodal on their feasible
windows, and the oracle must not reuse the derivative algebra it is meant to
check.  Everything is deterministic: identical problems yield bit-identical
reports.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from .errors import NoFeasiblePointError

__all__ = ["ScalarProblem", "OptimumReport", "maximize"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: relative endpoint margin, keeps the optimizer off boundary singularities
EDGE_MARGIN = 1e-9

#: points of the bracketing scan, and the bracket width golden-section
#: search refines to
GRID_POINTS = 512
TOLERANCE = 1e-10


class ScalarProblem(namedtuple("ScalarProblem", "objective lo hi")):
    """A one-dimensional maximization task on the open interval (lo, hi)."""

    __slots__ = ()

    def __new__(cls, objective: Callable[[float], float], lo: float, hi: float) -> ScalarProblem:
        if not lo < hi:
            raise ValueError(f"empty domain ({lo}, {hi})")
        return tuple.__new__(cls, (objective, lo, hi))

    @classmethod
    def _make(cls, iterable) -> ScalarProblem:
        # ``_replace`` builds through ``_make``: validate there too
        return cls(*iterable)


class OptimumReport(namedtuple("OptimumReport", "x_star f_star evaluations bracket")):
    """The best point found, its value, the objective calls it took and the
    final (a, b) bracket."""

    __slots__ = ()


def maximize(problem: ScalarProblem) -> OptimumReport:
    """Globally bracket and refine the maximum of a unimodal objective.

    Non-finite objective values are treated as -inf during bracketing; if the
    whole grid is non-finite there is nothing to refine and
    NoFeasiblePointError is raised.
    """
    margin = EDGE_MARGIN * (problem.hi - problem.lo)
    lo, hi = problem.lo + margin, problem.hi - margin
    evaluations = GRID_POINTS  # the scan below; f counts the golden-section steps

    def f(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        value = problem.objective(x)
        return value if math.isfinite(value) else -math.inf

    step = (hi - lo) / (GRID_POINTS - 1)
    xs = [lo + i * step for i in range(GRID_POINTS)]
    fs = [v if math.isfinite(v) else -math.inf for v in map(problem.objective, xs)]
    best = fs.index(max(fs))
    if fs[best] == -math.inf:
        raise NoFeasiblePointError(
            f"objective is non-finite at all {GRID_POINTS} grid points"
        )
    x_star, f_star = xs[best], fs[best]

    a = xs[best - 1] if best > 0 else lo
    b = xs[best + 1] if best < GRID_POINTS - 1 else hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > TOLERANCE:
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

