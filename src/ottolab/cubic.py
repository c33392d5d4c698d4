"""Trigonometric solution of real cubics.

For the monic cubic y^3 + b y^2 + c y + d with p = b^2 - 3c > 0, the real
roots are

    y_k = -b/3 + (2/3) sqrt(p) * cos[ (1/3) arccos(A) + 2 pi k / 3 ],
    A = -(2b^3 - 9bc + 27d) / (2 p^{3/2}),          k in {0, 1, 2},

when |A| <= 1 (three real roots, the casus irreducibilis).  For A > 1 the
cubic has a single real root, and it continues branch 0:

    y_0 = -b/3 + (2/3) sqrt(p) * cosh[ (1/3) arccosh(A) ].

``branch_roots`` is the module's one export: it evaluates this over
columns of cubics, and every closed-form optimum takes its root from it.  It
needs no separate regime test, because A is one: a branch outside
{0, 1, 2}, a b^2 - 3c that is not positive, and an A that is nan, below -1,
or above 1 on branch 1 or 2 name a root the formula does not cover and are
domain errors; no Cardano/complex path is provided.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["branch_roots"]

#: arccos arguments within this distance outside [-1, 1] are clamped;
#: anything farther means the cubic is genuinely outside the trig regime.
ACOS_CLAMP_TOL = 1e-12

_THIRD_TURN = 2.0 * math.pi / 3.0


def _edge_arg(arg: float, branch: int) -> float:
    """An arccos argument outside [-1, 1] (or nan): kept above 1 on branch 0,
    where the cosh continuation takes it, clamped within ``ACOS_CLAMP_TOL``,
    and a domain error otherwise (nan included)."""
    if branch == 0 and arg > 1.0:
        return arg
    if not abs(arg) <= 1.0 + ACOS_CLAMP_TOL:
        raise DomainError(
            f"arccos argument {arg!r} outside [-1, 1]: no real root on "
            f"branch {branch} in trigonometric form"
        )
    return math.copysign(1.0, arg)


def branch_roots(
    bs: list[float], cs: list[float], ds: list[float], branch: int
) -> tuple[list[float], list[float], list[float]]:
    """Columns (roots, arccos arguments A, cosine terms) of the cubics
    y^3 + b y^2 + c y + d on branch k in {0, 1, 2}, each with b^2 - 3c > 0.

    The cosine term is cos(arccos(A)/3 + 2 pi k/3), or cosh(arccosh(A)/3) on
    the single-real-root side A > 1 of branch 0.  Otherwise an A within
    ``ACOS_CLAMP_TOL`` outside [-1, 1] is clamped, and returned clamped.
    """
    if branch not in (0, 1, 2):
        raise DomainError(f"branch must be 0, 1 or 2, got {branch!r}")
    ps = [b * b - 3.0 * c for b, c in zip(bs, cs)]
    try:
        sqrt_ps = [math.sqrt(p) for p in ps]
        args = [
            -(2.0 * b * b * b - 9.0 * b * c + 27.0 * d) / (2.0 * p * sqrt_p)
            for b, c, d, p, sqrt_p in zip(bs, cs, ds, ps, sqrt_ps)
        ]
    except (ValueError, ZeroDivisionError):
        # math.sqrt of p < 0, or a division by p^(3/2) = 0
        p = min(p for p in ps if p == p)
        raise DomainError(
            f"b^2 - 3c = {p!r} is not positive: cubic has no trig solution"
        ) from None
    args = [a if -1.0 <= a <= 1.0 else _edge_arg(a, branch) for a in args]
    offset = _THIRD_TURN * branch
    terms = [
        math.cos(math.acos(a) / 3.0 + offset) if a <= 1.0 else math.cosh(math.acosh(a) / 3.0)
        for a in args
    ]
    roots = [
        -b / 3.0 + (2.0 / 3.0) * sqrt_p * term for b, sqrt_p, term in zip(bs, sqrt_ps, terms)
    ]
    return roots, args, terms
