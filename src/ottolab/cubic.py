"""Trigonometric solution of real cubics.

For the monic cubic y^3 + b y^2 + c y + d with p = b^2 - 3c > 0, the real
roots are

    y_k = -b/3 + (2/3) sqrt(p) * cos[ (1/3) arccos(A) + 2 pi k / 3 ],
    A = -(2b^3 - 9bc + 27d) / (2 p^{3/2}),          k in {0, 1, 2},

when |A| <= 1 (three real roots, the casus irreducibilis).  For A > 1 the
cubic has a single real root, and it continues branch 0:

    y_0 = -b/3 + (2/3) sqrt(p) * cosh[ (1/3) arccosh(A) ].

``branch_root`` is the one place this is evaluated; ``trig_root`` wraps it
for ``MonicCubic`` values and adds argument checks and a Newton polish.
An argument below -1, or above 1 on branch 1 or 2, names a root the formula
does not cover and is a domain error; no Cardano/complex path is provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["MonicCubic", "discriminant", "branch_root", "trig_root", "all_roots"]

#: arccos arguments within this distance outside [-1, 1] are clamped;
#: anything farther means the cubic is genuinely outside the trig regime.
ACOS_CLAMP_TOL = 1e-12

_THIRD_TURN = 2.0 * math.pi / 3.0


def discriminant(a: float, b: float, c: float, d: float) -> float:
    """Discriminant of a y^3 + b y^2 + c y + d (positive iff three distinct
    real roots).  Note it scales as a^4: the monic form of the same cubic has
    a different discriminant value."""
    if a == 0.0:
        raise DomainError("leading coefficient is zero; not a cubic")
    return (
        18.0 * a * b * c * d
        - 4.0 * b**3 * d
        + b * b * c * c
        - 4.0 * a * c**3
        - 27.0 * a * a * d * d
    )


@dataclass(frozen=True)
class MonicCubic:
    """y^3 + b y^2 + c y + d, remembering the discriminant of the original
    (pre-division) coefficients, which is the scale-free regime test."""

    b: float
    c: float
    d: float
    discriminant: float

    @classmethod
    def from_coefficients(cls, a: float, b: float, c: float, d: float) -> "MonicCubic":
        disc = discriminant(a, b, c, d)
        return cls(b / a, c / a, d / a, disc)

    def __call__(self, y: float) -> float:
        """Residual of the monic polynomial at y (Horner)."""
        return ((y + self.b) * y + self.c) * y + self.d


def branch_root(b: float, c: float, d: float, branch: int) -> tuple[float, float, float]:
    """(root, arccos argument A, cosine term) of y^3 + b y^2 + c y + d on
    branch k, for b^2 - 3c > 0 (the caller's guarantee).

    The cosine term is cos(arccos(A)/3 + 2 pi k/3), or cosh(arccosh(A)/3) on
    the single-real-root side A > 1 of branch 0.  Otherwise an A within
    ``ACOS_CLAMP_TOL`` outside [-1, 1] is clamped, and returned clamped.
    """
    p = b * b - 3.0 * c
    sqrt_p = math.sqrt(p)
    arg = -(2.0 * b * b * b - 9.0 * b * c + 27.0 * d) / (2.0 * p * sqrt_p)
    if branch == 0 and arg > 1.0:
        cos_term = math.cosh(math.acosh(arg) / 3.0)
    else:
        if not -1.0 <= arg <= 1.0:
            if abs(arg) > 1.0 + ACOS_CLAMP_TOL:
                raise DomainError(
                    f"arccos argument {arg!r} outside [-1, 1]: no real root on "
                    f"branch {branch} in trigonometric form"
                )
            arg = math.copysign(1.0, arg)
        cos_term = math.cos(math.acos(arg) / 3.0 + _THIRD_TURN * branch)
    return -b / 3.0 + (2.0 / 3.0) * sqrt_p * cos_term, arg, cos_term


def trig_root(cubic: MonicCubic, branch: int) -> float:
    """Real root on the given branch, k in {0, 1, 2} (phase offset 2 pi k/3).

    The returned root carries residual at most ~1e-10 * max(1, |d|); a single
    guarded Newton step removes the rounding accumulated in the trig path
    without ever increasing the residual.
    """
    if branch not in (0, 1, 2):
        raise DomainError(f"branch must be 0, 1 or 2, got {branch!r}")
    b, c = cubic.b, cubic.c
    p = b * b - 3.0 * c
    if p <= 0.0:
        raise DomainError(
            f"b^2 - 3c = {p!r} is not positive: cubic has no trig solution"
        )
    y = branch_root(b, c, cubic.d, branch)[0]

    residual = cubic(y)
    slope = (3.0 * y + 2.0 * b) * y + c
    if slope != 0.0:
        refined = y - residual / slope
        if abs(cubic(refined)) < abs(residual):
            return refined
    return y


def all_roots(cubic: MonicCubic) -> tuple[float, float, float]:
    """The three branch roots, sorted ascending (distinct iff the
    discriminant is positive)."""
    r = sorted(trig_root(cubic, k) for k in (0, 1, 2))
    return r[0], r[1], r[2]
