"""Exact polynomials in z over the rationals, and quotients of them.

A polynomial is a list of ``fractions.Fraction`` coefficients, constant
term first, with no trailing zero (the zero polynomial is ``[]``).  The
functions add, multiply, differentiate and divide them with remainder; no
value is ever rounded.  ``Quotient`` is a polynomial over a polynomial, with
the arithmetic operators, so that a rational expression in z can be typed as
it is written: ``(1 - Z) * (1 - (1 + Z) * tau / (2 * Z * Z))``.  Quotients
are not reduced; only the identities that the tests ask of them matter.
"""

from fractions import Fraction


def trim(p):
    """``p`` as Fractions, without trailing zeros."""
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p):
    """The degree of ``p``; -1 for the zero polynomial."""
    return len(trim(p)) - 1


def add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def mul(p, q):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def sub(p, q):
    return add(p, mul([-1], q))


def derivative(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def divide(p, q):
    """(quotient, remainder) of ``p`` by the nonzero ``q``: p = quotient q +
    remainder, with the remainder of lower degree than ``q``."""
    q = trim(q)
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    remainder, quotient = trim(p), [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(remainder) >= len(q):
        shift = len(remainder) - len(q)
        factor = remainder[-1] / q[-1]
        quotient[shift] = factor
        remainder = sub(remainder, mul([0] * shift + [factor], q))
    return trim(quotient), remainder


class Quotient:
    """The rational function ``num / den`` of two polynomials in z."""

    def __init__(self, num, den=(1,)):
        self.num, self.den = trim(num), trim(den)
        if not self.den:
            raise ZeroDivisionError("a quotient over the zero polynomial")

    @staticmethod
    def of(x):
        return x if isinstance(x, Quotient) else Quotient([x])

    def __add__(self, other):
        other = Quotient.of(other)
        return Quotient(
            add(mul(self.num, other.den), mul(other.num, self.den)), mul(self.den, other.den)
        )

    def __mul__(self, other):
        other = Quotient.of(other)
        return Quotient(mul(self.num, other.num), mul(self.den, other.den))

    def __truediv__(self, other):
        other = Quotient.of(other)
        return Quotient(mul(self.num, other.den), mul(self.den, other.num))

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -Quotient.of(other)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return Quotient.of(other) - self

    def __rtruediv__(self, other):
        return Quotient.of(other) / self

    def derivative_numerator(self):
        """The numerator num' den - num den' of d(num/den)/dz."""
        return sub(mul(derivative(self.num), self.den), mul(self.num, derivative(self.den)))

    def equals(self, other):
        """Whether the two quotients are one rational function."""
        return mul(self.num, other.den) == mul(other.num, self.den)


#: the variable z
Z = Quotient([0, 1])
