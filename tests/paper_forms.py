"""The paper's expanded closed forms of the asymmetric optima, kept verbatim.

The library computes every sc/se optimum by one route: a root of the shared
stationarity cubic, the factored efficiency or COP ratio at that root, and
the cube-root relation of the Omega optimum.  The expressions below are the
paper's hand-expanded trigonometric forms, transcribed term by term; the
library does not use them, and ``test_paper_forms.py`` checks the route
against them.  Each function returns the value only.

The cubic helpers at the end are the suite's one root-finding harness, for
the tests that solve a cubic of their own: ``Monic``/``monic`` and
``paper_cubic`` (the stationarity cubic of ``ottolab.model``, made monic),
``discriminant`` and its paper closed form ``paper_discriminant``,
``random_trig_cubics`` (seeded cubics with three real roots), ``solve`` and
``root`` (``cubic.branch_roots`` over a column of ``Monic`` values, and on
one cubic), and ``bisect_root``, the independent reference for a root, in
float or mpf.
"""

import math
import random
from typing import NamedTuple

from ottolab.cubic import branch_roots
from ottolab.cycle import Regime
from ottolab.model import stationarity

_OFFSET = 4.0 * math.pi / 3.0


def _cos_acos_third(x):
    """cos(arccos(x)/3), continued as cosh(arccosh(x)/3) for x > 1."""
    if x >= 1.0:
        return math.cosh(math.acosh(x) / 3.0)
    if x < -1.0:
        if x < -1.0 - 1e-12:
            raise ValueError(f"arccos argument {x!r} below -1")
        x = -1.0
    return math.cos(math.acos(x) / 3.0)


def z_star_max_eta(regime, tau):
    if regime is Regime.SUDDEN_COMPRESSION:
        arg = -math.sqrt(tau * (2.0 - tau))
        angle = math.acos(arg) / 3.0
        return 2.0 * math.sqrt(tau / (2.0 - tau)) * math.cos(angle)
    arg = (2.0 - (4.0 - tau) * tau) / (tau * tau)
    cos_term = _cos_acos_third(arg)
    offset = tau * cos_term
    return tau / 2.0 + offset


def eta_max(regime, tau):
    if regime is Regime.SUDDEN_COMPRESSION:
        arg = -math.sqrt(tau * (2.0 - tau))
        angle = math.acos(arg) / 3.0
        c = math.cos(angle)
        cos_double = 2.0 * c * c - 1.0
        num = 16.0 * math.sqrt(tau / (2.0 - tau)) * c**3 - tau - 4.0 * (tau + 2.0) * c * c + 2.0
        den = (1.0 + 2.0 * cos_double) * (tau - 2.0)
        return num / den
    arg = (2.0 - (4.0 - tau) * tau) / (tau * tau)
    cos_term = _cos_acos_third(arg)
    f = tau * cos_term
    return (
        (2.0 - tau - 2.0 * f)
        * (4.0 * f * (tau + 1.0) - tau * (6.0 - tau) + 4.0 * f * f)
        / (16.0 * f - 8.0 * tau)
    )


def z_star_max_omega(regime, tau):
    if regime is Regime.SUDDEN_COMPRESSION:
        eta_c = 1.0 - tau
        arg = -math.sqrt(1.0 - eta_c * eta_c)
        angle = math.acos(arg) / 3.0
        c = math.cos(angle)
        cos_double = 2.0 * c * c - 1.0
        cube = tau + tau * (
            tau - 2.0 + 4.0 * (2.0 + tau) * c * c
            - 16.0 * (math.sqrt(tau / (2.0 - tau)) * c**3)
        ) / (2.0 * (tau - 2.0) * (1.0 + 2.0 * cos_double))
        return cube ** (1.0 / 3.0)
    arg = (2.0 + (tau - 4.0) * tau) / (tau * tau)
    cos_term = _cos_acos_third(arg)
    cos_double = 2.0 * cos_term * cos_term - 1.0
    cube = tau + tau * (tau - 2.0 + 2.0 * tau * cos_term) * (
        3.0 * tau - 6.0 + 4.0 * (1.0 + tau) * cos_term + 2.0 * tau * cos_double
    ) / (32.0 * cos_term - 16.0)
    return cube ** (1.0 / 3.0)


def eta_at_max_omega(regime, eta_c):
    if regime is Regime.SUDDEN_COMPRESSION:
        arg = -math.sqrt(1.0 - eta_c * eta_c)
        angle = math.acos(arg) / 3.0
        c = math.cos(angle)
        cos_double = 2.0 * c * c - 1.0
        inner = (
            -1.0
            - 4.0 * (eta_c - 3.0) * c * c
            - eta_c
            - 16.0 * math.sqrt((1.0 - eta_c) / (1.0 + eta_c)) * c**3
        )
        cube = (1.0 - eta_c) - (1.0 - eta_c) * inner / (
            2.0 * (1.0 + 2.0 * cos_double) * (1.0 + eta_c)
        )
        k = cube ** (1.0 / 3.0)
        return (
            (k - 1.0)
            * (2.0 * k * k - (1.0 - eta_c) * (k + 1.0))
            / ((1.0 - eta_c) - (1.0 + eta_c) * k * k)
        )
    arg = (eta_c * eta_c + 2.0 * eta_c - 1.0) / ((eta_c - 1.0) ** 2)
    cos_term = _cos_acos_third(arg)
    cos_double = 2.0 * cos_term * cos_term - 1.0
    cube = (1.0 - eta_c) + (
        (1.0 / (32.0 * cos_term - 16.0))
        * (-3.0 - 4.0 * cos_term * (eta_c - 2.0) - 2.0 * cos_double * (eta_c - 1.0) - 3.0 * eta_c)
        * (1.0 - eta_c)
        * (-1.0 - eta_c - 2.0 * cos_term * (eta_c - 1.0))
    )
    copt = cube ** (1.0 / 3.0)
    return (
        (1.0 - copt)
        * (2.0 * (eta_c - 1.0) + copt * (copt + 1.0))
        / (2.0 * (copt + eta_c - 1.0))
    )


def z_star_max_cop(regime, zeta_c):
    if regime is Regime.SUDDEN_COMPRESSION:
        arg = -math.sqrt(zeta_c * (2.0 + zeta_c)) / (1.0 + zeta_c)
        angle = math.acos(arg) / 3.0
        return 2.0 * math.sqrt(zeta_c / (2.0 + zeta_c)) * math.cos(angle + _OFFSET)
    arg = (2.0 - zeta_c * zeta_c) / (zeta_c * zeta_c)
    angle = math.acos(arg) / 3.0
    return zeta_c / (2.0 * (1.0 + zeta_c)) + (zeta_c / (1.0 + zeta_c)) * math.cos(
        angle + _OFFSET
    )


def cop_max(regime, zeta_c):
    if regime is Regime.SUDDEN_COMPRESSION:
        arg = -math.sqrt(zeta_c * (2.0 + zeta_c)) / (1.0 + zeta_c)
        angle = math.acos(arg) / 3.0
        g = -math.cos(angle + _OFFSET)  # equals sin(pi/6 - angle)
        s = math.sqrt(zeta_c / (2.0 + zeta_c))
        num = 8.0 * g * g * zeta_c * (zeta_c + 2.0 * g * (1.0 + zeta_c) * s)
        den = (
            (2.0 + zeta_c)
            * (1.0 + 2.0 * g * s)
            * (
                zeta_c * (1.0 - 2.0 * g * s)
                - 8.0 * g * g * zeta_c * (1.0 + zeta_c) / (2.0 + zeta_c)
            )
        )
        return num / den
    arg = (2.0 - zeta_c * zeta_c) / (zeta_c * zeta_c)
    angle = math.acos(arg) / 3.0
    j = zeta_c / (2.0 * (1.0 + zeta_c)) + zeta_c * math.cos(angle + _OFFSET) / (
        1.0 + zeta_c
    )
    return (
        j
        * (2.0 * zeta_c - (1.0 + zeta_c) * (1.0 + j * j))
        / ((j - 1.0) * (j * (j + 1.0) * (1.0 + zeta_c) - 2.0 * zeta_c))
    )


def cop_at_max_omega(regime, zeta_c):
    peak = cop_max(regime, zeta_c)
    z_opt = (peak * zeta_c / ((1.0 + zeta_c) * (2.0 + peak))) ** (1.0 / 3.0)
    if regime is Regime.SUDDEN_COMPRESSION:
        return (
            2.0 * z_opt * z_opt * (zeta_c - z_opt * (1.0 + zeta_c))
            / (
                (1.0 - z_opt)
                * (zeta_c * (z_opt + 1.0) - 2.0 * z_opt * z_opt * (1.0 + zeta_c))
            )
        )
    return (
        z_opt
        * (2.0 * zeta_c - (z_opt * z_opt + 1.0) * (1.0 + zeta_c))
        / (
            (z_opt - 1.0)
            * (z_opt * (1.0 + z_opt) * (1.0 + zeta_c) - 2.0 * zeta_c)
        )
    )


class Monic(NamedTuple):
    """The monic cubic y^3 + b y^2 + c y + d."""

    b: float
    c: float
    d: float

    def __call__(self, y):
        """Residual at y (Horner)."""
        return ((y + self.b) * y + self.c) * y + self.d


def monic(a, b, c, d):
    """a y^3 + b y^2 + c y + d divided through by a."""
    return Monic(b / a, c / a, d / a)


def paper_cubic(regime, tau):
    """The stationarity cubic of an asymmetric regime, monic, from the
    coefficients of ``model.stationarity``."""
    return monic(*stationarity(regime, tau))


def discriminant(a, b, c, d):
    """Discriminant of a y^3 + b y^2 + c y + d, positive iff three distinct
    real roots.  It scales as a^4, so the monic form of the same cubic has a
    different value."""
    return (
        18.0 * a * b * c * d
        - 4.0 * b**3 * d
        + b * b * c * c
        - 4.0 * a * c**3
        - 27.0 * a * a * d * d
    )



def paper_discriminant(regime, tau):
    """The paper's closed form of ``discriminant(*stationarity(regime, tau))``:
    108 tau^3 (2 - tau)(1 - tau)^2 for sc, 108 tau^2 (2 tau - 1)(1 - tau)^2
    for se."""
    if regime == "sc":
        return 108.0 * tau**3 * (2.0 - tau) * (1.0 - tau) ** 2
    return 108.0 * tau * tau * (2.0 * tau - 1.0) * (1.0 - tau) ** 2


def random_trig_cubics(count, seed):
    """count seeded monic cubics with three distinct real roots: a, b, c, d
    uniform on [-5, 5], a redrawn while |a| < 1/2 and the draw rejected
    unless its discriminant is positive."""
    rng = random.Random(seed)
    cubics = []
    while len(cubics) < count:
        a = rng.uniform(-5.0, 5.0)
        if abs(a) < 0.5:
            continue
        b, c, d = (rng.uniform(-5.0, 5.0) for _ in range(3))
        if discriminant(a, b, c, d) <= 0.0:
            continue
        cubics.append(monic(a, b, c, d))
    return cubics


def solve(cubics, branch):
    """``branch_roots`` over a column of ``Monic`` values."""
    return branch_roots(
        [m.b for m in cubics], [m.c for m in cubics], [m.d for m in cubics], branch
    )


def root(m, branch):
    """The root of one cubic: ``branch_roots`` on a column of one."""
    return solve([m], branch)[0][0]


def bisect_root(f, lo, hi, steps=200):
    """Sign-change bisection of f on [lo, hi], in float or mpf: the
    independent reference for a root.  Returns the first midpoint where f
    is exactly 0, else the midpoint of the last bracket."""
    f_lo = f(lo)
    assert f_lo * f(hi) < 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        f_mid = f(mid)
        if f_mid == 0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2
