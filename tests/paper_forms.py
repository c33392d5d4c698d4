"""The paper's expanded closed forms of the asymmetric optima, kept verbatim.

The library computes every sc/se optimum by one route: a root of the shared
stationarity cubic, the factored efficiency or COP ratio at that root, and
the cube-root relation of the Omega optimum.  The expressions below are the
paper's hand-expanded trigonometric forms, transcribed term by term; the
library does not use them, and ``test_paper_forms.py`` checks the route
against them.  Each function returns the value only.
"""

import math

from ottolab.cycle import Regime

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
