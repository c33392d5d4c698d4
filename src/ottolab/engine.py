"""Engine-side closed forms in the high-temperature limit.

Everything here is a function of the reduced coordinates alone: the
compression ratio z and either the temperature ratio tau or the Carnot
efficiency eta_c = 1 - tau.  The trade-off objective maximized throughout is

    Omega(z) = 2 w(z) - eta_max * q_h(z),

with eta_max the same-regime maximum attainable efficiency.

For both asymmetric regimes every optimum takes one route.  The ratio z* of
maximum efficiency is the k = 0 root of the regime's stationarity cubic
(``cycle.stationarity_cubic``, solved by ``cubic.branch_root``); eta_max is
the factored efficiency ratio w/q_h evaluated at z*.  The Omega condition
then collapses to z_Omega^3 = tau (2 - eta_max)/2, and the efficiency at
maximum Omega is the same ratio at z_Omega.  The symmetric benchmarks (adi,
ss) have quadratic stationarity conditions and keep their own closed forms.

One private core, ``_omega_core``, evaluates the Omega optimum of a regime
at one tau, unchecked and without a trace, and returns its raw numbers as a
tuple.  Every public optimum checks its input, calls the core and builds its
result from that tuple; ``tables`` calls it once per (row, regime) after one
tau check per row.  The max-work forms and the fractional loss are split the
same way (``_max_work_terms``/``_max_work`` and ``_loss``).

Domain: every public entry turns its coordinate into tau (eta_c into
1 - eta_c) and applies one rule, tau in [EDGE, 1 - EDGE]; a ratio z must
also lie in the closed engine window of ``cycle.feasible_interval``.

Each closed-form evaluation also returns a trace of its named intermediate
quantities (arccos argument, angle or cosine term, optimizer ratios) so
tests can pin the intermediates independently of the final value.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .cubic import branch_root
from .cycle import (
    ASYMMETRIC_REGIMES,
    Device,
    Regime,
    ReducedParams,
    feasible_interval,
    high_t_engine_quantities,
    stationarity_cubic,
)
from .errors import DomainError

__all__ = [
    "TracedValue",
    "EnginePoint",
    "TaylorCoeffs",
    "eta_ht",
    "z_star_max_eta",
    "eta_max",
    "omega_objective",
    "z_star_max_omega",
    "eta_at_max_omega",
    "eta_max_work",
    "taylor_coeffs",
    "fractional_loss",
    "fractional_loss_max_work",
    "point_at",
]

#: the closed forms degenerate at both ends of the tau axis
EDGE = 1e-6

#: numeric slack admitted above the Carnot bound of ``fractional_loss``
BOUNDARY_SLACK = 1e-12

#: smallest efficiency ``fractional_loss`` admits: eta_c/eta stays finite
_ETA_MIN = sys.float_info.min


class TracedValue(NamedTuple):
    """A closed-form result plus its named intermediate quantities."""

    value: float
    trace: dict[str, float]


class EnginePoint(NamedTuple):
    """One operating point: ratio, efficiency, work, heat, Omega value."""

    z: float
    eta: float
    w: float
    q_h: float
    omega_value: float


class TaylorCoeffs(NamedTuple):
    """Coefficients of eta_c, eta_c^2, eta_c^3 in the near-equilibrium
    expansion of the efficiency at maximum Omega."""

    c1: float
    c2: float
    c3: float


def _require_asymmetric(regime: Regime) -> None:
    if regime not in ASYMMETRIC_REGIMES:
        raise DomainError(f"operation defined for the sc/se regimes only, got {regime}")


def _check_tau(tau: float, eta_c: float | None = None) -> float:
    """The engine's one domain rule: tau in [EDGE, 1 - EDGE].  Returns tau.
    An entry that takes eta_c checks tau = 1 - eta_c and passes eta_c for
    the message."""
    if not EDGE <= tau <= 1.0 - EDGE:
        given = "" if eta_c is None else f"eta_c={eta_c!r}: "
        raise DomainError(
            f"{given}tau={tau!r} outside [{EDGE}, {1.0 - EDGE}]; the closed forms "
            f"degenerate at both ends"
        )
    return tau


def _checked_quantities(regime: Regime, z: float, tau: float) -> tuple[float, float]:
    """(q_h, w) at a z of the closed engine window, where neither is negative."""
    _require_asymmetric(regime)
    window = feasible_interval(Device.ENGINE, regime, _check_tau(tau))
    if not window.contains(z):
        raise DomainError(
            f"positive work condition violated at z={z!r}, tau={tau!r}: the "
            f"engine window is [{window.lo!r}, {window.hi!r}]"
        )
    return high_t_engine_quantities(regime, ReducedParams(z, tau))


def _eta_ratio(regime: Regime, z: float, tau: float) -> float:
    """Factored w/q_h of an asymmetric regime, without the window checks."""
    if regime is Regime.SUDDEN_COMPRESSION:
        return (2.0 * z * z - tau * z - tau) * (1.0 - z) / (z * z * (2.0 - tau) - tau)
    return (z * z - 2.0 * tau + z) * (z - 1.0) / (2.0 * (tau - z))


def eta_ht(regime: Regime, z: float, tau: float) -> float:
    """High-temperature efficiency of the asymmetric engine at ratio z."""
    _checked_quantities(regime, z, tau)
    return _eta_ratio(regime, z, tau)


def _omega_core(regime: Regime, tau: float, eta_c: float = math.nan) -> tuple[float, ...]:
    """Raw numbers of the Omega optimum at one tau, unchecked and untraced;
    the only route to every optimum below.

    sc/se: (z*, arccos argument, cosine term, eta_max, z_Omega^3, z_Omega,
    eta at z_Omega), with z* the k = 0 root of the stationarity cubic and
    z_Omega^3 = tau (2 - eta_max)/2.  adi: (radicand, z_opt, eta); ss:
    (radical term, z_opt, eta).  The symmetric forms are written in eta_c,
    which only they read.
    """
    if regime in ASYMMETRIC_REGIMES:
        z, arg, cos_term = branch_root(*stationarity_cubic(regime, tau), 0)
        peak = _eta_ratio(regime, z, tau)
        cube = tau * (2.0 - peak) / 2.0
        z_opt = cube ** (1.0 / 3.0)
        return z, arg, cos_term, peak, cube, z_opt, _eta_ratio(regime, z_opt, tau)
    if regime is Regime.ADIABATIC:
        radicand = (2.0 - eta_c) * (1.0 - eta_c) / 2.0
        z_opt = math.sqrt(radicand)
        return radicand, z_opt, 1.0 - z_opt
    # symmetric sudden switch: the optimizer variable is z^2, hence the
    # square root in the radical (and a quartic rather than cubic behind it)
    radical = math.sqrt(
        2.0
        * (1.0 - eta_c)
        * (2.0 + 3.0 * eta_c * eta_c + 2.0 * eta_c * math.sqrt(2.0 * (1.0 - eta_c)) + eta_c)
    )
    value = (
        (2.0 - radical - 2.0 * eta_c * eta_c)
        * (2.0 - radical + 2.0 * eta_c)
        / (2.0 * (2.0 - radical - 2.0 * eta_c) * (1.0 + eta_c) ** 2)
    )
    return radical, math.sqrt(radical / (2.0 * (1.0 + eta_c))), value


def _root_trace(regime: Regime, arg: float, cos_term: float) -> dict[str, float]:
    """Trace of z*: the arccos argument and either the angle (sc) or the
    cosine term (se, whose argument exceeds 1 for tau < 1/2)."""
    if regime is Regime.SUDDEN_COMPRESSION:
        return {"arccos_arg": arg, "angle": math.acos(arg) / 3.0}
    return {"arccos_arg": arg, "cos_term": cos_term}


def _max_eta(regime: Regime, tau: float) -> tuple[float, float, dict[str, float]]:
    """(z*, eta_max, trace of z*) through the core, tau checked."""
    _require_asymmetric(regime)
    z, arg, cos_term, peak = _omega_core(regime, _check_tau(tau))[:4]
    trace = _root_trace(regime, arg, cos_term)
    if regime is Regime.SUDDEN_EXPANSION:
        trace["offset_term"] = tau * cos_term
    return z, peak, trace


def z_star_max_eta(regime: Regime, tau: float) -> TracedValue:
    """Ratio maximizing the efficiency: the k = 0 root of the stationarity
    cubic."""
    z, _, trace = _max_eta(regime, tau)
    return TracedValue(z, trace)


def eta_max(regime: Regime, tau: float) -> TracedValue:
    """Maximum attainable efficiency of the asymmetric engine: the
    efficiency ratio at ``z_star_max_eta``."""
    z, peak, trace = _max_eta(regime, tau)
    trace["z_at_max"] = z
    return TracedValue(peak, trace)


def omega_objective(regime: Regime, z: float, tau: float) -> float:
    """Omega(z) = 2 w - eta_max * q_h, the useful-vs-lost energy trade-off."""
    q_h, w = _checked_quantities(regime, z, tau)
    return 2.0 * w - _omega_core(regime, tau)[3] * q_h


def z_star_max_omega(regime: Regime, tau: float) -> TracedValue:
    """Ratio maximizing Omega, the real cube root of tau (2 - eta_max)/2."""
    _require_asymmetric(regime)
    _, arg, cos_term, _, cube, z, _ = _omega_core(regime, _check_tau(tau))
    trace = _root_trace(regime, arg, cos_term)
    trace["z_cubed"] = cube
    return TracedValue(z, trace)


def eta_at_max_omega(regime: Regime, eta_c: float) -> TracedValue:
    """Efficiency at the maximum of the Omega function.

    Covers both asymmetric regimes and the two symmetric benchmarks; only
    the Carnot efficiency enters.  The sc/se trace also carries the
    ``eta_max`` the optimum is built from, equal to
    ``eta_max(regime, 1 - eta_c).value``.
    """
    core = _omega_core(regime, _check_tau(1.0 - eta_c, eta_c), eta_c)
    if regime in ASYMMETRIC_REGIMES:
        _, arg, cos_term, peak, _, z_opt, value = core
        trace = _root_trace(regime, arg, cos_term)
        trace["eta_max"] = peak
        trace["z_opt"] = z_opt
        return TracedValue(value, trace)
    term, z_opt, value = core
    key = "radicand" if regime is Regime.ADIABATIC else "radical_term"
    return TracedValue(value, {key: term, "z_opt": z_opt})


def _max_work_terms(eta_c: float) -> tuple[float, float]:
    """(g, r) of the max-work forms: g = 1 - tau^(1/3) through expm1/log1p,
    which keeps its digits as eta_c -> 0, and r = tau^(1/3) as a power."""
    return -math.expm1(math.log1p(-eta_c) / 3.0), (1.0 - eta_c) ** (1.0 / 3.0)


def _max_work(regime: Regime, g: float, r: float) -> tuple[float, float]:
    """(eta_mw, r_mw) from ``_max_work_terms``, unchecked.  With eta_c =
    g (1 + r + r^2) both factor into ratios of positive terms; the
    efficiency is g times a ratio in which 1 - g serves for r, since r
    enters only next to terms of order 1."""
    r_g = 1.0 - g
    if regime is Regime.SUDDEN_COMPRESSION:
        return (
            g * (r_g + 2.0) / (2.0 + r_g + r_g * r_g),
            r * (2.0 + r * (4.0 + r * (2.0 + r))) / (r + 2.0),
        )
    return (
        g * (1.0 + 2.0 * r_g) / (2.0 * (1.0 + r_g)),
        (1.0 + r * (2.0 + r * (4.0 + 2.0 * r))) / (1.0 + 2.0 * r),
    )


def eta_max_work(regime: Regime, eta_c: float) -> float:
    """Efficiency at maximum work output (the work optimum sits at
    z = r = tau^(1/3) in both asymmetric regimes)."""
    _require_asymmetric(regime)
    _check_tau(1.0 - eta_c, eta_c)
    return _max_work(regime, *_max_work_terms(eta_c))[0]


_SQRT3 = math.sqrt(3.0)


def taylor_coeffs(regime: Regime) -> TaylorCoeffs:
    """Near-equilibrium expansion coefficients of the efficiency at maximum
    Omega; the linear term is regime-independent."""
    _require_asymmetric(regime)
    c1 = 11.0 * _SQRT3 / 4.0 - 9.0 / 2.0
    if regime is Regime.SUDDEN_COMPRESSION:
        return TaylorCoeffs(
            c1,
            (8339.0 - 4804.0 * _SQRT3) / 144.0,
            5.0 * (-179246.0 + 103503.0 * _SQRT3) / 1728.0,
        )
    return TaylorCoeffs(
        c1,
        (1414.0 - 815.0 * _SQRT3) / 36.0,
        (-93262.0 + 53853.0 * _SQRT3) / 432.0,
    )


def _loss(eta: float, eta_c: float) -> float:
    """eta_c/eta - 1 for an eta in [_ETA_MIN, eta_c + BOUNDARY_SLACK], with
    eta_c already checked."""
    if not _ETA_MIN <= eta <= eta_c + BOUNDARY_SLACK:
        raise DomainError(
            f"efficiency {eta!r} is not a normal float in (0, {eta_c!r}], the Carnot bound"
        )
    return eta_c / eta - 1.0


def fractional_loss(eta: float, eta_c: float) -> float:
    """Fractional loss of work, eta_c/eta - 1: lost work per unit extracted."""
    _check_tau(1.0 - eta_c, eta_c)
    return _loss(eta, eta_c)


def fractional_loss_max_work(regime: Regime, eta_c: float) -> float:
    """Closed form of the fractional work loss at maximum work output,
    eta_c/eta_mw - 1, factored in r = tau^(1/3) (no cancelling terms)."""
    _require_asymmetric(regime)
    _check_tau(1.0 - eta_c, eta_c)
    return _max_work(regime, *_max_work_terms(eta_c))[1]


def point_at(regime: Regime, z: float, tau: float) -> EnginePoint:
    """Assemble the full operating record at one (z, tau)."""
    q_h, w = _checked_quantities(regime, z, tau)
    eta = _eta_ratio(regime, z, tau)
    omega = 2.0 * w - _omega_core(regime, tau)[3] * q_h
    return EnginePoint(z=z, eta=eta, w=w, q_h=q_h, omega_value=omega)
