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

Each closed-form evaluation also returns a trace of its named intermediate
quantities (arccos argument, angle or cosine term, optimizer ratios) so
tests can pin the intermediates independently of the final value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

#: the closed forms degenerate at both ends of the eta_c axis
EDGE = 1e-6

#: numeric slack admitted at feasibility boundaries
BOUNDARY_SLACK = 1e-12


class TracedValue(NamedTuple):
    """A closed-form result plus its named intermediate quantities."""

    value: float
    trace: dict[str, float]


@dataclass(frozen=True)
class EnginePoint:
    """One operating point: ratio, efficiency, work, heat, Omega value."""

    z: float
    eta: float
    w: float
    q_h: float
    omega_value: float


@dataclass(frozen=True)
class TaylorCoeffs:
    """Coefficients of eta_c, eta_c^2, eta_c^3 in the near-equilibrium
    expansion of the efficiency at maximum Omega."""

    c1: float
    c2: float
    c3: float


def _require_asymmetric(regime: Regime) -> None:
    if regime not in ASYMMETRIC_REGIMES:
        raise DomainError(f"operation defined for the sc/se regimes only, got {regime}")


def _check_eta_c(eta_c: float) -> None:
    if not EDGE <= eta_c <= 1.0 - EDGE:
        raise DomainError(
            f"eta_c={eta_c!r} outside [{EDGE}, {1.0 - EDGE}]; the closed forms "
            f"degenerate at both ends"
        )


def _check_tau(tau: float, allow_unity: bool = False) -> None:
    hi = 1.0 if allow_unity else 1.0 - EDGE
    if not EDGE <= tau <= hi:
        raise DomainError(f"tau={tau!r} outside [{EDGE}, {hi}]")


def _checked_quantities(regime: Regime, z: float, tau: float) -> tuple[float, float]:
    """(q_h, w) at an operating point, rejecting points outside the engine
    window with the violated condition spelled out."""
    _require_asymmetric(regime)
    _check_tau(tau)
    if not 0.0 < z <= 1.0:
        raise DomainError(f"compression ratio z={z!r} outside (0, 1]")
    q_h, w = high_t_engine_quantities(regime, ReducedParams(z, tau))
    if w < -BOUNDARY_SLACK:
        raise DomainError(
            f"positive work condition violated at z={z}, tau={tau} "
            f"(w={w!r} < 0); engine window is {feasible_interval(Device.ENGINE, regime, tau)}"
        )
    if q_h < -BOUNDARY_SLACK:
        raise DomainError(
            f"input heat is not positive at z={z}, tau={tau} (q_h={q_h!r} < 0)"
        )
    return q_h, w


def _eta_ratio(regime: Regime, z: float, tau: float) -> float:
    """Factored w/q_h of an asymmetric regime, without the window checks."""
    if regime is Regime.SUDDEN_COMPRESSION:
        return (2.0 * z * z - tau * z - tau) * (1.0 - z) / (z * z * (2.0 - tau) - tau)
    return (z * z - 2.0 * tau + z) * (z - 1.0) / (2.0 * (tau - z))


def eta_ht(regime: Regime, z: float, tau: float) -> float:
    """High-temperature efficiency of the asymmetric engine at ratio z."""
    _checked_quantities(regime, z, tau)
    return _eta_ratio(regime, z, tau)


def _max_eta_root(regime: Regime, tau: float) -> tuple[float, dict[str, float]]:
    """z*, the k = 0 root of the stationarity cubic, with its trace: the
    arccos argument and either the angle (sc) or the cosine term (se, whose
    argument exceeds 1 for tau < 1/2)."""
    z, arg, cos_term = branch_root(*stationarity_cubic(regime, tau), 0)
    if regime is Regime.SUDDEN_COMPRESSION:
        return z, {"arccos_arg": arg, "angle": math.acos(arg) / 3.0}
    return z, {"arccos_arg": arg, "cos_term": cos_term}


def _omega_root(regime: Regime, tau: float) -> tuple[float, float, dict[str, float]]:
    """(z_Omega, z_Omega^3, trace of z*) from z_Omega^3 = tau (2 - eta_max)/2."""
    z, trace = _max_eta_root(regime, tau)
    cube = tau * (2.0 - _eta_ratio(regime, z, tau)) / 2.0
    return cube ** (1.0 / 3.0), cube, trace


def z_star_max_eta(regime: Regime, tau: float) -> TracedValue:
    """Ratio maximizing the efficiency: the k = 0 root of the stationarity
    cubic."""
    _require_asymmetric(regime)
    _check_tau(tau, allow_unity=True)
    z, trace = _max_eta_root(regime, tau)
    if regime is Regime.SUDDEN_EXPANSION:
        trace["offset_term"] = tau * trace["cos_term"]
    return TracedValue(z, trace)


def eta_max(regime: Regime, tau: float) -> TracedValue:
    """Maximum attainable efficiency of the asymmetric engine: the
    efficiency ratio at ``z_star_max_eta``."""
    _require_asymmetric(regime)
    _check_tau(tau)
    z, trace = _max_eta_root(regime, tau)
    if regime is Regime.SUDDEN_EXPANSION:
        trace["offset_term"] = tau * trace["cos_term"]
    trace["z_at_max"] = z
    return TracedValue(_eta_ratio(regime, z, tau), trace)


def omega_objective(regime: Regime, z: float, tau: float) -> float:
    """Omega(z) = 2 w - eta_max * q_h, the useful-vs-lost energy trade-off."""
    q_h, w = _checked_quantities(regime, z, tau)
    return 2.0 * w - eta_max(regime, tau).value * q_h


def z_star_max_omega(regime: Regime, tau: float) -> TracedValue:
    """Ratio maximizing Omega, the real cube root of tau (2 - eta_max)/2."""
    _require_asymmetric(regime)
    _check_tau(tau)
    z, cube, trace = _omega_root(regime, tau)
    trace["z_cubed"] = cube
    return TracedValue(z, trace)


def eta_at_max_omega(regime: Regime, eta_c: float) -> TracedValue:
    """Efficiency at the maximum of the Omega function.

    Covers both asymmetric regimes and the two symmetric benchmarks; only
    the Carnot efficiency enters.
    """
    _check_eta_c(eta_c)
    if regime in ASYMMETRIC_REGIMES:
        tau = 1.0 - eta_c
        z, _, trace = _omega_root(regime, tau)
        trace["z_opt"] = z
        return TracedValue(_eta_ratio(regime, z, tau), trace)
    if regime is Regime.ADIABATIC:
        radicand = (2.0 - eta_c) * (1.0 - eta_c) / 2.0
        z_opt = math.sqrt(radicand)
        return TracedValue(1.0 - z_opt, {"radicand": radicand, "z_opt": z_opt})
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
    z_opt = math.sqrt(radical / (2.0 * (1.0 + eta_c)))
    return TracedValue(value, {"radical_term": radical, "z_opt": z_opt})


def eta_max_work(regime: Regime, eta_c: float) -> float:
    """Efficiency at maximum work output (the work optimum sits at
    z = tau^(1/3) in both asymmetric regimes)."""
    _require_asymmetric(regime)
    _check_eta_c(eta_c)
    root = (1.0 - eta_c) ** (1.0 / 3.0)
    if regime is Regime.SUDDEN_COMPRESSION:
        return (3.0 * root - 3.0 + eta_c) / (root - 1.0 - eta_c)
    gap = 1.0 - root * root
    return (3.0 * gap - 2.0 * eta_c) / (2.0 * gap)


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


def fractional_loss(eta: float, eta_c: float) -> float:
    """Fractional loss of work, eta_c/eta - 1: lost work per unit extracted."""
    if not 0.0 < eta_c < 1.0:
        raise DomainError(f"eta_c={eta_c!r} outside (0, 1)")
    if eta <= 0.0:
        raise DomainError(f"efficiency must be positive, got {eta!r}")
    if eta > eta_c + BOUNDARY_SLACK:
        raise DomainError(f"efficiency {eta!r} exceeds the Carnot bound {eta_c!r}")
    return eta_c / eta - 1.0


def fractional_loss_max_work(regime: Regime, eta_c: float) -> float:
    """Closed form of the fractional work loss at maximum work output."""
    _require_asymmetric(regime)
    _check_eta_c(eta_c)
    root = (1.0 - eta_c) ** (1.0 / 3.0)
    if regime is Regime.SUDDEN_COMPRESSION:
        return (root * (3.0 - eta_c) + eta_c * (2.0 + eta_c) - 3.0) / (
            3.0 - eta_c - 3.0 * root
        )
    root2 = root * root
    return (root2 * (2.0 * eta_c - 3.0) - 4.0 * eta_c + 3.0) / (
        3.0 * root2 + 2.0 * eta_c - 3.0
    )


def point_at(regime: Regime, z: float, tau: float) -> EnginePoint:
    """Assemble the full operating record at one (z, tau)."""
    q_h, w = _checked_quantities(regime, z, tau)
    eta = eta_ht(regime, z, tau)
    omega = 2.0 * w - eta_max(regime, tau).value * q_h
    return EnginePoint(z=z, eta=eta, w=w, q_h=q_h, omega_value=omega)
