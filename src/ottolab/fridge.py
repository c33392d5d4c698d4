"""Refrigerator-side closed forms in the high-temperature limit.

The optimization variable is again the compression ratio z, the control
parameter is the Carnot COP zeta_c = tau/(1 - tau), and the trade-off
objective is Omega(z) = 2 q_c - zeta_max * w_in with zeta_max the
same-regime maximum COP.

Route: the COP stationarity cubics are the *same* cubics as the engine-side
efficiency optima (``cycle.stationarity_cubic``), but the cooling window
selects a different real root -- the branch with phase offset 4 pi/3
(k = 2) instead of k = 0, solved by ``cubic.branch_root``.  zeta_max is the
factored COP ratio q_c/w_in at that root; the Omega condition collapses to
z_Omega^3 = tau zeta_max/(2 + zeta_max), and the COP at maximum Omega is the
same ratio at z_Omega.  The root can equally be written with
sin(pi/6 - theta), which equals -cos(theta + 4 pi/3); the trace reports it
as ``sine_term``.  The symmetric benchmarks (adi, ss) keep their own
closed forms.

Feasibility: the sudden-expansion fridge needs q_c = tau - (1 + z^2)/2 > 0
somewhere, i.e. tau > 1/2 (zeta_c > 1); the symmetric sudden-switch fridge
has the same cooling load and the same restriction.  Both raise
InfeasibleDeviceError below that threshold, distinct from a plain bad
argument.  Every regime rejects a zeta_c that is not finite or so large that
tau = zeta_c/(1 + zeta_c) rounds to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cubic import branch_root
from .cycle import (
    ASYMMETRIC_REGIMES,
    Device,
    Regime,
    ReducedParams,
    feasible_interval,
    high_t_fridge_quantities,
    stationarity_cubic,
)
from .engine import BOUNDARY_SLACK, TracedValue
from .errors import DomainError, InfeasibleDeviceError

__all__ = [
    "FridgePoint",
    "cop_ht",
    "z_star_max_cop",
    "cop_max",
    "omega_objective",
    "cop_at_max_omega",
    "point_at",
]

@dataclass(frozen=True)
class FridgePoint:
    """One operating point: ratio, COP, cooling load, work input, Omega."""

    z: float
    zeta: float
    q_c: float
    w_in: float
    omega_value: float


def _require_asymmetric(regime: Regime) -> None:
    if regime not in ASYMMETRIC_REGIMES:
        raise DomainError(f"operation defined for the sc/se regimes only, got {regime}")


def _check_zeta_c(regime: Regime, zeta_c: float) -> float:
    """Validate zeta_c for any regime and return tau = zeta_c/(1 + zeta_c)."""
    if not 0.0 < zeta_c < math.inf:
        raise DomainError(f"zeta_c={zeta_c!r} must be positive and finite")
    tau = zeta_c / (1.0 + zeta_c)
    if tau == 1.0:
        raise DomainError(
            f"zeta_c={zeta_c!r} is too large: tau = zeta_c/(1 + zeta_c) rounds to 1"
        )
    if regime in (Regime.SUDDEN_EXPANSION, Regime.SUDDEN_SWITCH) and zeta_c <= 1.0:
        raise InfeasibleDeviceError(
            f"the {regime.value} fridge has an empty cooling window for "
            f"zeta_c={zeta_c!r}; it requires zeta_c > 1 (tau > 1/2)"
        )
    return tau


def _checked_quantities(regime: Regime, z: float, tau: float) -> tuple[float, float]:
    _require_asymmetric(regime)
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau={tau!r} outside (0, 1)")
    if regime is Regime.SUDDEN_EXPANSION and tau <= 0.5:
        raise InfeasibleDeviceError(
            f"the se fridge has an empty cooling window for tau={tau!r} <= 1/2"
        )
    if not 0.0 < z <= 1.0:
        raise DomainError(f"compression ratio z={z!r} outside (0, 1]")
    q_c, w_in = high_t_fridge_quantities(regime, ReducedParams(z, tau))
    if q_c < -BOUNDARY_SLACK:
        raise DomainError(
            f"cooling condition violated at z={z}, tau={tau} (q_c={q_c!r} < 0); "
            f"cooling window is {feasible_interval(Device.FRIDGE, regime, tau)}"
        )
    if w_in < -BOUNDARY_SLACK:
        raise DomainError(
            f"work input is not positive at z={z}, tau={tau} (w_in={w_in!r} < 0)"
        )
    return q_c, w_in


def _cop_ratio(regime: Regime, z: float, tau: float) -> float:
    """Factored q_c/w_in of an asymmetric regime, without the window checks."""
    if regime is Regime.SUDDEN_COMPRESSION:
        return 2.0 * z * z * (z - tau) / ((1.0 - z) * (2.0 * z * z - tau * (1.0 + z)))
    return z * (2.0 * tau - (z * z + 1.0)) / ((z - 1.0) * (z * (1.0 + z) - 2.0 * tau))


def cop_ht(regime: Regime, z: float, tau: float) -> float:
    """High-temperature COP of the asymmetric refrigerator at ratio z."""
    _checked_quantities(regime, z, tau)
    return _cop_ratio(regime, z, tau)


def _max_cop_root(regime: Regime, tau: float) -> tuple[float, dict[str, float]]:
    """z*, the k = 2 root of the stationarity cubic, with its trace."""
    z, arg, cos_term = branch_root(*stationarity_cubic(regime, tau), 2)
    return z, {"arccos_arg": arg, "angle": math.acos(arg) / 3.0, "sine_term": -cos_term}


def _cop_max(regime: Regime, tau: float) -> TracedValue:
    z, trace = _max_cop_root(regime, tau)
    trace["z_at_max"] = z
    return TracedValue(_cop_ratio(regime, z, tau), trace)


def z_star_max_cop(regime: Regime, zeta_c: float) -> TracedValue:
    """Ratio maximizing the COP: the k = 2 root of the stationarity cubic."""
    _require_asymmetric(regime)
    z, trace = _max_cop_root(regime, _check_zeta_c(regime, zeta_c))
    return TracedValue(z, trace)


def cop_max(regime: Regime, zeta_c: float) -> TracedValue:
    """Maximum attainable COP of the asymmetric refrigerator: the COP ratio
    at ``z_star_max_cop``."""
    _require_asymmetric(regime)
    return _cop_max(regime, _check_zeta_c(regime, zeta_c))


def omega_objective(regime: Regime, z: float, tau: float) -> float:
    """Omega(z) = 2 q_c - zeta_max * w_in, the cooling-vs-lost-load trade-off."""
    q_c, w_in = _checked_quantities(regime, z, tau)
    zeta_c = tau / (1.0 - tau)
    return 2.0 * q_c - cop_max(regime, zeta_c).value * w_in


def cop_at_max_omega(regime: Regime, zeta_c: float) -> TracedValue:
    """COP at the maximum of the Omega function, all four regimes."""
    tau = _check_zeta_c(regime, zeta_c)
    if regime in ASYMMETRIC_REGIMES:
        peak = _cop_max(regime, tau)
        z_opt = (tau * peak.value / (2.0 + peak.value)) ** (1.0 / 3.0)
        trace = dict(peak.trace, cop_max=peak.value, z_opt=z_opt)
        return TracedValue(_cop_ratio(regime, z_opt, tau), trace)
    if regime is Regime.ADIABATIC:
        radicand = (2.0 + zeta_c) * (1.0 + zeta_c)
        value = zeta_c / (math.sqrt(radicand) - zeta_c)
        return TracedValue(
            value, {"radicand": radicand, "z_opt": zeta_c / math.sqrt(radicand)}
        )
    # symmetric sudden switch: optimizer variable is z^2 = radical_term
    root = math.sqrt(2.0 * zeta_c * (1.0 + zeta_c))
    radical = math.sqrt(
        zeta_c
        * (2.0 * root - 3.0 * zeta_c - 1.0)
        / ((1.0 + zeta_c) * (2.0 * root - 3.0 * (1.0 + zeta_c)))
    )
    value = (
        radical
        * (1.0 + radical * (1.0 + zeta_c) - zeta_c)
        / ((1.0 - radical) * (radical * (1.0 + zeta_c) - zeta_c))
    )
    return TracedValue(value, {"radical_term": radical, "z_opt": math.sqrt(radical)})


def point_at(regime: Regime, z: float, tau: float) -> FridgePoint:
    """Assemble the full operating record at one (z, tau)."""
    q_c, w_in = _checked_quantities(regime, z, tau)
    zeta_c = tau / (1.0 - tau)
    zeta = cop_ht(regime, z, tau)
    omega = 2.0 * q_c - cop_max(regime, zeta_c).value * w_in
    return FridgePoint(z=z, zeta=zeta, q_c=q_c, w_in=w_in, omega_value=omega)
