"""Refrigerator-side closed forms in the high-temperature limit.

The optimization variable is the compression ratio z, the control
parameter is the Carnot COP zeta_c = tau/(1 - tau), and the trade-off
objective is Omega(z) = 2 q_c - zeta_max * w_in with zeta_max the
same-regime maximum COP.

Route: sc/se take ``cycle._asymmetric_optimum`` on the stationarity
cubics, where the cooling window selects the k = 2 root (phase offset
4 pi/3); zeta_max is the COP ratio q_c/w_in there, and
z_Omega^3 = tau zeta_max/(2 + zeta_max).  The root can equally be written
with sin(pi/6 - theta), which equals -cos(theta + 4 pi/3); the trace
reports it as ``sine_term``.  The symmetric benchmarks (adi, ss) stay off
that route: adi keeps its closed form, and ss takes the route's steps on
its quadratic in s = 1 - z^2, with eps = 1/(1 + zeta_c) standing for
1 - tau.  One private core, ``_omega_core``, evaluates the Omega optimum
over a column of tau (and zeta_c), unchecked and without a trace,
dispatching on the regime once; ``tables`` calls it once per (block of
rows, regime) on the admitted rows.

The table ``_FRIDGE`` is the fridge's side of the checked steps of
``cycle``, whose docstring lists the table's keys.  The fridge supplies
its tau rule (``_check_tau``, through ``_tau_of`` at zeta_c),
``_omega_core``, the k = 2 branch, its z_Omega^3, ``_root_trace``, the
peak name ``cop_max``, its window [EDGE hi, hi], the (gain, cost) pair
(q_c, w_in) with the COP ratio, and ``FridgePoint``.  ``z_star_max_cop``
and ``cop_max`` are ``cycle._ratio_peak`` on it and ``cop_at_max_omega``
is ``cycle._omega_optimum``; both hand the core (tau, zeta_c) and read it
once through ``cycle._traced``.  ``point_at``, the one checked evaluation
at a ratio z, is ``cycle._point``; ``omega_objective`` is its
``omega_value``.

Domain: every public entry turns its coordinate into tau (zeta_c into
zeta_c/(1 + zeta_c)) and applies one rule, ``_admitted``, tau in
[TAU_MIN, 1): zeta_c from EDGE = 1e-6 up to where tau rounds to 1 (about
9.007e15), nan and inf excluded.  The sudden-expansion fridge needs
q_c = tau - (1 + z^2)/2 > 0 somewhere, i.e. tau > 1/2 (zeta_c > 1); the
symmetric sudden-switch fridge has the same cooling load and the same
restriction.  Both raise InfeasibleDeviceError below that threshold,
distinct from a plain bad argument.  ``_check_tau`` raises both, and names
zeta_c in the message when the entry took zeta_c.  A ratio z must lie in
the closed cooling window of ``cycle.feasible_interval``, but not below
EDGE times its upper end; there the work input w_in must come out
positive, and neither the cooling load q_c nor the COP negative.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .cycle import (
    ASYMMETRIC_REGIMES,
    EDGE,
    SUDDEN_EXPANSION_REGIMES,
    Device,
    Regime,
    TracedValue,
    _asymmetric_optimum,
    _cop_ratios,
    _fridge_pair,
    _omega_optimum,
    _point,
    _ratio_peak,
    feasible_interval,
)
from .errors import DomainError, InfeasibleDeviceError

__all__ = [
    "FridgePoint",
    "z_star_max_cop",
    "cop_max",
    "omega_objective",
    "cop_at_max_omega",
    "point_at",
]


class FridgePoint(namedtuple("FridgePoint", "z zeta q_c w_in omega_value")):
    """One operating point: ratio, COP, cooling load, work input, Omega."""

    __slots__ = ()


#: tau at zeta_c = EDGE; below it the k = 2 root loses about eps/sqrt(tau)
TAU_MIN = EDGE / (1.0 + EDGE)


def _admitted(taus: list[float], half_window: bool) -> list[bool]:
    """The fridge's one domain rule, per tau: tau in [TAU_MIN, 1), and
    tau > 1/2 when ``half_window`` (the cooling window of the
    ``SUDDEN_EXPANSION_REGIMES``)."""
    return [TAU_MIN <= tau < 1.0 and (not half_window or tau > 0.5) for tau in taus]


def _check_tau(regime: Regime, tau: float, zeta_c: float | None = None) -> float:
    """``_admitted`` at one tau: a DomainError outside [TAU_MIN, 1), an
    InfeasibleDeviceError where only the se/ss cooling window is empty.
    Returns tau.  An entry that takes zeta_c checks its tau and passes
    zeta_c for the message."""
    given = "" if zeta_c is None else f"zeta_c={zeta_c!r}: "
    if not _admitted([tau], False)[0]:
        raise DomainError(
            f"{given}tau={tau!r} outside [{TAU_MIN!r}, 1): the fridge admits zeta_c from "
            f"{EDGE} up to where tau = zeta_c/(1 + zeta_c) rounds to 1 (about 9.007e15)"
        )
    if not _admitted([tau], regime in SUDDEN_EXPANSION_REGIMES)[0]:
        raise InfeasibleDeviceError(
            f"{given}the {regime.value} fridge has an empty cooling window for "
            f"tau={tau!r}; it requires tau > 1/2 (zeta_c > 1)"
        )
    return tau


def _taus_of(zeta_cs: list[float]) -> list[float]:
    """tau = zeta_c/(1 + zeta_c) at each zeta_c, nan at the pole -1."""
    return [zeta_c / (1.0 + zeta_c) if zeta_c != -1.0 else math.nan for zeta_c in zeta_cs]


def _tau_of(regime: Regime, zeta_c: float) -> float:
    """``_check_tau`` at the tau of zeta_c, naming zeta_c."""
    return _check_tau(regime, _taus_of([zeta_c])[0], zeta_c)


def _omega_core(
    regime: Regime, taus: list[float], zeta_cs: list[float]
) -> tuple[list[float], ...]:
    """Columns of the raw numbers of the Omega optimum, one row per (tau,
    zeta_c) pair, unchecked and untraced; the only route to every optimum
    below.  The regime is dispatched once per call.

    sc/se: the six columns of ``cycle._asymmetric_optimum``, zeta_max the
    peak.  adi: (radicand, z_opt, COP); ss: (radical term z_opt^2, z_opt,
    COP).  The asymmetric forms read tau alone, adi reads zeta_c alone, and
    ss reads both.
    """
    if regime in ASYMMETRIC_REGIMES:
        return _asymmetric_optimum(_FRIDGE, regime, taus)
    if regime is Regime.ADIABATIC:
        # zeta_c/(sqrt(radicand) - zeta_c) through its conjugate, since
        # radicand - zeta_c^2 = 3 zeta_c + 2
        radicands = [(2.0 + zeta_c) * (1.0 + zeta_c) for zeta_c in zeta_cs]
        roots = [math.sqrt(radicand) for radicand in radicands]
        return (
            radicands,
            [zeta_c / root for zeta_c, root in zip(zeta_cs, roots)],
            [
                zeta_c * (root + zeta_c) / (3.0 * zeta_c + 2.0)
                for zeta_c, root in zip(zeta_cs, roots)
            ],
        )
    # symmetric sudden switch, in s = 1 - u, u = z^2, and r = sqrt(2 tau):
    # s* = 2 eps/(2 - r) is the smaller root u* of the stationarity quadratic
    # (1 + eps) s^2 - 4 eps s + 2 eps^2 = 0, and the ratio reads tau - u as
    # s - eps and, above u = 1/2, 2 tau - 1 - u as s - 2 eps
    us, values = [], []
    for tau, zeta_c in zip(taus, zeta_cs):
        eps = 1.0 / (1.0 + zeta_c)
        delta = (zeta_c - 1.0) / (zeta_c + 1.0)
        peak = (delta / (1.0 + math.sqrt(2.0 * tau))) ** 2 / eps
        u = math.sqrt(tau * peak / (2.0 + peak))
        s = (2.0 + eps * peak) / ((2.0 + peak) * (1.0 + u))
        values.append(u * (s - 2.0 * eps if u > 0.5 else delta - u) / (s * (s - eps)))
        us.append(u)
    return us, [math.sqrt(u) for u in us], values


def _root_trace(regime: Regime, arg: float, cos_term: float) -> dict[str, float]:
    """Trace of z*: the arccos argument, the angle and the sine term."""
    return {"arccos_arg": arg, "angle": math.acos(arg) / 3.0, "sine_term": -cos_term}


def z_star_max_cop(regime: Regime, zeta_c: float) -> TracedValue:
    """Ratio maximizing the COP: the k = 2 root of the stationarity cubic."""
    return _ratio_peak(_FRIDGE, regime, zeta_c)[0]


def cop_max(regime: Regime, zeta_c: float) -> TracedValue:
    """Maximum attainable COP of the asymmetric refrigerator: the COP ratio
    at ``z_star_max_cop``."""
    return _ratio_peak(_FRIDGE, regime, zeta_c)[1]


def omega_objective(regime: Regime, z: float, tau: float) -> float:
    """Omega(z) = 2 q_c - zeta_max * w_in, the ``omega_value`` of ``point_at``."""
    return point_at(regime, z, tau).omega_value


def cop_at_max_omega(regime: Regime, zeta_c: float) -> TracedValue:
    """COP at the maximum of the Omega function, all four regimes.  The
    sc/se trace begins with the trace of ``cop_max``, ``z_at_max``
    included, and then carries the ``cop_max`` the optimum is built from."""
    return _omega_optimum(_FRIDGE, regime, zeta_c)


def point_at(regime: Regime, z: float, tau: float) -> FridgePoint:
    """The full operating record at one (z, tau): the one checked evaluation
    of the fridge at a ratio.  tau is checked once, and z must lie in the
    closed cooling window, less its degenerate z -> 0 end where w_in grows
    like 1/z^2.  w_in must come out positive: at tau within ulps of 1 it
    rounds to 0 at the window's upper end."""
    return _point(_FRIDGE, regime, z, tau)


def _window(regime: Regime, tau: float) -> tuple[float, float]:
    """The closed cooling window at a checked tau, less its degenerate end:
    [EDGE hi, hi]."""
    hi = feasible_interval(Device.FRIDGE, regime, tau).hi
    return EDGE * hi, hi


#: the fridge's side of the checked steps of ``cycle`` (whose docstring
#: lists the keys)
_FRIDGE = {
    "tau": _check_tau,
    "peak_at": lambda regime, zeta_c: (_tau_of(regime, zeta_c), zeta_c),
    "tau_of": _tau_of,
    "core": _omega_core,
    "branch": 2,
    "cubes": lambda taus, peaks: [tau * peak / (2.0 + peak) for tau, peak in zip(taus, peaks)],
    "root_trace": _root_trace,
    "peak": "cop_max",
    "window": _window,
    "outside": "z={z!r} outside [{lo!r}, {hi!r}] at tau={tau!r}: the cooling condition "
        "holds up to {hi!r}, and the fridge degenerates as z -> 0",
    "pair": _fridge_pair,
    "ratios": _cop_ratios,
    "names": (("work input", "w_in"), ("cooling load", "q_c"), ("COP", "zeta")),
    "point": FridgePoint,
}
