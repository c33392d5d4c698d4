"""Refrigerator-side closed forms in the high-temperature limit.

The optimization variable is again the compression ratio z, the control
parameter is the Carnot COP zeta_c = tau/(1 - tau), and the trade-off
objective is Omega(z) = 2 q_c - zeta_max * w_in with zeta_max the
same-regime maximum COP.

Route: sc/se take the engine's route, ``cycle._asymmetric_optimum``, on
the same stationarity cubics, but the cooling window selects the k = 2 root
(phase offset 4 pi/3); zeta_max is the COP ratio q_c/w_in there, and
z_Omega^3 = tau zeta_max/(2 + zeta_max).  The root can equally be written
with sin(pi/6 - theta), which equals -cos(theta + 4 pi/3); the trace
reports it as ``sine_term``.  The symmetric benchmarks (adi, ss) keep their
own closed forms.  As in ``engine``, one private core, ``_omega_core``,
evaluates the Omega optimum over a column of tau (and zeta_c), unchecked
and without a trace, dispatching on the regime once; every public optimum
reads it at a column of one, and ``tables`` calls it once per (block of
rows, regime) on the admitted rows.  At a ratio z the one checked
evaluation is ``point_at``, on the unchecked ``cycle._fridge_pair``;
``omega_objective`` is its ``omega_value``.

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
EDGE times its upper end.
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
    _regime,
    _require_asymmetric,
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


def _omega_core(
    regime: Regime, taus: list[float], zeta_cs: list[float]
) -> tuple[list[float], ...]:
    """Columns of the raw numbers of the Omega optimum, one row per (tau,
    zeta_c) pair, unchecked and untraced; the only route to every optimum
    below.  The regime is dispatched once per call.

    sc/se: the six columns of ``cycle._asymmetric_optimum``, zeta_max the
    peak.  adi: (radicand, z_opt, COP); ss: (radical term, z_opt, COP).  The
    asymmetric forms read tau alone and the symmetric forms zeta_c alone.
    """
    if regime in ASYMMETRIC_REGIMES:
        return _asymmetric_optimum(Device.FRIDGE, regime, taus)
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
    # symmetric sudden switch: optimizer variable is z^2 = radical_term.
    # The differences 2 root - (3 zeta_c + 1) and 2 root - 3 (1 + zeta_c)
    # cancel (the first to zero as zeta_c -> 1), so both are taken through
    # their conjugates: 8 zeta_c (1 + zeta_c) - (3 zeta_c + 1)^2 =
    # -(zeta_c - 1)^2 and 8 zeta_c (1 + zeta_c) - 9 (1 + zeta_c)^2 =
    # -(1 + zeta_c)(zeta_c + 9).
    roots = [math.sqrt(2.0 * zeta_c * (1.0 + zeta_c)) for zeta_c in zeta_cs]
    radicals = [
        math.sqrt(
            zeta_c
            * (zeta_c - 1.0) ** 2
            * (2.0 * root + 3.0 * (1.0 + zeta_c))
            / ((1.0 + zeta_c) ** 2 * (zeta_c + 9.0) * (2.0 * root + 3.0 * zeta_c + 1.0))
        )
        for zeta_c, root in zip(zeta_cs, roots)
    ]
    values = [
        radical
        * ((1.0 - zeta_c) + radical * (1.0 + zeta_c))
        / ((1.0 - radical) * (radical * (1.0 + zeta_c) - zeta_c))
        for zeta_c, radical in zip(zeta_cs, radicals)
    ]
    return radicals, [math.sqrt(radical) for radical in radicals], values


def _omega_at(regime: Regime, tau: float, zeta_c: float = math.nan) -> tuple[float, ...]:
    """The core's numbers at one (tau, zeta_c): its columns of one, read."""
    return next(zip(*_omega_core(regime, [tau], [zeta_c])))


def _root_trace(arg: float, cos_term: float) -> dict[str, float]:
    """Trace of z*: the arccos argument, the angle and the sine term."""
    return {"arccos_arg": arg, "angle": math.acos(arg) / 3.0, "sine_term": -cos_term}


def _max_cop(regime: Regime, zeta_c: float) -> tuple[float, float, dict[str, float]]:
    """(z*, zeta_max, trace of z*) through the core, zeta_c checked."""
    regime = _require_asymmetric(regime)
    tau = _check_tau(regime, _taus_of([zeta_c])[0], zeta_c)
    z, arg, cos_term, peak = _omega_at(regime, tau)[:4]
    return z, peak, _root_trace(arg, cos_term)


def z_star_max_cop(regime: Regime, zeta_c: float) -> TracedValue:
    """Ratio maximizing the COP: the k = 2 root of the stationarity cubic."""
    z, _, trace = _max_cop(regime, zeta_c)
    return TracedValue(z, trace)


def cop_max(regime: Regime, zeta_c: float) -> TracedValue:
    """Maximum attainable COP of the asymmetric refrigerator: the COP ratio
    at ``z_star_max_cop``."""
    z, peak, trace = _max_cop(regime, zeta_c)
    trace["z_at_max"] = z
    return TracedValue(peak, trace)


def omega_objective(regime: Regime, z: float, tau: float) -> float:
    """Omega(z) = 2 q_c - zeta_max * w_in, the ``omega_value`` of ``point_at``."""
    return point_at(regime, z, tau).omega_value


def cop_at_max_omega(regime: Regime, zeta_c: float) -> TracedValue:
    """COP at the maximum of the Omega function, all four regimes.  The
    sc/se trace also carries the ``cop_max`` the optimum is built from."""
    regime = _regime(regime)
    core = _omega_at(regime, _check_tau(regime, _taus_of([zeta_c])[0], zeta_c), zeta_c)
    if regime in ASYMMETRIC_REGIMES:
        z, arg, cos_term, peak, z_opt, value = core
        trace = _root_trace(arg, cos_term)
        trace.update(z_at_max=z, cop_max=peak, z_opt=z_opt)
        return TracedValue(value, trace)
    term, z_opt, value = core
    key = "radicand" if regime is Regime.ADIABATIC else "radical_term"
    return TracedValue(value, {key: term, "z_opt": z_opt})


def point_at(regime: Regime, z: float, tau: float) -> FridgePoint:
    """The full operating record at one (z, tau): the one checked evaluation
    of the fridge at a ratio.  tau is checked once, and z must lie in the
    closed cooling window, less its degenerate z -> 0 end where w_in grows
    like 1/z^2.  w_in must come out positive: at tau within ulps of 1 it
    rounds to 0 at the window's upper end."""
    regime = _require_asymmetric(regime)
    hi = feasible_interval(Device.FRIDGE, regime, _check_tau(regime, tau)).hi
    if not EDGE * hi <= z <= hi:
        raise DomainError(
            f"z={z!r} outside [{EDGE * hi!r}, {hi!r}] at tau={tau!r}: the cooling "
            f"condition holds up to {hi!r}, and the fridge degenerates as z -> 0"
        )
    q_c, w_in = _fridge_pair(regime, z, tau)
    if not w_in > 0.0:
        raise DomainError(
            f"work input is not positive at z={z!r}, tau={tau!r} (w_in={w_in!r})"
        )
    zeta = _cop_ratios(regime, [z], [tau])[0]
    omega = 2.0 * q_c - _omega_at(regime, tau)[3] * w_in
    return FridgePoint(z=z, zeta=zeta, q_c=q_c, w_in=w_in, omega_value=omega)
