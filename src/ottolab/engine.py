"""Engine-side closed forms in the high-temperature limit.

Everything here is a function of the reduced coordinates alone: the
compression ratio z and either the temperature ratio tau or the Carnot
efficiency eta_c = 1 - tau.  The trade-off objective maximized throughout is

    Omega(z) = 2 w(z) - eta_max * q_h(z),

with eta_max the same-regime maximum attainable efficiency.

For both asymmetric regimes every optimum takes the route the fridge shares,
``cycle._asymmetric_optimum``: the engine's z* is the k = 0 root of the
stationarity cubic, eta_max the efficiency ratio w/q_h there, and
z_Omega^3 = tau (2 - eta_max)/2.  The symmetric benchmarks (adi, ss) have
quadratic stationarity conditions and stay off that route: adi keeps its
closed form, and ss takes the same steps on its quadratic in
s = 1 - z^2, with eta_c standing for 1 - tau wherever they differ.

One private core, ``_omega_core``, evaluates the Omega optimum of a regime
over a column of tau (and eta_c), unchecked and without a trace: it
dispatches on the regime once and returns its raw numbers as columns.  Every
public optimum checks its input, calls the core with a column of one and
builds its result from that row; ``tables`` calls it once per (block of
rows, regime) on the rows the tau rule admits.  The tau rule
(``_admitted``), the max-work forms (``_max_work_terms``/``_max_work``) and
the fractional loss (``_losses``) are column forms the same way, and each
closed-form expression is written once, in its column form.  At a ratio
z the one checked evaluation is ``point_at``, on the unchecked
``cycle._engine_pair``; ``omega_objective`` is its ``omega_value``.

Domain: every public entry turns its coordinate into tau (eta_c into
1 - eta_c) and applies one rule, tau in [EDGE, 1 - EDGE] (``_admitted``,
raised by ``_check_tau``); a ratio z must also lie in the closed engine
window of ``cycle.feasible_interval``.  A regime is a ``Regime`` member or
its token ('sc', 'se', 'adi', 'ss'), which every public entry of ``engine``,
``fridge`` and ``cycle`` turns into the member through ``cycle._regime``.

Each closed-form evaluation also returns a trace of its named intermediate
quantities (arccos argument, angle or cosine term, optimizer ratios) so
tests can pin the intermediates independently of the final value.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .cycle import (
    ASYMMETRIC_REGIMES,
    EDGE,
    Device,
    Regime,
    TracedValue,
    _asymmetric_optimum,
    _engine_pair,
    _eta_ratios,
    _regime,
    _require_asymmetric,
    feasible_interval,
)
from .errors import DomainError

__all__ = [
    "TracedValue",
    "EnginePoint",
    "TaylorCoeffs",
    "z_star_max_eta",
    "eta_max",
    "omega_objective",
    "eta_at_max_omega",
    "eta_max_work",
    "taylor_coeffs",
    "fractional_loss",
    "fractional_loss_max_work",
    "point_at",
]

_TAU_MAX = 1.0 - EDGE

#: numeric slack admitted above the Carnot bound of ``fractional_loss``
BOUNDARY_SLACK = 1e-12

#: smallest efficiency ``fractional_loss`` admits: eta_c/eta stays finite
_ETA_MIN = sys.float_info.min


class EnginePoint(namedtuple("EnginePoint", "z eta w q_h omega_value")):
    """One operating point: ratio, efficiency, work, heat, Omega value."""

    __slots__ = ()


class TaylorCoeffs(namedtuple("TaylorCoeffs", "c1 c2 c3")):
    """Coefficients of eta_c, eta_c^2, eta_c^3 in the near-equilibrium
    expansion of the efficiency at maximum Omega."""

    __slots__ = ()


def _admitted(taus: list[float]) -> list[bool]:
    """The engine's one domain rule, per tau: tau in [EDGE, 1 - EDGE]."""
    return [EDGE <= tau <= _TAU_MAX for tau in taus]


def _check_tau(tau: float, eta_c: float | None = None) -> float:
    """``_admitted`` at one tau, as a DomainError.  Returns tau.  An entry
    that takes eta_c checks tau = 1 - eta_c and passes eta_c for the
    message."""
    if not _admitted([tau])[0]:
        given = "" if eta_c is None else f"eta_c={eta_c!r}: "
        raise DomainError(
            f"{given}tau={tau!r} outside [{EDGE}, {_TAU_MAX}]; the closed forms "
            f"degenerate at both ends"
        )
    return tau


def _omega_core(
    regime: Regime, taus: list[float], eta_cs: list[float]
) -> tuple[list[float], ...]:
    """Columns of the raw numbers of the Omega optimum, one row per (tau,
    eta_c) pair, unchecked and untraced; the only route to every optimum
    below.  The regime is dispatched once per call.

    sc/se: the six columns of ``cycle._asymmetric_optimum``, eta_max the
    peak.  adi: (radicand, z_opt, eta); ss: (radical term
    2 (1 + eta_c) z_opt^2, z_opt, eta).  The asymmetric forms read tau
    alone, adi reads eta_c alone, and ss reads both.
    """
    if regime in ASYMMETRIC_REGIMES:
        return _asymmetric_optimum(Device.ENGINE, regime, taus)
    if regime is Regime.ADIABATIC:
        # 1 - sqrt(radicand) through its conjugate, since
        # 1 - radicand = eta_c (3 - eta_c)/2
        radicands = [(2.0 - eta_c) * (1.0 - eta_c) / 2.0 for eta_c in eta_cs]
        z_opts = [math.sqrt(radicand) for radicand in radicands]
        return (
            radicands,
            z_opts,
            [
                eta_c * (3.0 - eta_c) / (2.0 * (1.0 + z_opt))
                for eta_c, z_opt in zip(eta_cs, z_opts)
            ],
        )
    # symmetric sudden switch, in s = 1 - u, u = z^2, and r = sqrt(2 tau):
    # s* = 2 eta_c/(2 + r) is the larger root u* of the stationarity quadratic
    # (1 + eta_c) s^2 - 4 eta_c s + 2 eta_c^2 = 0; above u = 1/2 the ratio's
    # differences are read in eta_c and s, so nothing cancels as eta_c -> 0
    us, values = [], []
    for tau, eta_c in zip(taus, eta_cs):
        r = math.sqrt(2.0 * tau)
        peak = eta_c * r / ((2.0 + r) * (tau + r))
        u = math.sqrt(tau * (2.0 - peak) / 2.0)
        s = (2.0 * eta_c + tau * peak) / (2.0 * (1.0 + u))
        if u > 0.5:
            values.append(s * (eta_c - s) / (2.0 * eta_c - s * (1.0 + eta_c)))
        else:
            values.append(s * (u - tau) / (u * (2.0 - tau) - tau))
        us.append(u)
    radicals = [2.0 * (1.0 + eta_c) * u for eta_c, u in zip(eta_cs, us)]
    return radicals, [math.sqrt(u) for u in us], values


def _omega_at(regime: Regime, tau: float, eta_c: float = math.nan) -> tuple[float, ...]:
    """The core's numbers at one (tau, eta_c): its columns of one, read."""
    return next(zip(*_omega_core(regime, [tau], [eta_c])))


def _root_trace(regime: Regime, arg: float, cos_term: float) -> dict[str, float]:
    """Trace of z*: the arccos argument and either the angle (sc) or the
    cosine term (se, whose argument exceeds 1 for tau < 1/2)."""
    if regime is Regime.SUDDEN_COMPRESSION:
        return {"arccos_arg": arg, "angle": math.acos(arg) / 3.0}
    return {"arccos_arg": arg, "cos_term": cos_term}


def _max_eta(regime: Regime, tau: float) -> tuple[float, float, dict[str, float]]:
    """(z*, eta_max, trace of z*) through the core, tau checked."""
    regime = _require_asymmetric(regime)
    z, arg, cos_term, peak = _omega_at(regime, _check_tau(tau))[:4]
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
    """Omega(z) = 2 w - eta_max * q_h, the ``omega_value`` of ``point_at``."""
    return point_at(regime, z, tau).omega_value


def eta_at_max_omega(regime: Regime, eta_c: float) -> TracedValue:
    """Efficiency at the maximum of the Omega function.

    Covers both asymmetric regimes and the two symmetric benchmarks; only
    the Carnot efficiency enters.  The sc/se trace also carries the
    ``eta_max`` the optimum is built from, equal to
    ``eta_max(regime, 1 - eta_c).value``.
    """
    regime = _regime(regime)
    core = _omega_at(regime, _check_tau(1.0 - eta_c, eta_c), eta_c)
    if regime in ASYMMETRIC_REGIMES:
        _, arg, cos_term, peak, z_opt, value = core
        trace = _root_trace(regime, arg, cos_term)
        trace["eta_max"] = peak
        trace["z_opt"] = z_opt
        return TracedValue(value, trace)
    term, z_opt, value = core
    key = "radicand" if regime is Regime.ADIABATIC else "radical_term"
    return TracedValue(value, {key: term, "z_opt": z_opt})


def _max_work_terms(eta_cs: list[float]) -> tuple[list[float], list[float]]:
    """Columns (g, r) of the max-work forms: g = 1 - tau^(1/3) through
    expm1/log1p, which keeps its digits as eta_c -> 0, and r = tau^(1/3) as
    a power."""
    return (
        [-math.expm1(math.log1p(-eta_c) / 3.0) for eta_c in eta_cs],
        [(1.0 - eta_c) ** (1.0 / 3.0) for eta_c in eta_cs],
    )


def _max_work(
    regime: Regime, gs: list[float], rs: list[float]
) -> tuple[list[float], list[float]]:
    """Columns (eta_mw, r_mw) from ``_max_work_terms``, unchecked.  With
    eta_c = g (1 + r + r^2) both factor into ratios of positive terms; the
    efficiency is g times a ratio in which 1 - g serves for r, since r
    enters only next to terms of order 1."""
    r_gs = [1.0 - g for g in gs]
    if regime is Regime.SUDDEN_COMPRESSION:
        return (
            [g * (r_g + 2.0) / (2.0 + r_g + r_g * r_g) for g, r_g in zip(gs, r_gs)],
            [r * (2.0 + r * (4.0 + r * (2.0 + r))) / (r + 2.0) for r in rs],
        )
    return (
        [g * (1.0 + 2.0 * r_g) / (2.0 * (1.0 + r_g)) for g, r_g in zip(gs, r_gs)],
        [(1.0 + r * (2.0 + r * (4.0 + 2.0 * r))) / (1.0 + 2.0 * r) for r in rs],
    )


def _max_work_at(regime: Regime, eta_c: float) -> tuple[float, float]:
    """(eta_mw, r_mw) at one eta_c, unchecked."""
    eta_mw, r_mw = _max_work(regime, *_max_work_terms([eta_c]))
    return eta_mw[0], r_mw[0]


def eta_max_work(regime: Regime, eta_c: float) -> float:
    """Efficiency at maximum work output (the work optimum sits at
    z = r = tau^(1/3) in both asymmetric regimes)."""
    regime = _require_asymmetric(regime)
    _check_tau(1.0 - eta_c, eta_c)
    return _max_work_at(regime, eta_c)[0]


_SQRT3 = math.sqrt(3.0)


def taylor_coeffs(regime: Regime) -> TaylorCoeffs:
    """Near-equilibrium expansion coefficients of the efficiency at maximum
    Omega; the linear term is regime-independent."""
    regime = _require_asymmetric(regime)
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


def _losses(etas: list[float], eta_cs: list[float]) -> list[float | None]:
    """eta_c/eta - 1 at each (eta, eta_c), with eta_c already checked; None
    where eta is not in [_ETA_MIN, eta_c + BOUNDARY_SLACK]."""
    return [
        eta_c / eta - 1.0 if _ETA_MIN <= eta <= eta_c + BOUNDARY_SLACK else None
        for eta, eta_c in zip(etas, eta_cs)
    ]


def fractional_loss(eta: float, eta_c: float) -> float:
    """Fractional loss of work, eta_c/eta - 1: lost work per unit extracted."""
    _check_tau(1.0 - eta_c, eta_c)
    loss = _losses([eta], [eta_c])[0]
    if loss is None:
        raise DomainError(
            f"efficiency {eta!r} is not a normal float in (0, {eta_c!r}], the Carnot bound"
        )
    return loss


def fractional_loss_max_work(regime: Regime, eta_c: float) -> float:
    """Closed form of the fractional work loss at maximum work output,
    eta_c/eta_mw - 1, factored in r = tau^(1/3) (no cancelling terms)."""
    regime = _require_asymmetric(regime)
    _check_tau(1.0 - eta_c, eta_c)
    return _max_work_at(regime, eta_c)[1]


def point_at(regime: Regime, z: float, tau: float) -> EnginePoint:
    """The full operating record at one (z, tau): the one checked evaluation
    of the engine at a ratio.  tau is checked once, and z must lie in the
    closed engine window, where neither q_h nor w is negative."""
    regime = _require_asymmetric(regime)
    window = feasible_interval(Device.ENGINE, regime, _check_tau(tau))
    if not window.contains(z):
        raise DomainError(
            f"positive work condition violated at z={z!r}, tau={tau!r}: the "
            f"engine window is [{window.lo!r}, {window.hi!r}]"
        )
    q_h, w = _engine_pair(regime, z, tau)
    eta = _eta_ratios(regime, [z], [tau])[0]
    omega = 2.0 * w - _omega_at(regime, tau)[3] * q_h
    return EnginePoint(z=z, eta=eta, w=w, q_h=q_h, omega_value=omega)
