"""Four-stroke harmonic-oscillator cycle: energies, heats, work, feasibility.

The working medium is a harmonic oscillator cycled between a low frequency
``omega_c`` (in contact with a cold bath, inverse temperature ``beta_c``) and
a high frequency ``omega_h`` (hot bath, ``beta_h``).  The two work strokes
are each driven either quasistatically or by an instantaneous frequency
quench; a quench excites the oscillator by the adiabaticity factor

    lambda = (omega_c**2 + omega_h**2) / (2 * omega_c * omega_h)  >=  1.

Vertex energies follow the coth form; the high-temperature limit replaces
coth(x) by 1/x and reduces everything to two dimensionless numbers, the
compression ratio z = omega_c/omega_h and the temperature ratio
tau = beta_h/beta_c.  Units: hbar = k_B = 1; high-temperature heats and
works are reported in units of 1/beta_h.

Sign convention: energy flowing into the working medium is positive, so
``w_net = q_h + q_c`` is positive when the cycle runs as an engine, and the
refrigerator's work input is ``-w_net``.

The engine and the fridge share their checked layer.  Each device module
holds one table, a dict, of what the device does differently; this is the
one list of its keys:

* ``tau`` and ``tau_of``: its tau rule applied to a tau and to its
  coordinate (eta_c or zeta_c);
* ``peak_at``: the checked (tau, coordinate) at the argument of its peak
  entries, (tau, 1 - tau) for the engine and (tau, zeta_c) for the fridge;
* ``core``: its Omega core, columns of raw numbers at columns of (tau,
  coordinate);
* ``branch`` and ``cubes``: its root of the stationarity cubic and
  z_Omega^3 as a column function of (tau, ratio peak);
* ``ratios``: its heat/work ratio;
* ``peak``: the trace name of its ratio peak, ``eta_max`` or ``cop_max``;
* ``window`` and ``outside``: its closed window at a tau and the message
  for a z outside it;
* ``pair``: its (gain, cost) pair, ``_engine_pair`` (w, q_h) or
  ``_fridge_pair`` (q_c, w_in);
* ``names``: the cost, the gain and the ratio, each as a phrase and a
  record field;
* ``point``: its record.

The steps both take are written once here, on that table.
``_asymmetric_optimum`` is the sc/se route (a root of
``stationarity_cubic``, the ratio there and the root of the Omega cube
relation); only the two cores and ``_point`` call it.  ``_traced`` reads a
core once at a checked (tau, coordinate) and traces what it returns: for
sc/se z*, traced by the arccos argument and cosine term of its root, the
peak and the Omega optimum, each trace a prefix of the next, and for adi/ss
the Omega optimum, traced by z_opt alone.  Its two checked entries are
``_ratio_peak`` (z* and the peak, at ``peak_at``) and ``_omega_optimum``
(the Omega optimum of all four regimes, at ``tau_of``).  ``_point`` is the
checked record at a ratio z, which calls ``_asymmetric_optimum`` at the tau
it checked.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .cubic import branch_roots
from .errors import DomainError

__all__ = [
    "StrokeProtocol",
    "Regime",
    "Device",
    "ASYMMETRIC_REGIMES",
    "SUDDEN_EXPANSION_REGIMES",
    "CycleConfig",
    "ReducedParams",
    "EnergyLedger",
    "Interval",
    "TracedValue",
    "adiabaticity",
    "energy_ledger",
    "high_t_engine_quantities",
    "high_t_fridge_quantities",
    "feasible_interval",
    "stationarity_cubic",
]


class StrokeProtocol(Enum):
    """How a work stroke is driven."""

    ADIABATIC = "adiabatic"
    SUDDEN_SWITCH = "sudden_switch"


class Regime(str, Enum):
    """Which work strokes are sudden.

    The asymmetric cycles quench exactly one stroke: SUDDEN_COMPRESSION
    quenches A->B and expands quasistatically, SUDDEN_EXPANSION the reverse.
    ADIABATIC and SUDDEN_SWITCH drive both strokes alike and serve as the
    symmetric benchmarks.
    """

    SUDDEN_COMPRESSION = "sc"
    SUDDEN_EXPANSION = "se"
    ADIABATIC = "adi"
    SUDDEN_SWITCH = "ss"


class Device(str, Enum):
    ENGINE = "engine"
    FRIDGE = "fridge"


ASYMMETRIC_REGIMES = (Regime.SUDDEN_COMPRESSION, Regime.SUDDEN_EXPANSION)

#: regimes whose expansion stroke is a quench: the fridge's cooling load
#: tau - (1 + z^2)/2 is then positive only for tau > 1/2
SUDDEN_EXPANSION_REGIMES = (Regime.SUDDEN_EXPANSION, Regime.SUDDEN_SWITCH)

#: the closed forms degenerate at both ends of the tau axis
EDGE = 1e-6


class TracedValue(namedtuple("TracedValue", "value trace")):
    """A closed-form result (float) plus its named intermediate quantities
    (a dict of str to float)."""

    __slots__ = ()


def _regime(regime: Regime | str) -> Regime:
    """The ``Regime`` a public entry was given, as a member or its token."""
    try:
        return Regime(regime)
    except ValueError:
        raise DomainError(f"unknown regime {regime!r}; expected sc, se, adi or ss") from None


def _device(device: Device | str) -> Device:
    """The ``Device`` a public entry was given, as a member or its token."""
    try:
        return Device(device)
    except ValueError:
        raise DomainError(f"unknown device {device!r}; expected engine or fridge") from None


def _require_asymmetric(regime: Regime | str) -> Regime:
    """``_regime``, which must be sc or se."""
    regime = _regime(regime)
    if regime not in ASYMMETRIC_REGIMES:
        raise DomainError(f"operation defined for the sc/se regimes only, got {regime.value}")
    return regime


def _coth(x: float) -> float:
    # 1 + 2/(exp(2x) - 1): exact via expm1 for small x, saturates to 1 well
    # before exp overflows.  An x that underflowed to 0 gives inf, the limit
    # from above, which ``energy_ledger`` rejects.
    if x > 19.0:
        return 1.0
    if x == 0.0:
        return math.inf
    return 1.0 + 2.0 / math.expm1(2.0 * x)


class CycleConfig(namedtuple(
    "CycleConfig", "beta_c beta_h omega_c omega_h protocol_compression protocol_expansion"
)):
    """Physical specification of one cycle.

    ``beta_c > beta_h > 0`` (the cold bath is colder) and
    ``0 < omega_c <= omega_h``.  Equal frequencies are admitted as the
    degenerate cycle, which exchanges no net work.
    """

    __slots__ = ()

    def __new__(
        cls,
        beta_c: float,
        beta_h: float,
        omega_c: float,
        omega_h: float,
        protocol_compression: StrokeProtocol = StrokeProtocol.ADIABATIC,
        protocol_expansion: StrokeProtocol = StrokeProtocol.ADIABATIC,
    ) -> CycleConfig:
        if not beta_c > beta_h > 0.0:
            raise DomainError(
                f"bath temperatures must satisfy beta_c > beta_h > 0, "
                f"got beta_c={beta_c}, beta_h={beta_h}"
            )
        if not 0.0 < omega_c <= omega_h:
            raise DomainError(
                f"frequencies must satisfy 0 < omega_c <= omega_h, "
                f"got omega_c={omega_c}, omega_h={omega_h}"
            )
        return tuple.__new__(
            cls,
            (beta_c, beta_h, omega_c, omega_h, protocol_compression, protocol_expansion),
        )

    @classmethod
    def _make(cls, iterable) -> CycleConfig:
        # ``_replace`` builds through ``_make``: validate there too
        return cls(*iterable)


class ReducedParams(namedtuple("ReducedParams", "z tau")):
    """Dimensionless coordinates of all high-temperature analytics."""

    __slots__ = ()

    def __new__(cls, z: float, tau: float) -> ReducedParams:
        if not 0.0 < z <= 1.0:
            raise DomainError(f"compression ratio z={z} outside (0, 1]")
        if not 0.0 < tau < 1.0:
            raise DomainError(f"temperature ratio tau={tau} outside (0, 1)")
        return tuple.__new__(cls, (z, tau))

    @classmethod
    def _make(cls, iterable) -> ReducedParams:
        return cls(*iterable)


class EnergyLedger(namedtuple("EnergyLedger", "h_a h_b h_c h_d q_h q_c w_net")):
    """Mean energies at the four cycle vertices, the two heats, and net work.

    ``q_h = h_c - h_b`` (hot isochore), ``q_c = h_a - h_d`` (cold isochore),
    ``w_net = q_h + q_c`` by the first law.
    """

    __slots__ = ()


def adiabaticity(protocol: StrokeProtocol, omega_c: float, omega_h: float) -> float:
    """Adiabaticity parameter of one work stroke: 1 if quasistatic, else
    (omega_c^2 + omega_h^2)/(2 omega_c omega_h) for an instantaneous quench.
    The frequencies must be finite, and so must the quench's factor."""
    if omega_c <= 0.0 or omega_h <= 0.0:
        raise DomainError(f"frequencies must be positive, got ({omega_c}, {omega_h})")
    if omega_c > omega_h:
        raise DomainError(f"expected omega_c <= omega_h, got ({omega_c}, {omega_h})")
    if not (math.isfinite(omega_c) and math.isfinite(omega_h)):
        raise DomainError(f"frequencies must be finite, got ({omega_c}, {omega_h})")
    if protocol is StrokeProtocol.ADIABATIC:
        return 1.0
    # through the two ratios: the squares and the product can overflow or
    # underflow where lambda does not, and only omega_h/omega_c can overflow
    lam = 0.5 * (omega_c / omega_h + omega_h / omega_c)
    if lam == math.inf:
        raise DomainError(f"the quench factor overflows at ({omega_c}, {omega_h})")
    return lam


def energy_ledger(config: CycleConfig) -> EnergyLedger:
    """Evaluate the exact coth-form vertex energies and energy flows.  A
    configuration whose ledger is not finite (a product beta*omega that
    underflows to 0, an energy that overflows) raises DomainError."""
    lam_ab = adiabaticity(config.protocol_compression, config.omega_c, config.omega_h)
    lam_cd = adiabaticity(config.protocol_expansion, config.omega_c, config.omega_h)
    cold = _coth(config.beta_c * config.omega_c / 2.0)
    hot = _coth(config.beta_h * config.omega_h / 2.0)
    h_a = 0.5 * config.omega_c * cold
    h_b = 0.5 * config.omega_h * lam_ab * cold
    h_c = 0.5 * config.omega_h * hot
    h_d = 0.5 * config.omega_c * lam_cd * hot
    q_h = h_c - h_b
    q_c = h_a - h_d
    ledger = EnergyLedger(h_a, h_b, h_c, h_d, q_h, q_c, q_h + q_c)
    if not all(map(math.isfinite, ledger)):
        raise DomainError(f"the exact ledger is not finite at {config!r}: {ledger!r}")
    return ledger


def high_t_engine_quantities(regime: Regime, p: ReducedParams) -> tuple[float, float]:
    """High-temperature (q_h, w_net) in units of 1/beta_h.  Valid for any z
    in (0, 1]; the sign of w tells engine from non-engine operation.  A z
    so small that the pair divides by zero or overflows raises DomainError.

    The symmetric benchmarks use factored forms: the reversible corner of
    their window is a 0/0 point of w/q_h, and the unfactored sums lose
    enough digits there to pollute an optimizer's eta_max by ~1e-5.
    """
    return _finite_pair(_engine_pair, regime, p)[::-1]


def _engine_pair(regime: Regime, z: float, tau: float) -> tuple[float, float]:
    """The engine's (gain, cost) = (w, q_h) of a ``Regime`` member at a
    (z, tau) that its caller has checked."""
    if regime is Regime.SUDDEN_COMPRESSION:
        q_h = 1.0 - (tau / 2.0) * (1.0 + 1.0 / (z * z))
        w = (1.0 - z) * (1.0 - (1.0 + z) * tau / (2.0 * z * z))
    elif regime is Regime.SUDDEN_EXPANSION:
        q_h = 1.0 - tau / z
        w = (z - 1.0) * (tau / z - (1.0 + z) / 2.0)
    elif regime is Regime.SUDDEN_SWITCH:
        q_h = (z * z * (2.0 - tau) - tau) / (2.0 * z * z)
        w = (1.0 - z * z) * (z * z - tau) / (2.0 * z * z)
    else:
        q_h = (z - tau) / z
        w = (1.0 - z) * (z - tau) / z
    return w, q_h


def high_t_fridge_quantities(regime: Regime, p: ReducedParams) -> tuple[float, float]:
    """High-temperature (q_c, w_in) in units of 1/beta_h.

    ``w_in = -w_net`` is the positive work input, read from
    ``high_t_engine_quantities``; both quantities are positive exactly on
    the cooling window of ``feasible_interval``.  A z so small that the pair
    divides by zero or overflows raises DomainError.
    """
    return _finite_pair(_fridge_pair, regime, p)


def _fridge_pair(regime: Regime, z: float, tau: float) -> tuple[float, float]:
    """The fridge's (gain, cost) = (q_c, w_in) of a ``Regime`` member at a
    (z, tau) that its caller has checked."""
    q_c = tau - (1.0 + z * z) / 2.0 if regime in SUDDEN_EXPANSION_REGIMES else tau - z
    return q_c, -_engine_pair(regime, z, tau)[0]


def _finite_pair(pair, regime: Regime | str, p: ReducedParams) -> tuple[float, float]:
    """A device pair at p, which must come out finite: its terms in 1/z and
    1/z^2 divide by zero or overflow as z -> 0."""
    regime = _regime(regime)
    try:
        values = pair(regime, p.z, p.tau)
        if all(map(math.isfinite, values)):
            return values
    except ZeroDivisionError:
        pass
    raise DomainError(f"the high-temperature {regime.value} pair is not finite at {p!r}")


def stationarity_cubic(
    regime: Regime, taus: list[float]
) -> tuple[list[float], list[float], list[float]]:
    """Columns of the monic coefficients (b, c, d) of the cubic
    z^3 + b z^2 + c z + d, one per tau, whose roots are the stationary
    points of both the engine efficiency and the fridge COP of an
    asymmetric regime:

        sc: (2 - tau) z^3 - 3 tau z + 2 tau^2 = 0,
        se: 2 z^3 - 3 tau z^2 + tau (2 tau - 1) = 0.

    The engine optimum is its k = 0 root, the fridge optimum its k = 2 root;
    each device table holds that choice for ``_asymmetric_optimum``.
    """
    regime = _regime(regime)
    if regime is Regime.SUDDEN_COMPRESSION:
        leads = [2.0 - tau for tau in taus]
        return (
            [0.0] * len(taus),
            [-3.0 * tau / a for tau, a in zip(taus, leads)],
            [2.0 * tau * tau / a for tau, a in zip(taus, leads)],
        )
    if regime is Regime.SUDDEN_EXPANSION:
        return (
            [-1.5 * tau for tau in taus],
            [0.0] * len(taus),
            [tau * (2.0 * tau - 1.0) / 2.0 for tau in taus],
        )
    raise DomainError(f"the stationarity cubic covers sc/se only, got {regime.value}")


def _eta_ratios(regime: Regime, zs: list[float], taus: list[float]) -> list[float]:
    """Factored w/q_h of an asymmetric regime at each (z, tau), without the
    window checks."""
    if regime is Regime.SUDDEN_COMPRESSION:
        return [
            (2.0 * z * z - tau * z - tau) * (1.0 - z) / (z * z * (2.0 - tau) - tau)
            for z, tau in zip(zs, taus)
        ]
    return [(z * z - 2.0 * tau + z) * (z - 1.0) / (2.0 * (tau - z)) for z, tau in zip(zs, taus)]


def _cop_ratios(regime: Regime, zs: list[float], taus: list[float]) -> list[float]:
    """Factored q_c/w_in of an asymmetric regime at each (z, tau), without
    the window checks."""
    if regime is Regime.SUDDEN_COMPRESSION:
        return [
            2.0 * z * z * (z - tau) / ((1.0 - z) * (2.0 * z * z - tau * (1.0 + z)))
            for z, tau in zip(zs, taus)
        ]
    return [
        z * (2.0 * tau - (z * z + 1.0)) / ((z - 1.0) * (z * (1.0 + z) - 2.0 * tau))
        for z, tau in zip(zs, taus)
    ]


def _asymmetric_optimum(device: dict, regime: Regime, taus: list[float]) -> tuple[list, ...]:
    """Columns of a device's sc/se Omega optimum, one row per tau, unchecked:
    (z*, arccos argument, cosine term, ratio peak at z*, z_Omega as the real
    cube root of z_Omega^3, ratio at z_Omega).  The device table gives the
    branch of the stationarity cubic, the heat/work ratio, and z_Omega^3 as
    a column function of (tau, ratio peak)."""
    zs, args, cos_terms = branch_roots(*stationarity_cubic(regime, taus), device["branch"])
    peaks = device["ratios"](regime, zs, taus)
    z_opts = [cube ** (1.0 / 3.0) for cube in device["cubes"](taus, peaks)]
    return zs, args, cos_terms, peaks, z_opts, device["ratios"](regime, z_opts, taus)


def _traced(device: dict, regime: Regime, tau: float, x: float) -> tuple[TracedValue, ...]:
    """The traced values of a device's core, read once at a checked (tau,
    coordinate x).  sc/se: z* traced by the arccos argument and the cosine
    term of its root, the peak, whose trace adds z* as ``z_at_max``, and
    the Omega optimum, whose trace adds the peak under the device's name
    for it and z_opt; each trace is a prefix of the next.  adi/ss: the
    Omega optimum alone, traced by z_opt."""
    *row, value = next(zip(*device["core"](regime, [tau], [x])))
    if regime not in ASYMMETRIC_REGIMES:
        return (TracedValue(value, {"z_opt": row[0]}),)
    z, arg, cos_term, peak, z_opt = row
    root = {"arccos_arg": arg, "cos_term": cos_term}
    at_max = {**root, "z_at_max": z}
    optimum = {**at_max, device["peak"]: peak, "z_opt": z_opt}
    return TracedValue(z, root), TracedValue(peak, at_max), TracedValue(value, optimum)


def _ratio_peak(device: dict, regime: Regime | str, x: float) -> tuple[TracedValue, ...]:
    """The checked sc/se peak of a device's heat/work ratio, at the argument
    x of its peak entries, which the device turns into its checked (tau,
    coordinate): z* and the peak of ``_traced``."""
    regime = _require_asymmetric(regime)
    return _traced(device, regime, *device["peak_at"](regime, x))[:2]


def _omega_optimum(device: dict, regime: Regime | str, x: float) -> TracedValue:
    """The traced Omega optimum of a device at its coordinate x, all four
    regimes: the last value of ``_traced`` at (tau, x)."""
    regime = _regime(regime)
    return _traced(device, regime, device["tau_of"](regime, x), x)[-1]


def _point(device: dict, regime: Regime | str, z: float, tau: float) -> tuple:
    """The checked record of a device at one (z, tau): tau by the device's
    rule, z in its closed window, then one sign rule.  The window's ends are
    rounded, so at an end the cost must still come out positive, and the
    gain and the ratio not negative; each breach is a DomainError naming
    the quantity."""
    regime = _require_asymmetric(regime)
    lo, hi = device["window"](regime, device["tau"](regime, tau))
    if not lo <= z <= hi:
        raise DomainError(device["outside"].format(z=z, tau=tau, lo=lo, hi=hi))
    gain, cost = device["pair"](regime, z, tau)
    (name, key), *signed = device["names"]
    if not cost > 0.0:
        raise DomainError(f"{name} is not positive at z={z!r}, tau={tau!r} ({key}={cost!r})")
    # the factored ratio divides by a factor of the cost: read it after the cost
    ratio = device["ratios"](regime, [z], [tau])[0]
    for (name, key), value in zip(signed, (gain, ratio)):
        if not value >= 0.0:
            raise DomainError(f"{name} is negative at z={z!r}, tau={tau!r} ({key}={value!r})")
    omega = 2.0 * gain - _asymmetric_optimum(device, regime, [tau])[3][0] * cost
    return device["point"](z, ratio, gain, cost, omega)


class Interval(namedtuple("Interval", "lo hi")):
    """An open interval (lo, hi); lo >= hi encodes the empty interval."""

    __slots__ = ()

    @property
    def empty(self) -> bool:
        return not self.lo < self.hi

    def contains(self, x: float, slack: float = 0.0) -> bool:
        """Membership in the closure, widened by ``slack`` on both sides."""
        return (not self.empty) and self.lo - slack <= x <= self.hi + slack


_EMPTY = Interval(0.0, 0.0)


def feasible_interval(device: Device, regime: Regime, tau: float) -> Interval:
    """Open z-window where the device operates.

    Engine: net work and input heat both positive.  Fridge: cooling load and
    work input both positive.  Endpoints are closed-form quadratic roots.
    An empty window (sudden-expansion or sudden-switch fridge with
    tau <= 1/2) is reported as an empty Interval, not an exception.
    """
    if not 0.0 < tau < 1.0:
        raise DomainError(f"temperature ratio tau={tau} outside (0, 1)")
    regime = _regime(regime)
    if _device(device) is Device.ENGINE:
        if regime is Regime.SUDDEN_COMPRESSION:
            # positive root of 2 z^2 - tau z - tau = 0; q_h > 0 is implied
            lo = (tau + math.sqrt(tau * tau + 8.0 * tau)) / 4.0
        elif regime is Regime.SUDDEN_EXPANSION:
            # positive root of z^2 + z - 2 tau = 0, always above tau
            lo = max(tau, (-1.0 + math.sqrt(1.0 + 8.0 * tau)) / 2.0)
        elif regime is Regime.SUDDEN_SWITCH:
            lo = math.sqrt(tau)
        else:
            lo = tau
        return Interval(lo, 1.0)
    if regime not in SUDDEN_EXPANSION_REGIMES:
        return Interval(0.0, tau)
    if tau <= 0.5:
        return _EMPTY
    return Interval(0.0, math.sqrt(2.0 * tau - 1.0))
