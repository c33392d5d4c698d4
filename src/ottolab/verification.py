"""Full closed-form versus numeric-oracle verification suite.

Every analytic optimum in ``engine`` and ``fridge`` is replayed against
derivative-free maximization of the plain high-temperature heat/work
building blocks of all four regimes (``engine_reports``/``fridge_reports``,
which the test suite uses as well).  Both hand their device's (gain, cost)
pair from the reference model, ``model.engine_pair`` or
``model.fridge_pair``, to one oracle body, ``_reports``, once eta_c or
zeta_c has passed its device's own tau rule; so the oracle shares no text
with the ``cycle`` forms it checks.  On top of that come the ordering
properties, the remainder of the near-equilibrium series after its exact
Taylor coefficients, the roots of the paper cubics that the optima are
taken from, and the exact-coth versus high-temperature ledger agreement.

Every group builds one dict of named values per grid point and reduces the
rows through one of two reducers: ``_worst`` holds the largest deviation of
each name to its tolerance (a count of violations is a one-row deviation
held to 0), and ``_least`` holds the least margin of each name above 0.
The groups that repeat per regime share one loop, ``_per_regime``.

Every ordering claim but the fractional losses' is a chain of values that
must rise, and ``_rising`` reduces each chain to its least step up: the
regimes ss, se, sc, adi at the Omega optimum (the fridge's over the
regimes whose cooling window is open); eta_mw, eta_Omega, eta_max, eta_c
and COP_Omega, COP_max, zeta_c for sc and se; the sc COP_Omega from one
zeta_c to the next; the sudden-switch adiabaticity as the compression ratio
falls; and the curve chains of each figure, ``_FIGURE_CHAINS``.  Every
check runs code that some optimum, table or ledger runs; the solver on
random cubics that no optimum solves, and paper algebra that no optimum
evaluates, are left to the test suite.

The suite is deterministic: randomized checks draw from one fixed-seed
generator, so two runs produce identical reports.
"""

from __future__ import annotations

import functools
import math
import random
from collections import namedtuple
from collections.abc import Iterable, Sequence

from . import cubic as cubic_mod
from . import engine, fridge, model, tables
from .cycle import (
    ASYMMETRIC_REGIMES,
    SUDDEN_EXPANSION_REGIMES,
    CycleConfig,
    Device,
    Interval,
    Regime,
    ReducedParams,
    StrokeProtocol,
    _regime,
    adiabaticity,
    energy_ledger,
    feasible_interval,
    high_t_engine_quantities,
    high_t_fridge_quantities,
)
from .oracle import ScalarProblem, maximize

__all__ = [
    "CheckResult",
    "run_all",
    "engine_reports",
    "fridge_reports",
    "ETA_GRID",
    "ZETA_GRID",
]

ETA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
ZETA_GRID = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 9.0)
ZETA_GRID_SE = tuple(z for z in ZETA_GRID if z > 1.0)

_SC = Regime.SUDDEN_COMPRESSION
_SE = Regime.SUDDEN_EXPANSION
_SYMMETRIC = (Regime.ADIABATIC, Regime.SUDDEN_SWITCH)
#: the regimes from the lowest Omega-optimal efficiency or COP to the highest
_RISING = (Regime.SUDDEN_SWITCH, _SE, _SC, Regime.ADIABATIC)

DEFAULT_SEED = 20250810
#: agreement tolerances of the Omega optima and of the work/efficiency optima
TOL_OMEGA = 1e-6
TOL_MW = 1e-8


class CheckResult(namedtuple("CheckResult", "name passed worst tol")):
    """One check: its name, whether it passed, its worst deviation and the
    tolerance that deviation was held to."""

    __slots__ = ()

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} {self.name:<34} worst={self.worst:.3e} tol={self.tol:.1e}"


def _fold(values: Iterable[float], least: bool = False) -> float:
    """The largest of 0.0 and ``values``, or with ``least`` the least of inf
    and ``values``; NaN when any value is NaN.  ``max`` and ``min`` keep
    their running value when they meet a NaN, so a NaN would pass."""
    acc = math.inf if least else 0.0
    for value in values:
        if value != value:
            return value
        if value < acc if least else value > acc:
            acc = value
    return acc


def _worst(
    rows: list[dict[str, float]], tols: dict[str, float], suffix: str = ""
) -> list[CheckResult]:
    """The one check shape: each row holds the named deviations at one grid
    point, and each name of ``tols`` that the rows hold is a check, named
    name + suffix, of the largest deviation of that name over the rows."""
    worst = {name: _fold(row[name] for row in rows) for name in tols if name in rows[0]}
    return [CheckResult(name + suffix, x <= tols[name], x, tols[name]) for name, x in worst.items()]


def _least(rows: list[dict[str, float]]) -> list[CheckResult]:
    """``_worst`` for ordering margins: the least margin of each name over
    the rows must stay positive."""
    least = {name: _fold((row[name] for row in rows), least=True) for name in rows[0]}
    return [CheckResult(name, x > 0.0, x, 0.0) for name, x in least.items()]


def _per_regime(regimes, grid, row, tols: dict[str, float], suffix: str = "") -> list[CheckResult]:
    """The per-regime loop: for each regime, ``row(regime, x)`` at each x of
    ``grid(regime)``, reduced by ``_worst`` into checks named
    name_<regime><suffix>."""
    out: list[CheckResult] = []
    for regime in regimes:
        out += _worst([row(regime, x) for x in grid(regime)], tols, f"_{regime.value}{suffix}")
    return out


def _rising(values: Sequence[float]) -> float:
    """The margin of a chain that must rise: the least step up, each step
    taken as ``upper - lower``; inf for fewer than two values and NaN when
    any step is NaN."""
    return _fold((b - a for a, b in zip(values, values[1:])), least=True)


# --- oracle scaffolding ------------------------------------------------------


def _reports(gain_cost, window: Interval, with_gain: bool = False):
    """The one oracle body: (ratio(z), ratio report, gain report or None,
    Omega report) of a device whose high-temperature pair at z is
    ``gain_cost(z)``, (w, q_h) for the engine and (q_c, w_in) for the
    fridge.  The ratio is gain/cost and Omega(z) = 2 gain - (ratio peak) cost.
    The scans share one grid, so the pair is evaluated once per z.  Every z
    the oracle tries lies strictly inside the non-empty ``window``, within
    [0, 1], whose tau ``feasible_interval`` has checked; so ``gain_cost``
    calls the unchecked ``model`` pairs, with no ``ReducedParams`` per z."""
    pair = functools.cache(gain_cost)

    def ratio(z: float) -> float:
        gain, cost = pair(z)
        return gain / cost

    r_ratio = maximize(ScalarProblem(ratio, *window))
    peak = r_ratio.f_star

    def omega(z: float) -> float:
        gain, cost = pair(z)
        return 2.0 * gain - peak * cost

    r_gain = maximize(ScalarProblem(lambda z: pair(z)[0], *window)) if with_gain else None
    return ratio, r_ratio, r_gain, maximize(ScalarProblem(omega, *window))


def engine_reports(regime: Regime, eta_c: float):
    """Oracle (eta(z), eta report, work report, omega report) at one eta_c,
    which the engine's own rule checks; the work report is None for the
    symmetric regimes."""
    regime = _regime(regime)
    tau = engine._check_tau(1.0 - eta_c, eta_c)
    window = feasible_interval(Device.ENGINE, regime, tau)
    with_work = regime in ASYMMETRIC_REGIMES
    return _reports(lambda z: model.engine_pair(regime, z, tau), window, with_work)


def fridge_reports(regime: Regime, zeta_c: float):
    """Oracle (cop(z), COP report, omega report) at one zeta_c, which the
    fridge's own rule checks: a DomainError (InfeasibleDeviceError for an
    empty se/ss cooling window) wherever ``fridge.cop_at_max_omega`` raises
    one."""
    regime = _regime(regime)
    tau = fridge._tau_of(regime, zeta_c)
    window = feasible_interval(Device.FRIDGE, regime, tau)
    cop, r_cop, _, r_omega = _reports(lambda z: model.fridge_pair(regime, z, tau), window)
    return cop, r_cop, r_omega


# --- check groups ------------------------------------------------------------


def _engine_oracle_checks(regimes: tuple[Regime, Regime]) -> list[CheckResult]:
    tols = {"eta_max": TOL_MW, "eta_mw": TOL_MW, "eta_omega": TOL_OMEGA,
            "z_omega": TOL_OMEGA, "z_max_eta": TOL_OMEGA}

    def row(regime: Regime, eta_c: float) -> dict[str, float]:
        tau = 1.0 - eta_c
        eta, r_eta, r_work, r_omega = engine_reports(regime, eta_c)
        traced = engine.eta_at_max_omega(regime, eta_c)
        out = {"eta_omega": abs(traced.value - eta(r_omega.x_star))}
        if regime in ASYMMETRIC_REGIMES:
            out["eta_max"] = abs(engine.eta_max(regime, tau).value - r_eta.f_star)
            out["eta_mw"] = abs(engine.eta_max_work(regime, eta_c) - eta(r_work.x_star))
            out["z_omega"] = abs(traced.trace["z_opt"] - r_omega.x_star)
            out["z_max_eta"] = abs(engine.z_star_max_eta(regime, tau).value - r_eta.x_star)
        return out

    return _per_regime(regimes, lambda _: ETA_GRID, row, tols, "_vs_oracle")


def _engine_consistency_checks() -> list[CheckResult]:
    def row(regime: Regime, eta_c: float) -> dict[str, float]:
        loss_mw = engine.fractional_loss_max_work(regime, eta_c)
        eta_mw = engine.eta_max_work(regime, eta_c)
        return {"mw_loss_composition": abs(loss_mw - engine.fractional_loss(eta_mw, eta_c))}

    return _per_regime((_SC, _SE), lambda _: ETA_GRID, row, {"mw_loss_composition": 1e-10})


def _engine_ordering_checks() -> list[CheckResult]:
    rows = []
    for eta_c in ETA_GRID:
        values = {r: engine.eta_at_max_omega(r, eta_c).value for r in Regime}
        row = {"engine_regime_ordering": _rising([values[r] for r in _RISING])}
        for regime in (_SC, _SE):
            row[f"engine_eta_chain_{regime.value}"] = _rising((
                engine.eta_max_work(regime, eta_c), values[regime],
                engine.eta_max(regime, 1.0 - eta_c).value, eta_c,
            ))
        row["fractional_loss_ordering"] = _fold((
            engine.fractional_loss(values[_SE], eta_c)
            - engine.fractional_loss(values[_SC], eta_c),
            engine.fractional_loss_max_work(_SE, eta_c)
            - engine.fractional_loss_max_work(_SC, eta_c),
        ), least=True)
        rows.append(row)
    return _least(rows)


def _taylor_checks() -> list[CheckResult]:
    """The cubic remainder of the near-equilibrium series,
    |eta_Omega - eta_c (c1 + eta_c (c2 + eta_c c3))|/eta_c^4, stays within
    0.1 at each eta_c: at 1e-3 that holds c1 to about 1e-10, c2 to 1e-7 and
    c3 to 1e-4."""
    coeffs = functools.cache(engine.taylor_coeffs)

    def row(regime: Regime, x: float) -> dict[str, float]:
        c1, c2, c3 = coeffs(regime)
        return {"taylor_remainder": abs(
            engine.eta_at_max_omega(regime, x).value - x * (c1 + x * (c2 + x * c3))
        ) / x**4}

    return _per_regime((_SC, _SE), lambda _: (1e-2, 3e-3, 1e-3), row, {"taylor_remainder": 0.1})


def _fridge_oracle_checks(regimes: tuple[Regime, Regime]) -> list[CheckResult]:
    tols = {"cop_max": TOL_MW, "cop_omega": TOL_OMEGA, "z_max_cop": TOL_OMEGA}

    def row(regime: Regime, zeta_c: float) -> dict[str, float]:
        cop, r_cop, r_omega = fridge_reports(regime, zeta_c)
        closed = fridge.cop_at_max_omega(regime, zeta_c).value
        out = {"cop_omega": abs(closed - cop(r_omega.x_star))}
        if regime in ASYMMETRIC_REGIMES:
            out["cop_max"] = abs(fridge.cop_max(regime, zeta_c).value - r_cop.f_star)
            out["z_max_cop"] = abs(fridge.z_star_max_cop(regime, zeta_c).value - r_cop.x_star)
        return out

    def grid(regime: Regime) -> tuple[float, ...]:
        return ZETA_GRID_SE if regime in SUDDEN_EXPANSION_REGIMES else ZETA_GRID

    return _per_regime(regimes, grid, row, tols, "_vs_oracle")


def _fridge_ordering_checks() -> list[CheckResult]:
    """The chains of the regimes whose cooling window is open at zeta_c:
    se and ss only above zeta_c = 1; a shut se chain is empty, so inf."""
    rows = []
    previous = -math.inf
    for zeta_c in ZETA_GRID:
        regimes = [r for r in _RISING if zeta_c > 1.0 or r not in SUDDEN_EXPANSION_REGIMES]
        values = {r: fridge.cop_at_max_omega(r, zeta_c).value for r in regimes}
        row = {"fridge_regime_ordering": _rising([values[r] for r in regimes])}
        for regime in (_SC, _SE):
            row[f"fridge_cop_chain_{regime.value}"] = _rising(
                (values[regime], fridge.cop_max(regime, zeta_c).value, zeta_c)
                if regime in values else ()
            )
        row["cop_omega_sc_monotone"] = _rising((previous, values[_SC]))
        rows.append(row)
        previous = values[_SC]
    return _least(rows)


def _roots(cubics: list[list[float]], branch: int) -> list[float]:
    """``cubic.branch_roots`` over a column of cubics, each given by its
    coefficients leading first, the roots alone."""
    monic = [[x / a for x in rest] for a, *rest in cubics]
    return cubic_mod.branch_roots(*map(list, zip(*monic)), branch)[0]


def _cubic_checks() -> list[CheckResult]:
    """The engine (k = 0) and fridge (k = 2) roots of the stationarity
    cubics of ``model.stationarity``, solved once per (regime, tau) on the
    values of ``ETA_GRID`` taken as tau: the fridge root must lie in the
    cooling window and the engine root outside it, and both must equal the
    optima that the library takes from them.  Then the double root of
    (y - 1)^2 (y + 2) on branch 0."""
    violations = 0
    rows = []
    for regime in (_SC, _SE):
        taus = [tau for tau in ETA_GRID if regime is _SC or tau > 0.5]
        cubics = [model.stationarity(regime, tau) for tau in taus]
        for tau, engine_root, fridge_root in zip(taus, _roots(cubics, 0), _roots(cubics, 2)):
            window = feasible_interval(Device.FRIDGE, regime, tau)
            violations += (not window.contains(fridge_root)) + window.contains(engine_root)
            rows.append({"cubic_branch_roots": _fold((
                abs(engine_root - engine.z_star_max_eta(regime, tau).value),
                abs(fridge_root - fridge.z_star_max_cop(regime, tau / (1.0 - tau)).value),
            ))})
    unit = abs(_roots([[1.0, 0.0, -3.0, 2.0]], 0)[0] - 1.0)
    return (
        _worst([{"fridge_branch_selection": float(violations)}], {"fridge_branch_selection": 0.0})
        + _worst(rows, {"cubic_branch_roots": 1e-10})
        + _worst([{"cubic_sc_unit_root": unit}], {"cubic_sc_unit_root": 1e-12})
    )


def _random_config(rng: random.Random) -> CycleConfig:
    beta_h = 10.0 ** rng.uniform(-1.0, 1.0)
    beta_c = beta_h * rng.uniform(1.05, 20.0)
    omega_h = 10.0 ** rng.uniform(-2.0, 1.0)
    omega_c = omega_h * rng.uniform(0.05, 1.0)
    protocols = (StrokeProtocol.ADIABATIC, StrokeProtocol.SUDDEN_SWITCH)
    return CycleConfig(
        beta_c=beta_c,
        beta_h=beta_h,
        omega_c=omega_c,
        omega_h=omega_h,
        protocol_compression=rng.choice(protocols),
        protocol_expansion=rng.choice(protocols),
    )


def _first_law_check(rng: random.Random) -> list[CheckResult]:
    """The cycle's energy balance at random configurations: the net work
    and the two stroke works, h_b - h_a and h_d - h_c, sum to 0.  Every
    term is a difference of vertex energies and rounds at their scale, so
    the sum is taken relative to the largest vertex energy; relative to
    the heats, which can nearly cancel, it would read up to about 1e-9."""
    rows = []
    for _ in range(500):
        ledger = energy_ledger(_random_config(rng))
        vertices = (ledger.h_a, ledger.h_b, ledger.h_c, ledger.h_d)
        balance = ledger.w_net + (ledger.h_b - ledger.h_a) + (ledger.h_d - ledger.h_c)
        # a vertex energy that is not positive (or NaN) is an infinite error
        positive = _fold(vertices, least=True) > 0.0
        rows.append({"first_law": abs(balance) / _fold(vertices) if positive else math.inf})
    return _worst(rows, {"first_law": 1e-15})


_HIGH_T_CASES = (
    (_SC, 0.769, 0.5),
    (_SC, 0.5, 0.5),
    (_SE, 0.75, 0.5),
    (_SE, 0.3, 0.6),
)


def _high_t_checks(beta_h_omega_h: float, tol: float, suffix: str) -> list[CheckResult]:
    """One row per case for the exact ledger's q_h and one for its w_net."""
    quench, slow = StrokeProtocol.SUDDEN_SWITCH, StrokeProtocol.ADIABATIC
    rows = []
    for regime, z, tau in _HIGH_T_CASES:
        protocols = (quench, slow) if regime is _SC else (slow, quench)
        ledger = energy_ledger(
            CycleConfig(1.0 / tau, 1.0, z * beta_h_omega_h, beta_h_omega_h, *protocols)
        )
        q_h, w = high_t_engine_quantities(regime, ReducedParams(z, tau))
        rows.append({"high_t_agreement": abs(ledger.q_h - q_h) / abs(q_h)})
        rows.append({"high_t_agreement": abs(ledger.w_net - w) / abs(w)})
    return _worst(rows, {"high_t_agreement": tol}, suffix)


def _feasibility_check(rng: random.Random) -> list[CheckResult]:
    violations = 0
    combos = [(Device.ENGINE, _SC), (Device.ENGINE, _SE), (Device.FRIDGE, _SC), (Device.FRIDGE, _SE)]
    for _ in range(1000):
        device, regime = rng.choice(combos)
        tau = rng.uniform(0.05, 0.95)
        window = feasible_interval(device, regime, tau)
        p_inside = None
        if not window.empty:
            width = window.hi - window.lo
            z = rng.uniform(window.lo + 1e-6 * width, window.hi - 1e-6 * width)
            p_inside = ReducedParams(z, tau)
        z_out = rng.uniform(1e-6, 1.0)
        attempts = 0
        while window.contains(z_out, slack=1e-6) and attempts < 100:
            z_out = rng.uniform(1e-6, 1.0)
            attempts += 1
        if attempts >= 100:
            continue
        quantities = (
            high_t_engine_quantities if device is Device.ENGINE else high_t_fridge_quantities
        )
        # written so that a NaN quantity counts as a violation
        if p_inside is not None:
            violations += not _fold(quantities(regime, p_inside), least=True) > 0.0
        violations += not _fold(quantities(regime, ReducedParams(z_out, tau)), least=True) <= 0.0
    return _worst([{"feasibility_soundness": float(violations)}], {"feasibility_soundness": 0.0})


def _lambda_check() -> list[CheckResult]:
    ratios = [1.0 - 0.01 * i for i in range(1, 96)]
    lams = [
        adiabaticity(StrokeProtocol.SUDDEN_SWITCH, z, 1.0) for z in ratios
    ]
    return _least([{"lambda_monotonic": _rising(lams)}])


#: per figure, the chains of curves that rise in every row, each named
#: from the bottom up; a chain that starts at "zero" keeps its curve positive
_FIGURE_CHAINS = {
    "fig2": (
        "eta_omega_ss eta_omega_se eta_omega_sc eta_omega_adi",
        "eta_mw_sc eta_omega_sc",
        "eta_mw_se eta_omega_se",
        "zero delta_sc",
        "zero delta_se",
    ),
    "fig4": ("r_omega_sc r_omega_se", "r_mw_sc r_mw_se"),
    "fig6": ("cop_omega_ss cop_omega_se cop_omega_sc cop_omega_adi",),
}


def _figure_checks(rng: random.Random) -> list[CheckResult]:
    """A cell that is None (outside its curve's domain) drops out of its
    chain."""
    out = []
    for figure_id in tables.FIGURE_IDS:
        header, rows = tables.figure_table(figure_id)
        cells = [dict(zip(header, row), zero=0.0) for row in rng.sample(rows, 20)]
        out += _least([
            {f"figure_rows_{figure_id}": _rising([at[c] for c in chain.split() if at[c] is not None])}
            for at in cells for chain in _FIGURE_CHAINS[figure_id]
        ])
    return out


def run_all() -> list[CheckResult]:
    """Run every check, drawing from ``DEFAULT_SEED``: two runs give the
    same results."""
    rng = random.Random(DEFAULT_SEED)
    results: list[CheckResult] = []
    results += _engine_oracle_checks((_SC, _SE))
    results += _engine_consistency_checks()
    results += _engine_oracle_checks(_SYMMETRIC)
    results += _engine_ordering_checks()
    results += _taylor_checks()
    results += _fridge_oracle_checks((_SC, _SE))
    results += _fridge_oracle_checks(_SYMMETRIC)
    results += _fridge_ordering_checks()
    results += _cubic_checks()
    results += _first_law_check(rng)
    results += _high_t_checks(0.01, 1e-2, "_coarse")
    results += _high_t_checks(0.001, 1e-4, "_fine")
    results += _feasibility_check(rng)
    results += _lambda_check()
    results += _figure_checks(rng)
    return results
