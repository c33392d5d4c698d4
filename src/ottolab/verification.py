"""Full closed-form versus numeric-oracle verification suite.

Every analytic optimum in ``engine`` and ``fridge`` is replayed against
derivative-free maximization of the plain high-temperature heat/work
building blocks of all four regimes (``engine_reports``/``fridge_reports``,
which the test suite uses as well).  Both hand their device's unchecked
(gain, cost) pair, ``cycle._engine_pair`` or ``cycle._fridge_pair``, to one
oracle body, ``_reports``, once eta_c or zeta_c has passed its device's own
tau rule.  On top of that come the ordering properties, the remainder of
the near-equilibrium series after its exact Taylor coefficients, the roots
of the paper cubics that the optima are taken from, and the exact-coth
versus high-temperature ledger agreement.  Every
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
from collections.abc import Iterable

from . import cubic as cubic_mod
from . import engine, fridge, tables
from .cycle import (
    ASYMMETRIC_REGIMES,
    SUDDEN_EXPANSION_REGIMES,
    CycleConfig,
    Device,
    Interval,
    Regime,
    ReducedParams,
    StrokeProtocol,
    _engine_pair,
    _fridge_pair,
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


def _count(name: str, violations: int) -> CheckResult:
    return CheckResult(name, violations == 0, float(violations), 0.0)


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


# --- oracle scaffolding ------------------------------------------------------


def _reports(gain_cost, window: Interval, with_gain: bool = False):
    """The one oracle body: (ratio(z), ratio report, gain report or None,
    Omega report) of a device whose high-temperature pair at z is
    ``gain_cost(z)``, (w, q_h) for the engine and (q_c, w_in) for the
    fridge.  The ratio is gain/cost and Omega(z) = 2 gain - (ratio peak) cost.
    The scans share one grid, so the pair is evaluated once per z.  Every z
    the oracle tries lies strictly inside the non-empty ``window``, within
    [0, 1], whose tau ``feasible_interval`` has checked; so ``gain_cost``
    calls the unchecked ``cycle`` cores, with no ``ReducedParams`` per z."""
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
    return _reports(lambda z: _engine_pair(regime, z, tau), window, regime in ASYMMETRIC_REGIMES)


def fridge_reports(regime: Regime, zeta_c: float):
    """Oracle (cop(z), COP report, omega report) at one zeta_c, which the
    fridge's own rule checks: a DomainError (InfeasibleDeviceError for an
    empty se/ss cooling window) wherever ``fridge.cop_at_max_omega`` raises
    one."""
    regime = _regime(regime)
    tau = fridge._tau_of(regime, zeta_c)
    window = feasible_interval(Device.FRIDGE, regime, tau)
    cop, r_cop, _, r_omega = _reports(lambda z: _fridge_pair(regime, z, tau), window)
    return cop, r_cop, r_omega


# --- check groups ------------------------------------------------------------


def _engine_oracle_checks(regimes: tuple[Regime, Regime]) -> list[CheckResult]:
    tols = {"eta_max": TOL_MW, "eta_mw": TOL_MW, "eta_omega": TOL_OMEGA,
            "z_omega": TOL_OMEGA, "z_max_eta": TOL_OMEGA}
    out: list[CheckResult] = []
    for regime in regimes:
        rows = []
        for eta_c in ETA_GRID:
            tau = 1.0 - eta_c
            eta, r_eta, r_work, r_omega = engine_reports(regime, eta_c)
            traced = engine.eta_at_max_omega(regime, eta_c)
            row = {"eta_omega": abs(traced.value - eta(r_omega.x_star))}
            if regime in ASYMMETRIC_REGIMES:
                row["eta_max"] = abs(engine.eta_max(regime, tau).value - r_eta.f_star)
                row["eta_mw"] = abs(engine.eta_max_work(regime, eta_c) - eta(r_work.x_star))
                row["z_omega"] = abs(traced.trace["z_opt"] - r_omega.x_star)
                row["z_max_eta"] = abs(engine.z_star_max_eta(regime, tau).value - r_eta.x_star)
            rows.append(row)
        out += _worst(rows, tols, f"_{regime.value}_vs_oracle")
    return out


def _engine_consistency_checks() -> list[CheckResult]:
    out = []
    for regime in (_SC, _SE):
        rows = [
            {"mw_loss_composition": abs(
                engine.fractional_loss_max_work(regime, eta_c)
                - engine.fractional_loss(engine.eta_max_work(regime, eta_c), eta_c)
            )}
            for eta_c in ETA_GRID
        ]
        out += _worst(rows, {"mw_loss_composition": 1e-10}, f"_{regime.value}")
    return out


def _engine_ordering_checks() -> list[CheckResult]:
    rows = []
    for eta_c in ETA_GRID:
        values = {r: engine.eta_at_max_omega(r, eta_c).value for r in Regime}
        row = {"engine_regime_ordering": _fold((
            values[Regime.ADIABATIC] - values[_SC],
            values[_SC] - values[_SE],
            values[_SE] - values[Regime.SUDDEN_SWITCH],
        ), least=True)}
        for regime in (_SC, _SE):
            mw = engine.eta_max_work(regime, eta_c)
            peak = engine.eta_max(regime, 1.0 - eta_c).value
            row[f"engine_eta_chain_{regime.value}"] = _fold(
                (values[regime] - mw, peak - values[regime], eta_c - peak), least=True
            )
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
    out = []
    for regime in (_SC, _SE):
        c1, c2, c3 = engine.taylor_coeffs(regime)
        rows = [
            {"taylor_remainder": abs(
                engine.eta_at_max_omega(regime, x).value - x * (c1 + x * (c2 + x * c3))
            ) / x**4}
            for x in (1e-2, 3e-3, 1e-3)
        ]
        out += _worst(rows, {"taylor_remainder": 0.1}, f"_{regime.value}")
    return out


def _fridge_oracle_checks(regimes: tuple[Regime, Regime]) -> list[CheckResult]:
    tols = {"cop_max": TOL_MW, "cop_omega": TOL_OMEGA, "z_max_cop": TOL_OMEGA}
    out = []
    for regime in regimes:
        rows = []
        for zeta_c in ZETA_GRID_SE if regime in SUDDEN_EXPANSION_REGIMES else ZETA_GRID:
            cop, r_cop, r_omega = fridge_reports(regime, zeta_c)
            closed = fridge.cop_at_max_omega(regime, zeta_c).value
            row = {"cop_omega": abs(closed - cop(r_omega.x_star))}
            if regime in ASYMMETRIC_REGIMES:
                row["cop_max"] = abs(fridge.cop_max(regime, zeta_c).value - r_cop.f_star)
                row["z_max_cop"] = abs(fridge.z_star_max_cop(regime, zeta_c).value - r_cop.x_star)
            rows.append(row)
        out += _worst(rows, tols, f"_{regime.value}_vs_oracle")
    return out


def _fridge_ordering_checks() -> list[CheckResult]:
    rows = []
    previous = -math.inf
    for zeta_c in ZETA_GRID:
        sc_omega = fridge.cop_at_max_omega(_SC, zeta_c).value
        sc_max = fridge.cop_max(_SC, zeta_c).value
        adi = fridge.cop_at_max_omega(Regime.ADIABATIC, zeta_c).value
        row = {
            "fridge_regime_ordering": adi - sc_omega,
            "fridge_cop_chain_sc": _fold((sc_max - sc_omega, zeta_c - sc_max), least=True),
            "fridge_cop_chain_se": math.inf,
            "cop_omega_sc_monotone": sc_omega - previous,
        }
        if zeta_c > 1.0:
            se_omega = fridge.cop_at_max_omega(_SE, zeta_c).value
            se_max = fridge.cop_max(_SE, zeta_c).value
            ss = fridge.cop_at_max_omega(Regime.SUDDEN_SWITCH, zeta_c).value
            row["fridge_regime_ordering"] = _fold(
                (adi - sc_omega, sc_omega - se_omega, se_omega - ss), least=True
            )
            row["fridge_cop_chain_se"] = _fold((se_max - se_omega, zeta_c - se_max), least=True)
        rows.append(row)
        previous = sc_omega
    return _least(rows)


def _paper_cubic(regime: Regime, tau: float) -> tuple[float, float, float]:
    """The monic (b, c, d) of the stationarity cubic of an asymmetric regime,
    typed from the paper apart from ``cycle.stationarity_cubic``: sc
    (2 - tau) z^3 - 3 tau z + 2 tau^2, se 2 z^3 - 3 tau z^2 + tau (2 tau - 1)."""
    if regime is _SC:
        a, b, c, d = 2.0 - tau, 0.0, -3.0 * tau, 2.0 * tau * tau
    else:
        a, b, c, d = 2.0, -3.0 * tau, 0.0, tau * (2.0 * tau - 1.0)
    return b / a, c / a, d / a


def _roots(cubics: list[tuple[float, float, float]], branch: int) -> list[float]:
    """``cubic.branch_roots`` over a column of monic (b, c, d), the roots
    alone."""
    return cubic_mod.branch_roots(*map(list, zip(*cubics)), branch)[0]


def _cubic_checks() -> list[CheckResult]:
    """The paper cubics' engine (k = 0) and fridge (k = 2) roots, solved once
    per (regime, tau) on the values of ``ETA_GRID`` taken as tau: the fridge
    root must lie in the cooling window and the engine root outside it, and
    both must equal the optima that the library takes from them.  Then the
    double root of (y - 1)^2 (y + 2) on branch 0."""
    violations = 0
    rows = []
    for regime in (_SC, _SE):
        taus = [tau for tau in ETA_GRID if regime is _SC or tau > 0.5]
        cubics = [_paper_cubic(regime, tau) for tau in taus]
        for tau, engine_root, fridge_root in zip(taus, _roots(cubics, 0), _roots(cubics, 2)):
            window = feasible_interval(Device.FRIDGE, regime, tau)
            violations += (not window.contains(fridge_root)) + window.contains(engine_root)
            rows.append({"cubic_branch_roots": _fold((
                abs(engine_root - engine.z_star_max_eta(regime, tau).value),
                abs(fridge_root - fridge.z_star_max_cop(regime, tau / (1.0 - tau)).value),
            ))})
    unit = abs(_roots([(0.0, -3.0, 2.0)], 0)[0] - 1.0)
    return (
        [_count("fridge_branch_selection", violations)]
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


def _feasibility_check(rng: random.Random) -> CheckResult:
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
    return _count("feasibility_soundness", violations)


def _lambda_check() -> list[CheckResult]:
    ratios = [1.0 - 0.01 * i for i in range(1, 96)]
    lams = [
        adiabaticity(StrokeProtocol.SUDDEN_SWITCH, z, 1.0) for z in ratios
    ]
    return _least([{"lambda_monotonic": b - a} for a, b in zip(lams, lams[1:])])


#: per figure, the (upper, lower) curve pairs whose gap stays positive in
#: every row; a lower of "zero" means the upper curve itself stays positive
_FIGURE_GAPS = {
    "fig2": (
        ("eta_omega_adi", "eta_omega_sc"),
        ("eta_omega_sc", "eta_omega_se"),
        ("eta_omega_se", "eta_omega_ss"),
        ("eta_omega_sc", "eta_mw_sc"),
        ("eta_omega_se", "eta_mw_se"),
        ("delta_sc", "zero"),
        ("delta_se", "zero"),
    ),
    "fig4": (("r_omega_se", "r_omega_sc"), ("r_mw_se", "r_mw_sc")),
    "fig6": (
        ("cop_omega_adi", "cop_omega_sc"),
        ("cop_omega_sc", "cop_omega_se"),
        ("cop_omega_se", "cop_omega_ss"),
    ),
}


def _figure_checks(rng: random.Random) -> list[CheckResult]:
    out = []
    for figure_id in tables.FIGURE_IDS:
        header, rows = tables.figure_table(figure_id)
        cells = [dict(zip(header, row), zero=0.0) for row in rng.sample(rows, 20)]
        out += _least([
            {f"figure_rows_{figure_id}": at[upper] - at[lower]}
            for at in cells for upper, lower in _FIGURE_GAPS[figure_id]
            if at[upper] is not None and at[lower] is not None
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
    results.append(_feasibility_check(rng))
    results += _lambda_check()
    results += _figure_checks(rng)
    return results
