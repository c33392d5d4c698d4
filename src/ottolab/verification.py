"""Full closed-form versus numeric-oracle verification suite.

Every analytic optimum in ``engine`` and ``fridge`` is replayed against
derivative-free maximization of the plain high-temperature heat/work
building blocks of all four regimes (``engine_reports``/``fridge_reports``,
which the test suite uses as well); on top of that come the ordering
properties, the Taylor coefficients by finite differences, the cubic-solver
residual/branch suite, and the exact-coth versus high-temperature ledger
agreement.

The suite is deterministic: randomized checks draw from a fixed-seed
generator, so two runs produce identical reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import cubic as cubic_mod
from . import engine, fridge, tables
from .cycle import (
    CycleConfig,
    Device,
    Interval,
    Regime,
    ReducedParams,
    StrokeProtocol,
    adiabaticity,
    energy_ledger,
    feasible_interval,
    high_t_engine_quantities,
    high_t_fridge_quantities,
)
from .oracle import OptimumReport, ScalarProblem, central_derivative, maximize

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
_TAU_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))

_SC = Regime.SUDDEN_COMPRESSION
_SE = Regime.SUDDEN_EXPANSION

DEFAULT_SEED = 20250810


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} {self.name:<34} worst={self.worst:.3e} tol={self.tol:.1e}"


def _dev(name: str, worst: float, tol: float) -> CheckResult:
    return CheckResult(name, worst <= tol, worst, tol)


def _margin(name: str, worst: float) -> CheckResult:
    # ordering-style check: smallest margin must stay positive
    return CheckResult(name, worst > 0.0, worst, 0.0)


def _count(name: str, violations: int) -> CheckResult:
    return CheckResult(name, violations == 0, float(violations), 0.0)


# --- oracle scaffolding ------------------------------------------------------


def _maximize_on(f, window: Interval) -> OptimumReport:
    return maximize(ScalarProblem(f, window.lo, window.hi))


def engine_reports(regime: Regime, eta_c: float):
    """Oracle (eta(z), eta report, work report, omega report) at one eta_c."""
    tau = 1.0 - eta_c
    window = feasible_interval(Device.ENGINE, regime, tau)

    def quantities(z: float) -> tuple[float, float]:
        return high_t_engine_quantities(regime, ReducedParams(z, tau))

    def eta(z: float) -> float:
        q_h, w = quantities(z)
        return w / q_h

    r_eta = _maximize_on(eta, window)
    r_work = _maximize_on(lambda z: quantities(z)[1], window)
    eta_peak = r_eta.f_star

    def omega(z: float) -> float:
        q_h, w = quantities(z)
        return 2.0 * w - eta_peak * q_h

    r_omega = _maximize_on(omega, window)
    return eta, r_eta, r_work, r_omega


def fridge_reports(regime: Regime, zeta_c: float):
    """Oracle (cop(z), COP report, omega report) at one zeta_c."""
    tau = zeta_c / (1.0 + zeta_c)
    window = feasible_interval(Device.FRIDGE, regime, tau)

    def quantities(z: float) -> tuple[float, float]:
        return high_t_fridge_quantities(regime, ReducedParams(z, tau))

    def cop(z: float) -> float:
        q_c, w_in = quantities(z)
        return q_c / w_in

    r_cop = _maximize_on(cop, window)
    cop_peak = r_cop.f_star

    def omega(z: float) -> float:
        q_c, w_in = quantities(z)
        return 2.0 * q_c - cop_peak * w_in

    r_omega = _maximize_on(omega, window)
    return cop, r_cop, r_omega


# --- check groups ------------------------------------------------------------


def _engine_oracle_checks(tol_omega: float, tol_mw: float) -> list[CheckResult]:
    out: list[CheckResult] = []
    for regime in (_SC, _SE):
        tag = regime.value
        w_max = w_mw = w_om = 0.0
        w_zom_or = w_zeta_or = 0.0
        for eta_c in ETA_GRID:
            tau = 1.0 - eta_c
            eta, r_eta, r_work, r_omega = engine_reports(regime, eta_c)
            w_max = max(w_max, abs(engine.eta_max(regime, tau).value - r_eta.f_star))
            w_mw = max(w_mw, abs(engine.eta_max_work(regime, eta_c) - eta(r_work.x_star)))
            traced = engine.eta_at_max_omega(regime, eta_c)
            w_om = max(w_om, abs(traced.value - eta(r_omega.x_star)))
            w_zom_or = max(w_zom_or, abs(traced.trace["z_opt"] - r_omega.x_star))
            w_zeta_or = max(
                w_zeta_or, abs(engine.z_star_max_eta(regime, tau).value - r_eta.x_star)
            )
        out.append(_dev(f"eta_max_{tag}_vs_oracle", w_max, tol_mw))
        out.append(_dev(f"eta_mw_{tag}_vs_oracle", w_mw, tol_mw))
        out.append(_dev(f"eta_omega_{tag}_vs_oracle", w_om, tol_omega))
        out.append(_dev(f"z_omega_{tag}_vs_oracle", w_zom_or, tol_omega))
        out.append(_dev(f"z_max_eta_{tag}_vs_oracle", w_zeta_or, tol_omega))
    return out


def _engine_consistency_checks() -> list[CheckResult]:
    out = []
    for regime in (_SC, _SE):
        worst = 0.0
        for eta_c in ETA_GRID:
            worst = max(
                worst,
                abs(
                    engine.fractional_loss_max_work(regime, eta_c)
                    - engine.fractional_loss(engine.eta_max_work(regime, eta_c), eta_c)
                ),
            )
        out.append(_dev(f"mw_loss_composition_{regime.value}", worst, 1e-10))
    return out


def _engine_symmetric_checks(tol_omega: float) -> list[CheckResult]:
    out = []
    for regime in (Regime.ADIABATIC, Regime.SUDDEN_SWITCH):
        worst = 0.0
        for eta_c in ETA_GRID:
            eta, _, _, r_omega = engine_reports(regime, eta_c)
            closed = engine.eta_at_max_omega(regime, eta_c).value
            worst = max(worst, abs(closed - eta(r_omega.x_star)))
        out.append(_dev(f"eta_omega_{regime.value}_vs_oracle", worst, tol_omega))
    return out


def _engine_ordering_checks() -> list[CheckResult]:
    regime_margin = math.inf
    chain = {regime: math.inf for regime in (_SC, _SE)}
    loss_margin = math.inf
    for eta_c in ETA_GRID:
        values = {
            r: engine.eta_at_max_omega(r, eta_c).value
            for r in (Regime.ADIABATIC, _SC, _SE, Regime.SUDDEN_SWITCH)
        }
        regime_margin = min(
            regime_margin,
            values[Regime.ADIABATIC] - values[_SC],
            values[_SC] - values[_SE],
            values[_SE] - values[Regime.SUDDEN_SWITCH],
        )
        for regime in (_SC, _SE):
            mw = engine.eta_max_work(regime, eta_c)
            peak = engine.eta_max(regime, 1.0 - eta_c).value
            chain[regime] = min(
                chain[regime], values[regime] - mw, peak - values[regime], eta_c - peak
            )
        loss_margin = min(
            loss_margin,
            engine.fractional_loss(values[_SE], eta_c)
            - engine.fractional_loss(values[_SC], eta_c),
            engine.fractional_loss_max_work(_SE, eta_c)
            - engine.fractional_loss_max_work(_SC, eta_c),
        )
    return [
        _margin("engine_regime_ordering", regime_margin),
        _margin("engine_eta_chain_sc", chain[_SC]),
        _margin("engine_eta_chain_se", chain[_SE]),
        _margin("fractional_loss_ordering", loss_margin),
    ]


def _taylor_checks() -> list[CheckResult]:
    out = []
    for regime in (_SC, _SE):
        tag = regime.value

        def f(x: float, _r=regime) -> float:
            return engine.eta_at_max_omega(_r, x).value

        def second(x: float) -> float:
            h = x / 2.0
            return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h) / 2.0

        d_coarse = central_derivative(f, 1e-3, 5e-4)
        d_fine = central_derivative(f, 1e-4, 5e-5)
        c1_est = (10.0 * d_fine - d_coarse) / 9.0
        c2_est = (10.0 * second(1e-4) - second(1e-3)) / 9.0
        coeffs = engine.taylor_coeffs(regime)
        out.append(_dev(f"taylor_c1_{tag}", abs(c1_est - coeffs.c1), 1e-4))
        out.append(_dev(f"taylor_c2_{tag}", abs(c2_est - coeffs.c2), 1e-2))
    return out


def _fridge_oracle_checks(tol_omega: float, tol_mw: float) -> list[CheckResult]:
    out = []
    for regime, grid in ((_SC, ZETA_GRID), (_SE, ZETA_GRID_SE)):
        tag = regime.value
        w_max = w_om = w_z = 0.0
        for zeta_c in grid:
            cop, r_cop, r_omega = fridge_reports(regime, zeta_c)
            w_max = max(w_max, abs(fridge.cop_max(regime, zeta_c).value - r_cop.f_star))
            traced = fridge.cop_at_max_omega(regime, zeta_c)
            w_om = max(w_om, abs(traced.value - cop(r_omega.x_star)))
            w_z = max(
                w_z, abs(fridge.z_star_max_cop(regime, zeta_c).value - r_cop.x_star)
            )
        out.append(_dev(f"cop_max_{tag}_vs_oracle", w_max, tol_mw))
        out.append(_dev(f"cop_omega_{tag}_vs_oracle", w_om, tol_omega))
        out.append(_dev(f"z_max_cop_{tag}_vs_oracle", w_z, tol_omega))
    return out


def _fridge_symmetric_checks(tol_omega: float) -> list[CheckResult]:
    out = []
    for regime, grid in (
        (Regime.ADIABATIC, ZETA_GRID),
        (Regime.SUDDEN_SWITCH, ZETA_GRID_SE),
    ):
        worst = 0.0
        for zeta_c in grid:
            cop, _, r_omega = fridge_reports(regime, zeta_c)
            closed = fridge.cop_at_max_omega(regime, zeta_c).value
            worst = max(worst, abs(closed - cop(r_omega.x_star)))
        out.append(_dev(f"cop_omega_{regime.value}_vs_oracle", worst, tol_omega))
    return out


def _fridge_ordering_checks() -> list[CheckResult]:
    regime_margin = math.inf
    chain_sc = math.inf
    chain_se = math.inf
    for zeta_c in ZETA_GRID:
        sc_omega = fridge.cop_at_max_omega(_SC, zeta_c).value
        sc_max = fridge.cop_max(_SC, zeta_c).value
        chain_sc = min(chain_sc, sc_max - sc_omega, zeta_c - sc_max)
        adi = fridge.cop_at_max_omega(Regime.ADIABATIC, zeta_c).value
        regime_margin = min(regime_margin, adi - sc_omega)
        if zeta_c > 1.0:
            se_omega = fridge.cop_at_max_omega(_SE, zeta_c).value
            se_max = fridge.cop_max(_SE, zeta_c).value
            ss = fridge.cop_at_max_omega(Regime.SUDDEN_SWITCH, zeta_c).value
            chain_se = min(chain_se, se_max - se_omega, zeta_c - se_max)
            regime_margin = min(regime_margin, sc_omega - se_omega, se_omega - ss)
    monotone = math.inf
    values = [fridge.cop_at_max_omega(_SC, z).value for z in ZETA_GRID]
    for low, high in zip(values, values[1:]):
        monotone = min(monotone, high - low)
    return [
        _margin("fridge_regime_ordering", regime_margin),
        _margin("fridge_cop_chain_sc", chain_sc),
        _margin("fridge_cop_chain_se", chain_se),
        _margin("cop_omega_sc_monotone", monotone),
    ]


def _branch_selection_check() -> CheckResult:
    violations = 0
    for zeta_c in ZETA_GRID:
        tau = zeta_c / (1.0 + zeta_c)
        window = feasible_interval(Device.FRIDGE, _SC, tau)
        m = cubic_mod.MonicCubic.from_coefficients(2.0 - tau, 0.0, -3.0 * tau, 2.0 * tau * tau)
        if not window.contains(cubic_mod.trig_root(m, 2)):
            violations += 1
        if window.contains(cubic_mod.trig_root(m, 0)):
            violations += 1
    for zeta_c in ZETA_GRID_SE:
        tau = zeta_c / (1.0 + zeta_c)
        window = feasible_interval(Device.FRIDGE, _SE, tau)
        m = cubic_mod.MonicCubic.from_coefficients(2.0, -3.0 * tau, 0.0, tau * (2.0 * tau - 1.0))
        if not window.contains(cubic_mod.trig_root(m, 2)):
            violations += 1
        if window.contains(cubic_mod.trig_root(m, 0)):
            violations += 1
    return _count("fridge_branch_selection", violations)


def _identity_check() -> CheckResult:
    # sin(pi/6 - theta) == -cos(theta + 4 pi/3); the root formulas use both
    worst = 0.0
    for i in range(1, 64):
        theta = i * (math.pi / 3.0) / 64.0
        worst = max(
            worst,
            abs(math.sin(math.pi / 6.0 - theta) + math.cos(theta + 4.0 * math.pi / 3.0)),
        )
    return _dev("sine_cosine_identity", worst, 1e-15)


def _random_trig_cubics(rng: random.Random, count: int):
    made = 0
    while made < count:
        a = rng.uniform(-5.0, 5.0)
        if abs(a) < 0.5:
            continue
        b, c, d = (rng.uniform(-5.0, 5.0) for _ in range(3))
        if cubic_mod.discriminant(a, b, c, d) <= 0.0:
            continue
        made += 1
        yield cubic_mod.MonicCubic.from_coefficients(a, b, c, d)


def _cubic_checks(rng: random.Random) -> list[CheckResult]:
    worst_res = worst_sum = worst_prod = 0.0
    for m in _random_trig_cubics(rng, 10_000):
        roots = cubic_mod.all_roots(m)
        worst_res = max(worst_res, max(abs(m(y)) for y in roots) / (1.0 + abs(m.d)))
        worst_sum = max(worst_sum, abs(sum(roots) + m.b))
        prod = roots[0] * roots[1] * roots[2]
        worst_prod = max(worst_prod, abs(prod + m.d) / (1.0 + abs(m.d)))

    worst_root = worst_disc = 0.0
    for tau in _TAU_GRID:
        zeta_c = tau / (1.0 - tau)
        m = cubic_mod.MonicCubic.from_coefficients(2.0 - tau, 0.0, -3.0 * tau, 2.0 * tau * tau)
        closed = 108.0 * tau**3 * (2.0 - tau) * (1.0 - tau) ** 2
        worst_disc = max(worst_disc, abs(m.discriminant - closed) / closed)
        worst_root = max(
            worst_root,
            abs(cubic_mod.trig_root(m, 0) - engine.z_star_max_eta(_SC, tau).value),
            abs(cubic_mod.trig_root(m, 2) - fridge.z_star_max_cop(_SC, zeta_c).value),
        )
        if tau > 0.5:
            m = cubic_mod.MonicCubic.from_coefficients(
                2.0, -3.0 * tau, 0.0, tau * (2.0 * tau - 1.0)
            )
            closed = 108.0 * tau * tau * (2.0 * tau - 1.0) * (1.0 - tau) ** 2
            worst_disc = max(worst_disc, abs(m.discriminant - closed) / closed)
            worst_root = max(
                worst_root,
                abs(cubic_mod.trig_root(m, 0) - engine.z_star_max_eta(_SE, tau).value),
                abs(cubic_mod.trig_root(m, 2) - fridge.z_star_max_cop(_SE, zeta_c).value),
            )

    unit = cubic_mod.MonicCubic.from_coefficients(1.0, 0.0, -3.0, 2.0)
    return [
        _dev("cubic_residuals", worst_res, 1e-10),
        _dev("cubic_vieta_sum", worst_sum, 1e-9),
        _dev("cubic_vieta_product", worst_prod, 1e-9),
        _dev("cubic_branch_roots", worst_root, 1e-10),
        _dev("cubic_discriminants", worst_disc, 1e-9),
        _dev("cubic_sc_unit_root", abs(cubic_mod.trig_root(unit, 0) - 1.0), 1e-12),
    ]


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


def _first_law_check(rng: random.Random) -> CheckResult:
    worst = 0.0
    for _ in range(500):
        ledger = energy_ledger(_random_config(rng))
        if min(ledger.h_a, ledger.h_b, ledger.h_c, ledger.h_d) <= 0.0:
            worst = math.inf
            break
        scale = max(abs(ledger.q_h), abs(ledger.q_c), 1e-300)
        worst = max(worst, abs(ledger.w_net - (ledger.q_h + ledger.q_c)) / scale)
    return _dev("first_law", worst, 1e-15)


_HIGH_T_CASES = (
    (_SC, 0.769, 0.5),
    (_SC, 0.5, 0.5),
    (_SE, 0.75, 0.5),
    (_SE, 0.3, 0.6),
)


def _high_t_worst(beta_h_omega_h: float) -> float:
    worst = 0.0
    for regime, z, tau in _HIGH_T_CASES:
        if regime is _SC:
            protocols = (StrokeProtocol.SUDDEN_SWITCH, StrokeProtocol.ADIABATIC)
        else:
            protocols = (StrokeProtocol.ADIABATIC, StrokeProtocol.SUDDEN_SWITCH)
        config = CycleConfig(
            beta_c=1.0 / tau,
            beta_h=1.0,
            omega_c=z * beta_h_omega_h,
            omega_h=beta_h_omega_h,
            protocol_compression=protocols[0],
            protocol_expansion=protocols[1],
        )
        ledger = energy_ledger(config)
        q_h, w = high_t_engine_quantities(regime, ReducedParams(z, tau))
        worst = max(worst, abs(ledger.q_h - q_h) / abs(q_h), abs(ledger.w_net - w) / abs(w))
    return worst


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
        p_out = ReducedParams(z_out, tau)
        if device is Device.ENGINE:
            if p_inside is not None:
                q_h, w = high_t_engine_quantities(regime, p_inside)
                if not (q_h > 0.0 and w > 0.0):
                    violations += 1
            q_h, w = high_t_engine_quantities(regime, p_out)
            if q_h > 0.0 and w > 0.0:
                violations += 1
        else:
            if p_inside is not None:
                q_c, w_in = high_t_fridge_quantities(regime, p_inside)
                if not (q_c > 0.0 and w_in > 0.0):
                    violations += 1
            q_c, w_in = high_t_fridge_quantities(regime, p_out)
            if q_c > 0.0 and w_in > 0.0:
                violations += 1
    return _count("feasibility_soundness", violations)


def _lambda_check() -> CheckResult:
    ratios = [1.0 - 0.01 * i for i in range(1, 96)]
    lams = [
        adiabaticity(StrokeProtocol.SUDDEN_SWITCH, z, 1.0) for z in ratios
    ]
    worst = min(b - a for a, b in zip(lams, lams[1:]))
    return _margin("lambda_monotonic", worst)


def _figure_row_margins(figure_id: str, row: list[float | None], header: list[str]) -> float:
    at = {name: value for name, value in zip(header, row)}
    margin = math.inf

    def gap(hi: str, lo: str) -> None:
        nonlocal margin
        if at.get(hi) is not None and at.get(lo) is not None:
            margin = min(margin, at[hi] - at[lo])

    if figure_id == "fig2":
        gap("eta_omega_adi", "eta_omega_sc")
        gap("eta_omega_sc", "eta_omega_se")
        gap("eta_omega_se", "eta_omega_ss")
        gap("eta_omega_sc", "eta_mw_sc")
        gap("eta_omega_se", "eta_mw_se")
        for name in ("delta_sc", "delta_se"):
            if at.get(name) is not None:
                margin = min(margin, at[name])
    elif figure_id == "fig4":
        gap("r_omega_se", "r_omega_sc")
        gap("r_mw_se", "r_mw_sc")
    else:
        gap("cop_omega_adi", "cop_omega_sc")
        gap("cop_omega_sc", "cop_omega_se")
        gap("cop_omega_se", "cop_omega_ss")
    return margin


def _figure_checks(rng: random.Random) -> list[CheckResult]:
    out = []
    for figure_id in tables.FIGURE_IDS:
        header, rows = tables.figure_table(figure_id)
        worst = math.inf
        for row in rng.sample(rows, 20):
            worst = min(worst, _figure_row_margins(figure_id, row, header))
        out.append(_margin(f"figure_rows_{figure_id}", worst))
    return out


def run_all(
    tol_omega: float = 1e-6, tol_mw: float = 1e-8, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Run every check; deterministic for a given seed."""
    rng = random.Random(seed)
    results: list[CheckResult] = []
    results += _engine_oracle_checks(tol_omega, tol_mw)
    results += _engine_consistency_checks()
    results += _engine_symmetric_checks(tol_omega)
    results += _engine_ordering_checks()
    results += _taylor_checks()
    results += _fridge_oracle_checks(tol_omega, tol_mw)
    results += _fridge_symmetric_checks(tol_omega)
    results += _fridge_ordering_checks()
    results.append(_branch_selection_check())
    results.append(_identity_check())
    results += _cubic_checks(rng)
    results.append(_first_law_check(rng))
    results.append(_dev("high_t_agreement_coarse", _high_t_worst(0.01), 1e-2))
    results.append(_dev("high_t_agreement_fine", _high_t_worst(0.001), 1e-4))
    results.append(_feasibility_check(rng))
    results.append(_lambda_check())
    results += _figure_checks(rng)
    return results
