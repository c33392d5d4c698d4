"""Acceptance suite: every exit criterion at its stated tolerance.

Each check prints one `ACCEPTANCE <name>: PASS/FAIL` line (visible with
`pytest -s` or in captured output) and then asserts.

The oracle, Taylor, ordering and high-temperature criteria (c1, c2, c5,
c6, c8) are ``verify``'s own check groups, run here and passing exactly
when every check of the group passes: the closed forms against the oracle
for sc/se (``verification._engine_oracle_checks``/``_fridge_oracle_checks``,
at ``TOL_OMEGA`` = 1e-6 and ``TOL_MW`` = 1e-8), the remainder of the
near-equilibrium series after ``engine.taylor_coeffs``
(``_taylor_checks``), the ordering chains
(``_engine_ordering_checks``/``_fridge_ordering_checks``) and the exact
versus high-temperature ledger (``_high_t_checks`` at two scales).  Their
grids, cases and tolerances are held once, by ``tests/verify_report.txt``.

Two expectations follow from the Omega optimum rather than from a table, and
``test_c3_c4_expectations_match_oracle`` backs both with the independent
oracle (``verification.engine_reports``):

* ``c3_eta_omega_ss``: the symmetric sudden-switch engine has
  W = (1 - z^2)(z^2 - tau)/(2 z^2) and Q_h = 1 - tau(1 + z^-2)/2.  Its
  optimizer variable is z^2, so the closed form carries a square-root
  radical; at eta_c = 0.5 it gives 0.110318.  (A cube root in the same
  radical would give 0.0593, but that variant is negative at eta_c = 0.3.)
* ``c4_sc_omega_limit``: near eta_c -> 1 the sudden-compression Omega
  optimizer is z ~ ((1 - eta_c)/2)^(1/3), and the efficiency approaches 1
  only like 1 - z.  At eta_c = 0.9999 it is 0.961639 (the leading term
  alone gives 0.9632); it passes 0.99 only just above eta_c = 1 - 2e-6.
  The row keeps its point: sc climbs toward 1 while se stays at 1/2.
"""

import subprocess
import sys
import time

import pytest

from ottolab import engine, fridge, tables, verification
from ottolab.cycle import Regime
from ottolab.model import stationarity
from ottolab.verification import engine_reports
from paper_forms import Monic, discriminant, paper_discriminant, random_trig_cubics, root, solve

SC = Regime.SUDDEN_COMPRESSION
SE = Regime.SUDDEN_EXPANSION
ADI = Regime.ADIABATIC
SS = Regime.SUDDEN_SWITCH

SS_OMEGA_AT_HALF = 0.1103
SC_OMEGA_LIMIT = 0.9616


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _report_checks(name, checks, ok=True, detail=""):
    """``_report`` of a group of ``verify`` checks: PASS exactly when every
    check passed and ``ok`` holds.  The detail is each check's report line,
    then ``detail``."""
    lines = [" ".join(check.line().split()) for check in checks]
    if detail:
        lines.append(detail)
    _report(name, ok and all(check.passed for check in checks), "; ".join(lines))


def test_c1_engine_closed_forms_vs_oracle():
    started = time.perf_counter()
    checks = verification._engine_oracle_checks((SC, SE))
    elapsed = time.perf_counter() - started
    _report_checks("c1_engine_vs_oracle", checks, elapsed <= 2.0, f"runtime={elapsed:.2f}s<=2s")


def test_c2_fridge_closed_forms_vs_oracle():
    _report_checks("c2_fridge_vs_oracle", verification._fridge_oracle_checks((SC, SE)))


SPOT_CASES = [
    ("eta_omega_sc", lambda: engine.eta_at_max_omega(SC, 0.5).value, 0.1780),
    ("eta_omega_se", lambda: engine.eta_at_max_omega(SE, 0.5).value, 0.1541),
    ("eta_mw_sc", lambda: engine.eta_max_work(SC, 0.5), 0.1683),
    ("eta_mw_se", lambda: engine.eta_max_work(SE, 0.5), 0.1488),
    ("eta_omega_adi", lambda: engine.eta_at_max_omega(ADI, 0.5).value, 0.3876),
    ("eta_omega_ss", lambda: engine.eta_at_max_omega(SS, 0.5).value, SS_OMEGA_AT_HALF),
    ("cop_max_sc_at_1", lambda: fridge.cop_max(SC, 1.0).value, 0.1405),
    ("cop_omega_sc_at_1", lambda: fridge.cop_at_max_omega(SC, 1.0).value, 0.1192),
    ("cop_max_se_at_3", lambda: fridge.cop_max(SE, 3.0).value, 0.3892),
    ("cop_omega_se_at_3", lambda: fridge.cop_at_max_omega(SE, 3.0).value, 0.3300),
    ("cop_omega_adi_at_1", lambda: fridge.cop_at_max_omega(ADI, 1.0).value, 0.6899),
    ("cop_omega_ss_at_3", lambda: fridge.cop_at_max_omega(SS, 3.0).value, 0.1733),
]


@pytest.mark.parametrize(
    "name,compute,expected", SPOT_CASES, ids=[case[0] for case in SPOT_CASES]
)
def test_c3_spot_values(name, compute, expected):
    value = compute()
    ok = abs(value - expected) <= 2e-4
    _report(f"c3_{name}", ok, f"value={value:.6f} expected={expected}+-2e-4")


LIMIT_CASES = [
    (
        "sc_omega_limit",
        lambda: engine.eta_at_max_omega(SC, 0.9999).value,
        lambda v: abs(v - SC_OMEGA_LIMIT) <= 2e-4,
        f"{SC_OMEGA_LIMIT}+-2e-4",
    ),
    (
        "se_omega_limit",
        lambda: engine.eta_at_max_omega(SE, 0.9999).value,
        lambda v: abs(v - 0.5) <= 0.01,
        "0.5+-0.01",
    ),
    (
        "se_mw_limit",
        lambda: engine.eta_max_work(SE, 0.9999),
        lambda v: abs(v - 0.5) <= 0.01,
        "0.5+-0.01",
    ),
]


@pytest.mark.parametrize(
    "name,compute,accept,expected", LIMIT_CASES, ids=[case[0] for case in LIMIT_CASES]
)
def test_c4_limits_near_unit_carnot_efficiency(name, compute, accept, expected):
    value = compute()
    _report(f"c4_{name}", accept(value), f"value={value:.6f} expected {expected}")


ORACLE_BACKED_CASES = [
    ("eta_omega_ss", SS, 0.5, SS_OMEGA_AT_HALF),
    ("sc_omega_limit", SC, 0.9999, SC_OMEGA_LIMIT),
]


@pytest.mark.parametrize(
    "name,regime,eta_c,expected",
    ORACLE_BACKED_CASES,
    ids=[case[0] for case in ORACLE_BACKED_CASES],
)
def test_c3_c4_expectations_match_oracle(name, regime, eta_c, expected):
    eta, _, _, r_omega = engine_reports(regime, eta_c)
    oracle = eta(r_omega.x_star)
    closed = engine.eta_at_max_omega(regime, eta_c).value
    ok = abs(closed - oracle) <= 1e-6 and abs(oracle - expected) <= 2e-4
    _report(
        f"oracle_{name}", ok,
        f"oracle={oracle:.9f} closed_dev={abs(closed - oracle):.2e}<=1e-6 "
        f"expected={expected}+-2e-4",
    )


def test_c5_taylor_coefficients():
    _report_checks("c5_taylor", verification._taylor_checks())


def test_c6_orderings_on_full_grids():
    _report_checks(
        "c6_orderings",
        verification._engine_ordering_checks() + verification._fridge_ordering_checks(),
    )


def test_c7_cubic_solver():
    cubics = random_trig_cubics(10_000, seed=20250810)
    branches = [solve(cubics, k)[0] for k in (0, 1, 2)]
    residuals, sums, products = [], [], []
    ordered = True
    for m, ys in zip(cubics, (sorted(row) for row in zip(*branches))):
        ordered = ordered and ys[0] < ys[1] < ys[2]
        scale = 1.0 + abs(m.d)
        residuals += [abs(m(y)) / scale for y in ys]
        sums.append(abs(sum(ys) + m.b))
        products.append(abs(ys[0] * ys[1] * ys[2] + m.d) / scale)
    # ``all`` rather than ``max``, so that a NaN deviation fails
    vieta_ok = all(x <= 1e-10 for x in residuals) and all(x <= 1e-9 for x in sums + products)

    unit_dev = abs(root(Monic(0.0, -3.0, 2.0), 0) - 1.0)

    worst_disc = 0.0
    for i in range(1, 20):
        tau = round(0.05 * i, 2)
        for regime in (SC, SE) if tau > 0.5 else (SC,):
            got = discriminant(*stationarity(regime, tau))
            want = paper_discriminant(regime, tau)
            worst_disc = max(worst_disc, abs(got - want) / want)

    ok = ordered and vieta_ok and unit_dev <= 1e-12 and worst_disc <= 1e-9
    _report(
        "c7_cubic_solver", ok,
        f"ordered_roots={ordered} "
        f"residual={max(residuals):.2e}<=1e-10 vieta_sum={max(sums):.2e}<=1e-9 "
        f"vieta_product={max(products):.2e}<=1e-9 unit_root_dev={unit_dev:.2e}<=1e-12 "
        f"discriminant={worst_disc:.2e}<=1e-9",
    )


def test_c8_high_temperature_consistency():
    _report_checks(
        "c8_high_t_consistency",
        verification._high_t_checks(0.01, 1e-2, "_coarse")
        + verification._high_t_checks(0.001, 1e-4, "_fine"),
    )


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ottolab.cli", *argv],
        capture_output=True, text=True, timeout=120,
    )


def _row_at(lines, x):
    """The cells, by column name, of the CSV row (``lines``, header first)
    whose first cell is ``x``."""
    header = lines[0].split(",")
    return next(dict(zip(header, line.split(","))) for line in lines[1:]
                if abs(float(line.split(",")[0]) - x) < 1e-9)


def test_c9_end_to_end_cli():
    started = time.perf_counter()
    verify = _run_cli("verify")
    elapsed = time.perf_counter() - started
    ok = verify.returncode == 0 and elapsed < 10.0
    detail = [f"verify exit={verify.returncode} runtime={elapsed:.1f}s<10s"]

    figures = {}
    for figure_id in tables.FIGURE_IDS:
        first = _run_cli("figure", "--id", figure_id)
        second = _run_cli("figure", "--id", figure_id)
        deterministic = first.returncode == 0 and first.stdout == second.stdout
        ok = ok and deterministic
        detail.append(f"{figure_id} deterministic={deterministic}")
        figures[figure_id] = first.stdout.strip().split("\n")

    fig2 = figures["fig2"]
    header = fig2[0].split(",")
    at = _row_at(fig2, 0.5)
    spot_ok = (
        abs(float(at["eta_omega_sc"]) - 0.1780) <= 2e-4
        and abs(float(at["eta_omega_se"]) - 0.1541) <= 2e-4
        and abs(float(at["eta_mw_sc"]) - 0.1683) <= 2e-4
        and abs(float(at["eta_mw_se"]) - 0.1488) <= 2e-4
        and abs(float(at["eta_omega_adi"]) - 0.3876) <= 2e-4
    )
    order_ok = True
    for line in fig2[1:]:
        cells = dict(zip(header, line.split(",")))
        order_ok = order_ok and (
            float(cells["eta_omega_adi"]) > float(cells["eta_omega_sc"])
            > float(cells["eta_omega_se"]) > float(cells["eta_omega_ss"])
        ) and float(cells["delta_sc"]) > 0.0 and float(cells["delta_se"]) > 0.0
    ok = ok and spot_ok and order_ok
    detail.append(f"fig2 spot={spot_ok} ordering={order_ok}")

    fig4 = figures["fig4"]
    header4 = fig4[0].split(",")
    at4 = _row_at(fig4, 0.5)
    fig4_ok = (
        abs(float(at4["r_mw_sc"]) - 1.9702) <= 2e-4
        and abs(float(at4["r_mw_se"]) - 2.3604) <= 2e-4
        and all(
            float(dict(zip(header4, line.split(",")))["r_omega_se"])
            > float(dict(zip(header4, line.split(",")))["r_omega_sc"])
            for line in fig4[1:]
        )
    )
    ok = ok and fig4_ok
    detail.append(f"fig4 spot+ordering={fig4_ok}")

    at6 = _row_at(figures["fig6"], 3.0)
    fig6_ok = (
        abs(float(at6["cop_omega_adi"]) - 2.0379) <= 2e-4
        and abs(float(at6["cop_omega_sc"]) - 0.5010) <= 2e-4
        and abs(float(at6["cop_omega_se"]) - 0.3300) <= 2e-4
        and abs(float(at6["cop_omega_ss"]) - 0.1733) <= 2e-4
    )
    # below zeta_c = 1 the se/ss cooling windows are empty: their cells too
    below6 = _row_at(figures["fig6"], 0.5)
    gaps_ok = below6["cop_omega_se"] == below6["cop_omega_ss"] == "" and below6["cop_omega_sc"] != ""
    ok = ok and fig6_ok and gaps_ok
    detail.append(f"fig6 spot={fig6_ok} gaps={gaps_ok}")
    _report("c9_end_to_end", ok, "; ".join(detail))
