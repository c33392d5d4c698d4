"""Relative accuracy of the optima over the whole admitted domain.

The reference evaluates the same mathematics at 60 significant digits with
mpmath: the stationarity polynomial's root, found by bisection on a bracket
that holds only the wanted root, the heat/work ratio there, and the relation
z_Omega^n = tau (2 - eta_max)/2 (engine) or tau zeta_max/(2 + zeta_max)
(fridge) of the Omega optimum.  The sc/se stationarity condition is a cubic
in z and n = 3; the ss condition is the quadratic
(2 - tau) u^2 - 2 tau u + tau (2 tau - 1) = 0 in u = z^2 and n = 4; the adi
peak is the Carnot value and n = 2.  None of the closed forms' radicals
enters.  The grids run log-spaced out to both edges of the domain, where
cancellation in float arithmetic is worst.
"""

import math

import pytest
from mpmath import mp, mpf

from ottolab import engine, fridge
from ottolab.cycle import Regime

SC = Regime.SUDDEN_COMPRESSION
SE = Regime.SUDDEN_EXPANSION
ADI = Regime.ADIABATIC
SS = Regime.SUDDEN_SWITCH

REL_TOL = 1e-6
#: the max-work forms are products of terms that cannot cancel
MW_REL_TOL = 1e-14
#: the Taylor c3 estimate from the 60-digit optimum carries the c4 eta_c term
C3_REL_TOL = 1e-8
POINTS = 25

#: eta_c = g and 1 - g for g log-spaced over [1e-6, 1/2]: both edges of
#: [1e-6, 1 - 1e-6] included
_GAPS = [10.0 ** (-6.0 + i * (6.0 + math.log10(0.5)) / (POINTS - 1)) for i in range(POINTS)]
ETA_C = sorted(set(_GAPS + [1.0 - g for g in _GAPS]))
#: zeta_c (sc, adi) or zeta_c - 1 (se, ss) log-spaced over [1e-6, 1e6]
ZETA_OFFSETS = [10.0 ** (-6.0 + 12.0 * i / (POINTS - 1)) for i in range(POINTS)]
#: the adi fridge's closed form has no cubic; it is held to ADI_FRIDGE_REL_TOL
#: out to the guard where tau = zeta_c/(1 + zeta_c) rounds to 1 (about
#: 9.007e15): zeta_c log-spaced over [1e-6, 9e15], 8 points a decade
ADI_FRIDGE_REL_TOL = 1e-14
ADI_FRIDGE_ZETA = [1e-6 * (9e21 ** (i / 175)) for i in range(176)]
#: the adi engine's closed form has no cubic either; it is held to
#: ADI_ENGINE_REL_TOL over ETA_C, out to both edges
ADI_ENGINE_REL_TOL = 1e-14
#: the ss forms in s = 1 - z^2 have no cancelling term either; they are held
#: to SS_REL_TOL over ETA_C (engine) and over SS_FRIDGE_ZETA: zeta_c - 1
#: log-spaced over [1e-12, 9e15], 8 points a decade, out to the guard
SS_REL_TOL = 1e-14
SS_FRIDGE_ZETA = [1.0 + 1e-12 * (9e27 ** (i / 223)) for i in range(224)]


def _bisect(f, lo, hi):
    f_lo = f(lo)
    assert f_lo * f(hi) < 0
    for _ in range(210):  # 2^-210 is below 60 digits
        mid = (lo + hi) / 2
        f_mid = f(mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


#: the power n of the Omega relation z_Omega^n = ...
_OMEGA_POWER = {SC: 3, SE: 3, SS: 4, ADI: 2}


def _stationary_root(regime, tau, engine_side):
    """Largest root (engine) or middle root (fridge) of the sc/se
    stationarity cubic, or z for the larger (engine) or smaller (fridge) root
    u = z^2 of the ss quadratic; the polynomial's local minimum separates
    the two."""
    if regime is SC:
        def f(z):
            return ((2 - tau) * z * z - 3 * tau) * z + 2 * tau * tau

        z_min = mp.sqrt(tau / (2 - tau))
    elif regime is SE:
        def f(z):
            return (2 * z - 3 * tau) * z * z + tau * (2 * tau - 1)

        z_min = tau
    else:
        def f(z):
            u = z * z
            return ((2 - tau) * u - 2 * tau) * u + tau * (2 * tau - 1)

        z_min = mp.sqrt(tau / (2 - tau))
    return _bisect(f, z_min, mpf(1)) if engine_side else _bisect(f, mpf(0), z_min)


def _eta(regime, z, tau):
    if regime is SC:
        q_h = 1 - (tau / 2) * (1 + 1 / (z * z))
        w = (1 - z) * (1 - (1 + z) * tau / (2 * z * z))
    elif regime is SE:
        q_h = 1 - tau / z
        w = (z - 1) * (tau / z - (1 + z) / 2)
    elif regime is SS:
        q_h = (z * z * (2 - tau) - tau) / (2 * z * z)
        w = (1 - z * z) * (z * z - tau) / (2 * z * z)
    else:
        q_h = (z - tau) / z
        w = (1 - z) * (z - tau) / z
    return w / q_h


def _cop(regime, z, tau):
    if regime is SC:
        q_c = tau - z
        w_in = (1 - z) * (tau * (1 + z) / (2 * z * z) - 1)
    elif regime is SE:
        q_c = tau - (1 + z * z) / 2
        w_in = (1 - z) * (tau / z - (z + 1) / 2)
    elif regime is SS:
        q_c = tau - (1 + z * z) / 2
        w_in = (1 - z * z) * (tau - z * z) / (2 * z * z)
    else:
        q_c = tau - z
        w_in = (1 - z) * (tau - z) / z
    return q_c / w_in


def engine_reference(regime, tau):
    """(z*, eta_max, z_Omega, eta at z_Omega) at an mpf tau; adi peaks at
    the Carnot efficiency, in the corner z* = tau of its window."""
    if regime is ADI:
        z, peak = tau, 1 - tau
    else:
        z = _stationary_root(regime, tau, engine_side=True)
        peak = _eta(regime, z, tau)
    z_omega = mp.root(tau * (2 - peak) / 2, _OMEGA_POWER[regime])
    return z, peak, z_omega, _eta(regime, z_omega, tau)


def fridge_reference(regime, zeta_c):
    """(z*, zeta_max, COP at z_Omega) at an mpf zeta_c; adi peaks at the
    Carnot COP, in the corner z* = tau of its window."""
    tau = zeta_c / (1 + zeta_c)
    if regime is ADI:
        z, peak = tau, zeta_c
    else:
        z = _stationary_root(regime, tau, engine_side=False)
        peak = _cop(regime, z, tau)
    z_omega = mp.root(tau * peak / (2 + peak), _OMEGA_POWER[regime])
    return z, peak, _cop(regime, z_omega, tau)


class _Worst:
    def __init__(self):
        self.by_name = {}

    def add(self, name, value, reference, at):
        rel = float(abs(mpf(value) - reference) / abs(reference))
        if rel > self.by_name.get(name, (0.0, None))[0]:
            self.by_name[name] = (rel, at)

    def over(self, tol):
        return {name: worst for name, worst in self.by_name.items() if worst[0] > tol}


@pytest.mark.parametrize("regime", (SC, SE), ids=("sc", "se"))
def test_engine_optima_relative_error(regime):
    worst = _Worst()
    with mp.workdps(60):
        for eta_c in ETA_C:
            tau = 1.0 - eta_c
            z, peak, z_omega, _ = engine_reference(regime, mpf(tau))
            worst.add("z_star_max_eta", engine.z_star_max_eta(regime, tau).value, z, eta_c)
            worst.add("eta_max", engine.eta_max(regime, tau).value, peak, eta_c)
            worst.add("z_omega", engine.eta_at_max_omega(regime, eta_c).trace["z_opt"], z_omega, eta_c)
            eta_omega = engine_reference(regime, 1 - mpf(eta_c))[3]
            worst.add("eta_at_max_omega", engine.eta_at_max_omega(regime, eta_c).value,
                      eta_omega, eta_c)
    assert len(worst.by_name) == 4
    assert not worst.over(REL_TOL), worst.over(REL_TOL)


@pytest.mark.parametrize("regime", (SC, SE), ids=("sc", "se"))
def test_max_work_relative_error(regime):
    """Both asymmetric regimes do their maximum work at z = tau^(1/3)."""
    worst = _Worst()
    with mp.workdps(60):
        for eta_c in ETA_C:
            tau = 1 - mpf(eta_c)
            eta_mw = _eta(regime, mp.cbrt(tau), tau)
            worst.add("eta_max_work", engine.eta_max_work(regime, eta_c), eta_mw, eta_c)
            worst.add("fractional_loss_max_work", engine.fractional_loss_max_work(regime, eta_c),
                      mpf(eta_c) / eta_mw - 1, eta_c)
    assert len(worst.by_name) == 2
    assert not worst.over(MW_REL_TOL), worst.over(MW_REL_TOL)


@pytest.mark.parametrize("regime", (SC, SE), ids=("sc", "se"))
def test_taylor_c3_matches_reference(regime):
    """c3 ~ (eta_Omega - c1 eta_c - c2 eta_c^2)/eta_c^3 at small eta_c, with
    the exact c1 and c2 and the 60-digit Omega optimum."""
    with mp.workdps(60):
        sqrt3 = mp.sqrt(3)
        c1 = 11 * sqrt3 / 4 - mpf(9) / 2
        c2 = (8339 - 4804 * sqrt3) / 144 if regime is SC else (1414 - 815 * sqrt3) / 36
        closed = engine.taylor_coeffs(regime).c3
        for eta_c in (mpf(1e-8), mpf(1e-10)):
            eta_omega = engine_reference(regime, 1 - eta_c)[3]
            estimate = (eta_omega - c1 * eta_c - c2 * eta_c**2) / eta_c**3
            assert float(abs(estimate - closed) / abs(estimate)) <= C3_REL_TOL, (eta_c, estimate)


@pytest.mark.parametrize("regime", (SC, SE), ids=("sc", "se"))
def test_fridge_optima_relative_error(regime):
    worst = _Worst()
    with mp.workdps(60):
        for offset in ZETA_OFFSETS:
            zeta_c = offset if regime is SC else 1.0 + offset
            z, peak, cop_omega = fridge_reference(regime, mpf(zeta_c))
            worst.add("z_star_max_cop", fridge.z_star_max_cop(regime, zeta_c).value, z, zeta_c)
            worst.add("cop_max", fridge.cop_max(regime, zeta_c).value, peak, zeta_c)
            worst.add("cop_at_max_omega", fridge.cop_at_max_omega(regime, zeta_c).value,
                      cop_omega, zeta_c)
    assert len(worst.by_name) == 3
    assert not worst.over(REL_TOL), worst.over(REL_TOL)


@pytest.mark.parametrize("regime", (ADI, SS), ids=("adi", "ss"))
def test_symmetric_engine_omega_relative_error(regime):
    worst = _Worst()
    with mp.workdps(60):
        for eta_c in ETA_C:
            eta_omega = engine_reference(regime, 1 - mpf(eta_c))[3]
            worst.add("eta_at_max_omega", engine.eta_at_max_omega(regime, eta_c).value,
                      eta_omega, eta_c)
    assert len(worst.by_name) == 1
    assert not worst.over(REL_TOL), worst.over(REL_TOL)


@pytest.mark.parametrize("regime", (ADI, SS), ids=("adi", "ss"))
def test_symmetric_fridge_omega_relative_error(regime):
    worst = _Worst()
    with mp.workdps(60):
        for offset in ZETA_OFFSETS:
            zeta_c = offset if regime is ADI else 1.0 + offset
            cop_omega = fridge_reference(regime, mpf(zeta_c))[2]
            worst.add("cop_at_max_omega", fridge.cop_at_max_omega(regime, zeta_c).value,
                      cop_omega, zeta_c)
    assert len(worst.by_name) == 1
    assert not worst.over(REL_TOL), worst.over(REL_TOL)


def test_adi_fridge_omega_relative_error_to_the_guard():
    """zeta_c/(sqrt((2 + zeta_c)(1 + zeta_c)) - zeta_c) cancels as zeta_c
    grows; its conjugate form must not."""
    worst = _Worst()
    with mp.workdps(60):
        for zeta_c in ADI_FRIDGE_ZETA:
            cop_omega = fridge_reference(ADI, mpf(zeta_c))[2]
            worst.add("cop_at_max_omega", fridge.cop_at_max_omega(ADI, zeta_c).value,
                      cop_omega, zeta_c)
    assert not worst.over(ADI_FRIDGE_REL_TOL), worst.over(ADI_FRIDGE_REL_TOL)


def test_adi_engine_omega_relative_error_to_the_edges():
    """1 - sqrt((2 - eta_c)(1 - eta_c)/2) cancels as eta_c -> 0; its
    conjugate form must not."""
    worst = _Worst()
    with mp.workdps(60):
        for eta_c in ETA_C:
            eta_omega = engine_reference(ADI, 1 - mpf(eta_c))[3]
            worst.add("eta_at_max_omega", engine.eta_at_max_omega(ADI, eta_c).value,
                      eta_omega, eta_c)
    assert not worst.over(ADI_ENGINE_REL_TOL), worst.over(ADI_ENGINE_REL_TOL)


def test_ss_engine_omega_relative_error_to_the_edges():
    """The ss optimum's differences u - tau and u (2 - tau) - tau cancel as
    eta_c -> 0; read in s = 1 - u and eta_c they must not."""
    worst = _Worst()
    with mp.workdps(60):
        for eta_c in ETA_C:
            eta_omega = engine_reference(SS, 1 - mpf(eta_c))[3]
            worst.add("eta_at_max_omega", engine.eta_at_max_omega(SS, eta_c).value,
                      eta_omega, eta_c)
    assert not worst.over(SS_REL_TOL), worst.over(SS_REL_TOL)


def test_ss_fridge_omega_relative_error_to_the_guard():
    """tau - u and 2 tau - 1 - u cancel as zeta_c grows, and no form that
    reads the rounded tau keeps 1 - tau; read in s = 1 - u and
    eps = 1/(1 + zeta_c) they must not cancel, from zeta_c -> 1 out to the
    guard."""
    worst = _Worst()
    with mp.workdps(60):
        for zeta_c in SS_FRIDGE_ZETA:
            cop_omega = fridge_reference(SS, mpf(zeta_c))[2]
            worst.add("cop_at_max_omega", fridge.cop_at_max_omega(SS, zeta_c).value,
                      cop_omega, zeta_c)
    assert not worst.over(SS_REL_TOL), worst.over(SS_REL_TOL)
