"""Relative accuracy of the sc/se optima over the whole admitted domain.

The reference evaluates the same mathematics at 60 significant digits with
mpmath: the stationarity cubic's root, found by bisection on a bracket that
holds only the wanted root, the heat/work ratio there, and the cube-root
relation of the Omega optimum.  The grids run log-spaced out to both edges
of the domain, where cancellation in float arithmetic is worst.
"""

import math

import pytest
from mpmath import mp, mpf

from ottolab import engine, fridge
from ottolab.cycle import Regime

SC = Regime.SUDDEN_COMPRESSION
SE = Regime.SUDDEN_EXPANSION

REL_TOL = 1e-6
POINTS = 25

#: eta_c = g and 1 - g for g log-spaced over [1e-6, 1/2]: both edges of
#: [1e-6, 1 - 1e-6] included
_GAPS = [10.0 ** (-6.0 + i * (6.0 + math.log10(0.5)) / (POINTS - 1)) for i in range(POINTS)]
ETA_C = sorted(set(_GAPS + [1.0 - g for g in _GAPS]))
#: zeta_c (sc) or zeta_c - 1 (se) log-spaced over [1e-6, 1e6]
ZETA_OFFSETS = [10.0 ** (-6.0 + 12.0 * i / (POINTS - 1)) for i in range(POINTS)]


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


def _stationary_root(regime, tau, engine_side):
    """Largest root (engine) or middle root (fridge) of the stationarity
    cubic; the cubic's local minimum separates the two."""
    if regime is SC:
        def f(z):
            return ((2 - tau) * z * z - 3 * tau) * z + 2 * tau * tau

        z_min = mp.sqrt(tau / (2 - tau))
    else:
        def f(z):
            return (2 * z - 3 * tau) * z * z + tau * (2 * tau - 1)

        z_min = tau
    return _bisect(f, z_min, mpf(1)) if engine_side else _bisect(f, mpf(0), z_min)


def _eta(regime, z, tau):
    if regime is SC:
        q_h = 1 - (tau / 2) * (1 + 1 / (z * z))
        w = (1 - z) * (1 - (1 + z) * tau / (2 * z * z))
    else:
        q_h = 1 - tau / z
        w = (z - 1) * (tau / z - (1 + z) / 2)
    return w / q_h


def _cop(regime, z, tau):
    if regime is SC:
        q_c = tau - z
        w_in = (1 - z) * (tau * (1 + z) / (2 * z * z) - 1)
    else:
        q_c = tau - (1 + z * z) / 2
        w_in = (1 - z) * (tau / z - (z + 1) / 2)
    return q_c / w_in


def engine_reference(regime, tau):
    """(z*, eta_max, z_Omega, eta at z_Omega) at an mpf tau."""
    z = _stationary_root(regime, tau, engine_side=True)
    peak = _eta(regime, z, tau)
    z_omega = mp.cbrt(tau * (2 - peak) / 2)
    return z, peak, z_omega, _eta(regime, z_omega, tau)


def fridge_reference(regime, zeta_c):
    """(z*, zeta_max, COP at z_Omega) at an mpf zeta_c."""
    tau = zeta_c / (1 + zeta_c)
    z = _stationary_root(regime, tau, engine_side=False)
    peak = _cop(regime, z, tau)
    z_omega = mp.cbrt(tau * peak / (2 + peak))
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
            worst.add("z_star_max_omega", engine.z_star_max_omega(regime, tau).value, z_omega, eta_c)
            eta_omega = engine_reference(regime, 1 - mpf(eta_c))[3]
            worst.add("eta_at_max_omega", engine.eta_at_max_omega(regime, eta_c).value,
                      eta_omega, eta_c)
    assert len(worst.by_name) == 4
    assert not worst.over(REL_TOL), worst.over(REL_TOL)


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
