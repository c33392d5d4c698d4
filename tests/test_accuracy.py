"""Relative accuracy of the optima over the whole admitted domain.

The reference evaluates the forms of ``ottolab.model`` at 60 significant
digits with mpmath: the root of the stationarity polynomial, found by
bisection (``paper_forms.bisect_root``, 210 steps) on a bracket that holds
only the wanted root, the heat/work ratio gain/cost of the model's pair
there, and the Omega relation z_Omega^n = rhs of the Omega optimum.  sc/se
solve the cubic in z, ss the quadratic in u = z^2, and the adi peak is the
Carnot value.  None of the closed forms' radicals enters.

One table, ``ROWS``, holds every optimum.  A row is a device, a regime, a
band of its coordinate, a grid over the band, and the relative bound of
each public quantity held there.  The grids run log-spaced out to both
edges of the domain, where cancellation in float arithmetic is worst.  A
(device, regime, band, quantity) listed in ``ACCURACY_BROKEN`` must miss
its bound somewhere in the band, so a fix shows here; every other entry
must meet it at every point.

``point_at`` at an arbitrary z is held to a contract that a relative bound
cannot state near a window end, where the gain tends to 0: each of its
ratio, gain and cost within CONTRACT_C u (1 + kappa_z + kappa_tau) |value|
of the 50-digit value, where u = 2^-53 and kappa_z, kappa_tau are the
componentwise condition numbers |x df/dx / f| in z and tau.
"""

import functools
import math
import random

import pytest
from mpmath import mp, mpf

from ottolab import engine, fridge, model
from ottolab.cycle import EDGE, Device, Regime, feasible_interval
from ottolab.errors import DomainError
from paper_forms import bisect_root

SC = Regime.SUDDEN_COMPRESSION
SE = Regime.SUDDEN_EXPANSION
ADI = Regime.ADIABATIC
SS = Regime.SUDDEN_SWITCH

#: the sc/se optima, whose trig root cancels near a double root of the cubic
REL_TOL = 1e-6
#: the forms with no cancelling term: the max-work forms, products of terms
#: that cannot cancel; the adi optima in their conjugate forms; and the ss
#: optima read in s = 1 - z^2 and eps (eta_c, or 1/(1 + zeta_c)), not in
#: differences of the rounded tau
TIGHT_REL_TOL = 1e-14
#: the sc/se optima at the engine's tau = 1/2 seam, where tau is exact;
#: measured at most 7.2e-16 (sc eta_Omega)
SEAM_REL_TOL = 2e-15
#: the Taylor c3 estimate from the 60-digit optimum carries the c4 eta_c term
C3_REL_TOL = 1e-8
POINTS = 25

#: eta_c = g and 1 - g for g log-spaced over [1e-6, 1/2]: both edges of
#: [1e-6, 1 - 1e-6] included
_GAPS = [10.0 ** (-6.0 + i * (6.0 + math.log10(0.5)) / (POINTS - 1)) for i in range(POINTS)]
ETA_C = sorted(set(_GAPS + [1.0 - g for g in _GAPS]))
#: eta_c at 1/2 and at 1, 2, 3, 4, 7, 12, ... 4096 float steps (log-spaced)
#: below and above it, where tau = 1 - eta_c is exact
_SEAM_STEPS = sorted({round(4096 ** (i / 17)) for i in range(18)})


def _floats_from(x, toward, steps):
    """The floats ``steps`` (ascending) nextafter steps from x toward
    ``toward``."""
    out, taken = [], 0
    for step in steps:
        for _ in range(step - taken):
            x = math.nextafter(x, toward)
        taken = step
        out.append(x)
    return out


SEAM_ETA_C = sorted(_floats_from(0.5, 0.0, _SEAM_STEPS) + [0.5] + _floats_from(0.5, 1.0, _SEAM_STEPS))
#: the fridge's offset, zeta_c (sc, adi) or zeta_c - 1 (se, ss): 25 points
#: log-spaced over the mid band [1e-6, 1e6], and 8 points a decade out to the
#: guard where tau = zeta_c/(1 + zeta_c) rounds to 1 (about 9.007e15), from
#: 1e-6 (ZETA_C) and from 1e-12 (ZETA_C_LESS_1)
_MID_OFFSETS = [10.0 ** (-6.0 + 12.0 * i / (POINTS - 1)) for i in range(POINTS)]
ZETA_C = [1e-6 * (9e21 ** (i / 175)) for i in range(176)]
ZETA_C_LESS_1 = [1e-12 * (9e27 ** (i / 223)) for i in range(224)]


def _band(offset):
    """The band of a fridge offset: mid [1e-6, 1e6], top above it, low
    below it down to 1e-9, and near1 under that, where se measured off by
    more than REL_TOL (at offsets up to 5.3e-10, 40 points a decade)."""
    if offset > 1e6:
        return "top"
    if offset >= 1e-6:
        return "mid"
    return "low" if offset >= 1e-9 else "near1"


def _grid(offsets, band):
    """The offsets of a band: the 25 points of the mid band, all of
    ``offsets`` for the whole domain, or those of ``offsets`` in any other
    band."""
    if band == "mid":
        return _MID_OFFSETS
    return offsets if band == "domain" else [x for x in offsets if _band(x) == band]


def _stationary_root(regime, tau, engine_side):
    """Largest root (engine) or middle root (fridge) of the sc/se
    stationarity cubic, or z for the larger (engine) or smaller (fridge) root
    u = z^2 of the ss quadratic; the polynomial's local minimum separates
    the two."""
    coefficients = model.stationarity(regime, tau)

    def f(z):
        x = z * z if regime is SS else z
        value = 0
        for c in coefficients:
            value = value * x + c
        return value

    z_min = tau if regime is SE else mp.sqrt(tau / (2 - tau))
    lo, hi = (z_min, mpf(1)) if engine_side else (mpf(0), z_min)
    return bisect_root(f, lo, hi, steps=210)  # 2^-210 is below 60 digits


def _eta(regime, z, tau):
    w, q_h = model.engine_pair(regime, z, tau)
    return w / q_h


def _cop(regime, z, tau):
    q_c, w_in = model.fridge_pair(regime, z, tau)
    return q_c / w_in


def engine_reference(regime, tau):
    """Each engine quantity at an mpf tau, by its public name: z*, eta_max,
    z_Omega, eta at z_Omega, and the max-work efficiency at z = tau^(1/3)
    (sc/se) with its fractional loss.  adi peaks at the Carnot efficiency,
    in the corner z* = tau of its window."""
    if regime is ADI:
        z, peak = tau, 1 - tau
    else:
        z = _stationary_root(regime, tau, engine_side=True)
        peak = _eta(regime, z, tau)
    n, rhs = model.omega_relation("engine", regime, tau, peak)
    z_omega = mp.root(rhs, n)
    eta_mw = _eta(regime, mp.cbrt(tau), tau)
    return {
        "z_star_max_eta": z, "eta_max": peak, "z_omega": z_omega,
        "eta_at_max_omega": _eta(regime, z_omega, tau),
        "eta_max_work": eta_mw, "fractional_loss_max_work": (1 - tau) / eta_mw - 1,
    }


def fridge_reference(regime, zeta_c):
    """Each fridge quantity at an mpf zeta_c, by its public name: z*,
    zeta_max and the COP at z_Omega.  adi peaks at the Carnot COP, in the
    corner z* = tau of its window."""
    tau = zeta_c / (1 + zeta_c)
    if regime is ADI:
        z, peak = tau, zeta_c
    else:
        z = _stationary_root(regime, tau, engine_side=False)
        peak = _cop(regime, z, tau)
    n, rhs = model.omega_relation("fridge", regime, tau, peak)
    return {"z_star_max_cop": z, "cop_max": peak, "cop_at_max_omega": _cop(regime, mp.root(rhs, n), tau)}


class _Worst:
    def __init__(self):
        self.by_name = {}

    def add(self, name, value, reference, at):
        rel = float(abs(mpf(value) - reference) / abs(reference))
        if rel >= self.by_name.get(name, (0.0, None))[0]:
            self.by_name[name] = (rel, at)

    def over(self, tols):
        return {name: worst for name, worst in self.by_name.items() if worst[0] > tols[name]}


def _exact_tau(eta_c):
    return 1 - mpf(eta_c)


def _rounded_tau(eta_c):
    return mpf(1.0 - eta_c)


#: each quantity's public value at the coordinate x of its row, and the
#: argument of its device's reference: the engine's peak entries take
#: tau, so they are held at the rounded tau = 1 - eta_c they are given;
#: every other entry at its coordinate, exactly
QUANTITIES = {
    "z_star_max_eta": (lambda r, x: engine.z_star_max_eta(r, 1.0 - x).value, _rounded_tau),
    "eta_max": (lambda r, x: engine.eta_max(r, 1.0 - x).value, _rounded_tau),
    "z_omega": (lambda r, x: engine.eta_at_max_omega(r, x).trace["z_opt"], _exact_tau),
    "eta_at_max_omega": (lambda r, x: engine.eta_at_max_omega(r, x).value, _exact_tau),
    "eta_max_work": (engine.eta_max_work, _exact_tau),
    "fractional_loss_max_work": (engine.fractional_loss_max_work, _exact_tau),
    "z_star_max_cop": (lambda r, x: fridge.z_star_max_cop(r, x).value, mpf),
    "cop_max": (lambda r, x: fridge.cop_max(r, x).value, mpf),
    "cop_at_max_omega": (lambda r, x: fridge.cop_at_max_omega(r, x).value, mpf),
}
REFERENCES = {"engine": engine_reference, "fridge": fridge_reference}
_ENGINE_OPTIMA = ("z_star_max_eta", "eta_max", "z_omega", "eta_at_max_omega")
_FRIDGE_OPTIMA = dict.fromkeys(("z_star_max_cop", "cop_max", "cop_at_max_omega"), REL_TOL)
_ETA_OMEGA = {"eta_at_max_omega": TIGHT_REL_TOL}
_COP_OMEGA = {"cop_at_max_omega": TIGHT_REL_TOL}

#: (device, regime, band, grid, {quantity: relative bound}); each row holds
#: one bound, which its id ends with
ROWS = [
    *[("engine", regime, "domain", ETA_C, tols) for regime in (SC, SE) for tols in (
        dict.fromkeys(_ENGINE_OPTIMA, REL_TOL),
        dict.fromkeys(("eta_max_work", "fractional_loss_max_work"), TIGHT_REL_TOL),
    )],
    *[("engine", regime, "seam", SEAM_ETA_C, dict.fromkeys(_ENGINE_OPTIMA, SEAM_REL_TOL))
      for regime in (SC, SE)],
    ("engine", ADI, "domain", ETA_C, _ETA_OMEGA),
    ("engine", SS, "domain", ETA_C, _ETA_OMEGA),
    *[("fridge", SC, band, _grid(ZETA_C, band), _FRIDGE_OPTIMA) for band in ("mid", "top")],
    *[("fridge", SE, band, [1.0 + x for x in _grid(ZETA_C_LESS_1, band)], _FRIDGE_OPTIMA)
      for band in ("near1", "low", "mid", "top")],
    *[("fridge", ADI, band, _grid(ZETA_C, band), _COP_OMEGA) for band in ("mid", "domain")],
    *[("fridge", SS, band, [1.0 + x for x in _grid(ZETA_C_LESS_1, band)], _COP_OMEGA)
      for band in ("mid", "domain")],
]
#: (device, regime, band, quantity) that miss their bound.  Above zeta_c =
#: 1e6 the sc/se peak and COP_Omega lose every digit by about 1e8 (worst
#: about 1, from about 4.5e6 above REL_TOL); z* there stays within 1.2e-8
#: (sc) and 9.6e-9 (se).  Below zeta_c - 1 = 1e-9 every se optimum misses,
#: up to 1.1e-4 (z*), 5.1e-4 (zeta_max) and 1.9e-4 (COP_Omega) near 1e-12.
ACCURACY_BROKEN = {
    ("fridge", "sc", "top", "cop_max"), ("fridge", "sc", "top", "cop_at_max_omega"),
    ("fridge", "se", "top", "cop_max"), ("fridge", "se", "top", "cop_at_max_omega"),
    ("fridge", "se", "near1", "z_star_max_cop"), ("fridge", "se", "near1", "cop_max"),
    ("fridge", "se", "near1", "cop_at_max_omega"),
}


@pytest.mark.parametrize(
    "device, regime, band, grid, tols", ROWS,
    ids=[f"{d}-{r.value}-{band}-{max(tols.values()):g}" for d, r, band, _, tols in ROWS],
)
def test_optima_relative_error(device, regime, band, grid, tols):
    assert ACCURACY_BROKEN <= {(d, r.value, b, name) for d, r, b, _, held in ROWS for name in held}
    reference = functools.cache(REFERENCES[device])
    worst = _Worst()
    with mp.workdps(60):
        for x in grid:
            for name in tols:
                value, argument = QUANTITIES[name]
                worst.add(name, value(regime, x), reference(regime, argument(x))[name], x)
    assert set(worst.by_name) == set(tols)
    listed = {name for d, r, b, name in ACCURACY_BROKEN if (d, r, b) == (device, regime.value, band)}
    assert set(worst.over(tols)) == listed, worst.by_name


@pytest.mark.parametrize("regime", (SC, SE), ids=("sc", "se"))
def test_engine_seam_at_half(regime):
    """At eta_c = tau = 1/2 the se root moves from the arccos form to the
    cosh continuation; the rows ``engine-*-seam-*`` hold the optima there.
    Not strictly monotone: correctly rounded neighbours may step down by an
    ulp or so (measured a fall of 1.6e-16, sc), never by more than
    SEAM_REL_TOL."""
    assert len(SEAM_ETA_C) == 37
    etas = [engine.eta_at_max_omega(regime, eta_c).value for eta_c in SEAM_ETA_C]
    falls = [(a - b) / a for a, b in zip(etas, etas[1:])]
    assert max(falls) <= SEAM_REL_TOL, max(falls)


def test_taylor_coefficients_within_two_ulps():
    """The paper's c1, c2, c3 of both regimes at 60 digits.  Evaluated as
    a + b sqrt(3) in floats they cancel, and come out 3 (c1) to about 3,300
    (se c3) ulps off."""
    with mp.workdps(60):
        sqrt3 = mp.sqrt(3)
        c1 = 11 * sqrt3 / 4 - mpf(9) / 2
        exact = {
            SC: (c1, (8339 - 4804 * sqrt3) / 144, 5 * (-179246 + 103503 * sqrt3) / 1728),
            SE: (c1, (1414 - 815 * sqrt3) / 36, (-93262 + 53853 * sqrt3) / 432),
        }
        for regime, reference in exact.items():
            for closed, value in zip(engine.taylor_coeffs(regime), reference):
                ulps = float(abs(closed - value)) / math.ulp(float(value))
                assert ulps <= 2.0, (regime, float(value), ulps)


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
            eta_omega = engine_reference(regime, 1 - eta_c)["eta_at_max_omega"]
            estimate = (eta_omega - c1 * eta_c - c2 * eta_c**2) / eta_c**3
            assert float(abs(estimate - closed) / abs(estimate)) <= C3_REL_TOL, (eta_c, estimate)



#: the error contract's constant; never raised to make a draw pass
CONTRACT_C = 4.0
_U = 2.0 ** -53
CONTRACT_DRAWS = 400
#: (device, regime, quantity) that break the contract at CONTRACT_C.  The
#: engine sc ratio (2z^2 - tau z - tau)(1 - z)/(z^2 (2 - tau) - tau) cancels
#: in its numerator and denominator apart near the window's lower end at
#: small tau, where the ratio itself is well conditioned: 19 u off at
#: tau = 1.0707118507290535e-06, z = 0.0007544385782388845, where
#: kappa_z + kappa_tau is 0.6, and 4.4 times the bound in the draws below.
#: Each entry must still break the contract, so a fix shows here.
CONTRACT_BROKEN = {("engine", "sc", "ratio")}
#: per device and regime, the tau range the draws come from and, for each of
#: its ends, the least distance of a draw from it as a fraction of the width:
#: tau down to the domain floor, and up to 1 - 1e-15 for the fridge
_TAU_ENDS = {
    (Device.ENGINE, SC): (0.0, 1.0, (EDGE, EDGE)),
    (Device.ENGINE, SE): (0.0, 1.0, (EDGE, EDGE)),
    (Device.FRIDGE, SC): (0.0, 1.0, (fridge.TAU_MIN, 1e-15)),
    (Device.FRIDGE, SE): (0.5, 1.0, (2e-13, 2e-15)),
}


def _near_an_end(rng, lo, hi, floors):
    """A float at a log-uniform distance from lo or from hi, the end picked
    at random: from floors[end] times the width up to half the width."""
    end = rng.randrange(2)
    d = (hi - lo) * 10.0 ** rng.uniform(math.log10(floors[end]), math.log10(0.5))
    return lo + d if end == 0 else hi - d


def _conditioned(f, z, tau):
    """(value, kappa_z + kappa_tau) of each value of f(z, tau), the
    condition numbers by central differences of relative step 1e-20; a zero
    value gets kappa 0, so its bound is 0."""
    h = mpf(10) ** -20
    steps = [(f(z * (1 + h), tau), f(z * (1 - h), tau)), (f(z, tau * (1 + h)), f(z, tau * (1 - h)))]
    return [
        (v, sum(abs((up[i] - down[i]) / (2 * h * v)) for up, down in steps) if v else 0)
        for i, v in enumerate(f(z, tau))
    ]


@pytest.mark.parametrize("device", (Device.ENGINE, Device.FRIDGE), ids=("engine", "fridge"))
def test_point_at_error_contract(device):
    """Seeded (tau, z) draws per sc/se regime: tau log-spaced toward both
    ends of its range, and 70% of z at log-spaced distances from an end of
    the window that ``point_at`` admits (the fridge's is [EDGE hi, hi]),
    down to 1e-12 of its width.  Draws that raise DomainError are skipped.
    ``omega_value`` is not held to the contract: it reads the float ratio
    peak, whose error near tau = 1 (item 1 of ROADMAP) breaks it by far."""
    module, pair = (
        (engine, model.engine_pair) if device is Device.ENGINE else (fridge, model.fridge_pair)
    )
    rng = random.Random(20250810)
    worst = {}
    checked = 0
    for regime in (SC, SE):
        lo_tau, hi_tau, floors = _TAU_ENDS[device, regime]

        def values(z, tau):
            gain, cost = pair(regime, z, tau)
            return gain / cost, gain, cost

        for _ in range(CONTRACT_DRAWS):
            tau = _near_an_end(rng, lo_tau, hi_tau, floors)
            lo, hi = feasible_interval(device, regime, tau)
            if device is Device.FRIDGE:
                lo = EDGE * hi
            z = _near_an_end(rng, lo, hi, (1e-12, 1e-12)) if rng.random() < 0.7 else rng.uniform(lo, hi)
            try:
                point = module.point_at(regime, z, tau)
            except DomainError:
                continue
            checked += 1
            with mp.workdps(50):
                for name, got, (v, kappa) in zip(("ratio", "gain", "cost"), point[1:4],
                                                 _conditioned(values, mpf(z), mpf(tau))):
                    bound = CONTRACT_C * _U * (1 + kappa) * abs(v)
                    ratio = float(abs(mpf(got) - v) / bound) if bound else (math.inf if got != v else 0.0)
                    key = (device.value, regime.value, name)
                    if ratio > worst.get(key, (0.0,))[0]:
                        worst[key] = (ratio, tau, z)
    assert checked >= 1.8 * CONTRACT_DRAWS
    assert len(worst) == 6
    broken = {key for key, (ratio, _, _) in worst.items() if ratio > 1.0}
    assert broken == {key for key in CONTRACT_BROKEN if key[0] == device.value}, worst
