"""The sc/se/ss algebra of both devices, checked in exact rational arithmetic.

The library's sc/se optima rest on hand-derived algebra: the stationarity
cubic whose roots are the stationary points of the ratio gain/cost, the
Omega relation z_Omega^3 = tau (2 - eta_max)/2 (engine) or
tau zeta_max/(2 + zeta_max) (fridge), and the factored ratios it evaluates.
The ss optima rest on a quadratic in u = z^2, the choice of its root, and
the same Omega relations with z^4 in place of z^3.  Every form is read from
``ottolab.model`` and evaluated on polynomial quotients in z with
``fractions.Fraction`` coefficients, at random rational tau (and peaks), so
a check is exact at the points it draws.  ``test_model.py`` shows that the
same text in float is ``cycle``'s forms bit for bit, so the proofs cover the
float code that ships.

From points to a proof: tau enters each gain and cost linearly and never a
denominator, so every numerator below is a polynomial in tau (and in the
peak) of stated degree.  Dividing a numerator of z-degree n by a divisor of
z-degree m whose coefficients have degree c in a parameter takes
n - m + 1 steps; cleared of the divisor's leading coefficient, the
remainder then has degree at most deg + (n - m + 1) c in that parameter
(``_degree_bound``).  A polynomial of degree d that vanishes at more than d
points vanishes everywhere, so each test draws more points than its bound.
The numerators of d(gain/cost)/dz have z-degree 8, 5, 4 and 3 (engine sc,
se, fridge sc, se): a remainder of degree at most 14 in tau, and 16 taus
are drawn.  Those of dOmega/dz have the same z-degrees: at most 7 in tau
and in the peak, and a grid of 9 taus by 9 peaks is drawn.  The ss
numerators have z-degree 9 (engine) and 5 (fridge), over a quartic in z:
at most 14 in tau for the ratio, 7 in tau and in the peak for Omega.
"""

import random
from fractions import Fraction

import pytest

from exact_poly import Z, degree, divide, mul
from ottolab import model

SEED = 20250810

DEVICES = {
    "engine": (model.engine_pair, model.eta_ratio),
    "fridge": (model.fridge_pair, model.cop_ratio),
}

#: each device's ss pair in u = z^2, the sign of the square root
#: r = sqrt(2 tau) in its core's root s = 2 eps/(2 -+ r) of the quadratic
#: in s = 1 - u, eps = 1 - tau, and the ratio peak of its ``_omega_core``
#: at (tau, r), with delta = (zeta_c - 1)/(zeta_c + 1) = 2 tau - 1
SS_DEVICES = {
    "engine": (model.ss_engine_pair, 1,
               lambda tau, r: (1 - tau) * r / ((2 + r) * (tau + r))),
    "fridge": (model.ss_fridge_pair, -1,
               lambda tau, r: ((2 * tau - 1) / (1 + r)) ** 2 / (1 - tau)),
}


def _omega_divisor(device, regime, tau, peak):
    """z^n - rhs of the device's Omega relation, constant term first.
    Times the denominator of rhs, 2 (engine) or 2 + peak (fridge), its
    coefficients have degree 1 in tau and in the peak; a divisor times a
    nonzero constant leaves the same remainder."""
    n, rhs = model.omega_relation(device, regime, tau, peak)
    return [-rhs] + [0] * (n - 1) + [1]


def _ss_quartic(tau):
    """The ss quadratic of ``model.stationarity`` in u = z^2 as a quartic in
    z, constant term first: coefficients of degree at most 2 in tau."""
    a, b, c = model.stationarity("ss", tau)
    return [c, 0, b, 0, a]


def _degree_bound(numerator_degree, divisor_degree, parameter_degree, coefficient_degree):
    """The degree in one parameter of the remainder of a numerator (z-degree
    ``numerator_degree``, ``parameter_degree`` in the parameter) by a divisor
    whose coefficients have degree ``coefficient_degree`` in it, cleared of
    the divisor's leading coefficient."""
    steps = numerator_degree - divisor_degree + 1
    return parameter_degree + steps * coefficient_degree


def _rationals(rng, count, scale=1):
    """``count`` distinct random rationals in (0, scale)."""
    return [Fraction(scale * n, 2**30) for n in rng.sample(range(1, 2**30), count)]


@pytest.mark.parametrize("regime", ("sc", "se"))
@pytest.mark.parametrize("device", DEVICES)
def test_stationarity_cubic_divides_the_ratio_derivative(device, regime):
    """The numerator of d(gain/cost)/dz is the stationarity cubic times a
    nonzero polynomial; the other regime's cubic leaves a remainder.  The
    numerator has degree 2 in tau (gain and cost are affine in tau), the
    cubic's coefficients degree 2."""
    pair = DEVICES[device][0]
    other = "se" if regime == "sc" else "sc"
    taus = _rationals(random.Random(SEED), 16)
    degrees = []
    for tau in taus:
        gain, cost = pair(regime, Z, tau)
        numerator = (gain / cost).derivative_numerator()
        quotient, remainder = divide(numerator, model.stationarity(regime, tau)[::-1])
        assert remainder == [] and quotient != []
        assert divide(numerator, model.stationarity(other, tau)[::-1])[1] != []
        degrees.append(degree(numerator))
    assert len(taus) > _degree_bound(max(degrees), 3, 2, 2)


@pytest.mark.parametrize("regime", ("sc", "se"))
@pytest.mark.parametrize("device", DEVICES)
def test_omega_cube_divides_the_omega_derivative(device, regime):
    """Omega = 2 gain - peak cost: the numerator of dOmega/dz is the
    device's Omega cube times a nonzero polynomial, for every peak, not only
    the ratio's.  The numerator has degree 1 in tau and in the peak, the
    cube's coefficients degree 1 in each; the points form a grid, so the
    identity holds at more peaks than the bound for each of more taus than
    the bound, and so for all of them."""
    pair = DEVICES[device][0]
    rng = random.Random(SEED)
    taus, peaks = _rationals(rng, 9), _rationals(rng, 9, scale=10)
    degrees = []
    for tau in taus:
        for peak in peaks:
            gain, cost = pair(regime, Z, tau)
            numerator = (2 * gain - peak * cost).derivative_numerator()
            quotient, remainder = divide(numerator, _omega_divisor(device, regime, tau, peak))
            assert remainder == [] and quotient != []
            degrees.append(degree(numerator))
    bound = _degree_bound(max(degrees), 3, 1, 1)
    assert min(len(taus), len(peaks)) > bound


@pytest.mark.parametrize("regime", ("sc", "se"))
@pytest.mark.parametrize("device", DEVICES)
def test_factored_ratio_is_gain_over_cost(device, regime):
    """The factored ratio and gain/cost are one rational function: cross
    multiplied, each side is a product of two polynomials affine in tau, so
    of degree 2 in tau, and no division is needed."""
    pair, ratio = DEVICES[device]
    taus = _rationals(random.Random(SEED), 4)
    for tau in taus:
        gain, cost = pair(regime, Z, tau)
        factored = ratio(regime, Z, tau)
        assert factored.equals(gain / cost)
        assert not factored.equals(gain / cost * Fraction(1 + 2**-30))
    assert len(taus) > 2


@pytest.mark.parametrize("device", DEVICES)
def test_ss_quadratic_divides_the_ratio_derivative(device):
    """The ss stationarity quadratic in u = z^2 divides the numerator of
    d(gain/cost)/dz of both devices; one changed coefficient leaves a
    remainder.  The numerator has degree 2 in tau, the quadratic's
    z-coefficients degree 2."""
    pair = DEVICES[device][0]
    taus = _rationals(random.Random(SEED), 16)
    degrees = []
    for tau in taus:
        gain, cost = pair("ss", Z, tau)
        numerator = (gain / cost).derivative_numerator()
        quotient, remainder = divide(numerator, _ss_quartic(tau))
        assert remainder == [] and quotient != []
        wrong = _ss_quartic(tau)
        wrong[0] += tau
        assert divide(numerator, wrong)[1] != []
        degrees.append(degree(numerator))
    assert len(taus) > _degree_bound(max(degrees), 4, 2, 2)


@pytest.mark.parametrize("device", DEVICES)
def test_ss_omega_quartic_divides_the_omega_derivative(device):
    """As for sc/se, with z^4 in place of z^3: z_Omega^4 = tau (2 - eta_max)/2
    (engine) or tau zeta_max/(2 + zeta_max) (fridge), for every peak.  The
    numerator has degree 1 in tau and in the peak, the quartic's
    coefficients degree 1 in each."""
    pair = SS_DEVICES[device][0]
    rng = random.Random(SEED)
    taus, peaks = _rationals(rng, 9), _rationals(rng, 9, scale=10)
    degrees = []
    for tau in taus:
        for peak in peaks:
            gain, cost = pair(Z * Z, tau)
            numerator = (2 * gain - peak * cost).derivative_numerator()
            quotient, remainder = divide(numerator, _omega_divisor(device, "ss", tau, peak))
            assert remainder == [] and quotient != []
            degrees.append(degree(numerator))
    assert min(len(taus), len(peaks)) > _degree_bound(max(degrees), 4, 1, 1)


@pytest.mark.parametrize("device", SS_DEVICES)
def test_ss_core_takes_the_root_in_its_window(device):
    """In s = 1 - u and eps = 1 - tau the quadratic is (1 + eps) s^2 -
    4 eps s + 2 eps^2, with roots s = 2 eps/(2 -+ sqrt(2 tau)).  The engine's
    window, w > 0 and q_h > 0, is tau < z^2 < 1, i.e. 0 < s < eps: it holds
    only the smaller root 2 eps/(2 + sqrt(2 tau)), and the engine core takes
    that one.  The fridge's, q_c > 0 and w_in > 0, is z^2 < 2 tau - 1, i.e.
    2 eps < s < 1 (open for tau > 1/2): it holds only the larger root
    2 eps/(2 - sqrt(2 tau)), and the fridge core takes that one.  At
    tau = r^2/2 with r rational both roots are rational, so each is checked
    exactly: a root of the quadratic, in or out of the window (0 < z^2 < 1
    with gain and cost positive), and, in it, above the ratio on either
    side and equal to the peak that the device's ``_omega_core`` writes in
    closed form.

    sc/se take k = 0 (engine) and k = 2 (fridge) for the same reason.  The
    trigonometric roots -b/3 + (2/3) sqrt(p) cos(theta/3 + 2 pi k/3), with
    theta in [0, pi], order as k = 0 largest, then k = 2, then k = 1.  The
    engine window (lo, 1) borders z = 1, like s = 0 here, and holds the
    largest root; the fridge window (0, tau) or (0, sqrt(2 tau - 1)) holds
    the middle root, the smallest being negative."""
    pair, sign, peak = SS_DEVICES[device]
    low = 0 if device == "engine" else 1  # the fridge window needs r > 1
    for r in _rationals(random.Random(SEED), 8, scale=Fraction(7, 5) - low):
        r += low
        tau = r * r / 2
        eps = 1 - tau
        a, b, c = model.stationarity("ss", tau)
        roots = {k: 2 * eps / (2 + k * r) for k in (1, -1)}
        for k, s in roots.items():
            assert (a * (1 - s) + b) * (1 - s) + c == 0
            in_window = 0 < s < 1 and all(v > 0 for v in pair(1 - s, tau))
            assert in_window == (k == sign), (k, s)
        s = roots[sign]
        gain, cost = pair(1 - s, tau)
        assert gain / cost == peak(tau, r)
        for step in (Fraction(1, 10**6), Fraction(-1, 10**6)):
            near_gain, near_cost = pair(1 - s - step, tau)
            assert near_gain / near_cost < gain / cost


def test_division_is_exact():
    """(z - 1)(z^2 + 2) + 3 over z^2 + 2 is z - 1 remainder 3, and a
    quotient's derivative numerator is num' den - num den'."""
    p = [Fraction(1), 2, -1, 1]
    assert divide(p, [2, 0, 1]) == ([-1, 1], [3])
    assert mul([-1, 1], [2, 0, 1]) == [-2, 2, -1, 1]
    assert (1 / (Z * Z)).derivative_numerator() == [0, -2]
