"""The sc/se algebra of both devices, checked in exact rational arithmetic.

The library's sc/se optima rest on hand-derived algebra: the stationarity
cubic whose roots are the stationary points of the ratio gain/cost, the
Omega relation z_Omega^3 = tau (2 - eta_max)/2 (engine) or
tau zeta_max/(2 + zeta_max) (fridge), and the factored ratios it evaluates.
Here the high-temperature pairs and the factored ratios are typed again
from ``cycle._engine_pair``, ``cycle._fridge_pair``, ``cycle._eta_ratios``
and ``cycle._cop_ratios`` (not imported), and every identity is checked
with ``fractions.Fraction`` at random rational tau (and peaks), so a check
is exact at the points it draws.

From points to a proof: tau enters each typed gain and cost linearly and
never a denominator, so every numerator below is a polynomial in tau (and
in the peak) of stated degree.  Dividing a numerator of z-degree n by a
divisor of z-degree m whose coefficients have degree c in a parameter takes
n - m + 1 steps; cleared of the divisor's leading coefficient, the
remainder then has degree at most deg + (n - m + 1) c in that parameter
(``_degree_bound``).  A polynomial of degree d that vanishes at more than d
points vanishes everywhere, so each test draws more points than its bound.
The numerators of d(gain/cost)/dz have z-degree 8, 5, 4 and 3 (engine sc,
se, fridge sc, se): a remainder of degree at most 14 in tau, and 16 taus
are drawn.  Those of dOmega/dz have the same z-degrees: at most 7 in tau
and in the peak, and a grid of 9 taus by 9 peaks is drawn.
"""

import random
from fractions import Fraction

import pytest

from exact_poly import Z, degree, divide, mul

SEED = 20250810


def engine_pair(regime, tau, z=Z):
    """(w, q_h), as ``cycle._engine_pair`` types them."""
    if regime == "sc":
        q_h = 1 - (tau / 2) * (1 + 1 / (z * z))
        w = (1 - z) * (1 - (1 + z) * tau / (2 * z * z))
    else:
        q_h = 1 - tau / z
        w = (z - 1) * (tau / z - (1 + z) / 2)
    return w, q_h


def fridge_pair(regime, tau, z=Z):
    """(q_c, w_in), as ``cycle._fridge_pair`` types them."""
    q_c = tau - (1 + z * z) / 2 if regime == "se" else tau - z
    return q_c, -engine_pair(regime, tau, z)[0]


def eta_ratio(regime, tau, z=Z):
    """The factored w/q_h of ``cycle._eta_ratios``."""
    if regime == "sc":
        return (2 * z * z - tau * z - tau) * (1 - z) / (z * z * (2 - tau) - tau)
    return (z * z - 2 * tau + z) * (z - 1) / (2 * (tau - z))


def cop_ratio(regime, tau, z=Z):
    """The factored q_c/w_in of ``cycle._cop_ratios``."""
    if regime == "sc":
        return 2 * z * z * (z - tau) / ((1 - z) * (2 * z * z - tau * (1 + z)))
    return z * (2 * tau - (z * z + 1)) / ((z - 1) * (z * (1 + z) - 2 * tau))


def stationarity_cubic(regime, tau):
    """sc: (2 - tau) z^3 - 3 tau z + 2 tau^2; se: 2 z^3 - 3 tau z^2 + tau (2 tau - 1).
    Coefficients of degree at most 2 in tau."""
    if regime == "sc":
        return [2 * tau * tau, -3 * tau, 0, 2 - tau]
    return [tau * (2 * tau - 1), 0, -3 * tau, 2]


def engine_omega_cube(tau, peak):
    """2 (z^3 - tau (2 - eta_max)/2): coefficients of degree 1 in tau and peak."""
    return [-tau * (2 - peak), 0, 0, 2]


def fridge_omega_cube(tau, peak):
    """(2 + zeta_max) (z^3 - tau zeta_max/(2 + zeta_max)): coefficients of
    degree 1 in tau and in the peak."""
    return [-tau * peak, 0, 0, 2 + peak]


DEVICES = {
    "engine": (engine_pair, eta_ratio, engine_omega_cube),
    "fridge": (fridge_pair, cop_ratio, fridge_omega_cube),
}


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
        gain, cost = pair(regime, tau)
        numerator = (gain / cost).derivative_numerator()
        quotient, remainder = divide(numerator, stationarity_cubic(regime, tau))
        assert remainder == [] and quotient != []
        assert divide(numerator, stationarity_cubic(other, tau))[1] != []
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
    pair, _, cube = DEVICES[device]
    rng = random.Random(SEED)
    taus, peaks = _rationals(rng, 9), _rationals(rng, 9, scale=10)
    degrees = []
    for tau in taus:
        for peak in peaks:
            gain, cost = pair(regime, tau)
            numerator = (2 * gain - peak * cost).derivative_numerator()
            quotient, remainder = divide(numerator, cube(tau, peak))
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
    pair, ratio, _ = DEVICES[device]
    taus = _rationals(random.Random(SEED), 4)
    for tau in taus:
        gain, cost = pair(regime, tau)
        factored = ratio(regime, tau)
        assert factored.equals(gain / cost)
        assert not factored.equals(gain / cost * Fraction(1 + 2**-30))
    assert len(taus) > 2


def test_division_is_exact():
    """(z - 1)(z^2 + 2) + 3 over z^2 + 2 is z - 1 remainder 3, and a
    quotient's derivative numerator is num' den - num den'."""
    p = [Fraction(1), 2, -1, 1]
    assert divide(p, [2, 0, 1]) == ([-1, 1], [3])
    assert mul([-1, 1], [2, 0, 1]) == [-2, 2, -1, 1]
    assert (1 / (Z * Z)).derivative_numerator() == [0, -2]
