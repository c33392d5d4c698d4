"""The reference model: the high-temperature forms of both devices, typed once.

Every optimum of the library is built from a few forms, and this module
holds each of them once:

* the (gain, cost) pairs of all four regimes, (w, q_h) for the engine and
  (q_c, w_in) for the refrigerator, the ss pairs through u = z^2;
* the factored sc/se ratios gain/cost, the efficiency and the COP;
* the stationarity polynomial whose roots are the stationary points of both
  ratios, a cubic in z for sc/se and a quadratic in u = z^2 for ss;
* the relation z_Omega^n = rhs of the Omega optimum at a ratio peak.

The forms use integer literals and + - * / alone, and the module imports
nothing, so one text evaluates in float, ``fractions.Fraction``,
``decimal.Decimal``, mpmath's ``mpf`` and quotients of polynomials in z.
In float each form is its ``cycle`` counterpart bit for bit
(``tests/test_model.py``).  The test suite proves the algebra on the same
text in exact rationals (``tests/test_algebra.py``) and builds its 60-digit
references from it (``tests/test_accuracy.py``), and the oracle of
``verification`` maximizes these pairs, not ``cycle``'s.

A regime is its token, 'sc', 'se', 'ss' or 'adi', or a ``cycle.Regime``
member, which equals its token; a device is 'engine' or 'fridge', or a
``cycle.Device`` member.  Nothing is checked: every form divides by z or
by a factor of its cost wherever the algebra does.
"""


def engine_pair(regime, z, tau):
    """The engine's (gain, cost) = (w, q_h) at (z, tau)."""
    if regime == "sc":
        return (1 - z) * (1 - (1 + z) * tau / (2 * z * z)), 1 - (tau / 2) * (1 + 1 / (z * z))
    if regime == "se":
        return (z - 1) * (tau / z - (1 + z) / 2), 1 - tau / z
    if regime == "ss":
        return ss_engine_pair(z * z, tau)
    return (1 - z) * (z - tau) / z, (z - tau) / z


def ss_engine_pair(u, tau):
    """The ss engine's (w, q_h), which reads z only as u = z^2."""
    return (1 - u) * (u - tau) / (2 * u), (u * (2 - tau) - tau) / (2 * u)


def fridge_pair(regime, z, tau):
    """The refrigerator's (gain, cost) = (q_c, w_in) at (z, tau), with
    w_in = -w the engine's work taken as input."""
    if regime == "ss":
        return ss_fridge_pair(z * z, tau)
    q_c = tau - (1 + z * z) / 2 if regime == "se" else tau - z
    return q_c, -engine_pair(regime, z, tau)[0]


def ss_fridge_pair(u, tau):
    """The ss refrigerator's (q_c, w_in) in u = z^2."""
    return tau - (1 + u) / 2, -ss_engine_pair(u, tau)[0]


def eta_ratio(regime, z, tau):
    """The factored efficiency w/q_h of sc or se."""
    if regime == "sc":
        return (2 * z * z - tau * z - tau) * (1 - z) / (z * z * (2 - tau) - tau)
    return (z * z - 2 * tau + z) * (z - 1) / (2 * (tau - z))


def cop_ratio(regime, z, tau):
    """The factored COP q_c/w_in of sc or se."""
    if regime == "sc":
        return 2 * z * z * (z - tau) / ((1 - z) * (2 * z * z - tau * (1 + z)))
    return z * (2 * tau - (z * z + 1)) / ((z - 1) * (z * (1 + z) - 2 * tau))


def stationarity(regime, tau):
    """The coefficients, leading first, of the polynomial whose roots are
    the stationary points of both the efficiency and the COP of sc, se or
    ss: sc (2 - tau) z^3 - 3 tau z + 2 tau^2, se 2 z^3 - 3 tau z^2 +
    tau (2 tau - 1), and ss (2 - tau) u^2 - 2 tau u + tau (2 tau - 1) in
    u = z^2."""
    if regime == "sc":
        return [2 - tau, 0, -3 * tau, 2 * tau * tau]
    if regime == "se":
        return [2, -3 * tau, 0, tau * (2 * tau - 1)]
    return [2 - tau, -2 * tau, tau * (2 * tau - 1)]


def omega_relation(device, regime, tau, peak):
    """(n, rhs) of the Omega optimum's z_Omega^n = rhs at a ratio peak:
    rhs = tau (2 - eta_max)/2 for the engine and tau zeta_max/(2 + zeta_max)
    for the refrigerator, with n = 3 for sc/se, 4 for ss and 2 for adi."""
    n = 4 if regime == "ss" else 2 if regime == "adi" else 3
    if device == "engine":
        return n, tau * (2 - peak) / 2
    return n, tau * peak / (2 + peak)
