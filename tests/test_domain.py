"""One domain rule per device, over all floats.

Every public entry of ``engine`` and ``fridge`` converts its own coordinate
(eta_c, zeta_c or tau) to tau and applies the device's one tau rule, and
checks a ratio z against the operating window at that tau.  So:

(a) the entries that take tau admit exactly the inputs that the entries
    taking eta_c = 1 - tau or zeta_c = tau/(1 - tau) admit;
(b) every public call returns finite numbers or raises DomainError;
(c) a repeated call returns the same bits;
(d) a regime token ('sc', 'se', 'adi', 'ss') answers as its ``Regime``
    member, and any other regime value is a DomainError;
(e) ``omega_objective`` is ``point_at``'s Omega, the same bits or the same
    DomainError;
(f) the exact ledger of any configuration is finite and keeps the first law
    exactly, or raises DomainError;
(g) the paper's orderings hold over the whole admitted domain, not only on
    ``verify``'s mid-range grids: for the engine at every log-spaced eta_c
    out to both edges, for the symmetric fridge (adi, ss) at every
    log-spaced zeta_c out to the guard where tau rounds to 1.  The fridge's
    sc/se claims (COP_Omega(sc) > COP_Omega(se), a COP_Omega that never
    falls) fail from zeta_c of about 2.7e6 up, where the sc/se cubic roots
    lose their accuracy, and are not claimed here.

The inputs range over every float (nan, +-inf, subnormals) and the sliver
just under eta_c = EDGE, where tau = 1 - eta_c rounds to 1 - EDGE.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ottolab import engine, fridge
from ottolab.cycle import (
    CycleConfig,
    Device,
    Regime,
    StrokeProtocol,
    energy_ledger,
    feasible_interval,
)
from ottolab.errors import DomainError

SC = Regime.SUDDEN_COMPRESSION
SE = Regime.SUDDEN_EXPANSION
SS = Regime.SUDDEN_SWITCH
ADI = Regime.ADIABATIC
ASYM = (SC, SE)

#: eta_c up to 2.7e-17 under EDGE: tau = 1 - eta_c rounds to 1 - EDGE
SLIVER = engine.EDGE - 1e-17

#: every float, with extra weight on the unit interval and on a log scale
FLOATS = st.one_of(
    st.floats(),
    st.floats(0.0, 1.0),
    st.floats(-323.0, 308.0).map(lambda e: 10.0**e),
)

#: every public function, called at (regime, eta_c or zeta_c, tau, z, eta)
PUBLIC = {
    "engine.z_star_max_eta": lambda r, x, t, z, e: engine.z_star_max_eta(r, t),
    "engine.eta_max": lambda r, x, t, z, e: engine.eta_max(r, t),
    "engine.omega_objective": lambda r, x, t, z, e: engine.omega_objective(r, z, t),
    "engine.eta_at_max_omega": lambda r, x, t, z, e: engine.eta_at_max_omega(r, x),
    "engine.eta_max_work": lambda r, x, t, z, e: engine.eta_max_work(r, x),
    "engine.taylor_coeffs": lambda r, x, t, z, e: engine.taylor_coeffs(r),
    "engine.fractional_loss": lambda r, x, t, z, e: engine.fractional_loss(e, x),
    "engine.fractional_loss_max_work":
        lambda r, x, t, z, e: engine.fractional_loss_max_work(r, x),
    "engine.point_at": lambda r, x, t, z, e: engine.point_at(r, z, t),
    "fridge.z_star_max_cop": lambda r, x, t, z, e: fridge.z_star_max_cop(r, x),
    "fridge.cop_max": lambda r, x, t, z, e: fridge.cop_max(r, x),
    "fridge.omega_objective": lambda r, x, t, z, e: fridge.omega_objective(r, z, t),
    "fridge.cop_at_max_omega": lambda r, x, t, z, e: fridge.cop_at_max_omega(r, x),
    "fridge.point_at": lambda r, x, t, z, e: fridge.point_at(r, z, t),
}


def outcome(call, *args):
    """The numbers a call returns, or the type of the DomainError it raises;
    any other exception propagates."""
    try:
        result = call(*args)
    except DomainError as exc:
        return type(exc)
    if isinstance(result, engine.TracedValue):
        return (result.value, *result.trace.values())
    return tuple(result) if isinstance(result, tuple) else (result,)


def bits(result):
    return result if isinstance(result, type) else [v.hex() for v in result]


@settings(max_examples=500, deadline=None)
@given(regime=st.sampled_from(ASYM), eta_c=FLOATS)
@example(regime=SC, eta_c=SLIVER)
@example(regime=SE, eta_c=SLIVER)
def test_engine_tau_entries_admit_what_eta_c_entries_admit(regime, eta_c):
    tau = 1.0 - eta_c
    outcomes = [outcome(f, regime, tau) for f in
                (engine.eta_max, engine.z_star_max_eta)]
    outcomes += [outcome(f, regime, eta_c) for f in
                 (engine.eta_at_max_omega, engine.eta_max_work, engine.fractional_loss_max_work)]
    assert len({o is DomainError for o in outcomes}) == 1, outcomes


@settings(max_examples=500, deadline=None)
@given(regime=st.sampled_from(ASYM), zeta_c=FLOATS)
@example(regime=SC, zeta_c=1e-50)
@example(regime=SC, zeta_c=1e-300)
@example(regime=SE, zeta_c=1.0)  # the se cooling window closes at tau = 1/2
def test_fridge_tau_entries_admit_what_zeta_c_entries_admit(regime, zeta_c):
    assume(zeta_c != -1.0)
    tau = zeta_c / (1.0 + zeta_c)
    # mid-window wherever the cooling window is open, so that only the tau
    # rule can reject the tau entries; elsewhere any ratio will do
    try:
        window = feasible_interval(Device.FRIDGE, regime, tau)
    except DomainError:
        window = None
    z = window.hi / 2.0 if window and not window.empty else 0.5
    by_zeta_c = {outcome(f, regime, zeta_c) for f in
                 (fridge.cop_max, fridge.z_star_max_cop, fridge.cop_at_max_omega)}
    by_tau = {outcome(f, regime, z, tau) for f in
              (fridge.omega_objective, fridge.point_at)}
    kinds = {o if isinstance(o, type) else "value" for o in by_zeta_c | by_tau}
    assert len(kinds) == 1, (by_zeta_c, by_tau)


def assert_signs_or_domain_error(point_at, regime, z, tau, gain, cost, ratio):
    """A checked point reports gain >= 0, cost > 0 and ratio >= 0 (the
    named fields of its record), or raises DomainError."""
    try:
        point = point_at(regime, z, tau)
    except DomainError:
        return
    values = {name: getattr(point, name) for name in (gain, cost, ratio)}
    assert values[gain] >= 0.0 and values[cost] > 0.0 and values[ratio] >= 0.0, values


@settings(max_examples=1000, deadline=None)
@given(regime=st.sampled_from(ASYM), tau=st.floats(engine.EDGE, 1.0 - engine.EDGE))
@example(regime=SC, tau=1.0 - 0.7)  # the lower end once gave w = -1.2e-16
def test_engine_window_ends_give_no_negative_gain(regime, tau):
    """Both ends of the rounded engine window, where w and the efficiency
    are 0 in exact arithmetic."""
    for z in feasible_interval(Device.ENGINE, regime, tau):
        assert_signs_or_domain_error(engine.point_at, regime, z, tau, "w", "q_h", "eta")


@settings(max_examples=1000, deadline=None)
@given(regime=st.sampled_from(ASYM), zeta_c=st.floats(-6.0, 15.95).map(lambda e: 10.0**e))
@example(regime=SE, zeta_c=10.0)  # the upper end once gave q_c = -1.1e-16
def test_fridge_window_ends_give_no_negative_gain(regime, zeta_c):
    """Both ends of the checked cooling window [EDGE hi, hi]: q_c and the
    COP are 0 at hi in exact arithmetic, and so is w_in at the se hi as
    tau -> 1."""
    tau = zeta_c / (1.0 + zeta_c)
    hi = feasible_interval(Device.FRIDGE, regime, tau).hi
    for z in (fridge.EDGE * hi, hi):
        assert_signs_or_domain_error(fridge.point_at, regime, z, tau, "q_c", "w_in", "zeta")


def public_inputs(test):
    """All-float inputs, plus each input that once ended in a traceback or a
    wrong sign: ``point fridge sc 1e-50`` (negative COP), ``point fridge sc
    1e-300`` and ``... 1e13 --z 1``, ``point engine sc 0.5 --z 1e-170``."""
    test = settings(max_examples=300, deadline=None)(test)
    for x, t, z in ((1e-50, 1e-50, 0.5), (1e-300, 1e-300, 0.5),
                    (1e13, 1e13 / (1.0 + 1e13), 1.0), (0.5, 0.5, 1e-170),
                    (SLIVER, 1.0 - SLIVER, 0.9999999)):
        test = example(regime=SC, x=x, t=t, z=z, e=0.5)(test)
    return given(regime=st.sampled_from(Regime), x=FLOATS, t=FLOATS, z=FLOATS, e=FLOATS)(test)


@public_inputs
def test_public_calls_are_finite_or_domain_error(regime, x, t, z, e):
    assert set(PUBLIC) == {
        f"{module.__name__.rpartition('.')[2]}.{name}"
        for module in (engine, fridge) for name in module.__all__
        if not isinstance(getattr(module, name), type)
    }
    for name, call in PUBLIC.items():
        result = outcome(call, regime, x, t, z, e)
        if not isinstance(result, type):
            assert all(math.isfinite(v) for v in result), (name, result)


@public_inputs
def test_repeated_calls_give_identical_bits(regime, x, t, z, e):
    for name, call in PUBLIC.items():
        first, second = (bits(outcome(call, regime, x, t, z, e)) for _ in range(2))
        assert first == second, name


def shown(call, *args):
    """repr of what a call returns, or of the DomainError it raises."""
    try:
        return repr(call(*args))
    except DomainError as exc:
        return repr(exc)


@public_inputs
def test_regime_tokens_answer_as_their_members(regime, x, t, z, e):
    for name, call in PUBLIC.items():
        assert shown(call, regime.value, x, t, z, e) == shown(call, regime, x, t, z, e), name


@public_inputs
def test_omega_objective_is_point_at_omega(regime, x, t, z, e):
    for module in (engine, fridge):
        assert shown(module.omega_objective, regime, z, t) == shown(
            lambda *args: module.point_at(*args).omega_value, regime, z, t
        ), module.__name__


@pytest.mark.parametrize("regime", tuple(Regime), ids=[r.value for r in Regime])
@pytest.mark.parametrize("x,t,z", ((0.5, 0.5, 0.8), (3.0, 0.75, 0.5), (0.2, 0.8, 0.9)))
def test_regime_tokens_mid_domain(regime, x, t, z):
    for name, call in PUBLIC.items():
        assert shown(call, regime.value, x, t, z, 0.1) == shown(call, regime, x, t, z, 0.1), name


#: public entries that take no regime
REGIME_FREE = {"engine.fractional_loss"}


@pytest.mark.parametrize("token", ("xx", "SC", "", None, 0))
def test_unknown_regime_is_domain_error(token):
    for name, call in PUBLIC.items():
        if name not in REGIME_FREE:
            with pytest.raises(DomainError, match="unknown regime"):
                call(token, 0.5, 0.5, 0.8, 0.1)


SLOW, QUENCH = StrokeProtocol.ADIABATIC, StrokeProtocol.SUDDEN_SWITCH


@settings(max_examples=500, deadline=None)
@given(
    beta_c=FLOATS, beta_h=FLOATS, omega_c=FLOATS, omega_h=FLOATS,
    compression=st.sampled_from(StrokeProtocol), expansion=st.sampled_from(StrokeProtocol),
)
# an infinite frequency, a beta_h omega_h that underflows to 0, a quench
# factor that overflows, and one whose squares and product underflow to 0/0
@example(2.0, 1.0, 1.0, math.inf, SLOW, SLOW)
@example(2.0, 5e-324, 1.0, 1.0, SLOW, SLOW)
@example(2.0, 1.0, 1e-200, 1e200, QUENCH, QUENCH)
@example(1.0, 0.1, 1e-162, 1e-162, SLOW, QUENCH)
def test_exact_ledger_is_finite_or_domain_error(
    beta_c, beta_h, omega_c, omega_h, compression, expansion
):
    try:
        ledger = energy_ledger(
            CycleConfig(beta_c, beta_h, omega_c, omega_h, compression, expansion)
        )
    except DomainError:
        return
    assert all(math.isfinite(v) for v in ledger), ledger
    assert ledger.w_net == ledger.q_h + ledger.q_c, ledger


#: eta_c = g and 1 - g for g log-spaced over [1e-6, 1/2], 379 a side: 758
#: eta_c out to both edges of [1e-6, 1 - 1e-6]
_GAPS = [10.0 ** (-6.0 + i * (6.0 + math.log10(0.5)) / 378) for i in range(379)]
CLAIM_ETA_C = sorted(set(_GAPS + [1.0 - g for g in _GAPS]))


def _log_spaced(lo, hi, count):
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


def _falls(rows):
    """The rows (coordinate, chain) whose chain does not rise strictly."""
    return [(x, chain) for x, chain in rows
            if not all(a < b for a, b in zip(chain, chain[1:]))]


@pytest.mark.parametrize("regime", ASYM, ids=[r.value for r in ASYM])
def test_engine_eta_chain_over_the_domain(regime):
    """eta_mw < eta_Omega < eta_max < eta_c at every eta_c; the least
    relative step measured was 3.6e-6 (se, eta_Omega against eta_max)."""
    rows = [(eta_c, (engine.eta_max_work(regime, eta_c),
                     engine.eta_at_max_omega(regime, eta_c).value,
                     engine.eta_max(regime, 1.0 - eta_c).value,
                     eta_c))
            for eta_c in CLAIM_ETA_C]
    assert _falls(rows) == []


def test_engine_regime_ordering_over_the_domain():
    """0 < eta_Omega(ss) < eta_Omega(se) < eta_Omega(sc) < eta_Omega(adi)
    at every eta_c; the least relative step measured was 2.3e-7 (se
    against sc)."""
    rows = [(eta_c, (0.0, *(engine.eta_at_max_omega(r, eta_c).value for r in (SS, SE, SC, ADI))))
            for eta_c in CLAIM_ETA_C]
    assert _falls(rows) == []


def test_engine_sc_loses_less_than_se_over_the_domain():
    """r_Omega(sc) < r_Omega(se) and r_mw(sc) < r_mw(se) at every eta_c;
    the least relative steps measured were 3.1e-7 and 2.6e-7."""
    rows = []
    for eta_c in CLAIM_ETA_C:
        r_omega = [engine.fractional_loss(engine.eta_at_max_omega(r, eta_c).value, eta_c)
                   for r in ASYM]
        r_mw = [engine.fractional_loss_max_work(r, eta_c) for r in ASYM]
        rows += [(eta_c, tuple(r_omega)), (eta_c, tuple(r_mw))]
    assert _falls(rows) == []


def _fridge_grid(regime, count):
    """zeta_c (adi, from EDGE) or zeta_c - 1 (ss, whose cooling window opens
    at zeta_c = 1; from 1e-12) log-spaced out to 9e15, by the guard where
    tau rounds to 1 (about 9.007e15)."""
    if regime is ADI:
        return _log_spaced(1e-6, 9e15, count)
    return [1.0 + d for d in _log_spaced(1e-12, 9e15, count)]


@pytest.mark.parametrize("regime", (ADI, SS), ids=("adi", "ss"))
def test_symmetric_fridge_cop_omega_never_falls(regime):
    """COP_Omega never falls as zeta_c rises, at 20,000 log-spaced zeta_c."""
    cops = [fridge.cop_at_max_omega(regime, zeta_c).value
            for zeta_c in _fridge_grid(regime, 20_000)]
    assert [i for i in range(1, len(cops)) if cops[i] < cops[i - 1]] == []


@pytest.mark.parametrize("regime", (ADI, SS), ids=("adi", "ss"))
def test_symmetric_fridge_cop_ordering_over_the_domain(regime):
    """0 < COP_Omega(ss) < COP_Omega(adi) < zeta_c at 2,000 log-spaced
    zeta_c of each grid; the least relative steps measured were 0.81 and
    0.29."""
    rows = []
    for zeta_c in _fridge_grid(regime, 2_000):
        chain = (fridge.cop_at_max_omega(ADI, zeta_c).value, zeta_c)
        if regime is SS:
            chain = (fridge.cop_at_max_omega(SS, zeta_c).value, *chain)
        rows.append((zeta_c, (0.0, *chain)))
    assert _falls(rows) == []
