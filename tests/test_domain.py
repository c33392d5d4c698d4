"""One domain rule per device, over all floats.

Every public entry of ``engine`` and ``fridge`` converts its own coordinate
(eta_c, zeta_c or tau) to tau and applies the device's one tau rule, and
checks a ratio z against the operating window at that tau.  So:

(a) the entries that take tau admit exactly the inputs that the entries
    taking eta_c = 1 - tau or zeta_c = tau/(1 - tau) admit;
(b) every public call returns finite numbers or raises DomainError;
(c) a repeated call returns the same bits;
(d) a regime token ('sc', 'se', 'adi', 'ss') answers as its ``Regime``
    member, and any other regime value is a DomainError.

The inputs range over every float (nan, +-inf, subnormals) and the sliver
just under eta_c = EDGE, where tau = 1 - eta_c rounds to 1 - EDGE.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ottolab import engine, fridge
from ottolab.cycle import Device, Regime, feasible_interval
from ottolab.errors import DomainError

SC = Regime.SUDDEN_COMPRESSION
SE = Regime.SUDDEN_EXPANSION
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
