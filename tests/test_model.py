"""``ottolab.model`` is ``cycle``'s forms in float, and exact in rationals.

The exact proofs of ``test_algebra.py``, the 60-digit references of
``test_accuracy.py`` and the oracle of ``verification`` all read the model.
Here each model form, evaluated in float over seeded draws in each admitted
window, equals its ``cycle`` counterpart bit for bit, so those checks cover
the float code that ships.  The model must also stay number-generic: every
entry returns an exact value for ``Fraction`` inputs (a stray float literal
would turn the exact checks into float checks), runs under ``Decimal`` and
``mpf`` and agrees there with the rational value, and the module imports
nothing.
"""

import ast
import decimal
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from ottolab import cycle, engine, fridge, model
from ottolab.cycle import ASYMMETRIC_REGIMES, EDGE, Device, Regime

SEED = 20250810
DRAWS = 2000

#: per device: its admitted tau range, its pair and its ratio in the model
#: and in ``cycle``, and its table of the checked steps of ``cycle``
DEVICES = {
    Device.ENGINE: ((EDGE, 1.0 - EDGE), model.engine_pair, cycle._engine_pair,
                    model.eta_ratio, cycle._eta_ratios, engine._ENGINE),
    Device.FRIDGE: ((fridge.TAU_MIN, 1.0 - 2.0**-53), model.fridge_pair, cycle._fridge_pair,
                    model.cop_ratio, cycle._cop_ratios, fridge._FRIDGE),
}


def _bits(values):
    """The exact bits of each float, signed zeros told apart."""
    return [float.hex(v) for v in values]


def _near_an_end(rng, lo, hi):
    """A float in [lo, hi] at a log-uniform distance from a random end,
    from 1e-12 of the width up to the whole width."""
    d = (hi - lo) * 10.0 ** rng.uniform(-12.0, 0.0)
    return lo + d if rng.random() < 0.5 else hi - d


def _draws(device, regime):
    """Seeded (z, tau): tau toward both ends of the device's admitted range
    (above 1/2 where the cooling window needs it), and z toward both ends
    of the window at tau, the fridge's from EDGE times its upper end."""
    rng = random.Random(SEED)
    lo_tau, hi_tau = DEVICES[device][0]
    if device is Device.FRIDGE and regime in cycle.SUDDEN_EXPANSION_REGIMES:
        lo_tau = math.nextafter(0.5, 1.0)
    for _ in range(DRAWS):
        tau = _near_an_end(rng, lo_tau, hi_tau)
        lo, hi = cycle.feasible_interval(device, regime, tau)
        yield _near_an_end(rng, EDGE * hi if device is Device.FRIDGE else lo, hi), tau


@pytest.mark.parametrize("regime", list(Regime), ids=[r.value for r in Regime])
@pytest.mark.parametrize("device", list(DEVICES), ids=[d.value for d in DEVICES])
def test_pairs_are_cycles_bit_for_bit(device, regime):
    _, pair, cycle_pair, *_ = DEVICES[device]
    for z, tau in _draws(device, regime):
        assert _bits(pair(regime, z, tau)) == _bits(cycle_pair(regime, z, tau)), (z, tau)


@pytest.mark.parametrize("regime", ASYMMETRIC_REGIMES, ids=("sc", "se"))
@pytest.mark.parametrize("device", list(DEVICES), ids=[d.value for d in DEVICES])
def test_ratios_and_omega_cubes_are_cycles_bit_for_bit(device, regime):
    """The factored ratio at each draw, and z_Omega^3 of the device table at
    the draw's tau with the ratio there as the peak."""
    _, _, _, ratio, cycle_ratios, table = DEVICES[device]
    zs, taus = map(list, zip(*_draws(device, regime)))
    ratios = cycle_ratios(regime, zs, taus)
    assert _bits(ratio(regime, z, tau) for z, tau in zip(zs, taus)) == _bits(ratios)
    rhs = [model.omega_relation(device, regime, tau, peak) for tau, peak in zip(taus, ratios)]
    assert {n for n, _ in rhs} == {3}
    assert _bits(r for _, r in rhs) == _bits(table["cubes"](taus, ratios))


@pytest.mark.parametrize("regime", ASYMMETRIC_REGIMES, ids=("sc", "se"))
def test_monic_cubics_are_cycles_bit_for_bit(regime):
    """At the taus of both devices' draws, the model's coefficients divided
    through by the leading one."""
    taus = [tau for device in DEVICES for _, tau in _draws(device, regime)]
    monic = [[x / a for x in rest] for a, *rest in (model.stationarity(regime, t) for t in taus)]
    assert list(map(_bits, zip(*monic))) == list(map(_bits, cycle.stationarity_cubic(regime, taus)))


def _entries(z, tau, peak):
    """Every value of every model entry at (z, tau) and a peak, by name."""
    calls = {}
    for regime in ("sc", "se", "ss", "adi"):
        calls[f"engine_pair {regime}"] = model.engine_pair(regime, z, tau)
        calls[f"fridge_pair {regime}"] = model.fridge_pair(regime, z, tau)
        for device in ("engine", "fridge"):
            calls[f"omega {device} {regime}"] = model.omega_relation(device, regime, tau, peak)
    for regime in ("sc", "se"):
        calls[f"ratios {regime}"] = model.eta_ratio(regime, z, tau), model.cop_ratio(regime, z, tau)
    for regime in ("sc", "se", "ss"):
        calls[f"stationarity {regime}"] = model.stationarity(regime, tau)
    calls["ss pairs"] = model.ss_engine_pair(z * z, tau) + model.ss_fridge_pair(z * z, tau)
    return {f"{name}[{i}]": v for name, values in calls.items() for i, v in enumerate(values)}


#: one rational point where no form divides by zero, and the entries there
POINT = Fraction(2, 3), Fraction(3, 7), Fraction(5, 11)
EXACT = _entries(*POINT)


def test_rational_inputs_give_exact_values():
    """A Fraction, or an int where the form holds an integer constant (a
    power n or a constant coefficient); never a float."""
    assert len(EXACT) == 51
    assert not {name: v for name, v in EXACT.items() if type(v) not in (Fraction, int)}
    assert sum(type(v) is Fraction for v in EXACT.values()) == 40


#: per number type: its digits, a context that sets them, and the value of
#: a rational in it
NUMBER_TYPES = {
    "decimal": (50, lambda: decimal.localcontext(decimal.Context(prec=50)),
                lambda q: decimal.Decimal(q.numerator) / q.denominator),
    "mpf": (60, lambda: mp.workdps(60), lambda q: mpf(q.numerator) / q.denominator),
}


@pytest.mark.parametrize("kind", NUMBER_TYPES)
def test_number_types_agree_with_rationals(kind):
    """Each entry of that type, or an int that is the rational entry, within
    10^-(digits - 5) of the rational value, relative."""
    digits, context, convert = NUMBER_TYPES[kind]
    number = type(convert(POINT[0]))
    with context():
        values = _entries(*map(convert, POINT))
        tol = convert(Fraction(1, 10 ** (digits - 5)))
        far = [n for n, v in values.items() if not (
            type(v) is number and abs(v - convert(EXACT[n])) <= tol * abs(convert(EXACT[n]))
            or type(v) is int and v == EXACT[n]
        )]
    assert not far, far


def test_model_imports_nothing():
    """No import at all, no numeric literal but an int, and no operator but
    + - * / between two operands."""
    with open(model.__file__, encoding="utf-8") as f:
        nodes = list(ast.walk(ast.parse(f.read())))
    assert not [n for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))]
    constants = [n.value for n in nodes if isinstance(n, ast.Constant)]
    numbers = [v for v in constants if not isinstance(v, str)]
    assert numbers and all(type(v) is int for v in numbers), numbers
    operators = {type(n.op) for n in nodes if isinstance(n, ast.BinOp)}
    assert operators <= {ast.Add, ast.Sub, ast.Mult, ast.Div}, operators
