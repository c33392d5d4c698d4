"""Record types, start-up cost and the per-layer call counts.

Every record is one class that subclasses a ``collections.namedtuple``
and declares ``__slots__ = ()``: it unpacks, compares equal to the plain
tuple of its fields and rejects attribute assignment.  The three validated
records (``CycleConfig``, ``ReducedParams``, ``ScalarProblem``) check their
fields in their own ``__new__``, on every construction path, ``_replace``
included.  ``import ottolab.cli`` loads every layer module
(``perfbench/tracer.py`` wraps them from ``sys.modules``) without pulling in
``dataclasses``, ``inspect``, ``json`` or ``typing``.  Wrapped where they are bound,
as ``perfbench/tracer.py`` wraps them, the public layer functions count
the same calls under ``cli.main`` as when the counts were pinned.
"""

import json
import math
import os
import subprocess
import sys
import types
from collections import Counter

import pytest

from ottolab import cycle, engine, fridge, oracle, tables, verification
from ottolab.cycle import CycleConfig, Device, ReducedParams, Regime, StrokeProtocol
from ottolab.errors import DomainError
from ottolab.oracle import ScalarProblem

RECORDS = {
    "TracedValue": cycle.TracedValue(0.5, {"z_opt": 0.75}),
    "CycleConfig": CycleConfig(2.0, 1.0, 0.5, 1.0),
    "ReducedParams": ReducedParams(0.5, 0.25),
    "EnergyLedger": cycle.EnergyLedger(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
    "Interval": cycle.Interval(0.0, 1.0),
    "EnginePoint": engine.EnginePoint(0.8, 0.1, 0.2, 2.0, 0.3),
    "TaylorCoeffs": engine.taylor_coeffs(Regime.SUDDEN_COMPRESSION),
    "FridgePoint": fridge.FridgePoint(0.4, 1.5, 0.3, 0.2, 0.1),
    "ScalarProblem": ScalarProblem(abs, 0.0, 1.0),
    "OptimumReport": oracle.OptimumReport(0.5, 1.0, 10, (0.0, 1.0)),
    "SweepSpec": tables.SweepSpec(Device.ENGINE, (Regime.SUDDEN_COMPRESSION,), 0.1, 0.9, 3),
    "CheckResult": verification.CheckResult("name", True, 0.0, 1.0),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_a_named_tuple(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    assert record == tuple(record)


@pytest.mark.parametrize("name", RECORDS)
def test_record_rejects_attribute_assignment(name):
    record = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0.5)
    with pytest.raises(AttributeError):
        record.extra = 0.5


def test_defaults_are_kept():
    config = CycleConfig(2.0, 1.0, 0.5, 1.0)
    assert config.protocol_compression is StrokeProtocol.ADIABATIC
    assert config.protocol_expansion is StrokeProtocol.ADIABATIC
    assert RECORDS["SweepSpec"].quantities == ()


#: (record, field values, exception type, message) of invalid constructions
INVALID = [
    (CycleConfig, (1.0, 2.0, 0.5, 1.0), DomainError,
     "bath temperatures must satisfy beta_c > beta_h > 0, got beta_c=1.0, beta_h=2.0"),
    (CycleConfig, (2.0, 0.0, 0.5, 1.0), DomainError,
     "bath temperatures must satisfy beta_c > beta_h > 0, got beta_c=2.0, beta_h=0.0"),
    (CycleConfig, (2.0, 1.0, 1.5, 1.0, StrokeProtocol.SUDDEN_SWITCH), DomainError,
     "frequencies must satisfy 0 < omega_c <= omega_h, got omega_c=1.5, omega_h=1.0"),
    (CycleConfig, (2.0, 1.0, math.nan, 1.0), DomainError,
     "frequencies must satisfy 0 < omega_c <= omega_h, got omega_c=nan, omega_h=1.0"),
    (ReducedParams, (0.0, 0.5), DomainError, "compression ratio z=0.0 outside (0, 1]"),
    (ReducedParams, (1.5, 0.5), DomainError, "compression ratio z=1.5 outside (0, 1]"),
    (ReducedParams, (0.5, 1.0), DomainError, "temperature ratio tau=1.0 outside (0, 1)"),
    (ReducedParams, (0.5, math.nan), DomainError, "temperature ratio tau=nan outside (0, 1)"),
    (ScalarProblem, (abs, 1.0, 1.0), ValueError, "empty domain (1.0, 1.0)"),
]


@pytest.mark.parametrize("keywords", (False, True), ids=("positional", "keyword"))
@pytest.mark.parametrize("record, values, error, message", INVALID)
def test_validated_record_rejects(record, values, error, message, keywords):
    with pytest.raises(error) as excinfo:
        if keywords:
            record(**dict(zip(record._fields, values)))
        else:
            record(*values)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


@pytest.mark.parametrize("record, values, error, message", INVALID)
def test_replace_validates(record, values, error, message):
    valid = {CycleConfig: RECORDS["CycleConfig"], ReducedParams: RECORDS["ReducedParams"],
             ScalarProblem: RECORDS["ScalarProblem"]}[record]
    changes = dict(zip(record._fields, values))
    with pytest.raises(error) as excinfo:
        valid._replace(**changes)
    assert str(excinfo.value) == message
    assert type(valid._replace()) is record


_STARTUP = """
import sys
import ottolab.cli
unwanted = sorted(
    m for m in ("dataclasses", "decimal", "fractions", "inspect", "json", "typing")
    if m in sys.modules
)
layers = [layer for layer in {layers!r} if "ottolab." + layer in sys.modules]
import json
print(json.dumps(unwanted))
print(json.dumps(layers))
"""

LAYERS = ("engine", "fridge", "cycle", "cubic", "oracle", "tables", "verification")


def _bare(script: str) -> subprocess.CompletedProcess:
    """``script`` run by a fresh interpreter without site hooks, this
    tree's ``src`` first on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycle.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return done


def test_cli_import_loads_every_layer_and_no_dataclasses():
    """Without site hooks, which may import ``typing`` themselves, the CLI's
    import pulls in neither ``dataclasses``, ``decimal``, ``fractions``,
    ``inspect``, ``json`` nor ``typing``: only ``point`` writes JSON, and it
    imports ``json`` itself.  Exact arithmetic in the library (ROADMAP items
    3 and 15) imports ``decimal`` and ``fractions`` the same way, inside the
    functions that use them, since either one at module level costs a few ms
    of every ``otto-lab`` call.  ``sys.modules`` is read before the probe
    imports ``json`` to print."""
    done = _bare(_STARTUP.format(layers=LAYERS))
    unwanted, layers = (json.loads(line) for line in done.stdout.splitlines())
    assert unwanted == []
    assert layers == list(LAYERS)


def test_library_import_loads_nothing_the_cli_needs():
    """``import ottolab`` alone, without site hooks, loads neither
    ``argparse`` nor the ``gettext`` and ``locale`` that argparse imports,
    nor ``json``: a library caller pays for none of the CLI's imports."""
    done = _bare(
        "import sys, ottolab\n"
        "print(sorted(m for m in ('argparse', 'gettext', 'locale', 'json') if m in sys.modules))"
    )
    assert done.stdout == "[]\n"


#: CLI commands whose per-layer calls are counted
COUNTED_COMMANDS = (
    "point engine sc 0.5 --z 0.8",
    "point fridge se 3 --z 0.5",
    "point fridge adi 2",
    "figure --id fig6",
    "sweep --device engine --start 0.1 --stop 0.9 --steps 20",
)

#: calls per public layer function (and ``cli.main``) over COUNTED_COMMANDS
LAYER_CALLS = {
    "cli.main": 5,
    "cubic.branch_roots": 10,
    "cycle.feasible_interval": 4,
    "cycle.stationarity_cubic": 10,
    "engine.eta_at_max_omega": 1,
    "engine.eta_max_work": 1,
    "engine.fractional_loss": 1,
    "engine.fractional_loss_max_work": 1,
    "engine.omega_objective": 1,
    "engine.point_at": 2,
    "fridge.cop_at_max_omega": 2,
    "fridge.omega_objective": 1,
    "fridge.point_at": 2,
    "tables.figure_table": 1,
    "tables.grid": 2,
    "tables.sweep_table": 1,
}


def test_layer_call_counts_are_kept(monkeypatch, capsys):
    """Every ``types.FunctionType`` in the ``__all__`` of a layer module, and
    ``cli.main``, is wrapped and rebound in every loaded ``ottolab`` module.
    A step that reached a public entry through a stored reference or a
    closure would bypass its wrapper, and the per-layer metrics of the
    traced benchmark would lose its calls."""
    from ottolab import cli

    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    targets = {}
    for layer in LAYERS:
        module = sys.modules[f"ottolab.{layer}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if isinstance(fn, types.FunctionType):
                targets[id(fn)] = (fn, counted(f"{layer}.{attr}", fn))
    targets[id(cli.main)] = (cli.main, counted("cli.main", cli.main))
    for name, module in list(sys.modules.items()):
        if name == "ottolab" or name.startswith("ottolab."):
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    monkeypatch.setattr(module, attr, hit[1])
    for command in COUNTED_COMMANDS:
        assert cli.main(command.split()) == 0
    capsys.readouterr()
    assert dict(counts) == LAYER_CALLS
