"""Table cells against one public call per cell.

The tables evaluate each (row, regime) optimum once and read several cells
from it; every cell must still equal the public function it documents, bit
for bit, with None exactly where that function raises DomainError.
"""

import pytest

from ottolab import engine, fridge, tables
from ottolab.cycle import Device, Regime
from ottolab.errors import DomainError

ALL = tuple(Regime)

PUBLIC = {
    "eta_omega": lambda r, x: engine.eta_at_max_omega(r, x).value,
    "eta_mw": engine.eta_max_work,
    "eta_max": lambda r, x: engine.eta_max(r, 1.0 - x).value,
    "r_omega": lambda r, x: engine.fractional_loss(engine.eta_at_max_omega(r, x).value, x),
    "r_mw": engine.fractional_loss_max_work,
    "delta": lambda r, x: engine.eta_at_max_omega(r, x).value - engine.eta_max_work(r, x),
    "cop_omega": lambda r, x: fridge.cop_at_max_omega(r, x).value,
    "cop_max": lambda r, x: fridge.cop_max(r, x).value,
}


def public_cell(quantity, regime, x):
    try:
        return PUBLIC[quantity](regime, x)
    except DomainError:
        return None


def assert_cells_match(header, rows):
    columns = [name.rpartition("_") for name in header[1:]]
    for row in rows:
        for (quantity, _, tag), value in zip(columns, row[1:]):
            expected = public_cell(quantity, Regime(tag), row[0])
            assert value == expected, (quantity, tag, row[0], value, expected)


@pytest.mark.parametrize(
    "device,start,stop",
    [
        (Device.ENGINE, 1e-6, 1.0 - 1e-6),
        (Device.ENGINE, 1e-6, 1e-3),
        (Device.FRIDGE, 1e-3, 1e3),
    ],
    ids=("engine_full", "engine_near_equilibrium", "fridge"),
)
def test_sweep_cells_equal_public_calls(device, start, stop):
    header, rows = tables.sweep_table(tables.SweepSpec(device, ALL, start, stop, 301))
    assert_cells_match(header, rows)
    if device is Device.FRIDGE:
        assert any(None in row for row in rows)


@pytest.mark.parametrize("figure_id", tables.FIGURE_IDS)
def test_figure_cells_equal_public_calls(figure_id):
    assert_cells_match(*tables.figure_table(figure_id))
