"""Table cells against one public call per cell.

The tables evaluate each (row, regime) optimum once and read several cells
from it; every cell must still equal the public function it documents, bit
for bit, with None exactly where that function raises DomainError.
"""

import math
import sys
from collections.abc import Sequence

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ottolab import cycle, engine, fridge, tables
from ottolab.cycle import ASYMMETRIC_REGIMES, Device, Regime
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
            # repr tells -0.0 from 0.0 and None from a float: bit for bit
            assert repr(value) == repr(expected), (quantity, tag, row[0], value, expected)


@pytest.mark.parametrize(
    "device,start,stop",
    [
        (Device.ENGINE, 1e-6, 1.0 - 1e-6),
        (Device.ENGINE, 1e-6, 1e-3),
        (Device.FRIDGE, 1e-3, 1e3),
        # past both EDGE ends of the engine axis
        (Device.ENGINE, -0.01, 1.01),
        # across zeta_c = 1 (se/ss infeasible below) and past the guard
        # where tau = zeta_c/(1 + zeta_c) rounds to 1
        (Device.FRIDGE, 0.5, 9.5e15),
    ],
    ids=("engine_full", "engine_near_equilibrium", "fridge", "engine_edges", "fridge_edges"),
)
def test_sweep_cells_equal_public_calls(device, start, stop):
    header, rows = tables.sweep_table(tables.SweepSpec(device, ALL, start, stop, 301))
    assert_cells_match(header, rows)
    if device is Device.FRIDGE:
        assert any(None in row for row in rows)


@pytest.mark.parametrize(
    "device,start,stop",
    [(Device.ENGINE, -0.01, 1.01), (Device.FRIDGE, 0.5, 9.5e15)],
    ids=("engine", "fridge"),
)
def test_one_tau_check_per_row_and_one_root_per_optimum(monkeypatch, device, start, stop):
    """An all-regime sweep of two blocks applies the tau rule once per row
    (once per row and cooling window for the fridge, whose rule depends on
    it), calls the core once per (block, regime), and solves one cubic per
    admitted (row, sc/se) pair, none outside the domain."""
    module = engine if device is Device.ENGINE else fridge
    calls = dict.fromkeys(("tau_rule_rows", "core_calls", "roots"), 0)

    def rule(taus, *args, _real=module._admitted):
        calls["tau_rule_rows"] += len(taus)
        return _real(taus, *args)

    def core(*args, _real=module._omega_core):
        calls["core_calls"] += 1
        return _real(*args)

    def roots(bs, *args, _real=cycle.branch_roots):
        calls["roots"] += len(bs)
        return _real(bs, *args)

    monkeypatch.setattr(module, "_admitted", rule)
    monkeypatch.setattr(module, "_omega_core", core)
    monkeypatch.setattr(cycle, "branch_roots", roots)
    steps = tables.BLOCK_ROWS + 41
    # the rows are computed as they are read: read them all while counting
    rows = list(tables.sweep_table(tables.SweepSpec(device, ALL, start, stop, steps))[1])
    monkeypatch.undo()
    optimum = "eta_omega" if device is Device.ENGINE else "cop_omega"
    admitted = sum(
        public_cell(optimum, regime, row[0]) is not None
        for row in rows
        for regime in ASYMMETRIC_REGIMES
    )
    assert 0 < admitted < 2 * steps
    windows = 1 if device is Device.ENGINE else 2
    assert calls == {
        "tau_rule_rows": windows * steps,
        "core_calls": 2 * len(ALL),
        "roots": admitted,
    }


@pytest.mark.parametrize(
    "table",
    [lambda: ([], tables.grid(0.1, 0.9, 7)),
     lambda: tables.sweep_table(tables.SweepSpec(Device.FRIDGE, ALL, 0.5, 2.0, 7)),
     lambda: tables.figure_table("fig6")],
    ids=("grid", "fridge_sweep", "figure"),
)
def test_rows_are_a_sequence_that_agrees_with_itself(table):
    """``len``, indexes from either end, slices and repeated iteration give
    the same rows, bit for bit."""
    _, rows = table()
    assert isinstance(rows, Sequence)
    first = list(rows)
    n = len(first)
    assert len(rows) == n
    assert repr(list(rows)) == repr(first)
    assert repr([rows[i] for i in range(n)]) == repr(first)
    assert repr([rows[i] for i in range(-n, 0)]) == repr(first)
    for cut in (slice(2, 6), slice(None, None, -2), slice(-3, None), slice(5, 2), slice(1, -1, 3)):
        part = rows[cut]
        assert isinstance(part, Sequence) and len(part) == len(first[cut])
        assert repr(list(part)) == repr(first[cut]) == repr([part[i] for i in range(len(part))])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[i]


def test_grid_points_are_start_plus_i_steps():
    step = (0.9 - 0.1) / 9
    assert repr(list(tables.grid(0.1, 0.9, 10))) == repr([0.1 + i * step for i in range(10)])


@pytest.mark.parametrize("start, stop, steps, message", (
    pytest.param(0.0, 1.0, 1, "steps must be in", id="one_point"),
    pytest.param(0.0, 1.0, 2.5, "steps must be in", id="fraction"),
    pytest.param(0.0, 1.0, 1000.0, "steps must be in", id="float"),
    pytest.param(0.0, 1.0, "3", "steps must be in", id="str"),
    pytest.param(math.nan, 1.0, 3, "need start < stop", id="nan"),
    pytest.param(0.0, math.inf, 3, "need a finite start", id="infinite"),
))
def test_grid_raises_value_error(start, stop, steps, message):
    """Each ValueError of ``grid``, in a sweep as in the grid itself; a
    step count that is not an integer can reach it only from the library,
    since the CLI's ``--steps`` is an int.  The CLI's bad ranges are
    ``tests/test_cli.py::TestSweep::test_bad_grid_is_usage_error``."""
    with pytest.raises(ValueError, match=message):
        tables.grid(start, stop, steps)
    with pytest.raises(ValueError, match=message):
        tables.sweep_table(tables.SweepSpec(Device.ENGINE, ALL, start, stop, steps))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(FINITE, FINITE, st.one_of(st.integers(2, 600), st.integers(2, sys.maxsize)))
# start + 435 * step is 0.9999990000000001, one ulp above stop
@example(0.01, 0.999999, 436)
# start + 18 * step is 9.887999999999998, below stop
@example(0.633, 9.888, 19)
# a grid finer than the floats near stop: points before the last round above it
@example(-1.9218066318428852, 0.11914628464478788, 9007199254740917)
def test_grid_ends_at_stop_and_keeps_its_interior(start, stop, steps):
    """The last point is ``stop``; the points never decrease and stay in
    [start, stop]; an interior point i is ``start + i * step``, or ``stop``
    where that rounds above ``stop``.  A grid of more than 600 points is
    read at its first, middle and last three."""
    assume(start < stop)
    step = (stop - start) / (steps - 1)
    assume(math.isfinite(step))
    points = tables.grid(start, stop, steps)
    last = steps - 1
    indexes = range(steps) if steps <= 600 else sorted(
        {i for k in (1, last // 2, last - 1) for i in (k - 1, k, k + 1)}
    )
    xs = [points[i] for i in indexes]
    assert points[-1] == stop
    assert xs == sorted(xs) and start <= xs[0] and xs[-1] <= stop
    for i, x in zip(indexes, xs):
        assert x == (stop if i == last else min(start + i * step, stop)), i


def test_rows_are_computed_when_read(monkeypatch):
    """Nothing is computed when the table is made; an index computes its
    row alone, and iterating a slice only the rows it covers."""
    blocks = []

    def block(eta_cs, regimes, _real=tables._engine_block):
        blocks.append(len(eta_cs))
        return _real(eta_cs, regimes)

    monkeypatch.setattr(tables, "_engine_block", block)
    _, rows = tables.sweep_table(tables.SweepSpec(Device.ENGINE, ALL, 0.1, 0.9, 5001))
    assert blocks == []
    assert rows[-1][0] == 0.1 + 5000 * ((0.9 - 0.1) / 5000)
    assert blocks == [1]
    part = rows[100:2200]
    assert blocks == [1]
    assert len(list(part)) == 2100
    assert blocks == [1, tables.BLOCK_ROWS, 2100 - tables.BLOCK_ROWS]


def assert_views_match(header, rows, edges):
    """Iteration matches the public calls, and single-index reads and slices
    near each row index in ``edges`` (and at both ends) match iteration, bit
    for bit."""
    assert_cells_match(header, rows)
    full = list(rows)
    n = len(full)
    near = sorted({i for e in (0, *edges, n - 1) for i in range(e - 2, e + 3) if 0 <= i < n})
    assert repr([rows[i] for i in near]) == repr([full[i] for i in near])
    assert repr([rows[i - n] for i in near]) == repr([full[i] for i in near])
    cuts = [slice(e + a, e + b) for e in edges for a, b in ((-3, 3), (-1, 1), (0, 1), (-5, 0))]
    cuts += [slice(None, None, -1), slice(1, None, 2), slice(-3, 2, -1)]
    for cut in cuts:
        assert repr(list(rows[cut])) == repr(full[cut]), cut


#: rows of the block-edge sweeps: two blocks, the second short
_EDGE_STEPS = tables.BLOCK_ROWS + 12


def _first_row_where(header, rows, name, predicate):
    at = header.index(name)
    return next(i for i, row in enumerate(rows) if predicate(row[at]))


@pytest.mark.parametrize("first_admitted", [tables.BLOCK_ROWS + k for k in (-1, 0, 1)],
                         ids=("one_before_edge", "at_edge", "one_after_edge"))
def test_fridge_empty_cells_end_at_a_block_edge(first_admitted):
    """The se/ss cells are empty up to zeta_c = 1; the grid puts the last
    empty row one row before, at or one row after the end of block 0."""
    h = 2.0**-12
    start = 1.0 - (first_admitted - 0.5) * h
    spec = tables.SweepSpec(Device.FRIDGE, ALL, start, start + (_EDGE_STEPS - 1) * h, _EDGE_STEPS)
    header, rows = tables.sweep_table(spec)
    for name in ("cop_omega_se", "cop_omega_ss"):
        assert _first_row_where(header, rows, name, lambda v: v is not None) == first_admitted
    assert_views_match(header, rows, (first_admitted, tables.BLOCK_ROWS))


@pytest.mark.parametrize("edge", ("low", "high"))
def test_engine_sweep_crosses_edge_at_a_block_end(edge):
    """Rows 0..2047 lie on one side of an EDGE end of the engine axis and the
    rest on the other."""
    h = 2.0**-30
    at = engine.EDGE if edge == "low" else 1.0 - engine.EDGE
    start = at - (tables.BLOCK_ROWS - 0.5) * h
    spec = tables.SweepSpec(Device.ENGINE, ALL, start, start + (_EDGE_STEPS - 1) * h, _EDGE_STEPS)
    header, rows = tables.sweep_table(spec)
    admitted = (lambda v: v is not None) if edge == "low" else (lambda v: v is None)
    assert _first_row_where(header, rows, "eta_omega_sc", admitted) == tables.BLOCK_ROWS
    assert_views_match(header, rows, (tables.BLOCK_ROWS,))


@pytest.mark.parametrize("steps", [tables.BLOCK_ROWS + k for k in (-1, 0, 1)])
def test_tables_of_about_one_block(steps):
    spec = tables.SweepSpec(Device.ENGINE, ALL, 0.01, 0.99, steps)
    header, rows = tables.sweep_table(spec)
    assert len(rows) == steps
    assert_views_match(header, rows, (steps - 1, tables.BLOCK_ROWS))


@pytest.mark.parametrize("figure_id", tables.FIGURE_IDS)
def test_figure_cells_equal_public_calls(figure_id):
    assert_cells_match(*tables.figure_table(figure_id))


def test_unknown_figure_id_is_value_error():
    with pytest.raises(ValueError, match="fig3"):
        tables.figure_table("fig3")


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


#: engine axis starts: below, at and just under the EDGE = 1e-6 bound (down
#: to 2.7e-17 under it, tau = 1 - eta_c rounds to 1 - EDGE, so every cell of
#: such a row is admitted) and anywhere on or past the axis
_ENGINE_START = st.one_of(
    st.floats(0.0, 2e-6),
    st.sampled_from((engine.EDGE, engine.EDGE - 1e-17, engine.EDGE - 1e-16)),
    st.floats(-0.05, 1.0),
)
_ENGINE_WIDTH = st.one_of(st.floats(1e-9, 1.1), _log_uniform(-9.0, 0.0))
#: fridge axis starts below zeta_c = 1 (se/ss infeasible) and up to where
#: tau = zeta_c/(1 + zeta_c) rounds to 1
_FRIDGE_START = st.one_of(st.floats(1e-3, 1.0), _log_uniform(-3.0, 17.0))
_FRIDGE_WIDTH = st.one_of(st.floats(1e-6, 5.0), _log_uniform(-6.0, 17.0))


@st.composite
def sweep_specs(draw):
    device = draw(st.sampled_from(Device))
    engine_side = device is Device.ENGINE
    known = tables.ENGINE_QUANTITIES if engine_side else tables.FRIDGE_QUANTITIES
    start = draw(_ENGINE_START if engine_side else _FRIDGE_START)
    stop = start + draw(_ENGINE_WIDTH if engine_side else _FRIDGE_WIDTH)
    regimes = tuple(draw(st.lists(st.sampled_from(ALL), min_size=1, unique=True)))
    quantities = tuple(draw(st.lists(st.sampled_from(tuple(known)), unique=True)))
    # a spec needs start < stop and one defined (quantity, regime) column
    assume(start < stop)
    assume(any(r in known[q] for q in quantities or known for r in regimes))
    return tables.SweepSpec(device, regimes, start, stop, draw(st.integers(2, 40)), quantities)


@settings(deadline=None)
@given(sweep_specs())
@example(tables.SweepSpec(Device.ENGINE, (Regime.SUDDEN_COMPRESSION,), 1e-6 - 1e-17, 2e-6, 3,
                          ("eta_omega", "eta_max")))
def test_sweep_subsets_equal_public_calls(spec):
    """Regrouping the cells by regime holds for any regime and quantity
    subset and across the domain edges."""
    header, rows = tables.sweep_table(spec)
    assert len(header) == 1 + len(spec.columns()) and len(rows) == spec.steps
    assert_cells_match(header, rows)


@pytest.mark.parametrize("regime", ALL, ids=[r.value for r in ALL])
def test_regime_tokens_answer_as_their_members(regime):
    by_member = tables.SweepSpec(Device.ENGINE, (regime,), 0.1, 0.9, 5)
    by_token = by_member._replace(regimes=(regime.value,))
    assert by_token.columns() == by_member.columns()
    (header, rows), (expected_header, expected_rows) = map(tables.sweep_table, (by_token, by_member))
    assert header == expected_header
    assert repr(list(rows)) == repr(list(expected_rows))


_SC, _SE = Regime.SUDDEN_COMPRESSION, Regime.SUDDEN_EXPANSION


@pytest.mark.parametrize("regimes, quantities, expected", (
    ((_SC, _SE, _SC), ("eta_omega",), [("eta_omega", _SC), ("eta_omega", _SE)]),
    ((_SE,), ("eta_max", "eta_omega", "eta_max"), [("eta_max", _SE), ("eta_omega", _SE)]),
    (("sc", _SC), ("eta_omega",), [("eta_omega", _SC)]),
), ids=("regime", "quantity", "token_and_member"))
def test_repeated_regime_or_quantity_is_one_column(regimes, quantities, expected):
    """Each (quantity, regime) pair is one column, in first-seen order."""
    spec = tables.SweepSpec(Device.ENGINE, regimes, 0.1, 0.9, 3, quantities)
    assert spec.columns() == expected
    header, rows = tables.sweep_table(spec)
    assert header == ["eta_c"] + [f"{q}_{r.value}" for q, r in expected]
    assert all(len(row) == len(header) for row in rows)


def test_unknown_regime_in_a_sweep_is_domain_error():
    with pytest.raises(DomainError, match="unknown regime"):
        tables.sweep_table(tables.SweepSpec(Device.FRIDGE, ("bogus",), 0.1, 0.9, 5))


def test_device_token_answers_as_its_member():
    by_token = tables.SweepSpec("engine", (Regime.SUDDEN_COMPRESSION,), 0.1, 0.9, 3)
    by_member = by_token._replace(device=Device.ENGINE)
    assert by_token.axis == "eta_c"
    assert by_token.columns() == by_member.columns()
    (header, rows), (expected_header, expected_rows) = map(tables.sweep_table, (by_token, by_member))
    assert header[:2] == ["eta_c", "eta_omega_sc"] and header == expected_header
    assert repr(list(rows)) == repr(list(expected_rows))


def test_unknown_device_in_a_sweep_is_domain_error():
    with pytest.raises(DomainError, match="unknown device"):
        tables.sweep_table(tables.SweepSpec("bogus", ALL, 0.1, 0.9, 5))
