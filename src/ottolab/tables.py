"""Tabulated sweeps and the three canonical figure data sets.

A table is a header plus rows of float-or-None cells; None marks a grid
point outside the quantity's domain (for example the sudden-expansion fridge
below zeta_c = 1) and is rendered as an empty CSV field by the CLI.  The
rows are a lazy sequence: an index computes its row alone, and iteration
computes ``BLOCK_ROWS`` rows at a time, so a table takes the same memory
whatever its number of steps.

A block of rows applies its device's tau rule to each row (the fridge's
per row and cooling window, since it depends on the regime) and calls the
device's private Omega core once per regime, on the admitted rows only;
every cell of that regime is read from the core's columns.  The cells equal
the public functions bit for bit, with None exactly where those raise
DomainError.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable, Sequence
from itertools import compress

from . import engine, fridge
from .cycle import ASYMMETRIC_REGIMES, SUDDEN_EXPANSION_REGIMES, Device, Regime, _device, _regime

__all__ = [
    "BLOCK_ROWS",
    "SweepSpec",
    "ENGINE_QUANTITIES",
    "FRIDGE_QUANTITIES",
    "FIGURE_IDS",
    "grid",
    "sweep_table",
    "figure_table",
]

#: quantity name -> regimes it is defined for
ENGINE_QUANTITIES: dict[str, tuple[Regime, ...]] = {
    "eta_omega": tuple(Regime),
    "eta_mw": ASYMMETRIC_REGIMES,
    "eta_max": ASYMMETRIC_REGIMES,
    "r_omega": tuple(Regime),
    "r_mw": ASYMMETRIC_REGIMES,
    "delta": ASYMMETRIC_REGIMES,
}
FRIDGE_QUANTITIES: dict[str, tuple[Regime, ...]] = {
    "cop_omega": tuple(Regime),
    "cop_max": ASYMMETRIC_REGIMES,
}

_INF = float("inf")

#: rows computed by one call of a table's block function: iteration computes
#: a table this many rows at a time, and the CLI's forked writers format it
#: in slices of this many rows
BLOCK_ROWS = 2048


class _Lazy(Sequence):
    """Item i is ``f([base[i]])[0]``, computed when it is read; iteration
    calls ``f`` on ``BLOCK_ROWS`` consecutive items of ``base`` at a time,
    and a slice is lazy too."""

    __slots__ = ("_f", "_base")

    def __init__(self, f: Callable[[list], list], base: Sequence) -> None:
        self._f, self._base = f, base

    def __len__(self) -> int:
        return len(self._base)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Lazy(self._f, self._base[i])
        return self._f([self._base[i]])[0]

    def __iter__(self):
        f, base = self._f, self._base
        for start in range(0, len(base), BLOCK_ROWS):
            yield from f(list(base[start:start + BLOCK_ROWS]))


def grid(start: float, stop: float, steps: int) -> Sequence[float]:
    """Inclusive linear grid with ``steps`` points: point i is
    ``start + i * step``, and the last point is ``stop`` itself, as is any
    point before it that would round above ``stop`` (only a grid finer than
    the floats near ``stop`` has one).  start, stop and the step must be
    finite, and ``len`` must be able to count the points."""
    if not 2 <= steps <= sys.maxsize:
        raise ValueError(f"steps must be in [2, {sys.maxsize}], got {steps}")
    if not start < stop:
        raise ValueError(f"need start < stop, got ({start}, {stop})")
    step = (stop - start) / (steps - 1)
    # start < stop rules out nan, so the step is infinite exactly when an end
    # is infinite or stop - start overflows
    if step == _INF:
        raise ValueError(f"need a finite start, stop and step, got ({start}, {stop})")
    # start + i * step never decreases with i: from cut on it would round
    # above stop, and at i = steps - 1 it can round to either side of stop
    cut = bisect_left(range(steps - 1), True, key=lambda i: start + i * step > stop)
    return _Lazy(lambda ks: [stop if k >= cut else start + k * step for k in ks], range(steps))


def _select(admitted: list[bool], *columns: list) -> Sequence[list]:
    """Each column at the admitted rows only: the columns themselves when
    every row is admitted."""
    if all(admitted):
        return columns
    return [list(compress(column, admitted)) for column in columns]


def _spread(column: list, admitted: list[bool]) -> list:
    """``column`` holds one value per True of ``admitted``: the full column,
    None at each False.  A column of one value per row is returned as it
    is."""
    if len(column) == len(admitted):
        return column
    values = iter(column)
    return [next(values) if ok else None for ok in admitted]


_Columns = dict[tuple[str, Regime], list]


def _engine_block(eta_cs: list[float], regimes: list[Regime]) -> _Columns:
    """The ENGINE_QUANTITIES columns of each regime at the eta_c of one
    block: the tau rule per row, then the core once per regime on the
    admitted rows."""
    taus = [1.0 - eta_c for eta_c in eta_cs]
    admitted = engine._admitted(taus)
    taus, eta_cs = _select(admitted, taus, eta_cs)
    gs, rs = engine._max_work_terms(eta_cs)
    columns: _Columns = {}
    for regime in regimes:
        core = engine._omega_core(regime, taus, eta_cs)
        eta = core[-1]
        columns["eta_omega", regime] = eta
        columns["r_omega", regime] = engine._losses(eta, eta_cs)
        if regime in ASYMMETRIC_REGIMES:
            eta_mw, r_mw = engine._max_work(regime, gs, rs)
            columns["eta_mw", regime] = eta_mw
            columns["eta_max", regime] = core[3]
            columns["r_mw", regime] = r_mw
            columns["delta", regime] = [a - b for a, b in zip(eta, eta_mw)]
    return {key: _spread(column, admitted) for key, column in columns.items()}


def _fridge_block(zeta_cs: list[float], regimes: list[Regime]) -> _Columns:
    """The FRIDGE_QUANTITIES columns of each regime at the zeta_c of one
    block: the tau rule per row for each cooling window, then the core once
    per regime on the rows its window admits."""
    taus = fridge._taus_of(zeta_cs)
    rules = {half_window: fridge._admitted(taus, half_window) for half_window in (False, True)}
    columns: _Columns = {}
    for regime in regimes:
        admitted = rules[regime in SUDDEN_EXPANSION_REGIMES]
        core = fridge._omega_core(regime, *_select(admitted, taus, zeta_cs))
        columns["cop_omega", regime] = _spread(core[-1], admitted)
        if regime in ASYMMETRIC_REGIMES:
            columns["cop_max", regime] = _spread(core[3], admitted)
    return columns


class SweepSpec(namedtuple(
    "SweepSpec", "device regimes start stop steps quantities", defaults=((),)
)):
    """One parameter sweep: device, regimes, axis grid, quantities.  The
    device and each regime are members or their tokens; ``quantities``
    defaults to every quantity of the device."""

    __slots__ = ()

    @property
    def axis(self) -> str:
        return "eta_c" if _device(self.device) is Device.ENGINE else "zeta_c"

    def columns(self) -> list[tuple[str, Regime]]:
        """(quantity, regime) pairs actually defined, each once, in
        first-seen order."""
        device = _device(self.device)
        known = ENGINE_QUANTITIES if device is Device.ENGINE else FRIDGE_QUANTITIES
        regimes = dict.fromkeys(map(_regime, self.regimes))
        out: list[tuple[str, Regime]] = []
        for quantity in dict.fromkeys(self.quantities or known):
            if quantity not in known:
                raise ValueError(
                    f"quantity {quantity!r} is not defined for device "
                    f"{device.value!r} (known: {', '.join(known)})"
                )
            for regime in regimes:
                if regime in known[quantity]:
                    out.append((quantity, regime))
        if not out:
            raise ValueError("no (quantity, regime) column is defined for this spec")
        return out


def _table(
    spec: SweepSpec, columns: list[tuple[str, Regime]]
) -> tuple[list[str], Sequence[list[float | None]]]:
    engine_side = _device(spec.device) is Device.ENGINE
    header = [spec.axis] + [f"{quantity}_{regime.value}" for quantity, regime in columns]
    regimes = list(dict.fromkeys(regime for _, regime in columns))

    def rows(xs: list[float]) -> list[list[float | None]]:
        block = (_engine_block if engine_side else _fridge_block)(xs, regimes)
        return list(map(list, zip(xs, *[block[column] for column in columns])))

    return header, _Lazy(rows, grid(spec.start, spec.stop, spec.steps))


def sweep_table(spec: SweepSpec) -> tuple[list[str], Sequence[list[float | None]]]:
    return _table(spec, spec.columns())


#: figure id -> device, axis start and stop, and the column names in header
#: order, each a quantity and a regime token; every figure has
#: ``_FIGURE_STEPS`` points
_FIGURES = {
    "fig2": (Device.ENGINE, 0.005, 0.995, "eta_omega_sc eta_omega_se eta_mw_sc eta_mw_se "
             "eta_omega_adi eta_omega_ss delta_sc delta_se"),
    "fig4": (Device.ENGINE, 0.005, 0.995, "r_omega_sc r_omega_se r_mw_sc r_mw_se"),
    "fig6": (Device.FRIDGE, 0.05, 9.05, "cop_omega_sc cop_omega_se cop_omega_adi cop_omega_ss"),
}
FIGURE_IDS = tuple(_FIGURES)
#: 181 points put the reference abscissas 0.5, 1 and 3 exactly on grid
_FIGURE_STEPS = 181


def figure_table(figure_id: str) -> tuple[list[str], Sequence[list[float | None]]]:
    """Curve set of one canonical figure.

    fig2: optimal engine efficiencies vs eta_c (six curves plus the two
    inset differences); fig4: fractional work loss vs eta_c (four curves);
    fig6: COP at maximum Omega vs zeta_c (four curves, the sudden-expansion
    and sudden-switch ones starting above zeta_c = 1).
    """
    if figure_id not in _FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    device, start, stop, names = _FIGURES[figure_id]
    columns = [(quantity, Regime(token)) for quantity, _, token in
               (name.rpartition("_") for name in names.split())]
    return _table(SweepSpec(device, tuple(Regime), start, stop, _FIGURE_STEPS), columns)
