"""Tabulated sweeps and the three canonical figure data sets.

A table is a header plus rows of float-or-None cells; None marks a grid
point outside the quantity's domain (for example the sudden-expansion fridge
below zeta_c = 1) and is rendered as an empty CSV field by the CLI.  The
rows are a lazy sequence: row i is computed when it is read, from grid point
i alone, so a table takes the same memory whatever its number of steps.

Each row applies its device's tau rule once (the fridge's once per regime,
since it depends on the regime) and calls the device's private Omega core
once per regime; every cell of that regime is read from the core's tuple.
The cells equal the public functions bit for bit, with None exactly where
those raise DomainError.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Sequence
from typing import NamedTuple

from . import engine, fridge
from .cycle import ASYMMETRIC_REGIMES, Device, Regime
from .errors import DomainError

__all__ = [
    "SweepSpec",
    "ENGINE_QUANTITIES",
    "FRIDGE_QUANTITIES",
    "FIGURE_IDS",
    "grid",
    "sweep_table",
    "figure_table",
]

#: quantity name -> regimes it is defined for, in the order in which
#: ``_engine_cells`` and ``_fridge_cells`` return a regime's cells
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

FIGURE_IDS = ("fig2", "fig4", "fig6")

#: default figure axes: 181 points put the reference abscissas 0.5, 1 and 3
#: exactly on grid
_FIGURE_RANGE = {
    "fig2": (0.005, 0.995),
    "fig4": (0.005, 0.995),
    "fig6": (0.05, 9.05),
}


_INF = float("inf")


class _Lazy(Sequence):
    """Item i is ``f(base[i])``, computed when it is read; a slice is lazy
    too."""

    __slots__ = ("_f", "_base")

    def __init__(self, f: Callable, base: Sequence) -> None:
        self._f, self._base = f, base

    def __len__(self) -> int:
        return len(self._base)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Lazy(self._f, self._base[i])
        return self._f(self._base[i])

    def __iter__(self):
        return map(self._f, self._base)


def grid(start: float, stop: float, steps: int) -> Sequence[float]:
    """Inclusive linear grid with ``steps`` points, point i being
    ``start + i * step``; start, stop and the step must be finite, and
    ``len`` must be able to count the points."""
    if not 2 <= steps <= sys.maxsize:
        raise ValueError(f"steps must be in [2, {sys.maxsize}], got {steps}")
    if not start < stop:
        raise ValueError(f"need start < stop, got ({start}, {stop})")
    step = (stop - start) / (steps - 1)
    # start < stop rules out nan, so the step is infinite exactly when an end
    # is infinite or stop - start overflows
    if step == _INF:
        raise ValueError(f"need a finite start, stop and step, got ({start}, {stop})")
    return _Lazy(lambda i: start + i * step, range(steps))


_NO_ENGINE_CELLS = (None,) * len(ENGINE_QUANTITIES)


def _engine_cells(eta_c: float, regimes: list[Regime]) -> list[float | None]:
    """The ENGINE_QUANTITIES cells of each regime in turn at one eta_c."""
    tau = 1.0 - eta_c
    try:
        engine._check_tau(tau)
    except DomainError:
        return list(_NO_ENGINE_CELLS * len(regimes))
    g, r = engine._max_work_terms(eta_c)
    out: list[float | None] = []
    for regime in regimes:
        core = engine._omega_core(regime, tau, eta_c)
        eta = core[-1]
        try:
            r_omega = engine._loss(eta, eta_c)
        except DomainError:
            r_omega = None
        if regime in ASYMMETRIC_REGIMES:
            eta_mw, r_mw = engine._max_work(regime, g, r)
            out += (eta, eta_mw, core[3], r_omega, r_mw, eta - eta_mw)
        else:
            out += (eta, None, None, r_omega, None, None)
    return out


def _fridge_cells(zeta_c: float, regimes: list[Regime]) -> list[float | None]:
    """The FRIDGE_QUANTITIES cells of each regime in turn at one zeta_c."""
    tau = fridge._tau_of(zeta_c)
    out: list[float | None] = []
    for regime in regimes:
        try:
            core = fridge._omega_core(regime, fridge._check_tau(regime, tau), zeta_c)
        except DomainError:
            out += (None, None)
            continue
        out += (core[-1], core[3] if regime in ASYMMETRIC_REGIMES else None)
    return out


class SweepSpec(NamedTuple):
    """One parameter sweep: device, regimes, axis grid, quantities."""

    device: Device
    regimes: tuple[Regime, ...]
    start: float
    stop: float
    steps: int
    quantities: tuple[str, ...] = ()

    @property
    def axis(self) -> str:
        return "eta_c" if self.device is Device.ENGINE else "zeta_c"

    def columns(self) -> list[tuple[str, Regime]]:
        """(quantity, regime) pairs actually defined, in stable order."""
        known = ENGINE_QUANTITIES if self.device is Device.ENGINE else FRIDGE_QUANTITIES
        quantities = self.quantities or tuple(known)
        out: list[tuple[str, Regime]] = []
        for quantity in quantities:
            if quantity not in known:
                raise ValueError(
                    f"quantity {quantity!r} is not defined for device "
                    f"{self.device.value!r} (known: {', '.join(known)})"
                )
            for regime in self.regimes:
                if regime in known[quantity]:
                    out.append((quantity, regime))
        if not out:
            raise ValueError("no (quantity, regime) column is defined for this spec")
        return out


def _table(
    spec: SweepSpec, columns: list[tuple[str, Regime]]
) -> tuple[list[str], Sequence[list[float | None]]]:
    if spec.device is Device.ENGINE:
        cells_of, known = _engine_cells, ENGINE_QUANTITIES
    else:
        cells_of, known = _fridge_cells, FRIDGE_QUANTITIES
    header = [spec.axis] + [f"{quantity}_{regime.value}" for quantity, regime in columns]
    regimes = list(dict.fromkeys(regime for _, regime in columns))
    quantities = list(known)
    at = [
        regimes.index(regime) * len(quantities) + quantities.index(quantity)
        for quantity, regime in columns
    ]

    def row(x: float) -> list[float | None]:
        cells = cells_of(x, regimes)
        return [x] + [cells[i] for i in at]

    return header, _Lazy(row, grid(spec.start, spec.stop, spec.steps))


def sweep_table(spec: SweepSpec) -> tuple[list[str], Sequence[list[float | None]]]:
    return _table(spec, spec.columns())


_FIGURE_SPECS = {
    "fig2": (
        Device.ENGINE,
        ("eta_omega", "eta_mw"),
        ("eta_omega_adi", "eta_omega_ss", "delta_sc", "delta_se"),
    ),
    "fig4": (Device.ENGINE, ("r_omega", "r_mw"), ()),
    "fig6": (Device.FRIDGE, ("cop_omega",), ("cop_omega_adi", "cop_omega_ss")),
}


def figure_table(
    figure_id: str, steps: int = 181
) -> tuple[list[str], Sequence[list[float | None]]]:
    """Curve set of one canonical figure.

    fig2: optimal engine efficiencies vs eta_c (six curves plus the two
    inset differences); fig4: fractional work loss vs eta_c (four curves);
    fig6: COP at maximum Omega vs zeta_c (four curves, the sudden-expansion
    and sudden-switch ones starting above zeta_c = 1).
    """
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    if steps < 50:
        raise ValueError(f"steps must be >= 50 for figure output, got {steps}")
    device, asym_quantities, extras = _FIGURE_SPECS[figure_id]
    start, stop = _FIGURE_RANGE[figure_id]
    spec = SweepSpec(
        device=device,
        regimes=ASYMMETRIC_REGIMES,
        start=start,
        stop=stop,
        steps=steps,
        quantities=asym_quantities,
    )
    columns = spec.columns()
    for name in extras:
        quantity, _, regime_tag = name.rpartition("_")
        columns.append((quantity, Regime(regime_tag)))
    return _table(spec, columns)
