"""Tabulated sweeps and the three canonical figure data sets.

A table is a header plus rows of float-or-None cells; None marks a grid
point outside the quantity's domain (for example the sudden-expansion fridge
below zeta_c = 1) and is rendered as an empty CSV field by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import engine, fridge
from .cycle import Device, Regime
from .engine import TracedValue
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

_ALL = (Regime.SUDDEN_COMPRESSION, Regime.SUDDEN_EXPANSION, Regime.ADIABATIC, Regime.SUDDEN_SWITCH)
_ASYM = (Regime.SUDDEN_COMPRESSION, Regime.SUDDEN_EXPANSION)

#: quantity name -> regimes it is defined for
ENGINE_QUANTITIES: dict[str, tuple[Regime, ...]] = {
    "eta_omega": _ALL,
    "eta_mw": _ASYM,
    "eta_max": _ASYM,
    "r_omega": _ALL,
    "r_mw": _ASYM,
    "delta": _ASYM,
}
FRIDGE_QUANTITIES: dict[str, tuple[Regime, ...]] = {
    "cop_omega": _ALL,
    "cop_max": _ASYM,
}

FIGURE_IDS = ("fig2", "fig4", "fig6")

#: default figure axes: 181 points put the reference abscissas 0.5, 1 and 3
#: exactly on grid
_FIGURE_RANGE = {
    "fig2": (0.005, 0.995),
    "fig4": (0.005, 0.995),
    "fig6": (0.05, 9.05),
}


def grid(start: float, stop: float, steps: int) -> list[float]:
    """Inclusive linear grid with ``steps`` points."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not start < stop:
        raise ValueError(f"need start < stop, got ({start}, {stop})")
    step = (stop - start) / (steps - 1)
    return [start + i * step for i in range(steps)]


#: Omega optima already evaluated in the current row, by regime
_Optima = dict[Regime, TracedValue]


def _optimum(at_max_omega, regime: Regime, x: float, optima: _Optima) -> TracedValue:
    """The Omega optimum of one (row, regime), evaluated once per row."""
    traced = optima.get(regime)
    if traced is None:
        traced = optima[regime] = at_max_omega(regime, x)
    return traced


def _engine_cell(quantity: str, regime: Regime, eta_c: float, optima: _Optima) -> float:
    if quantity == "eta_omega":
        return _optimum(engine.eta_at_max_omega, regime, eta_c, optima).value
    if quantity == "eta_mw":
        return engine.eta_max_work(regime, eta_c)
    if quantity == "eta_max":
        return engine.eta_max(regime, 1.0 - eta_c).value
    if quantity == "r_omega":
        eta = _optimum(engine.eta_at_max_omega, regime, eta_c, optima).value
        return engine.fractional_loss(eta, eta_c)
    if quantity == "r_mw":
        return engine.fractional_loss_max_work(regime, eta_c)
    if quantity == "delta":
        eta = _optimum(engine.eta_at_max_omega, regime, eta_c, optima).value
        return eta - engine.eta_max_work(regime, eta_c)
    raise ValueError(f"unknown engine quantity {quantity!r}")


def _fridge_cell(quantity: str, regime: Regime, zeta_c: float, optima: _Optima) -> float:
    if quantity == "cop_omega":
        return _optimum(fridge.cop_at_max_omega, regime, zeta_c, optima).value
    if quantity == "cop_max":
        return _optimum(fridge.cop_at_max_omega, regime, zeta_c, optima).trace["cop_max"]
    raise ValueError(f"unknown fridge quantity {quantity!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One parameter sweep: device, regimes, axis grid, quantities."""

    device: Device
    regimes: tuple[Regime, ...]
    start: float
    stop: float
    steps: int
    quantities: tuple[str, ...] = field(default=())

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
) -> tuple[list[str], list[list[float | None]]]:
    cell = _engine_cell if spec.device is Device.ENGINE else _fridge_cell
    header = [spec.axis] + [f"{quantity}_{regime.value}" for quantity, regime in columns]
    rows: list[list[float | None]] = []
    for x in grid(spec.start, spec.stop, spec.steps):
        row: list[float | None] = [x]
        optima: _Optima = {}
        for quantity, regime in columns:
            try:
                row.append(cell(quantity, regime, x, optima))
            except DomainError:
                row.append(None)
        rows.append(row)
    return header, rows


def sweep_table(spec: SweepSpec) -> tuple[list[str], list[list[float | None]]]:
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


def figure_table(figure_id: str, steps: int = 181) -> tuple[list[str], list[list[float | None]]]:
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
        regimes=_ASYM,
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
