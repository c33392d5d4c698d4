"""Tabulated sweeps and the three canonical figure data sets.

A table is a header plus rows of float-or-None cells; None marks a grid
point outside the quantity's domain (for example the sudden-expansion fridge
below zeta_c = 1) and is rendered as an empty CSV field by the CLI.
"""

from __future__ import annotations

from typing import NamedTuple

from . import engine, fridge
from .cycle import Device, Regime
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


def _engine_results(regime: Regime, eta_c: float) -> dict[str, float]:
    """Every engine quantity of one (row, regime) that does not raise
    DomainError, from one call of each public optimum."""
    try:
        traced = engine.eta_at_max_omega(regime, eta_c)
    except DomainError:
        return {}
    eta = traced.value
    out = {"eta_omega": eta}
    try:
        out["r_omega"] = engine.fractional_loss(eta, eta_c)
    except DomainError:
        pass
    if regime in _ASYM:
        # eta_max_work and fractional_loss_max_work admit the same eta_c
        eta_mw = engine.eta_max_work(regime, eta_c)
        out["eta_max"] = traced.trace["eta_max"]
        out["eta_mw"] = eta_mw
        out["r_mw"] = engine.fractional_loss_max_work(regime, eta_c)
        out["delta"] = eta - eta_mw
    return out


def _fridge_results(regime: Regime, zeta_c: float) -> dict[str, float]:
    """Every fridge quantity of one (row, regime) that does not raise
    DomainError, from one call of the Omega optimum."""
    try:
        traced = fridge.cop_at_max_omega(regime, zeta_c)
    except DomainError:
        return {}
    if regime in _ASYM:
        return {"cop_omega": traced.value, "cop_max": traced.trace["cop_max"]}
    return {"cop_omega": traced.value}


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
) -> tuple[list[str], list[list[float | None]]]:
    results_of = _engine_results if spec.device is Device.ENGINE else _fridge_results
    header = [spec.axis] + [f"{quantity}_{regime.value}" for quantity, regime in columns]
    regimes = list(dict.fromkeys(regime for _, regime in columns))
    cells = [(quantity, regimes.index(regime)) for quantity, regime in columns]
    rows: list[list[float | None]] = []
    for x in grid(spec.start, spec.stop, spec.steps):
        results = [results_of(regime, x) for regime in regimes]
        rows.append([x] + [results[i].get(quantity) for quantity, i in cells])
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
