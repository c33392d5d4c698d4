"""Performance analytics for asymmetric harmonic Otto engines and refrigerators.

The package evaluates the complete closed-form set for cycles with one
sudden and one quasistatic work stroke (efficiency and COP at maximum Omega
function, at maximum work, maximum attainable values, fractional work loss,
symmetric benchmarks) and ships an independent numeric-maximization oracle
plus a verification suite that replays every closed form against it.
"""

from . import cubic, cycle, engine, fridge, model, oracle, tables, verification
from .cycle import (
    CycleConfig,
    Device,
    EnergyLedger,
    Interval,
    ReducedParams,
    Regime,
    StrokeProtocol,
)
from .errors import DomainError, InfeasibleDeviceError, NoFeasiblePointError

__version__ = "0.1.0"

__all__ = [
    "cubic",
    "cycle",
    "engine",
    "fridge",
    "model",
    "oracle",
    "tables",
    "verification",
    "CycleConfig",
    "Device",
    "EnergyLedger",
    "Interval",
    "ReducedParams",
    "Regime",
    "StrokeProtocol",
    "DomainError",
    "InfeasibleDeviceError",
    "NoFeasiblePointError",
    "__version__",
]
