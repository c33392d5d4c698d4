"""Seeded operation streams for the two benchmark workloads.

An operation is one ``python -m ottolab.cli ...`` invocation.  Its inputs
come only from the seed: the same seed gives the same operations, and the
program under test is never consulted while they are generated (the
feasibility windows used to place ``--z`` are the documented closed forms,
written out here).

Every operation carries an expectation:

* ``ok``: in the admitted domain; the command must succeed and its output
  must match in-process calls of the same public functions.
* ``domain``: documented out-of-domain input (eta_c outside
  [1e-6, 1 - 1e-6], or the se/ss fridge with zeta_c < 1); it must exit 2
  with a structured ``{"error": ...}`` object.
* ``beyond``: fridge zeta_c in [1e16, 1e300].  The README promises a finite
  value or a domain error; the program raises a traceback or prints a
  non-finite number for some of these inputs.  They count as failed
  operations when they fail.

Whether a ``beyond`` call fails depends on its regime and value, so they are
not drawn from the seed: ``interactive`` makes the same fixed set of them once
per run (``beyond_probes``), and the number of failed operations is the same
for every seed and every run length.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

REGIMES = ("sc", "se", "adi", "ss")
ASYMMETRIC = ("sc", "se")
ENGINE_QUANTITIES = ("eta_omega", "eta_mw", "eta_max", "r_omega", "r_mw", "delta")
FRIDGE_QUANTITIES = ("cop_omega", "cop_max")
FIGURE_IDS = ("fig2", "fig4", "fig6")

#: admitted eta_c domain of the engine closed forms
EDGE = 1e-6

#: interactive block: 34 point calls (32 in domain, 2 documented
#: out-of-domain), 4 figures, 2 sweeps and 1 ``verify``.  A ``verify`` takes
#: about 0.5 s, against about 0.1 s for the others; the one call per block
#: keeps the verify suite's layers in the benchmark without a workload of its
#: own, whose median would follow the speed drift of a shared host (see
#: README.md).
BLOCK = {"point_ok": 32, "point_domain": 2, "figure": 4, "sweep": 2, "verify": 1}
INTERACTIVE_BLOCK_OPS = sum(BLOCK.values())
SMOKE_BLOCK = {"point_ok": 7, "point_domain": 1, "figure": 1, "sweep": 1, "verify": 1}

#: exponents of the fridge ``beyond`` probes, evenly spaced over [16, 300];
#: the probes take the regimes in turn
BEYOND_EXPONENTS = (16, 57, 97, 138, 178, 219, 259, 300)

#: rows of the large sweeps in ``bulk_sweep`` (``--smoke`` shrinks them);
#: a fridge row has 6 cells and an engine row 16, so the fridge sweep is
#: longer and all three sweeps take about the same time
BULK_ROWS = {"engine": 20_000, "fridge": 36_000}
SMOKE_BULK_ROWS = {"engine": 400, "fridge": 720}


@dataclass(frozen=True)
class Op:
    """One CLI invocation, with the parameters the output checks need."""

    kind: str  # "point" | "figure" | "sweep" | "verify"
    expect: str  # "ok" | "domain" | "beyond"
    params: dict = field(hash=False)
    writes_file: bool = False  # True: the runner appends ``--out PATH``

    def argv(self) -> list[str]:
        p = self.params
        if self.kind == "point":
            args = ["point", p["device"], p["regime"], repr(p["value"])]
            if p["z"] is not None:
                args += ["--z", repr(p["z"])]
            return args
        if self.kind == "figure":
            return ["figure", "--id", p["id"]]
        if self.kind == "sweep":
            args = ["sweep", "--device", p["device"]]
            for regime in p["regimes"]:
                args += ["--regime", regime]
            args += ["--start", repr(p["start"]), "--stop", repr(p["stop"]),
                     "--steps", str(p["steps"])]
            for quantity in p["quantities"]:
                args += ["--quantity", quantity]
            return args
        return ["verify"]


def _engine_window_lo(regime: str, tau: float) -> float:
    """Lower end of the engine's z-window (upper end is 1)."""
    if regime == "sc":
        return (tau + math.sqrt(tau * tau + 8.0 * tau)) / 4.0
    return max(tau, (-1.0 + math.sqrt(1.0 + 8.0 * tau)) / 2.0)


def _fridge_window_hi(regime: str, tau: float) -> float:
    """Upper end of the fridge's z-window (lower end is 0)."""
    return tau if regime == "sc" else math.sqrt(2.0 * tau - 1.0)


def _eta_c(rng: random.Random) -> float:
    """Log-spaced towards both ends of [1e-6, 1 - 1e-6], edges included."""
    if rng.random() < 0.1:
        return rng.choice((EDGE, 1.0 - EDGE))
    gap = 10.0 ** rng.uniform(-6.0, math.log10(0.5))
    return gap if rng.random() < 0.5 else 1.0 - gap


def _zeta_c(rng: random.Random, regime: str) -> float:
    """Log-spaced over zeta_c in [1e-6, 1e6] (sc/adi) or zeta_c - 1 in
    [1e-6, 1e6] (se/ss, whose cooling window opens at zeta_c = 1)."""
    exponent = rng.choice((-6.0, 6.0)) if rng.random() < 0.1 else rng.uniform(-6.0, 6.0)
    if regime in ("sc", "adi"):
        return 10.0 ** exponent
    return 1.0 + 10.0 ** exponent


def point_ok(rng: random.Random) -> Op:
    device = rng.choice(("engine", "fridge"))
    regime = rng.choice(REGIMES)
    z = None
    u = rng.uniform(0.05, 0.95)
    with_z = regime in ASYMMETRIC and rng.random() < 0.9
    if device == "engine":
        value = _eta_c(rng)
        if with_z:
            lo = _engine_window_lo(regime, 1.0 - value)
            z = lo + u * (1.0 - lo)
    else:
        value = _zeta_c(rng, regime)
        if with_z:
            z = u * _fridge_window_hi(regime, value / (1.0 + value))
    return Op("point", "ok", {"device": device, "regime": regime, "value": value, "z": z})


def point_domain(rng: random.Random) -> Op:
    if rng.random() < 0.5:
        value = rng.choice((0.0, 1e-7, 5e-7, 1.0 - 1e-7, 1.0, 1.5))
        params = {"device": "engine", "regime": rng.choice(REGIMES), "value": value, "z": None}
    else:
        value = 10.0 ** rng.uniform(-6.0, -0.01)
        params = {"device": "fridge", "regime": rng.choice(("se", "ss")), "value": value, "z": None}
    return Op("point", "domain", params)


def beyond_probes(workload: str) -> list[Op]:
    """The fixed fridge calls at zeta_c in [1e16, 1e300] made once per run
    of ``interactive``."""
    if workload != "interactive":
        return []
    return [Op("point", "beyond", {"device": "fridge", "regime": REGIMES[i % len(REGIMES)],
                                   "value": float(f"1e{k}"), "z": None})
            for i, k in enumerate(BEYOND_EXPONENTS)]


def figure(rng: random.Random) -> Op:
    return Op("figure", "ok", {"id": rng.choice(FIGURE_IDS)})


def small_sweep(rng: random.Random) -> Op:
    """A README-sized sweep: some regimes, some quantities, 10-50 rows."""
    device = rng.choice(("engine", "fridge"))
    regimes = tuple(sorted(rng.sample(REGIMES, rng.randint(1, 4)), key=REGIMES.index))
    if device == "engine":
        known, start, stop = ENGINE_QUANTITIES, rng.uniform(0.01, 0.3), rng.uniform(0.6, 0.99)
    else:
        known, start, stop = FRIDGE_QUANTITIES, rng.uniform(0.05, 2.0), rng.uniform(3.0, 10.0)
    # keep at least one quantity defined for the chosen regimes
    if not set(regimes) & set(ASYMMETRIC):
        quantities = (known[0],)
    else:
        quantities = tuple(sorted(rng.sample(known, rng.randint(1, len(known))), key=known.index))
    return Op("sweep", "ok", {
        "device": device, "regimes": regimes, "start": start, "stop": stop,
        "steps": rng.randint(10, 50), "quantities": quantities,
    })


def verify(rng: random.Random) -> Op:
    """The verify suite takes no input; every seed gives the same call."""
    return Op("verify", "ok", {})


_MAKERS = {
    "point_ok": point_ok,
    "point_domain": point_domain,
    "figure": figure,
    "sweep": small_sweep,
    "verify": verify,
}


def interactive_block(rng: random.Random, smoke: bool = False) -> list[Op]:
    """One shuffled block with the fixed mix of ``BLOCK``, so every prefix
    of the stream holds close to the stated shares."""
    ops = [_MAKERS[name](rng) for name, count in (SMOKE_BLOCK if smoke else BLOCK).items()
           for _ in range(count)]
    rng.shuffle(ops)
    return ops


def bulk_round(rng: random.Random, smoke: bool = False) -> list[Op]:
    """Three all-quantity, all-regime sweeps written with ``--out``: the
    engine over the full eta_c range, the engine over the near-equilibrium
    band, and the fridge over zeta_c in [1e-3, 1e3]."""
    rows = SMOKE_BULK_ROWS if smoke else BULK_ROWS

    def sweep(device: str, start: float, stop: float) -> Op:
        return Op("sweep", "ok", {
            "device": device, "regimes": REGIMES, "start": start, "stop": stop,
            "steps": rows[device], "quantities": (),
        }, writes_file=True)

    return [
        sweep("engine", 10.0 ** rng.uniform(-6.0, -3.0), 1.0 - 10.0 ** rng.uniform(-6.0, -3.0)),
        sweep("engine", EDGE * rng.uniform(1.0, 2.0), 1e-3 * rng.uniform(0.5, 1.0)),
        sweep("fridge", 1e-3 * rng.uniform(1.0, 2.0), 1e3 * rng.uniform(0.5, 1.0)),
    ]


ROUNDS = {
    "interactive": interactive_block,
    "bulk_sweep": bulk_round,
}


def stream(workload: str, seed: int, smoke: bool = False):
    """Endless operation stream of one workload, one round at a time."""
    rng = random.Random(f"{workload}:{seed}")
    make = ROUNDS[workload]
    while True:
        yield make(rng, smoke)
