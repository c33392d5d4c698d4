"""Output checks: every CLI result is compared with in-process calls.

``point``: the JSON must parse, every number must be finite, and the
headline values must equal in-process calls of the same public functions
bit for bit.  ``sweep``/``figure``: header, row count and field count must
match, every non-empty field must be a finite number, and seeded sampled
rows must equal the in-process values after ``%.12g`` formatting (empty
where the in-process call raises ``DomainError``).  ``verify``: every check
line must read PASS and the summary must read ``N/N checks passed``.
Documented out-of-domain input must exit 2 with a structured error object.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass

from ottolab import engine, fridge, tables
from ottolab.cycle import Device, Regime
from ottolab.errors import DomainError

from workloads import Op

EXIT_DOMAIN = 2

#: rows sampled per CSV, besides the first and the last
SAMPLED_ROWS = 16

_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    records: int = 0  # output rows: JSON objects, CSV data rows, check lines
    cells: int = 0  # non-axis CSV fields
    empty_cells: int = 0
    eta_omega_cells: int = 0  # eta_omega values emitted (point or CSV)


class CheckFailed(Exception):
    pass


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _engine_expected(regime: Regime, eta_c: float, z: float | None) -> dict:
    tau = 1.0 - eta_c
    traced = engine.eta_at_max_omega(regime, eta_c)
    z_opt = traced.trace["z_opt"]
    out = {
        "eta_c": eta_c,
        "tau": tau,
        "eta_omega": traced.value,
        "r_omega": engine.fractional_loss(traced.value, eta_c),
        "z_star_omega": z_opt,
    }
    if regime in (Regime.SUDDEN_COMPRESSION, Regime.SUDDEN_EXPANSION):
        out.update(
            eta_mw=engine.eta_max_work(regime, eta_c),
            eta_max=engine.eta_max(regime, tau).value,
            r_mw=engine.fractional_loss_max_work(regime, eta_c),
            z_star_max_eta=engine.z_star_max_eta(regime, tau).value,
            omega_value=engine.omega_objective(regime, z_opt, tau),
        )
    if z is not None:
        point = engine.point_at(regime, z, tau)
        out.update(z=point.z, eta=point.eta, w=point.w, q_h=point.q_h,
                   omega_at_z=point.omega_value)
    return out


def _fridge_expected(regime: Regime, zeta_c: float, z: float | None) -> dict:
    tau = zeta_c / (1.0 + zeta_c)
    traced = fridge.cop_at_max_omega(regime, zeta_c)
    z_opt = traced.trace["z_opt"]
    out = {"zeta_c": zeta_c, "tau": tau, "cop_omega": traced.value, "z_star_omega": z_opt}
    if regime in (Regime.SUDDEN_COMPRESSION, Regime.SUDDEN_EXPANSION):
        out.update(
            cop_max=fridge.cop_max(regime, zeta_c).value,
            z_star_max_cop=fridge.z_star_max_cop(regime, zeta_c).value,
            omega_value=fridge.omega_objective(regime, z_opt, tau),
        )
    if z is not None:
        point = fridge.point_at(regime, z, tau)
        out.update(z=point.z, cop=point.zeta, q_c=point.q_c, w_in=point.w_in,
                   omega_at_z=point.omega_value)
    return out


def _cell(device: Device, quantity: str, regime: Regime, x: float) -> float:
    """One documented sweep quantity, from the public closed forms."""
    if device is Device.FRIDGE:
        if quantity == "cop_omega":
            return fridge.cop_at_max_omega(regime, x).value
        return fridge.cop_max(regime, x).value
    if quantity == "eta_omega":
        return engine.eta_at_max_omega(regime, x).value
    if quantity == "eta_mw":
        return engine.eta_max_work(regime, x)
    if quantity == "eta_max":
        return engine.eta_max(regime, 1.0 - x).value
    if quantity == "r_omega":
        return engine.fractional_loss(engine.eta_at_max_omega(regime, x).value, x)
    if quantity == "r_mw":
        return engine.fractional_loss_max_work(regime, x)
    # delta: Omega-optimal minus max-work efficiency
    return engine.eta_at_max_omega(regime, x).value - engine.eta_max_work(regime, x)


def _expected_field(device: Device, quantity: str, regime: Regime, x: float) -> str:
    try:
        return _fmt(_cell(device, quantity, regime, x))
    except DomainError:
        return ""


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _parse_object(stdout: bytes) -> dict:
    try:
        payload = json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    _require(isinstance(payload, dict), "stdout JSON is not an object")
    return payload


class Checker:
    """Checks CLI outputs; keeps the in-process figure tables it builds."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"checks:{seed}")
        self._figures: dict[str, tuple[list[str], list]] = {}

    def check(self, op: Op, code: int, stdout: bytes, out_file: bytes | None) -> Outcome:
        try:
            if op.kind == "point":
                return self._point(op, code, stdout)
            if op.kind == "verify":
                return self._verify(code, stdout)
            _require(code == 0, f"exit code {code}")
            return self._csv(op, stdout if out_file is None else out_file)
        except CheckFailed as exc:
            return Outcome(False, str(exc))
        except Exception as exc:  # an in-process reference call broke: report, keep running
            return Outcome(False, f"{type(exc).__name__}: {exc}")

    def _point(self, op: Op, code: int, stdout: bytes) -> Outcome:
        p = op.params
        if op.expect == "domain" or (op.expect == "beyond" and code == EXIT_DOMAIN):
            _require(code == EXIT_DOMAIN, f"out-of-domain input gave exit code {code}")
            payload = _parse_object(stdout)
            _require(isinstance(payload.get("error"), str), "no structured 'error' key")
            _require(isinstance(payload.get("message"), str), "no 'message' key")
            return Outcome(True, records=1)
        _require(code == 0, f"exit code {code}")
        payload = _parse_object(stdout)
        _require(_all_finite(payload), "non-finite number in point output")
        _require(payload.get("device") == p["device"] and payload.get("regime") == p["regime"],
                 "device/regime echo differs")
        expected_of = _engine_expected if p["device"] == "engine" else _fridge_expected
        expected = expected_of(Regime(p["regime"]), p["value"], p["z"])
        for key, value in expected.items():
            _require(key in payload, f"missing key {key!r}")
            _require(payload[key] == value,
                     f"{key}={payload[key]!r} differs from in-process {value!r}")
        return Outcome(True, records=1, eta_omega_cells=int("eta_omega" in expected))

    def _verify(self, code: int, stdout: bytes) -> Outcome:
        _require(code == 0, f"exit code {code}")
        lines = stdout.decode("ascii").splitlines()
        _require(len(lines) >= 2, "no check lines")
        checks, summary = lines[:-1], _SUMMARY.match(lines[-1])
        _require(summary is not None, f"bad summary line {lines[-1]!r}")
        n = len(checks)
        _require(summary.groups() == (str(n), str(n)), f"summary {lines[-1]!r} for {n} checks")
        bad = [line for line in checks if not line.startswith("PASS ")]
        _require(not bad, f"check line not PASS: {bad[:1]}")
        return Outcome(True, records=n)

    def _figure_reference(self, figure_id: str) -> tuple[list[str], list]:
        if figure_id not in self._figures:
            self._figures[figure_id] = tables.figure_table(figure_id)
        return self._figures[figure_id]

    def _csv(self, op: Op, raw: bytes) -> Outcome:
        text = raw.decode("ascii")
        _require(text.endswith("\n"), "CSV does not end with a newline")
        lines = text[:-1].split("\n")
        p = op.params
        if op.kind == "figure":
            header, rows = self._figure_reference(p["id"])
            xs = [row[0] for row in rows]

            def expected_row(i: int) -> list[str]:
                return [_fmt(xs[i])] + ["" if v is None else _fmt(v) for v in rows[i][1:]]
        else:
            device = Device(p["device"])
            spec = tables.SweepSpec(device, tuple(Regime(r) for r in p["regimes"]),
                                    p["start"], p["stop"], p["steps"], tuple(p["quantities"]))
            columns = spec.columns()
            header = [spec.axis] + [f"{q}_{r.value}" for q, r in columns]
            xs = tables.grid(p["start"], p["stop"], p["steps"])

            def expected_row(i: int) -> list[str]:
                x = xs[i]
                return [_fmt(x)] + [_expected_field(device, q, r, x) for q, r in columns]

        _require(lines[0] == ",".join(header), f"header {lines[0][:80]!r} differs")
        _require(len(lines) - 1 == len(xs), f"{len(lines) - 1} rows, expected {len(xs)}")
        width = len(header)
        eta_omega_columns = [i for i, name in enumerate(header) if name.startswith("eta_omega_")]
        cells = empty = eta_omega = 0
        for line in lines[1:]:
            fields = line.split(",")
            _require(len(fields) == width, f"row has {len(fields)} fields, expected {width}")
            for value in fields[1:]:
                if value:
                    _require(math.isfinite(float(value)), f"non-finite cell {value!r}")
                else:
                    empty += 1
            cells += width - 1
            eta_omega += sum(1 for i in eta_omega_columns if fields[i])
        picks = {0, len(xs) - 1}
        picks.update(self._rng.sample(range(len(xs)), min(SAMPLED_ROWS, len(xs))))
        for i in sorted(picks):
            got, want = lines[i + 1].split(","), expected_row(i)
            _require(got == want, f"row {i} differs from in-process: {got} != {want}")
        return Outcome(True, records=len(xs), cells=cells, empty_cells=empty,
                       eta_omega_cells=eta_omega)
