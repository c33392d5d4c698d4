"""Command-line front end: ``otto-lab sweep | figure | verify | point``.

Machine-readable output only: CSV (sweeps, figures) and JSON (single
points) go to stdout unless ``--out`` is given; diagnostics go to stderr.
Numbers are printed with 12 significant digits, locale-independent.  A
table of two or more blocks of ``tables.BLOCK_ROWS`` rows is formatted by
forked writers, a whole block at a time, when the platform can fork and
has two or more CPUs.

Exit codes: 0 success, 1 usage error (any argparse error, a sweep grid
that is not finite, an ``--out`` path that cannot be written), a failed
row writer, a stdout closed by its reader or one that cannot be written
(``> /dev/full``), 2 domain error, 3 verification failure.

Importing this module loads ``argparse`` and every layer module but not
``json``, which ``point`` imports inside the command.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from . import engine, fridge, tables, verification
from .cycle import ASYMMETRIC_REGIMES, Device, Regime
from .errors import DomainError, InfeasibleDeviceError

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

_REGIME_NAMES = tuple(r.value for r in Regime)
_DEVICE_NAMES = tuple(d.value for d in Device)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _WorkerError(Exception):
    """A forked row writer could not start, failed, or sent a short block."""


def _write_rows(write, template: str, rows) -> None:
    """The one row-formatting loop.  A row without None cells is formatted
    by one ``%``-template (``"%.12g" % x == format(x, ".12g")`` for floats);
    a None cell makes the template raise TypeError, and that row is
    formatted cell by cell."""
    for row in rows:
        try:
            line = template % tuple(row)
        except TypeError:
            line = ",".join("" if v is None else format(v, ".12g") for v in row) + "\n"
        write(line)


def _cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _write_csv(handle, header: list[str], rows) -> None:
    """Header, then one line per row.  Rows that are a Sequence of two or
    more blocks are formatted by one forked worker per CPU, up to one per
    block, when the platform can fork; any other rows are formatted and
    written one at a time, by this process."""
    handle.write(",".join(header) + "\n")
    template = ",".join(["%.12g"] * len(header)) + "\n"
    blocks = -(-len(rows) // tables.BLOCK_ROWS) if isinstance(rows, Sequence) else 0
    workers = min(_cpus(), blocks) if blocks >= 2 and hasattr(os, "fork") else 1
    if workers < 2:
        _write_rows(handle.write, template, rows)
        return
    handle.flush()
    _write_forked(handle, template, rows, blocks, workers)


def _write_forked(handle, template: str, rows, blocks: int, workers: int) -> None:
    """Worker j formats blocks j, j + workers, ... and sends each through its
    own pipe as an 8-byte length and the ASCII text; this process writes
    the blocks in order and reaps every worker, also when it stops early."""
    readers: list = []
    pids: list[int] = []
    try:
        for j in range(workers):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(readers, write_end, template, rows, range(j, blocks, workers))
            except OSError as exc:
                raise _WorkerError(f"cannot fork a row writer: {exc.strerror or exc}") from None
            finally:
                os.close(write_end)
            pids.append(pid)
        for block in range(blocks):
            reader = readers[block % workers]
            size = int.from_bytes(_read_exact(reader, 8), "little")
            handle.write(_read_exact(reader, size).decode("ascii"))
    finally:
        for reader in readers:
            reader.close()
        failed = sum(os.waitpid(pid, 0)[1] != 0 for pid in pids)
    if failed:
        raise _WorkerError(f"{failed} of {workers} row writers failed")


def _read_exact(reader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) != size:
        raise _WorkerError("a row writer ended before its block was complete")
    return data


def _work(readers: list, write_end: int, template: str, rows, blocks: range):
    """Body of a forked row writer; leaves the process through ``os._exit``,
    with status 0 only when every block was sent."""
    status = 1
    try:
        for reader in readers:
            reader.close()
        with open(write_end, "wb") as pipe:
            for block in blocks:
                parts: list[str] = []
                start = block * tables.BLOCK_ROWS
                _write_rows(parts.append, template, rows[start:start + tables.BLOCK_ROWS])
                data = "".join(parts).encode("ascii")
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _emit_csv(command: str, header: list[str], rows, out: str | None) -> int:
    """Write the CSV to stdout, or to ``out``.  An ``out`` that cannot be
    opened or written is a usage error, and so is a row writer that
    failed."""
    try:
        if not out:
            _write_csv(sys.stdout, header, rows)
            return EXIT_OK
        try:
            with open(out, "w", encoding="ascii", newline="") as handle:
                _write_csv(handle, header, rows)
        except OSError as exc:
            print(
                f"otto-lab {command}: error: cannot write --out {out!r}: "
                f"{exc.strerror or exc}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    except _WorkerError as exc:
        print(f"otto-lab {command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = tables.SweepSpec(
        device=args.device,
        regimes=tuple(args.regime or _REGIME_NAMES),
        start=args.start,
        stop=args.stop,
        steps=args.steps,
        quantities=tuple(args.quantity or ()),
    )
    try:
        header, rows = tables.sweep_table(spec)
    except ValueError as exc:
        print(f"otto-lab sweep: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _emit_csv("sweep", header, rows, args.out)


def _cmd_figure(args: argparse.Namespace) -> int:
    return _emit_csv("figure", *tables.figure_table(args.id), args.out)


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verification.run_all()
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def _engine_payload(regime: Regime, eta_c: float) -> tuple[dict, dict, float]:
    tau = 1.0 - eta_c
    traced = engine.eta_at_max_omega(regime, eta_c)
    head: dict = {
        "eta_c": eta_c,
        "tau": tau,
        "eta_omega": traced.value,
        "r_omega": engine.fractional_loss(traced.value, eta_c),
        "z_star_omega": traced.trace["z_opt"],
    }
    if regime in ASYMMETRIC_REGIMES:
        head["eta_mw"] = engine.eta_max_work(regime, eta_c)
        head["eta_max"] = traced.trace["eta_max"]
        head["r_mw"] = engine.fractional_loss_max_work(regime, eta_c)
        head["z_star_mw"] = engine._max_work_terms([eta_c])[1][0]
        head["z_star_max_eta"] = traced.trace["z_at_max"]
    return head, traced.trace, tau


def _fridge_payload(regime: Regime, zeta_c: float) -> tuple[dict, dict, float]:
    traced = fridge.cop_at_max_omega(regime, zeta_c)
    tau = fridge._taus_of([zeta_c])[0]
    head: dict = {
        "zeta_c": zeta_c,
        "tau": tau,
        "cop_omega": traced.value,
        "z_star_omega": traced.trace["z_opt"],
    }
    if regime in ASYMMETRIC_REGIMES:
        head["cop_max"] = traced.trace["cop_max"]
        head["z_star_max_cop"] = traced.trace["z_at_max"]
    return head, traced.trace, tau


#: device -> its payload builder, its module and the JSON names of its
#: ``point_at`` record's fields; ``omega_objective`` and ``point_at`` are read
#: from the module at each call, so an entry rebound on the module is the one
#: called
_POINT = {
    Device.ENGINE: (_engine_payload, engine, "z eta w q_h omega_at_z"),
    Device.FRIDGE: (_fridge_payload, fridge, "z cop q_c w_in omega_at_z"),
}


def _cmd_point(args: argparse.Namespace) -> int:
    import json  # only ``point`` writes JSON; other commands never load it

    device = Device(args.device)
    regime = Regime(args.regime)
    build, module, names = _POINT[device]
    try:
        head, trace, tau = build(regime, args.value)
        payload = {"device": device.value, "regime": regime.value, **head}
        if regime in ASYMMETRIC_REGIMES:
            payload["omega_value"] = module.omega_objective(regime, trace["z_opt"], tau)
        payload.update({f"trace_{k}": v for k, v in trace.items()})
        if args.z is not None:
            payload.update(zip(names.split(), module.point_at(regime, args.z, tau)))
    except InfeasibleDeviceError as exc:
        print(json.dumps({"error": "infeasible_device", "message": str(exc)}))
        return EXIT_DOMAIN
    except DomainError as exc:
        print(json.dumps({"error": "domain", "message": str(exc)}))
        return EXIT_DOMAIN
    print(json.dumps(payload))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="otto-lab",
        description="Closed-form Otto engine/refrigerator analytics with "
        "numeric-oracle verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="CSV parameter sweep over eta_c or zeta_c")
    sweep.add_argument("--device", required=True, choices=_DEVICE_NAMES)
    sweep.add_argument(
        "--regime", action="append", choices=_REGIME_NAMES,
        help="repeatable; default: all regimes a quantity supports",
    )
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument(
        "--quantity", action="append",
        help=f"repeatable; engine: {' '.join(tables.ENGINE_QUANTITIES)}; "
        f"fridge: {' '.join(tables.FRIDGE_QUANTITIES)}",
    )
    sweep.add_argument("--out", help="write CSV here instead of stdout")
    sweep.set_defaults(func=_cmd_sweep)

    figure = sub.add_parser("figure", help="emit one canonical figure data set as CSV")
    figure.add_argument("--id", required=True, choices=tables.FIGURE_IDS)
    figure.add_argument("--out", help="write CSV here instead of stdout")
    figure.set_defaults(func=_cmd_figure)

    verify = sub.add_parser(
        "verify", help="run the closed-form vs oracle verification suite"
    )
    verify.set_defaults(func=_cmd_verify)

    point = sub.add_parser("point", help="all quantities at one axis value, as JSON")
    point.add_argument("device", choices=_DEVICE_NAMES)
    point.add_argument("regime", choices=_REGIME_NAMES)
    point.add_argument("value", type=float, help="eta_c (engine) or zeta_c (fridge)")
    point.add_argument("--z", type=float, help="also evaluate this compression ratio")
    point.set_defaults(func=_cmd_point)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"otto-lab: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    """The ``otto-lab`` console script.  Once ``main`` has returned and its
    output is flushed, the process ends through ``os._exit``: interpreter
    teardown would cost more than most commands' own work.  A stdout that
    cannot take the output ends the command with exit 1 and, for any error
    but a closed pipe, one stderr line.  Usage errors, ``--help`` and other
    uncaught exceptions still leave through ``SystemExit`` or the
    traceback, with the normal interpreter exit."""
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``otto-lab sweep ... | head``)
        code = EXIT_USAGE
    except OSError as exc:
        # stdout cannot take the output (``> /dev/full``)
        try:
            print(f"otto-lab: error: cannot write output: {exc.strerror or exc}",
                  file=sys.stderr, flush=True)
        except OSError:
            pass
        code = EXIT_USAGE
    os._exit(code)


if __name__ == "__main__":
    run()
