"""Print a digest of the output of a fixed matrix of CLI commands.

Each command runs in process through ``ottolab.cli.main(argv)``, with
stdout and stderr captured.  One line per command: the sha256 of the
captured stdout and stderr, the exit code and the argv.  Two trees give
identical lines exactly when every command gives the same bytes and exit
code in both.

The tool imports whichever ``ottolab`` the interpreter finds: this tree's
with ``PYTHONPATH=src``, an installed package without it.  The lines are
committed as ``tests/cli_digests.txt``, the one record of the CLI's output
bytes, and its one gate is
``tests/test_cli.py::test_every_command_gives_its_committed_digest``, which
runs this matrix in process with two CPUs reported and fails with the argv
of each line that moved.  A change that means to move the output
regenerates the file, and its ``git diff`` is the output change, keyed by
argv:

    PYTHONPATH=src python tools/cli_digests.py > tests/cli_digests.txt

CI also runs it with a fresh venv's interpreter, which holds the installed
package and no test extras, and diffs its stdout against the committed file.

The matrix: the three figures; sweeps of 436, 2100 and 5000 rows (the
larger ones two and three blocks, so the forked row writers run where the
platform can fork), among them every quantity of every regime from each
device's lower edge and fridge sweeps across zeta_c = 1; and ``point`` for
both devices, all four regimes, edge, mid and NaN values, without and with
``--z``, and fridge points at the se window's edge, near the ss upper edge
and with a second ``--z``.  ``verify`` is held apart, in readable form, by
``tests/verify_report.txt``.  Standard library only; takes no options and
exits 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from ottolab import cli

_SWEEPS = (
    # its last row is --stop itself, although start + 435 * step rounds to
    # 0.9999990000000001, outside the engine's domain
    "--device engine --start 0.01 --stop 0.999999 --steps 436 --regime sc --quantity eta_omega",
    "--device engine --start 0.01 --stop 0.99 --steps 436",
    "--device engine --start 0.01 --stop 0.99 --steps 5000",
    "--device engine --start 1e-06 --stop 0.999999 --steps 2100",
    "--device fridge --start 0.25 --stop 9 --steps 436",
    "--device fridge --start 0.1 --stop 10 --steps 5000",
    "--device fridge --start 1e-06 --stop 20 --steps 2100",
)
_POINT_VALUES = ("1e-6", "0.3", "0.999999", "3", "9e15", "1e16", "nan")
#: a --z inside each device's window at its mid value
_POINT_Z = {"engine": "0.9", "fridge": "0.5"}
#: fridge points the loop misses: --z 0.3 at zeta_c = 3 in every regime, the
#: se cooling window just above zeta_c = 1 and ss near its upper edge
_FRIDGE_POINTS = (
    "sc 3 --z 0.3", "se 3 --z 0.3", "adi 3 --z 0.3", "ss 3 --z 0.3",
    "se 1.000001", "ss 5e15",
)


def commands() -> list[list[str]]:
    out = [["figure", "--id", figure_id] for figure_id in ("fig2", "fig4", "fig6")]
    out += [["sweep", *sweep.split()] for sweep in _SWEEPS]
    for device in ("engine", "fridge"):
        for regime in ("sc", "se", "adi", "ss"):
            for value in _POINT_VALUES:
                out.append(["point", device, regime, value])
                out.append(["point", device, regime, value, "--z", _POINT_Z[device]])
    out += [["point", "fridge", *point.split()] for point in _FRIDGE_POINTS]
    return out


def digest(argv: list[str]) -> str:
    """The line of one command: the sha256 of its stdout, a NUL, then its
    stderr; its exit code; its argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    data = (out.getvalue() + "\0" + err.getvalue()).encode("utf-8")
    return f"{hashlib.sha256(data).hexdigest()} {code} {' '.join(argv)}"


def main() -> None:
    for argv in commands():
        print(digest(argv))


if __name__ == "__main__":
    main()
