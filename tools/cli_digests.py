"""Print a digest of the output of a fixed matrix of CLI commands.

Each command runs in process through ``ottolab.cli.main(argv)``, imported
from this tree's ``src``, with stdout and stderr captured.  One line per
command: the sha256 of the captured stdout and stderr, the exit code and
the argv.  Two trees give identical lines exactly when every command gives
the same bytes and exit code in both, so ``diff`` of two runs is the check
that a change kept the CLI's output:

    python tools/cli_digests.py > after.txt
    python ../before/tools/cli_digests.py > before.txt
    diff before.txt after.txt

The matrix: ``verify``; the three figures; sweeps of 436 rows and of 5000
rows (three blocks, so the forked row writers run where the platform can
fork), among them fridge sweeps across zeta_c = 1; and ``point`` for both
devices, all four regimes, edge, mid and NaN values, without and with
``--z``.  Standard library only; takes no options and exits 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ottolab import cli  # noqa: E402

_SWEEPS = (
    "--device engine --start 0.01 --stop 0.999999 --steps 436 --regime sc --quantity eta_omega",
    "--device engine --start 0.01 --stop 0.99 --steps 436",
    "--device engine --start 0.01 --stop 0.99 --steps 5000",
    "--device fridge --start 0.25 --stop 9 --steps 436",
    "--device fridge --start 0.1 --stop 10 --steps 5000",
)
_POINT_VALUES = ("1e-6", "0.3", "0.999999", "3", "9e15", "1e16", "nan")
#: a --z inside each device's window at its mid value
_POINT_Z = {"engine": "0.9", "fridge": "0.5"}


def commands() -> list[list[str]]:
    out = [["verify"]]
    out += [["figure", "--id", figure_id] for figure_id in ("fig2", "fig4", "fig6")]
    out += [["sweep", *sweep.split()] for sweep in _SWEEPS]
    for device in ("engine", "fridge"):
        for regime in ("sc", "se", "adi", "ss"):
            for value in _POINT_VALUES:
                out.append(["point", device, regime, value])
                out.append(["point", device, regime, value, "--z", _POINT_Z[device]])
    return out


def digest(argv: list[str]) -> tuple[str, int]:
    """(sha256 of stdout, a NUL, then stderr; exit code) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    data = (out.getvalue() + "\0" + err.getvalue()).encode("utf-8")
    return hashlib.sha256(data).hexdigest(), code


def main() -> None:
    for argv in commands():
        sha, code = digest(argv)
        print(f"{sha} {code} {' '.join(argv)}")


if __name__ == "__main__":
    main()
