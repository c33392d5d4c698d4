import contextlib
import errno
import importlib.util
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ottolab import cli, engine, fridge, tables, verification
from ottolab.cycle import (
    ASYMMETRIC_REGIMES,
    SUDDEN_EXPANSION_REGIMES,
    Device,
    Regime,
    feasible_interval,
)
from ottolab.errors import DomainError, InfeasibleDeviceError
from ottolab.oracle import maximize


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of one in-process call; an argparse exit
    gives its ``SystemExit`` code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def cell(header, row, name):
    value = row[header.index(name)]
    return None if value == "" else float(value)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def digests():
    """``tools/cli_digests.py``, loaded by file path, and the lines of
    ``tests/cli_digests.txt``, the one record of the CLI's output bytes."""
    spec = importlib.util.spec_from_file_location(
        "cli_digests", os.path.join(ROOT, "tools", "cli_digests.py")
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with open(os.path.join(ROOT, "tests", "cli_digests.txt"), encoding="utf-8") as handle:
        return tool, handle.read().splitlines()


def _argv_key(argv):
    """An argv with its numbers read as floats, so ``1e-06`` finds ``1e-6``."""
    def word(token):
        try:
            return repr(float(token))
        except ValueError:
            return token
    return tuple(word(token) for token in argv)


def assert_committed(digests, *argv):
    """The command gives the sha256 and exit code of its committed line."""
    tool, committed = digests
    [line] = [line for line in committed if _argv_key(line.split(" ")[2:]) == _argv_key(argv)]
    assert tool.digest(list(argv)).split(" ")[:2] == line.split(" ")[:2], line


class TestSweep:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--device", "engine", "--regime", "sc",
            "--start", "0.1", "--stop", "0.9", "--steps", "9",
            "--quantity", "eta_omega",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 10
        assert lines[0] == "eta_c,eta_omega_sc"

    def test_spot_value_at_half(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--device", "engine", "--regime", "sc",
            "--start", "0.1", "--stop", "0.9", "--steps", "9",
            "--quantity", "eta_omega",
        )
        header, rows = rows_of(out)
        row = next(r for r in rows if abs(float(r[0]) - 0.5) < 1e-12)
        assert cell(header, row, "eta_omega_sc") == pytest.approx(0.1780, abs=2e-4)

    def test_fridge_se_empty_below_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--device", "fridge", "--regime", "se",
            "--start", "0.5", "--stop", "2.0", "--steps", "4",
            "--quantity", "cop_omega",
        )
        assert code == 0
        header, rows = rows_of(out)
        values = [cell(header, row, "cop_omega_se") for row in rows]
        assert values[0] is None and values[1] is None
        assert values[2] is not None and values[3] is not None

    def test_last_row_is_at_stop(self, capsys):
        """The last grid point is --stop itself: start + 435 * step rounds to
        0.9999990000000001, outside the engine's domain, and that row came
        out ``0.999999,`` with an empty cell."""
        code, out, _ = run_cli(
            capsys, "sweep", "--device", "engine", "--start", "0.01", "--stop", "0.999999",
            "--steps", "436", "--regime", "sc", "--quantity", "eta_omega",
        )
        assert code == 0
        assert out.split("\n")[-2] == "0.999999,0.991995684601"

    @pytest.mark.parametrize("repeated, once, header", (
        ("--regime sc --regime se --regime sc --quantity eta_omega",
         "--regime sc --regime se --quantity eta_omega", "eta_c,eta_omega_sc,eta_omega_se"),
        ("--regime sc --quantity eta_omega --quantity eta_max --quantity eta_omega",
         "--regime sc --quantity eta_omega --quantity eta_max", "eta_c,eta_omega_sc,eta_max_sc"),
    ), ids=("regime", "quantity"))
    def test_repeated_option_is_one_column(self, capsys, repeated, once, header):
        """A repeated --regime or --quantity names its column once: the
        bytes equal those of the same options given once each."""
        grid = ("--device", "engine", "--start", "0.1", "--stop", "0.9", "--steps", "5")
        code, out, _ = run_cli(capsys, "sweep", *grid, *repeated.split())
        assert (code, out.split("\n")[0]) == (0, header)
        assert run_cli(capsys, "sweep", *grid, *once.split()) == (0, out, "")

    def test_unknown_quantity_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--device", "engine", "--start", "0.1",
            "--stop", "0.9", "--steps", "5", "--quantity", "cop_omega",
        )
        assert code == 1
        assert "cop_omega" in err

    def test_bad_grid_is_usage_error(self, capsys, tmp_path):
        """A reversed range, an infinite end, a step that overflows and a
        step count that no float or ``len`` can hold all exit 1 with one
        stderr line before ``--out`` is opened."""
        out = tmp_path / "sweep.csv"
        for device, start, stop, steps in (
            ("engine", "0.9", "0.1", "5"),
            ("fridge", "0.5", "inf", "3"),
            ("engine", "-inf", "0.5", "3"),
            ("engine", "-1e308", "1e308", "3"),
            ("engine", "0", "0.5", "1" + "0" * 400),
            ("engine", "0.1", "0.5", str(sys.maxsize + 1)),
        ):
            code, stdout, err = run_cli(
                capsys, "sweep", "--device", device, f"--start={start}",
                f"--stop={stop}", "--steps", steps, "--out", str(out),
            )
            assert (code, stdout, out.exists(), err.count("\n")) == (1, "", False, 1), (
                start, stop, err,
            )


    @pytest.mark.parametrize("device, stop", (("engine", "0.999999"), ("fridge", "20")),
                             ids=("engine 0.999999", "fridge 20"))
    def test_bytes_are_pinned(self, digests, monkeypatch, device, stop):
        """Every quantity of every regime over 2100 rows, more than one
        block, so the forked row writers format it."""
        _set_cpus(monkeypatch, 2)
        assert_committed(
            digests, "sweep", "--device", device, "--start", "1e-06", "--stop", stop,
            "--steps", "2100",
        )


class TestFigure:
    def test_fig2_layout_and_orderings(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "--id", "fig2")
        assert code == 0
        header, rows = rows_of(out)
        assert header == [
            "eta_c", "eta_omega_sc", "eta_omega_se", "eta_mw_sc", "eta_mw_se",
            "eta_omega_adi", "eta_omega_ss", "delta_sc", "delta_se",
        ]
        assert len(rows) == 181
        for row in rows:
            adi = cell(header, row, "eta_omega_adi")
            sc = cell(header, row, "eta_omega_sc")
            se = cell(header, row, "eta_omega_se")
            ss = cell(header, row, "eta_omega_ss")
            assert adi > sc > se > ss
            assert cell(header, row, "delta_sc") > 0.0
            assert cell(header, row, "delta_se") > 0.0

    def test_fig4_spot_row(self, capsys):
        _, out, _ = run_cli(capsys, "figure", "--id", "fig4")
        header, rows = rows_of(out)
        row = next(r for r in rows if abs(float(r[0]) - 0.5) < 1e-9)
        r_mw_sc = cell(header, row, "r_mw_sc")
        r_mw_se = cell(header, row, "r_mw_se")
        assert r_mw_sc == pytest.approx(1.9702, abs=2e-4)
        assert r_mw_se == pytest.approx(2.3604, abs=2e-4)
        assert r_mw_se > r_mw_sc

    def test_fig6_spot_row_and_gaps(self, capsys):
        _, out, _ = run_cli(capsys, "figure", "--id", "fig6")
        header, rows = rows_of(out)
        row = next(r for r in rows if abs(float(r[0]) - 3.0) < 1e-9)
        assert cell(header, row, "cop_omega_adi") == pytest.approx(2.0379, abs=2e-4)
        assert cell(header, row, "cop_omega_sc") == pytest.approx(0.5010, abs=2e-4)
        assert cell(header, row, "cop_omega_se") == pytest.approx(0.3300, abs=2e-4)
        assert cell(header, row, "cop_omega_ss") == pytest.approx(0.1733, abs=2e-4)
        below = next(r for r in rows if abs(float(r[0]) - 0.5) < 1e-9)
        assert cell(header, below, "cop_omega_se") is None
        assert cell(header, below, "cop_omega_ss") is None
        assert cell(header, below, "cop_omega_sc") is not None

    @pytest.mark.parametrize("figure_id", ("fig2", "fig4", "fig6"))
    def test_bytes_are_pinned(self, digests, figure_id):
        assert_committed(digests, "figure", "--id", figure_id)

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "figure", "--id", "fig2")
        _, second, _ = run_cli(capsys, "figure", "--id", "fig2")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "fig6.csv"
        code, out, _ = run_cli(capsys, "figure", "--id", "fig6", "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("zeta_c,")
        assert "\r" not in text


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((-0.0, 5e-324, 1e16, 1.7976931348623157e308)),
)
#: rows without None (the one-template path) and rows with None cells
ROWS = st.one_of(
    st.lists(FINITE, min_size=6, max_size=6),
    st.lists(st.one_of(FINITE, st.none()), min_size=6, max_size=6),
)


class TestCsvOutput:
    """Rows are written as they are formatted, ``--out`` gets the bytes
    stdout gets, and an unwritable ``--out`` is a usage error."""

    COMMANDS = {
        # se/ss cells are empty below zeta_c = 1
        "fridge_sweep_across_unit_cop": (
            "sweep", "--device", "fridge", "--start", "0.5", "--stop", "2.0",
            "--steps", "7",
        ),
        "fig2": ("figure", "--id", "fig2"),
    }

    def test_each_row_is_written_before_the_next_is_formatted(self, monkeypatch):
        sink = io.StringIO()
        monkeypatch.setattr(sys, "stdout", sink)

        def rows():
            for i in range(3):
                assert sink.getvalue().count("\n") == 1 + i
                yield (float(i), None)

        assert cli._emit_csv("sweep", ["x", "y"], rows(), None) == 0
        assert sink.getvalue() == "x,y\n0,\n1,\n2,\n"

    @given(st.lists(ROWS, max_size=8))
    @example([[-0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.5, 1.0],
              [None, -0.0, 5e-324, None, 1e16, 1.7976931348623157e308]])
    def test_rows_format_as_per_cell_fields(self, rows):
        header = [f"c{i}" for i in range(6)]
        sink = io.StringIO()
        cli._write_csv(sink, header, rows)
        expected = ",".join(header) + "\n" + "".join(
            ",".join("" if v is None else format(v, ".12g") for v in row) + "\n"
            for row in rows
        )
        assert sink.getvalue().encode("ascii") == expected.encode("ascii")

    @pytest.mark.parametrize("name", COMMANDS)
    def test_out_file_equals_stdout(self, capsys, tmp_path, name):
        argv = self.COMMANDS[name]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "table.csv"
        code, quiet, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0
        assert quiet == ""
        assert target.read_bytes() == out.encode("ascii")

    @pytest.mark.parametrize("name", COMMANDS)
    def test_missing_directory_is_usage_error(self, capsys, tmp_path, name):
        target = tmp_path / "missing_dir" / "table.csv"
        code, out, err = run_cli(capsys, *self.COMMANDS[name], "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert str(target) in err
        assert not target.exists()
        assert not target.parent.exists()


def _set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWriter:
    """Rows of two or more blocks are formatted by one forked writer per CPU
    and come out with the bytes the serial writer gives; smaller tables and
    one CPU never fork, and no writer outlives the command."""

    SWEEPS = {
        "engine_all_regimes": (
            "sweep", "--device", "engine", "--start=-0.01", "--stop", "1.01",
            "--steps", "4500",
        ),
        # block 1 starts at row 2048, zeta_c = 0.75, inside the empty se/ss
        # cells, which end at zeta_c = 1 in block 1
        "fridge_across_unit_cop": (
            "sweep", "--device", "fridge", "--start", "0.001", "--stop", "1.5",
            "--steps", "4097",
        ),
    }

    @pytest.mark.parametrize("name", SWEEPS)
    def test_forked_bytes_equal_serial(self, capsys, monkeypatch, tmp_path, name):
        argv = self.SWEEPS[name]
        _set_cpus(monkeypatch, 1)
        code, serial, _ = run_cli(capsys, *argv)
        assert code == 0
        forked_pids = []

        def fork(_real=os.fork):
            pid = _real()
            if pid:
                forked_pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        _set_cpus(monkeypatch, 2)
        code, forked, _ = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "table.csv"
        code, quiet, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, quiet) == (0, "")
        assert len(forked_pids) == 4
        assert forked == serial
        assert target.read_bytes() == serial.encode("ascii")
        header, rows = rows_of(serial)
        if "cop_omega_se" in header:
            assert [cell(header, rows[i], "cop_omega_se") for i in (2047, 2048)] == [None, None]
            assert cell(header, rows[-1], "cop_omega_se") is not None
        _assert_no_child()

    @pytest.mark.parametrize(
        "argv",
        [("figure", "--id", "fig6"),
         ("sweep", "--device", "engine", "--start", "0.1", "--stop", "0.9", "--steps", "50"),
         # exactly one block
         ("sweep", "--device", "engine", "--regime", "sc", "--quantity", "eta_omega",
          "--start", "0.1", "--stop", "0.9", "--steps", "2048")],
        ids=("figure", "sweep_50", "sweep_one_block"),
    )
    def test_small_tables_do_not_fork(self, capsys, monkeypatch, argv):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        _set_cpus(monkeypatch, 2)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out

    ONE_COLUMN_SWEEP = (
        "sweep", "--device", "engine", "--regime", "sc", "--quantity", "eta_omega",
        "--start", "0.1", "--stop", "0.9", "--steps", "9000",
    )

    def test_closed_sink_leaves_no_writer(self, monkeypatch):
        class Sink(io.StringIO):
            writes = 0

            def write(self, text):
                # the header, block 0, then the reader is gone
                self.writes += 1
                if self.writes == 3:
                    raise BrokenPipeError
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        _set_cpus(monkeypatch, 2)
        with pytest.raises(BrokenPipeError):
            cli.main(list(self.ONE_COLUMN_SWEEP))
        _assert_no_child()

    def test_failed_writer_is_one_line_usage_error(self, capsys, monkeypatch):
        real_block = tables._engine_block

        def block(eta_cs, regimes):
            if max(eta_cs) > 0.3:
                raise RuntimeError("block failed")
            return real_block(eta_cs, regimes)

        monkeypatch.setattr(tables, "_engine_block", block)
        _set_cpus(monkeypatch, 2)
        code, out, err = run_cli(capsys, *self.ONE_COLUMN_SWEEP)
        assert code == 1
        assert err.count("\n") == 1 and "row writer" in err
        # the header and block 0, whose rows all lie below eta_c = 0.3
        assert out.count("\n") == 1 + tables.BLOCK_ROWS
        _assert_no_child()


#: prints the peak RSS (KiB) of the command in argv, measured from a process
#: that holds little itself
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_sweep_memory_does_not_grow_with_steps():
    def peak_kib(steps):
        argv = (
            sys.executable, "-m", "ottolab.cli", "sweep", "--device", "engine",
            "--regime", "sc", "--quantity", "eta_omega", "--start", "0.01",
            "--stop", "0.99", "--steps", str(steps), "--out", os.devnull,
        )
        done = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, *argv], env=_cli_env(),
            capture_output=True, text=True, timeout=300, check=True,
        )
        return int(done.stdout)

    assert peak_kib(200_000) - peak_kib(2_000) <= 5 * 1024


def engine_head(regime, eta_c):
    """``point engine``'s head from the public entries, its Omega trace and
    tau."""
    tau = 1.0 - eta_c
    traced = engine.eta_at_max_omega(regime, eta_c)
    z_opt = traced.trace["z_opt"]
    head = {
        "eta_c": eta_c,
        "tau": tau,
        "eta_omega": traced.value,
        "r_omega": engine.fractional_loss(traced.value, eta_c),
        "z_star_omega": z_opt,
    }
    if regime in ASYMMETRIC_REGIMES:
        head.update(
            eta_mw=engine.eta_max_work(regime, eta_c),
            eta_max=engine.eta_max(regime, tau).value,
            r_mw=engine.fractional_loss_max_work(regime, eta_c),
            z_star_mw=tau ** (1.0 / 3.0),
            z_star_max_eta=engine.z_star_max_eta(regime, tau).value,
            omega_value=engine.omega_objective(regime, z_opt, tau),
        )
    return head, traced.trace, tau


def fridge_head(regime, zeta_c):
    """``point fridge``'s head from the public entries, its Omega trace and
    tau."""
    tau = zeta_c / (1.0 + zeta_c)
    traced = fridge.cop_at_max_omega(regime, zeta_c)
    z_opt = traced.trace["z_opt"]
    head = {"zeta_c": zeta_c, "tau": tau, "cop_omega": traced.value, "z_star_omega": z_opt}
    if regime in ASYMMETRIC_REGIMES:
        head.update(
            cop_max=fridge.cop_max(regime, zeta_c).value,
            z_star_max_cop=fridge.z_star_max_cop(regime, zeta_c).value,
            omega_value=fridge.omega_objective(regime, z_opt, tau),
        )
    return head, traced.trace, tau


#: device -> its head, its record at a ratio z, that record's JSON names and
#: its admitted coordinates (zeta_c shifted up by 1 where the cooling window
#: needs zeta_c > 1)
POINTS = {
    "engine": (engine_head, engine.point_at, "z eta w q_h omega_at_z",
               lambda regime: st.floats(engine.EDGE, 1.0 - engine.EDGE)),
    "fridge": (fridge_head, fridge.point_at, "z cop q_c w_in omega_at_z",
               lambda regime: st.floats(-6.0, 15.95).map(
                   lambda e: float(regime in SUDDEN_EXPANSION_REGIMES) + 10.0**e)),
}


def window(device, regime, tau):
    """The closed window a ``--z`` is drawn from: the engine's, or the
    cooling window less its degenerate z -> 0 end."""
    lo, hi = feasible_interval(Device(device), regime, tau)
    return (lo, hi) if device == "engine" else (fridge.EDGE * hi, hi)


class TestPoint:
    @pytest.mark.parametrize("regime", Regime, ids=lambda regime: regime.value)
    @pytest.mark.parametrize("device", POINTS)
    @settings(deadline=None)
    @given(data=st.data())
    def test_head_is_the_public_entries(self, device, regime, data):
        """Every key of ``point`` at an admitted coordinate, and of its
        ``--z`` record at a ratio in the window (sc/se), equals the public
        call it reports, bit for bit; where the record raises DomainError,
        ``point`` reports that error alone."""
        head_of, point_at, names, coordinates = POINTS[device]
        x = data.draw(coordinates(regime), label="coordinate")
        head, trace, tau = head_of(regime, x)
        expected = {"device": device, "regime": regime.value, **head}
        expected.update({f"trace_{key}": value for key, value in trace.items()})
        argv = ["point", device, regime.value, repr(x)]
        if regime in ASYMMETRIC_REGIMES:
            lo, hi = window(device, regime, tau)
            z = min(max(lo + data.draw(st.floats(0.0, 1.0), label="u") * (hi - lo), lo), hi)
            argv += ["--z", repr(z)]
            try:
                expected.update(zip(names.split(), point_at(regime, z, tau)))
            except DomainError as exc:
                expected = {"error": "domain", "message": str(exc)}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert (code, json.loads(out.getvalue())) == (2 if "error" in expected else 0, expected)

    def test_engine_payload(self, capsys):
        code, out, _ = run_cli(capsys, "point", "engine", "sc", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta_omega"] == pytest.approx(0.1780, abs=2e-4)
        assert payload["eta_mw"] == pytest.approx(0.1683, abs=2e-4)
        assert payload["eta_max"] == pytest.approx(0.1822, abs=2e-4)
        assert payload["z_star_omega"] == pytest.approx(0.76883, abs=1e-5)
        assert payload["trace_z_opt"] == payload["z_star_omega"]
        assert payload["omega_value"] > 0.0

    def test_engine_boundary_ratio_included(self, capsys):
        code, out, _ = run_cli(capsys, "point", "engine", "sc", "0.5", "--z", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] == 0.0
        assert payload["w"] == 0.0

    def test_fridge_payload(self, capsys):
        code, out, _ = run_cli(capsys, "point", "fridge", "se", "3.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["cop_omega"] == pytest.approx(0.3300, abs=2e-4)
        assert payload["cop_max"] == pytest.approx(0.3892, abs=2e-4)

    def test_fridge_se_at_unit_cop_is_structured_error(self, capsys):
        code, out, _ = run_cli(capsys, "point", "fridge", "se", "1.0")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "infeasible_device"

    def test_engine_out_of_domain_value(self, capsys):
        code, out, _ = run_cli(capsys, "point", "engine", "sc", "1.5")
        assert code == 2
        assert json.loads(out)["error"] == "domain"

    @pytest.mark.parametrize(
        "regime,value",
        [("ss", "nan"), ("adi", "inf"), ("sc", "1e300"),
         # below the zeta_c = 1e-6 floor: the sc root has no digit left at
         # 1e-50 and divides by zero at 1e-300
         ("sc", "1e-300"), ("sc", "1e-50"), ("adi", "1e-7")],
    )
    def test_fridge_unusable_zeta_is_structured_error(self, capsys, regime, value):
        code, out, _ = run_cli(capsys, "point", "fridge", regime, value)
        assert code == 2
        assert json.loads(out)["error"] == "domain"

    @pytest.mark.parametrize(
        "argv",
        [("engine", "sc", "0.5", "--z", "0.2"),
         # z = 1 is outside the cooling window, which ends within 1e-12 of it
         ("fridge", "sc", "1e13", "--z", "1"),
         # z * z underflows to 0
         ("engine", "sc", "0.5", "--z", "1e-170")],
        ids=("engine_below_window", "fridge_unit_ratio", "engine_tiny_ratio"),
    )
    def test_infeasible_z_is_domain_error(self, capsys, argv):
        code, out, _ = run_cli(capsys, "point", *argv)
        assert code == 2
        assert json.loads(out)["error"] == "domain"

    @pytest.mark.parametrize("argv, message", [
        # the lower end of the sc engine window at eta_c = 0.7
        ("engine sc 0.7 --z 0.4694933459514875",
         "work output is negative at z=0.4694933459514875, tau=0.30000000000000004 "
         "(w=-1.1779614040830222e-16)"),
        # the upper end of the se cooling window at zeta_c = 10
        ("fridge se 10 --z 0.9045340337332909",
         "cooling load is negative at z=0.9045340337332909, tau=0.9090909090909091 "
         "(q_c=-1.1102230246251565e-16)"),
    ], ids=("engine_lower_end", "fridge_upper_end"))
    def test_negative_gain_at_a_rounded_window_end_is_domain_error(self, capsys, argv, message):
        code, out, _ = run_cli(capsys, "point", *argv.split())
        assert code == 2
        assert json.loads(out) == {"error": "domain", "message": message}

    def test_symmetric_regime_is_named_by_its_token(self, capsys):
        code, out, _ = run_cli(capsys, "point", "engine", "adi", "0.5", "--z", "0.9")
        assert code == 2
        assert json.loads(out) == {
            "error": "domain",
            "message": "operation defined for the sc/se regimes only, got adi",
        }


    @pytest.mark.parametrize("argv", (
        "engine sc 0.3", "engine sc 0.3 --z 0.9", "engine sc 1e-06", "engine sc 0.999999",
        "engine se 0.3", "engine se 0.3 --z 0.9", "engine se 1e-06", "engine se 0.999999",
        "engine adi 0.3", "engine adi 0.3 --z 0.9", "engine adi 1e-06", "engine adi 0.999999",
        "engine ss 0.3", "engine ss 0.3 --z 0.9", "engine ss 1e-06", "engine ss 0.999999",
        "fridge sc 3 --z 0.3", "fridge se 3 --z 0.3", "fridge adi 3", "fridge adi 9e15",
        "fridge adi 3 --z 0.3", "fridge ss 3 --z 0.3", "fridge sc 1e-06", "fridge sc 9e15",
        "fridge se 1.000001", "fridge ss 5e15",
    ))
    def test_bytes_are_pinned(self, digests, argv):
        """The whole payload: every value, every ``trace_*`` key and their
        order, and the structured errors of the symmetric regimes."""
        assert_committed(digests, "point", *argv.split())


def test_every_command_gives_its_committed_digest(digests):
    """Every command of ``tools/cli_digests.py`` gives its line of
    ``tests/cli_digests.txt``: the same stdout, stderr and exit code, byte
    for byte.  A change that means to move the output regenerates the file
    with ``python tools/cli_digests.py > tests/cli_digests.txt``; a failure
    names the argv of each line that moved."""
    tool, committed = digests
    printed = [tool.digest(argv) for argv in tool.commands()]
    moved = sorted({line.split(" ", 2)[2] for line in set(printed) ^ set(committed)})
    assert printed == committed, "lines moved:\n" + "\n".join(moved)


def _set_where(function, at, value, field="value"):
    """``function`` with ``field`` of its result (the result itself for a
    float) set to ``value(*args)`` wherever ``at(*args)`` holds."""
    def patched(*args):
        result = function(*args)
        if not at(*args):
            return result
        new = value(*args)
        return new if isinstance(result, float) else result._replace(**{field: new})

    return patched


def _swapped(figure_id, a, b):
    """A patch of ``tables.figure_table`` under which ``figure_id`` has its
    columns ``a`` and ``b`` swapped."""
    def patch(figure_table):
        def patched(name):
            header, rows = figure_table(name)
            if name == figure_id:
                header = [{a: b, b: a}.get(column, column) for column in header]
            return header, rows

        return patched

    return patch


_SC, _SE, _SS = Regime.SUDDEN_COMPRESSION, Regime.SUDDEN_EXPANSION, Regime.SUDDEN_SWITCH

#: (module, attribute, patch of that attribute, the checks that must FAIL):
#: one value at one grid point, or two columns of one figure, put out of
#: order by a finite amount
_ORDER_CASES = {
    "engine_eta_chain": (engine, "eta_max", lambda f: _set_where(
        f, lambda r, tau: (r, tau) == (_SC, 0.5), lambda r, tau: 0.6,
    ), ("eta_max_sc_vs_oracle", "engine_eta_chain_sc")),
    "engine_regimes": (engine, "eta_at_max_omega", lambda f: _set_where(
        f, lambda r, eta_c: (r, eta_c) == (_SS, 0.5), lambda r, eta_c: eta_c,
    ), ("eta_omega_ss_vs_oracle", "engine_regime_ordering")),
    "fridge_cop_chain": (fridge, "cop_max", lambda f: _set_where(
        f, lambda r, zeta_c: (r, zeta_c) == (_SE, 3.0), lambda r, zeta_c: zeta_c + 1.0,
    ), ("cop_max_se_vs_oracle", "fridge_cop_chain_se")),
    "fridge_regimes": (fridge, "cop_at_max_omega", lambda f: _set_where(
        f, lambda r, zeta_c: (r, zeta_c) == (_SS, 3.0), lambda r, zeta_c: zeta_c,
    ), ("cop_omega_ss_vs_oracle", "fridge_regime_ordering")),
    "fridge_sc_falls": (fridge, "cop_at_max_omega", lambda f: _set_where(
        f, lambda r, zeta_c: (r, zeta_c) == (_SC, 3.0), lambda r, _: f(r, 2.0).value - 0.01,
    ), ("cop_omega_sc_vs_oracle", "fridge_regime_ordering", "cop_omega_sc_monotone")),
    "adiabaticity": (verification, "adiabaticity", lambda f: _set_where(
        f, lambda protocol, z, ratio: z == 0.5, lambda *args: f(*args) + 1.0,
    ), ("lambda_monotonic",)),
    "fig2": (tables, "figure_table", _swapped("fig2", "eta_mw_se", "eta_omega_se"), (
        "figure_rows_fig2",
    )),
    "fig4": (tables, "figure_table", _swapped("fig4", "r_mw_sc", "r_mw_se"), (
        "figure_rows_fig4",
    )),
    "fig6": (tables, "figure_table", _swapped("fig6", "cop_omega_sc", "cop_omega_adi"), (
        "figure_rows_fig6",
    )),
}


#: every ``verify`` check, in report order
VERIFY_CHECKS = [
    *(f"{q}_{r}_vs_oracle" for r in ("sc", "se")
      for q in ("eta_max", "eta_mw", "eta_omega", "z_omega", "z_max_eta")),
    "mw_loss_composition_sc", "mw_loss_composition_se",
    "eta_omega_adi_vs_oracle", "eta_omega_ss_vs_oracle",
    "engine_regime_ordering", "engine_eta_chain_sc", "engine_eta_chain_se",
    "fractional_loss_ordering",
    "taylor_remainder_sc", "taylor_remainder_se",
    *(f"{q}_{r}_vs_oracle" for r in ("sc", "se") for q in ("cop_max", "cop_omega", "z_max_cop")),
    "cop_omega_adi_vs_oracle", "cop_omega_ss_vs_oracle",
    "fridge_regime_ordering", "fridge_cop_chain_sc", "fridge_cop_chain_se",
    "cop_omega_sc_monotone", "fridge_branch_selection", "cubic_branch_roots",
    "cubic_sc_unit_root", "first_law",
    "high_t_agreement_coarse", "high_t_agreement_fine", "feasibility_soundness",
    "lambda_monotonic", "figure_rows_fig2", "figure_rows_fig4", "figure_rows_fig6",
]


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = out.strip().split("\n")
        n = len(VERIFY_CHECKS)
        assert len(lines) == n + 1
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "worst=" in lines[0]
        assert lines[-1] == f"{n}/{n} checks passed"

    def test_report_names_order_and_repeatability(self):
        first, second = ([r.line() for r in verification.run_all()] for _ in range(2))
        assert first == second
        assert [line.split()[1] for line in first] == VERIFY_CHECKS

    def test_report_is_the_golden_report(self, capsys):
        """The whole report, byte for byte: any change to a check, grid,
        seed, tolerance or the oracle moves some worst value here."""
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_report.txt")
        with open(golden, encoding="utf-8") as handle:
            expected = handle.read()
        assert run_cli(capsys, "verify") == (0, expected, "")

    def test_an_unbalanced_ledger_fails_the_first_law(self, capsys, monkeypatch):
        """h_b off by 1e-9 relative in one ledger of the first-law draws: the
        heats and the stroke works no longer balance, and first_law alone
        fails."""
        calls = itertools.count(1)

        def ledger(config, _real=verification.energy_ledger):
            result = _real(config)
            if next(calls) != 7:
                return result
            return result._replace(h_b=result.h_b * (1.0 + 1e-9))

        monkeypatch.setattr(verification, "energy_ledger", ledger)
        code, out, _ = run_cli(capsys, "verify")
        failed = [line.split()[1] for line in out.split("\n") if line.startswith("FAIL")]
        assert (code, failed) == (3, ["first_law"])

    def test_oracle_work_is_pinned(self, monkeypatch):
        """The oracle's calls and objective evaluations over one run: a
        change of a grid, a window or the oracle's own settings moves them."""
        reports = []

        def counted(problem):
            reports.append(maximize(problem))
            return reports[-1]

        monkeypatch.setattr(verification, "maximize", counted)
        verification.run_all()
        assert (len(reports), sum(r.evaluations for r in reports)) == (234, 128_337)

    @pytest.mark.parametrize("sign", (1.0, -1.0), ids=("up", "down"))
    @pytest.mark.parametrize("field, shift", [("c1", 1e-9), ("c2", 1e-6), ("c3", 1e-3)])
    @pytest.mark.parametrize("regime", ("sc", "se"))
    def test_shifted_taylor_coefficient_fails_its_remainder(
        self, monkeypatch, regime, field, shift, sign
    ):
        """A shift 10 times what the remainder bound resolves at eta_c = 1e-3
        fails the shifted regime's check and no other."""
        exact = engine.taylor_coeffs

        def shifted(r):
            coeffs = exact(r)
            if r.value != regime:
                return coeffs
            return coeffs._replace(**{field: getattr(coeffs, field) + sign * shift})

        assert all(r.passed for r in verification._taylor_checks())
        monkeypatch.setattr(engine, "taylor_coeffs", shifted)
        failed = [r.name for r in verification._taylor_checks() if not r.passed]
        assert failed == [f"taylor_remainder_{regime}"]

    @pytest.mark.parametrize("case", _ORDER_CASES)
    def test_finite_wrong_order_fails_its_chain(self, monkeypatch, case):
        """A finite wrong order fails exactly the checks that read it: each
        ordering check among them with a finite negative worst margin, each
        oracle check with a finite deviation above its tolerance."""
        module, name, patch, expected = _ORDER_CASES[case]
        monkeypatch.setattr(module, name, patch(getattr(module, name)))
        failed = [r for r in verification.run_all() if not r.passed]
        assert [r.name for r in failed] == list(expected)
        assert all(math.isfinite(r.worst) and (r.worst < 0.0) == (r.tol == 0.0) for r in failed)

    @pytest.mark.parametrize("values, margin", [
        ((), math.inf),
        ((2.0,), math.inf),
        ((math.nan,), math.inf),
        ((1.0, 3.0, 3.5, 7.0), 0.5),
        ((1.0, 3.0, 2.0), -1.0),
        ((-math.inf, 1.0), math.inf),
        ((1.0, 1.0), 0.0),
    ])
    def test_rising_is_the_least_step_up(self, values, margin):
        assert verification._rising(values) == margin

    @pytest.mark.parametrize("values", [
        (1.0, math.nan, 3.0), (3.0, 2.0, math.nan), (math.nan, -5.0), (math.inf, math.inf),
    ])
    def test_rising_is_nan_when_a_step_is_nan(self, values):
        assert math.isnan(verification._rising(values))

    def test_unreachable_tolerance_reports_failures(self, capsys, monkeypatch):
        monkeypatch.setattr(verification, "TOL_OMEGA", 1e-15)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 3
        assert any(line.startswith("FAIL") for line in out.split("\n"))


def _cools(regime, zeta_c):
    """Whether the library gives the fridge a cooling window at zeta_c."""
    try:
        fridge.cop_at_max_omega(regime, zeta_c)
    except InfeasibleDeviceError:
        return False
    return True


def _fridge_calls(monkeypatch, name, check):
    """The (regime, zeta_c) of every call of ``fridge.<name>`` that
    ``check()`` makes, for se and ss."""
    calls = []

    def recorded(regime, zeta_c, _real=getattr(fridge, name)):
        calls.append((regime, zeta_c))
        return _real(regime, zeta_c)

    monkeypatch.setattr(fridge, name, recorded)
    check()
    return {(r, zeta_c) for r, zeta_c in calls if r in SUDDEN_EXPANSION_REGIMES}


class TestVerifyWindowRule:
    """``verify`` restates the se/ss rule "a cooling window needs tau > 1/2"
    three times; each copy selects exactly the points where the library's
    ``fridge.cop_at_max_omega`` does not raise InfeasibleDeviceError."""

    @pytest.mark.parametrize("regime", SUDDEN_EXPANSION_REGIMES)
    def test_zeta_grid_se(self, regime):
        expected = tuple(z for z in verification.ZETA_GRID if _cools(regime, z))
        assert verification.ZETA_GRID_SE == expected
        assert 0 < len(expected) < len(verification.ZETA_GRID)

    def test_cubic_checks_tau_rule(self, monkeypatch):
        """The se fridge roots of ``_cubic_checks``, at zeta_c = tau/(1 - tau)
        over the tau grid; ss shares the rule."""
        called = _fridge_calls(monkeypatch, "z_star_max_cop", verification._cubic_checks)
        zetas = [tau / (1.0 - tau) for tau in verification.ETA_GRID]
        assert called == {(_SE, z) for z in zetas if _cools(_SE, z)}
        assert [_cools(_SE, z) for z in zetas] == [_cools(_SS, z) for z in zetas]

    def test_fridge_chain_window(self, monkeypatch):
        called = _fridge_calls(
            monkeypatch, "cop_at_max_omega", verification._fridge_ordering_checks
        )
        assert called == {
            (r, z) for r in SUDDEN_EXPANSION_REGIMES for z in verification.ZETA_GRID if _cools(r, z)
        }


def _nan_where(function, nan_at, field="value"):
    """``function`` with ``field`` of its result (the result itself for a
    float) set to NaN wherever ``nan_at(*args)`` holds."""
    return _set_where(function, nan_at, lambda *_: math.nan, field)


def _nan_delta_sc(figure_table):
    def patched(figure_id):
        header, rows = figure_table(figure_id)
        if figure_id == "fig2":
            column = header.index("delta_sc")
            rows = [row[:column] + [math.nan] + row[column + 1:] for row in rows]
        return header, rows

    return patched


def _nan_on_call(function, call, field):
    """``function`` with ``field`` set to NaN in the result of its call
    number ``call`` alone."""
    calls = itertools.count(1)
    return _nan_where(function, lambda *_: next(calls) == call, field)


#: (module, attribute, patch of that attribute, the checks that must FAIL)
_NAN_CASES = {
    "engine_optimum": (engine, "eta_max", lambda f: _nan_where(f, lambda r, tau: tau == 0.5), (
        "eta_max_sc_vs_oracle", "eta_max_se_vs_oracle", "engine_eta_chain_sc", "engine_eta_chain_se",
    )),
    "fridge_optimum": (fridge, "cop_at_max_omega", lambda f: _nan_where(f, lambda r, z: z == 3.0), (
        "cop_omega_sc_vs_oracle", "cop_omega_se_vs_oracle", "cop_omega_adi_vs_oracle",
        "cop_omega_ss_vs_oracle", "fridge_regime_ordering", "fridge_cop_chain_sc",
        "fridge_cop_chain_se", "cop_omega_sc_monotone",
    )),
    "ledger_high_t": (verification, "energy_ledger", lambda f: _nan_where(
        f, lambda c: (c.beta_c, c.omega_c) == (2.0, 0.5 * c.omega_h), "q_h",
    ), ("high_t_agreement_coarse", "high_t_agreement_fine")),
    "ledger_first_law": (verification, "energy_ledger", lambda f: _nan_on_call(f, 7, "w_net"), (
        "first_law",
    )),
    "adiabaticity": (verification, "adiabaticity", lambda f: _nan_where(
        f, lambda protocol, z, ratio: z == 0.5,
    ), ("lambda_monotonic",)),
    "figure_rows": (tables, "figure_table", _nan_delta_sc, ("figure_rows_fig2",)),
}


class TestVerifyNaN:
    """A NaN at one grid point (one optimum, one ledger, one figure column)
    fails exactly the checks that read it, with worst=nan."""

    @pytest.mark.parametrize("case", _NAN_CASES)
    def test_nan_fails_its_checks(self, capsys, monkeypatch, case):
        module, name, patch, expected = _NAN_CASES[case]
        monkeypatch.setattr(module, name, patch(getattr(module, name)))
        code, out, _ = run_cli(capsys, "verify")
        failed = [line.split()[1:3] for line in out.split("\n") if line.startswith("FAIL")]
        assert code == 3
        assert failed == [[check, "worst=nan"] for check in expected]


def _cli_env():
    """The environment of a spawned CLI: this checkout's ``src`` on the
    path, and without ``PYTHONUNBUFFERED``, so that stdout is buffered as
    in a plain shell and output that is never flushed would be lost."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _spawn_cli(*argv, stdout=subprocess.PIPE):
    return subprocess.Popen(
        [sys.executable, "-m", "ottolab.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=_cli_env(),
    )


#: three blocks of ``tables.BLOCK_ROWS``: the forked row writers run
_SWEEP_5000 = ("sweep", "--device", "engine", "--start", "0.01", "--stop", "0.99",
               "--steps", "5000")


class TestClosedPipe:
    """A reader that closes stdout early (``| head -c 100``), or a stdout
    that takes no bytes (``> /dev/full``), ends the command with exit 1 and
    no traceback."""

    def test_sweep(self):
        proc = _spawn_cli(
            "sweep", "--device", "engine", "--start", "0.01", "--stop", "0.99",
            "--steps", "20000",
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert len(head) == 100
        assert b"Traceback" not in err

    def test_point(self):
        # the read end is closed before the command starts
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _spawn_cli("point", "engine", "sc", "0.5", stdout=write_end)
        finally:
            os.close(write_end)
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert b"Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ("figure", "--id", "fig2"),
        ("point", "engine", "sc", "0.5"),
        _SWEEP_5000,
    ], ids=("figure", "point", "sweep_5000"))
    def test_full_device(self, argv):
        """A stdout that takes no bytes (``> /dev/full``) is exit 1 with one
        stderr line."""
        with open("/dev/full", "wb") as full:
            proc = _spawn_cli(*argv, stdout=full)
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err.decode("ascii").splitlines() == [
            f"otto-lab: error: cannot write output: {os.strerror(errno.ENOSPC)}"
        ]
        _assert_no_child()


class TestSpawnedExit:
    """``python -m ottolab.cli`` ends through ``os._exit`` once its output
    is flushed; each command still gives the exit code and the stdout and
    stderr bytes of the in-process ``cli.main`` call, so no output is lost."""

    @pytest.mark.parametrize("argv, code, error", [
        (("point", "engine", "sc", "0.5", "--z", "0.9"), 0, None),
        (("point", "engine", "sc", "1.5"), 2, "domain"),
        (("point", "fridge", "se", "0.5"), 2, "infeasible_device"),
        (("figure", "--id", "fig2"), 0, None),
        (_SWEEP_5000, 0, None),
        (("sweep", "--device", "engine", "--start", "0.1", "--stop", "0.9",
          "--steps", "5", "--axis", "zeta_c"), 1, None),
    ], ids=("point", "point_domain_error", "point_infeasible_device", "figure",
            "sweep_5000", "usage_error"))
    def test_same_output_as_in_process(self, capsys, argv, code, error):
        """A spawned ``point`` imports ``json`` inside the command, so both
        JSON error objects are checked from a fresh process too."""
        expected = run_cli(capsys, *argv)
        proc = _spawn_cli(*argv)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out.decode("ascii"), err.decode("ascii")) == expected
        assert expected[0] == code
        if error is not None:
            assert json.loads(out)["error"] == error

    def test_sweep_out_file(self, capsys, tmp_path):
        in_process, spawned = tmp_path / "main.csv", tmp_path / "spawned.csv"
        assert run_cli(capsys, *_SWEEP_5000, "--out", str(in_process)) == (0, "", "")
        proc = _spawn_cli(*_SWEEP_5000, "--out", str(spawned))
        assert proc.communicate(timeout=120) == (b"", b"")
        assert proc.returncode == 0
        assert spawned.read_bytes() == in_process.read_bytes()


@pytest.mark.parametrize("argv", [
    ("sweep", "--device", "engine", "--axis", "zeta_c",
     "--start", "0.1", "--stop", "0.9", "--steps", "5"),
    ("verify", "--tol-omega", "1e-15"),
    ("verify", "--tol-mw=1e-9"),
    ("figure", "--id", "fig2", "--steps", "10"),
], ids=("sweep_axis", "verify_tol_omega", "verify_tol_mw", "figure_steps"))
def test_unknown_option_is_usage_error(capsys, monkeypatch, argv):
    def run_all():
        raise AssertionError("a check ran")

    monkeypatch.setattr(verification, "run_all", run_all)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err


def _documented_commands():
    """Each ``otto-lab ...`` line of README's "Command line" block and of
    docs/plotting.md, continuation lines joined, as an argument list."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    commands = []
    for name, start in (("README.md", "## Command line"), ("docs/plotting.md", "")):
        with open(os.path.join(root, name), encoding="utf-8") as handle:
            text = handle.read()
        block = text[text.index(start):]
        block = block[block.index("```sh\n") + 6:]
        block = block[:block.index("```")].replace("\\\n", " ")
        commands += [shlex.split(line, comments=True)[1:]
                     for line in block.splitlines() if line.startswith("otto-lab ")]
    return commands


@pytest.mark.parametrize("argv", _documented_commands())
def test_documented_command_runs(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv)[0] == 0


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 1
