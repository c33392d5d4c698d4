"""Benchmark of the ottolab command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

Every operation is a fresh ``python -m ottolab.cli ...`` process with
``PYTHONPATH=src``, as a user runs it.  One client drives them in a closed
loop: the next operation starts when the previous one has ended, and no
parallel workers are started.  Every output is checked against in-process
calls of the same public functions (``checks.py``).

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` gives the per-layer metrics instead: it repeats the first
round of the workload, alternately traced (``traced_cli.py``) and untraced,
for ``--seconds`` seconds, and reports the difference as the tracing
overhead.  ``--smoke`` shrinks every input for a quick self-test.

Lines before the last describe the environment, sample counts and failed
operations.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Operations whose
input lies beyond the fridge's working range (see ``workloads.py``) count as
failed when they fail, but do not make the run incorrect.  They are a fixed
set, made once per run of ``interactive`` in both modes, so ``failed`` does
not depend on the seed or on how many rounds fit in the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

import workloads
from tracer import LayerStats
from workloads import Op

#: end-to-end metrics, name -> unit
END_TO_END = {
    "setup_s": "s",
    "cli_latency_ms_p50": "ms",
    "cli_latency_ms_p90": "ms",
    "output_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

IMPORTED = ("verification", "tables", "engine", "fridge", "cycle", "cubic")
COMMANDS = ("point", "figure", "sweep", "verify")
TIMED_FUNCTIONS = {
    "engine": ("eta_at_max_omega", "eta_max", "eta_max_work", "z_star_max_eta",
               "z_star_max_omega", "fractional_loss", "fractional_loss_max_work", "point_at"),
    "fridge": ("cop_at_max_omega", "cop_max", "z_star_max_cop", "point_at"),
    "cycle": ("high_t_engine_quantities", "high_t_fridge_quantities",
              "feasible_interval", "energy_ledger"),
}


def _per_layer_units() -> dict[str, str]:
    units = {"import.interpreter_ms": "ms", "import.ottolab_cli_ms": "ms"}
    units.update((f"import.{module}_ms", "ms") for module in IMPORTED)
    units.update((f"cli.main_self_s.{command}", "s") for command in COMMANDS)
    units["cli.bytes_out"] = "B"
    units.update({"tables.sweep_table_self_s": "s", "tables.cells": "count",
                  "tables.empty_cells": "count"})
    units.update((f"tables.figure_table_ms.{f}", "ms") for f in workloads.FIGURE_IDS)
    for layer, functions in TIMED_FUNCTIONS.items():
        for fn in functions:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_us"] = "us"
    units.update({
        "engine.eta_at_max_omega.calls_per_cell": "ratio",
        "cubic.trig_root.calls": "count",
        "cubic.trig_root.self_us": "us",
        "cubic.all_roots.calls": "count",
        "oracle.maximize.calls": "count",
        "oracle.maximize.evaluations": "count",
        "oracle.maximize.self_s": "s",
        "oracle.central_derivative.calls": "count",
        "verification.run_all_s": "s",
        "verification.self_s": "s",
        "verification.checks": "count",
        "verification.checks_passed": "count",
        "trace.overhead_pct": "%",
    })
    return units


#: per-layer metrics, name -> unit
PER_LAYER = _per_layer_units()

#: ``interactive`` keeps going past ``--seconds`` until this many
#: invocations, so that ten samples lie beyond p90
MIN_INTERACTIVE_OPS = 100
#: a child still running after this long is killed and counts as failed
CHILD_TIMEOUT_S = 120.0
SETUP_REPEATS, SMOKE_SETUP_REPEATS = 15, 3

_SETUP_CODE = ("import time; t = time.perf_counter(); import ottolab.cli; "
               "print(time.perf_counter() - t)")
_IMPORTTIME_CODE = "import sys; sys.stderr.write('--\\n'); import ottolab.cli"


@dataclass
class Sample:
    op: Op
    wall: float  # seconds, process start to exit
    rss_kb: int  # the child's max RSS
    bytes_out: int
    outcome: object  # checks.Outcome


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Runner:
    """Starts CLI processes from the checkout root and checks their output."""

    def __init__(self, root: str, tmp: str, checker) -> None:
        self.root, self.tmp, self.checker = root, tmp, checker
        env = dict(os.environ, PYTHONPATH="src")
        # byte-code caches stay inside the checkout and are used, as they
        # are for an installed package
        for key in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
            env.pop(key, None)
        self.env = env
        #: run-level correctness problems not tied to one operation
        self.problems: list[str] = []

    def spawn(self, args: list[str]) -> tuple[int, float, int, bytes, bytes]:
        """``python ARGS``: exit code, wall seconds, max RSS (KiB), stdout, stderr."""
        out_path, err_path = os.path.join(self.tmp, "stdout"), os.path.join(self.tmp, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as out, open(err_path, "rb") as err:
            return proc.returncode, wall, usage.ru_maxrss, out.read(), err.read()

    def run(self, op: Op, stats: LayerStats | None = None) -> Sample:
        """One operation; traced into ``stats`` when it is given."""
        args = op.argv()
        out_file = os.path.join(self.tmp, "out.csv") if op.writes_file else None
        if out_file:
            args += ["--out", out_file]
        spans = None
        if stats is None:
            args = ["-m", "ottolab.cli", *args]
        else:
            spans = os.path.join(self.tmp, "spans.json")
            args = [os.path.join("perfbench", "traced_cli.py"), spans, *args]
        code, wall, rss, stdout, _ = self.spawn(args)
        written = None
        if out_file and os.path.exists(out_file):
            with open(out_file, "rb") as handle:
                written = handle.read()
            os.remove(out_file)
        if spans:
            stats.add(spans, rename=lambda n: f"cli.main.{op.kind}" if n == "cli.main" else n)
            os.remove(spans)
            os.remove(spans + ".bin")
        outcome = self.checker.check(op, code, stdout, written)
        return Sample(op, wall, rss, len(stdout) + len(written or b""), outcome)

    def setup_seconds(self, repeats: int) -> list[float]:
        """In-process ``import ottolab.cli`` time of fresh interpreters."""
        times = []
        for _ in range(repeats):
            code, _, _, stdout, stderr = self.spawn(["-c", _SETUP_CODE])
            if code != 0:
                raise RuntimeError(f"import ottolab.cli failed:\n{stderr.decode(errors='replace')}")
            times.append(float(stdout))
        return times

    def import_profile(self, repeats: int) -> dict[str, float]:
        """Median ``-X importtime`` figures (ms) and ``python -c pass`` wall time."""
        runs: dict[str, list[float]] = {}
        for _ in range(repeats):
            runs.setdefault("import.interpreter_ms", []).append(
                self.spawn(["-c", "pass"])[1] * 1e3)
            stderr = self.spawn(["-X", "importtime", "-c", _IMPORTTIME_CODE])[4].decode()
            own, top = _parse_importtime(stderr)
            runs.setdefault("import.ottolab_cli_ms", []).append(top)
            for module in IMPORTED:
                runs.setdefault(f"import.{module}_ms", []).append(own.get(f"ottolab.{module}", 0.0))
        return {name: statistics.median(values) for name, values in runs.items()}


def _parse_importtime(stderr: str) -> tuple[dict[str, float], float]:
    """Self time (ms) per module, and the summed cumulative time (ms) of the
    top-level imports made after the ``--`` marker line."""
    own: dict[str, float] = {}
    top = 0.0
    after_marker = False
    for line in stderr.splitlines():
        if line == "--":
            after_marker = True
            continue
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        own[name] = int(self_us) / 1e3
        if after_marker and raw[1:2] != " ":
            top += int(cumulative_us) / 1e3
    return own, top


def _environment(root: str, args: argparse.Namespace) -> dict:
    uname = os.uname()
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "ottolab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "machine": uname.machine,
        "system": f"{uname.sysname} {uname.release}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(root),
        "source_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _commit(root: str) -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _report_failures(samples: list[Sample]) -> None:
    failed = [s for s in samples if not s.outcome.ok]
    by_expect: dict[str, int] = {}
    for s in failed:
        by_expect[s.op.expect] = by_expect.get(s.op.expect, 0) + 1
    share = len(failed) / len(samples)
    print(f"failed_share {share:.6f} ({len(failed)}/{len(samples)}; by expectation {by_expect})")
    shown = {" ".join(s.op.argv()): s for s in failed}  # a traced run repeats its ops
    for argv, s in list(shown.items())[:5]:
        print(f"  failed [{s.op.expect}] {argv}: {s.outcome.reason[:200]}")


def end_to_end(runner: Runner, args: argparse.Namespace, repeats: int) -> tuple[list[Sample], dict]:
    rounds = workloads.stream(args.workload, args.seed, args.smoke)
    minimum = MIN_INTERACTIVE_OPS if args.workload == "interactive" and not args.smoke else 1
    start = perf_counter()
    deadline, cap = start + args.seconds, start + 3 * args.seconds
    # set-up samples are spread over the run, so that they see the same
    # machine load as the operations
    setup = runner.setup_seconds(1)
    setup_gap = args.seconds / (repeats - 1)
    next_setup = start + setup_gap
    samples = [runner.run(op) for op in workloads.beyond_probes(args.workload)]
    # whole rounds only, so that every run holds the workload's exact mix
    first = True
    while first or (perf_counter() < cap
                    and (perf_counter() < deadline or len(samples) < minimum)):
        first = False
        samples += [runner.run(op) for op in next(rounds)]
        while len(setup) < repeats and perf_counter() >= next_setup:
            setup += runner.setup_seconds(1)
            next_setup += setup_gap
    setup += runner.setup_seconds(repeats - len(setup))
    walls = [s.wall for s in samples]
    values = {
        "setup_s": statistics.median(setup),
        "cli_latency_ms_p50": statistics.median(walls) * 1e3,
        "cli_latency_ms_p90": _percentile(walls, 90) * 1e3,
        "output_rows_per_s": sum(s.outcome.records for s in samples) / sum(walls),
        "peak_rss_mb": max(s.rss_kb for s in samples) / 1024.0,
    }
    kinds = {k: sum(1 for s in samples if s.op.kind == k) for k in COMMANDS}
    # per command, for reading only: too few or too drift-prone to gate
    medians = {k: round(statistics.median(s.wall for s in samples if s.op.kind == k) * 1e3, 1)
               for k, n in kinds.items() if n}
    print(f"samples setup_s={len(setup)} invocations={len(samples)} by_command={kinds} "
          f"median_ms_by_command={medians} rows={sum(s.outcome.records for s in samples)}")
    return samples, values


def per_layer(runner: Runner, args: argparse.Namespace, repeats: int) -> tuple[list[Sample], dict]:
    imports = runner.import_profile(repeats)
    round_ops = next(workloads.stream(args.workload, args.seed, args.smoke))
    deadline = perf_counter() + args.seconds
    # made once and untraced, so that they count as in ``--trace 0``
    samples = [runner.run(op) for op in workloads.beyond_probes(args.workload)]
    total = LayerStats()
    signatures, traced_walls, plain_walls = set(), [], []
    while not traced_walls or perf_counter() < deadline:
        stats = LayerStats()
        traced = [runner.run(op, stats) for op in round_ops]
        plain = [runner.run(op) for op in round_ops]
        samples += traced + plain
        traced_walls.append(sum(s.wall for s in traced))
        plain_walls.append(sum(s.wall for s in plain))
        signatures.add(stats.signature())
        total.merge(stats)
    rounds = len(traced_walls)
    print(f"samples rounds={rounds} ops_per_round={len(round_ops)} import_repeats={repeats} "
          f"spans_per_round={sum(total.calls.values()) // rounds}")
    if len(signatures) != 1:
        runner.problems.append("call counts differ between identical traced rounds")
    values = dict(imports)
    values.update(_layer_values(total, rounds, plain))
    values["trace.overhead_pct"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0) * 100.0
    return samples, values


def _layer_values(total: LayerStats, rounds: int, one_round: list[Sample]) -> dict:
    calls, self_time = total.calls, total.self_time

    def per_call(name: str, scale: float) -> float:
        return self_time[name] / calls[name] * scale if calls[name] else 0.0

    values: dict[str, float] = {}
    for command in COMMANDS:
        values[f"cli.main_self_s.{command}"] = per_call(f"cli.main.{command}", 1.0)
    values["cli.bytes_out"] = sum(s.bytes_out for s in one_round)
    values["tables.sweep_table_self_s"] = self_time["tables.sweep_table"] / rounds
    values["tables.cells"] = sum(s.outcome.cells for s in one_round)
    values["tables.empty_cells"] = sum(s.outcome.empty_cells for s in one_round)
    for figure_id in workloads.FIGURE_IDS:
        name = f"tables.figure_table.{figure_id}"
        values[f"tables.figure_table_ms.{figure_id}"] = (
            total.total[name] / calls[name] * 1e3 if calls[name] else 0.0)
    for layer, functions in TIMED_FUNCTIONS.items():
        for fn in functions:
            values[f"{layer}.{fn}.calls"] = calls[f"{layer}.{fn}"] // rounds
            values[f"{layer}.{fn}.self_us"] = per_call(f"{layer}.{fn}", 1e6)
    eta_omega_cells = sum(s.outcome.eta_omega_cells for s in one_round)
    values["engine.eta_at_max_omega.calls_per_cell"] = (
        values["engine.eta_at_max_omega.calls"] / eta_omega_cells if eta_omega_cells else 0.0)
    values["cubic.trig_root.calls"] = calls["cubic.trig_root"] // rounds
    values["cubic.trig_root.self_us"] = per_call("cubic.trig_root", 1e6)
    values["cubic.all_roots.calls"] = calls["cubic.all_roots"] // rounds
    values["oracle.maximize.calls"] = calls["oracle.maximize"] // rounds
    values["oracle.maximize.evaluations"] = total.counters["oracle.maximize.evaluations"] // rounds
    values["oracle.maximize.self_s"] = self_time["oracle.maximize"] / rounds
    values["oracle.central_derivative.calls"] = calls["oracle.central_derivative"] // rounds
    run_all = "verification.run_all"
    values["verification.run_all_s"] = total.total[run_all] / calls[run_all] if calls[run_all] else 0.0
    values["verification.self_s"] = per_call(run_all, 1.0)
    values["verification.checks"] = total.counters["verification.checks"] // rounds
    values["verification.checks_passed"] = total.counters["verification.checks_passed"] // rounds
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ottolab", "cli.py")):
        print("perfbench: run from the root of an ottolab checkout "
              "(src/ottolab/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from checks import Checker

    print("environment " + json.dumps(_environment(root, args), sort_keys=True))
    tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        runner = Runner(root, tmp, Checker(args.seed))
        runner.setup_seconds(1)  # writes the byte-code caches; not timed
        repeats = SMOKE_SETUP_REPEATS if args.smoke else SETUP_REPEATS
        measure = per_layer if args.trace else end_to_end
        samples, values = measure(runner, args, repeats)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(tmp))

    _report_failures(samples)
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")
    for problem in runner.problems:
        print(f"problem: {problem}")
    failed = sum(1 for s in samples if not s.outcome.ok)
    correct = not runner.problems and all(s.outcome.ok for s in samples if s.op.expect != "beyond")
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
