"""Self-test of the benchmark: every named metric is printed once with its
unit, the output checks run and catch wrong output, and the benchmark
refuses to run outside an ottolab checkout.

Run from the checkout root:  python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_the_metrics_run_prints():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.ROUNDS)


@pytest.mark.parametrize("workload,trace", [
    ("interactive", 0), ("bulk_sweep", 0), ("interactive", 1), ("bulk_sweep", 1),
])
def test_smoke_run_prints_every_metric_once(workload, trace):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        assert sum(1 for line in lines if line.startswith(f"metric {name} = ")) == 1
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in expected)
    assert any(line.startswith("environment ") for line in lines)
    assert any(line.startswith("samples ") for line in lines)


def test_same_seed_gives_same_inputs():
    def first_rounds(seed):
        stream = workloads.stream("interactive", seed)
        return [op.argv() for _ in range(3) for op in next(stream)]

    assert first_rounds(5) == first_rounds(5)
    assert first_rounds(5) != first_rounds(6)


def test_interactive_block_mix():
    ops = workloads.interactive_block(random.Random(0))
    kinds = [op.kind for op in ops]
    assert len(ops) == workloads.INTERACTIVE_BLOCK_OPS
    assert kinds.count("point") == 34 and kinds.count("figure") == 4 and kinds.count("sweep") == 2
    assert kinds.count("verify") == 1
    assert sum(op.expect == "domain" for op in ops) == 2
    assert not any(op.expect == "beyond" for op in ops)


def test_beyond_probes_are_fixed_and_only_in_interactive():
    probes = workloads.beyond_probes("interactive")
    assert len(probes) == len(workloads.BEYOND_EXPONENTS)
    assert all(op.expect == "beyond" and op.params["device"] == "fridge" for op in probes)
    assert all(1e16 <= op.params["value"] <= 1e300 for op in probes)
    assert {op.params["regime"] for op in probes} == set(workloads.REGIMES)
    assert [op.argv() for op in probes] == [op.argv() for op in workloads.beyond_probes("interactive")]
    assert workloads.beyond_probes("bulk_sweep") == []


def test_failed_count_does_not_depend_on_seed_or_run_length():
    failed = set()
    for seed, seconds in ((3, "1"), (4, "3")):
        done = _run("--workload", "interactive", "--seed", str(seed), "--seconds", seconds,
                    "--smoke")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed.add(result["failed"])
    assert len(failed) == 1


def _cli(op: Op) -> tuple[int, bytes]:
    done = subprocess.run(
        [sys.executable, "-m", "ottolab.cli", *op.argv()], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"), capture_output=True, timeout=60,
    )
    return done.returncode, done.stdout


def test_checks_accept_right_and_reject_wrong_point_output():
    checker = checks.Checker(0)
    op = Op("point", "ok", {"device": "engine", "regime": "sc", "value": 0.5, "z": 0.9})
    code, stdout = _cli(op)
    assert checker.check(op, code, stdout, None).ok
    payload = json.loads(stdout)
    payload["eta_omega"] = payload["eta_omega"] * (1.0 + 1e-15) + 1e-17
    assert not checker.check(op, code, json.dumps(payload).encode(), None).ok
    payload = json.loads(stdout)
    payload["w"] = float("nan")
    assert not checker.check(op, code, json.dumps(payload).encode(), None).ok
    assert not checker.check(op, 1, stdout, None).ok


def test_checks_on_out_of_domain_input():
    checker = checks.Checker(0)
    op = Op("point", "domain", {"device": "fridge", "regime": "se", "value": 0.5, "z": None})
    code, stdout = _cli(op)
    assert code == 2 and checker.check(op, code, stdout, None).ok
    assert not checker.check(op, 1, b"Traceback ...", None).ok
    beyond = Op("point", "beyond", {"device": "fridge", "regime": "sc", "value": 1e300, "z": None})
    assert checker.check(beyond, 2, b'{"error": "domain", "message": "m"}', None).ok
    assert not checker.check(beyond, 1, b"", None).ok


def test_checks_reject_a_changed_csv_cell():
    op = Op("sweep", "ok", {"device": "engine", "regimes": ("sc", "adi"), "start": 0.1,
                            "stop": 0.9, "steps": 12, "quantities": ("eta_omega", "eta_mw")})
    code, stdout = _cli(op)
    checker = checks.Checker(0)
    outcome = checker.check(op, code, stdout, None)
    assert outcome.ok and outcome.records == 12 and outcome.eta_omega_cells == 24
    lines = stdout.decode().splitlines()
    fields = lines[5].split(",")
    fields[2] = format(float(fields[2]) + 1e-9, ".12g")
    lines[5] = ",".join(fields)
    bad = ("\n".join(lines) + "\n").encode()
    assert checks.SAMPLED_ROWS >= 12  # so every row of this sweep is compared
    assert not checker.check(op, code, bad, None).ok
    assert not checker.check(op, code, stdout[:-1], None).ok


def test_checks_on_figure_and_verify_output():
    checker = checks.Checker(0)
    op = Op("figure", "ok", {"id": "fig6"})
    code, stdout = _cli(op)
    assert checker.check(op, code, stdout, None).ok
    text = "PASS a worst=0 tol=0\nPASS b worst=0 tol=0\n2/2 checks passed\n"
    verify = Op("verify", "ok", {})
    assert checker.check(verify, 0, text.encode(), None).records == 2
    assert not checker.check(verify, 0, text.replace("PASS b", "FAIL b").encode(), None).ok
    assert not checker.check(verify, 0, text.replace("2/2", "1/2").encode(), None).ok


def test_refuses_to_run_without_the_program():
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("--workload", "interactive", "--seed", "1", "--seconds", "1", cwd=bare)
        assert done.returncode != 0
        assert done.stdout == ""
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            os.rmdir(scratch_root)
