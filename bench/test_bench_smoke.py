"""Smoke run of the benchmark harness on A3-sized inputs.

Catches harness breakage in seconds: every workload runs with ``--smoke``,
untraced and traced; each run must check its outputs, fail none, and print
every metric that BENCHMARK.json declares.

    python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bench(workload, trace, cwd=ROOT):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_tracer_reports_missing_names_as_absent():
    tracer = Tracer(targets=(("intmat", "IntMatrix.no_such_method"), ("laurent", "no_such_function"), ("no_such_module", "f")))
    tracer.install()
    assert tracer.absent == ["intmat.IntMatrix.no_such_method", "laurent.no_such_function", "no_such_module.f"]
    assert tracer.calls == {}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("cli_jobs", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
