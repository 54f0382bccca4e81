"""Fast self-tests of the benchmark: toy-size runs of every workload.

Each test runs ``perfbench/run.py`` as the benchmark driver would (a fresh
process, from the repository root) at toy sizes and checks the result line
against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(tmp_path, *args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args, "--out", str(tmp_path)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_line(completed):
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed(tmp_path, workload, trace):
    completed = run_bench(
        tmp_path,
        "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", str(trace), "--toy",
    )
    result = result_line(completed)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
    if trace:
        events = json.loads((tmp_path / f"trace-{workload}-3.json").read_text())
        assert events["traceEvents"]
    else:
        for metric in expected:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_same_seed_same_outputs(tmp_path):
    args = ("--workload", "offline_solve", "--seed", "5", "--seconds", "2", "--toy")
    first, second = (result_line(run_bench(tmp_path, *args)) for _ in range(2))
    bound = "latency_bound"
    assert first["metrics"][bound] == second["metrics"][bound]


def test_ledger_matches_benchmark_json():
    sys.path.insert(0, str(HERE))
    try:
        from bench_ledger import PER_LAYER
    finally:
        sys.path.remove(str(HERE))
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER


def test_nominal_clock_rescales_and_disarms():
    sys.path.insert(0, str(HERE))
    try:
        from bench_clock import NominalClock
    finally:
        sys.path.remove(str(HERE))
    clock = NominalClock()
    result, raw_s, nominal_s = clock.time(sum, range(3_000_000))
    assert result == sum(range(3_000_000))
    assert raw_s > 0 and nominal_s > 0
    assert len(clock.references) >= 2
    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_package_source(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for source in HERE.glob("*.py"):
        shutil.copy(source, bare / "perfbench")
    completed = run_bench(
        tmp_path,
        "--workload", "offline_solve", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=bare,
        script=bare / "perfbench" / "run.py",
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
