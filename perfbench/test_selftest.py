"""Self-test of the benchmark; run with ``python3 -m pytest perfbench``.

Tiny runs of every workload, traced and untraced, must emit every
metric BENCHMARK.json declares, with its unit, and pass the
correctness check; a broken or nondeterministic estimator must fail it.
"""

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark_command(cwd, name, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(name, trace):
    done = run_benchmark_command(ROOT, name, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_the_package_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark_command(bare, "signal_capture", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def smoke_args(out):
    return Namespace(workload="signal_capture", seed=3, seconds=0.1,
                     trace=0, out=str(out), probe=False, smoke=True)


@pytest.fixture
def out_dir():
    path = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    return path


def test_check_fails_on_wrong_positions(monkeypatch, out_dir):
    bench, _ = workload.load_multilat()
    original = bench.srd_ls

    def shifted(rd, mics):
        result = original(rd, mics)
        return type(result)(position=result.position + 1.0,
                            residual=result.residual, status=result.status,
                            info=result.info)

    monkeypatch.setattr(bench, "srd_ls", shifted)
    result = workload.run(smoke_args(out_dir))
    assert result["correct"] is False
    assert any("srd-ls" in p for p in result["problems"])


def test_check_fails_on_nondeterministic_records(monkeypatch, out_dir):
    bench, _ = workload.load_multilat()
    original = bench.hyperbolic_ls
    calls = []

    def drifting(rd, mics):
        calls.append(None)
        result = original(rd, mics)
        return type(result)(position=result.position + 1e-6 * len(calls),
                            residual=result.residual, status=result.status,
                            info=result.info)

    monkeypatch.setattr(bench, "hyperbolic_ls", drifting)
    result = workload.run(smoke_args(out_dir))
    assert result["correct"] is False
    assert any("differs on repeat" in p for p in result["problems"])
