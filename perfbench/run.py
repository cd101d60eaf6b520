"""Benchmark of the multilat package, one workload per invocation.

    python3 perfbench/run.py --workload rd_grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; multilat is imported from its
``src/``.  The workload runs in a child process (``workload.py``) with
the package's default configuration: ``MULTILAT_THREADS`` is removed
from its environment, so the harness sizes its thread pool itself.
Set-up time is measured from starting a process to its first request
being ready, in several probe processes per run, and the median is
reported.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run instead.  Lines before it describe the run.
The exit code is 0 only when every correctness check passed.  Outputs
(request CSVs, ``spans.csv``, ``result.json``) go to
``.perfbench_out/<workload>-seed<seed>-trace<trace>/``.

See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: processes started only to time set-up
SETUP_PROBES = 5
#: every invocation must end within this many seconds
DEADLINE_S = 170.0


def run_child(extra, deadline):
    """Start workload.py; return (exit code, set-up seconds, result line).

    Set-up runs from starting the process to its ``ready`` line.  The
    child is killed if it outlives ``deadline`` (a perf_counter value),
    and is always waited for.
    """
    cmd = [sys.executable, str(HERE / "workload.py")] + extra
    env = dict(os.environ)
    env.pop("MULTILAT_THREADS", None)
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - started), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready":
        return proc.returncode or 1, setup_s, None
    lines = rest.strip().splitlines()
    return proc.returncode, setup_s, lines[-1] if lines else None


def source_digest():
    """sha256 over the package sources, so a run names the code it timed."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="multilat benchmark: one workload per run.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a quality set of one request, for the self-test")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "multilat" / "__init__.py").is_file():
        print(f"perfbench: no multilat sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    out = ROOT / ".perfbench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    out.mkdir(parents=True, exist_ok=True)
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(out)] + (["--smoke"] if args.smoke else [])

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            code, setup_s, _ = run_child(extra + ["--probe"], deadline)
            if code != 0:
                print("perfbench: set-up probe failed", file=sys.stderr)
                return 1
            setups.append(setup_s)
    code, workload_setup_s, line = run_child(extra, deadline)
    if code != 0 or line is None:
        print(f"perfbench: workload process exited with {code}",
              file=sys.stderr)
        return 1
    child = json.loads(line)

    metrics = child["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    problems = list(child["problems"])
    declared = declared_metrics(args.trace)
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            problems.append(f"metric {spec['name']} missing or not in "
                            f"{spec['unit']}")
    metrics = {spec["name"]: metrics[spec["name"]] for spec in declared
               if spec["name"] in metrics}
    correct = child["correct"] and not problems

    details = child["details"]
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": details.pop("numpy"), "scipy": details.pop("scipy"),
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "harness_workers": details.pop("harness_workers"),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "multilat_threads_removed": os.environ.get("MULTILAT_THREADS"),
        "setup_samples_s": setups,
        "workload_setup_s": workload_setup_s,
    }
    print("meta " + json.dumps(meta))
    print("details " + json.dumps(details))
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    result = {"correct": correct, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    (out / "result.json").write_text(json.dumps(
        dict(result, meta=meta, details=details, problems=problems),
        indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
