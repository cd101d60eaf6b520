"""One workload in one process: set up, send requests, check, report.

``run.py`` starts this script; it is not meant to be run by hand.  The
process imports multilat from the checkout's ``src/``, builds the first
request, prints ``ready`` (the end of set-up), then sends requests one
after another -- a closed loop with one client -- and finally prints one
JSON line with its metrics and correctness checks.  With ``--probe`` it
exits right after ``ready``; ``run.py`` uses that to time set-up.

Before the first request and after each one it times the reference
kernel of ``calibrate.py``; the timing metrics are request wall times
normalized by it to a fixed host speed.

A request is what ``multilat bench`` does: config -> ``run_benchmark``
-> ``summarize`` -> the three CSV writers.  Request ``i`` of a run with
seed ``s`` uses config seed ``s * 10000 + i``, so every request has new
inputs and the same seed always gives the same sequence.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

METHODS = ("usrd-ls", "srd-ls", "conic", "conic-norm", "hyperbolic")
ALL_FEATURES = ("vad_on:raw", "vad_on:denoised",
                "vad_off:raw", "vad_off:denoised")
#: statuses the package documents, plus the harness's own invalid_pair
STATUSES = ("closed_form", "converged", "max_iterations", "degenerate",
            "invalid_pair")
SUCCESS = ("closed_form", "converged")
MIC_COUNT = 8


def rd_grid(seed, index):
    # the paper's protocol: Table-1 scene, one trial per level at the
    # request's source position; the position cycles over requests
    return {"methods": list(METHODS),
            "features": ["vad_on:raw", "vad_on:denoised"],
            "trials": 1, "seed": seed,
            "scene": {"kind": "paper_table1", "position": index % 3},
            "subsets": {"mode": "all_k_of_m", "k": 5},
            "noise": {"domain": "rd", "kind": "gaussian",
                      "levels": [0.01, 0.05]}}


def rd_random_full(seed, index):
    # 16 random 8-mic geometries per request, one trial on each
    return {"methods": list(METHODS),
            "features": ["vad_on:raw", "vad_on:denoised"],
            "trials": 16, "seed": seed,
            "scene": {"kind": "random", "count": 16,
                      "mic_count": MIC_COUNT, "bounds": 3.0},
            "subsets": {"mode": "full"},
            "noise": {"domain": "rd", "kind": "outlier_mixture",
                      "levels": [0.02, 0.1]}}


def signal_capture(seed, index):
    # one 8 ch x 2 s capture per request, source position cycling
    return {"methods": ["srd-ls", "hyperbolic"],
            "features": list(ALL_FEATURES),
            "trials": 1, "seed": seed,
            "scene": {"kind": "paper_table1", "position": index % 3},
            "subsets": {"mode": "full"},
            "noise": {"domain": "signal", "levels": [20.0],
                      "duration_s": 2.0, "sample_rate": 16000}}


@dataclass(frozen=True)
class Workload:
    config: object
    #: requests 0..n-1 always run, whatever the time budget; quality
    #: metrics and trace counts come from them, so they depend on the
    #: seed only and not on how fast the machine is
    quality_requests: int
    #: a request has several cells, so it runs on the harness's thread
    #: pool; the reference kernel then runs in as many threads
    pooled: bool


WORKLOADS = {
    "rd_grid": Workload(rd_grid, 18, pooled=True),
    "rd_random_full": Workload(rd_random_full, 32, pooled=True),
    "signal_capture": Workload(signal_capture, 40, pooled=False),
}


def request_config(workload, seed, index):
    return WORKLOADS[workload].config(seed * 10000 + index, index)


def expected_records(raw):
    """Grid size of a request, worked out from its config alone."""
    subsets = (1 if raw["subsets"]["mode"] == "full"
               else math.comb(MIC_COUNT, raw["subsets"]["k"]))
    return (len(raw["methods"]) * len(raw["features"]) * subsets
            * len(raw["noise"]["levels"]) * raw["trials"])


def load_multilat():
    """Import multilat from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from multilat import bench, estimators
    if Path(bench.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"multilat imported from {bench.__file__}, "
                          f"not from {src}")
    return bench, estimators


def write_outputs(bench, records, out):
    rows = bench.summarize(records)
    bench.write_records_csv(records, out / "records.csv")
    bench.write_summary_csv(rows, out / "summary.csv")
    bench.write_histogram_csv(records, out / "histogram.csv")


def send(bench, raw, out, write):
    """One request; returns (records, wall seconds)."""
    started = time.perf_counter()
    config = bench.config_from_dict(raw)
    records = bench.run_benchmark(config)
    write(bench, records, out)
    return records, time.perf_counter() - started


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(args):
    bench, estimators = load_multilat()
    import numpy as np
    spec = WORKLOADS[args.workload]
    first = bench.config_from_dict(request_config(args.workload, args.seed, 0))
    if first.scene_kind == "random":
        scenes = bench.random_scenes(first.scene_count, first.scene_mic_count,
                                     first.scene_bounds, first.seed)
    else:
        scenes = bench.paper_table1_scenes(position=first.scene_position)
    if any(scene.mic_count != MIC_COUNT for scene in scenes):
        raise ValueError(f"workload scenes must have {MIC_COUNT} mics")
    print("ready", flush=True)
    if args.probe:
        return None

    out = Path(args.out)
    request_dir = out / "request"
    request_dir.mkdir(parents=True, exist_ok=True)
    quality = 1 if args.smoke else spec.quality_requests

    tracer = None
    write = write_outputs
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(bench, estimators)
        write = tracer.wrap(write_outputs, "bench.write")

    problems = []
    threads = bench._worker_count() if spec.pooled else 1
    calibrate.measure(threads)  # warm-up, untimed
    before = calibrate.measure(threads)
    walls, hosts, counts = [], [], []
    failed_requests = 0
    quality_status, quality_errors = {}, {}
    first_digest = None
    started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        if index >= quality and (not walls
                                 or elapsed + walls[-1] > args.seconds):
            break
        raw = request_config(args.workload, args.seed, index)
        if tracer is not None:
            tracer.request = index
        try:
            records, wall = send(bench, raw, request_dir, write)
        except Exception:  # a failed request is counted, the run goes on
            traceback.print_exc()
            failed_requests += 1
            problems.append(f"request {index} raised")
            index += 1
            continue
        after = calibrate.measure(threads)
        walls.append(wall)
        # the host's speed during the request: the reference kernel's
        # mean time just before and just after it
        hosts.append(0.5 * (before + after))
        before = after
        counts.append(len(records))
        if index == 0:
            first_digest = digest(request_dir / "records.csv")
        if len(records) != expected_records(raw):
            problems.append(f"request {index}: {len(records)} records, "
                            f"grid has {expected_records(raw)}")
        unknown = {r.status for r in records} - set(STATUSES)
        if unknown:
            problems.append(f"request {index}: unknown statuses "
                            f"{sorted(unknown)}")
        if index < quality:
            for r in records:
                per = quality_status.setdefault(r.method, [0, 0])
                per[0] += 1
                if r.status in SUCCESS and math.isfinite(r.position_error_m):
                    per[1] += 1
                    quality_errors.setdefault(r.method, []).append(
                        r.position_error_m)
        index += 1

    if tracer is not None:
        tracer.uninstall()
    # repeat request 0 untraced: records.csv must not change by a byte
    raw = request_config(args.workload, args.seed, 0)
    _, repeat_wall = send(bench, raw, request_dir, write_outputs)
    repeat_digest = digest(request_dir / "records.csv")
    if first_digest is not None and repeat_digest != first_digest:
        problems.append("records.csv of request 0 differs on repeat "
                        f"({first_digest} vs {repeat_digest})")
    if tracer is not None:
        # tracing overhead: the same warm request, traced once more
        tracer.install(bench, estimators)
        tracer.request = -1
        _, traced_wall = send(bench, raw, request_dir, write)
        tracer.uninstall()

    reference = json.loads((HERE / "reference.json").read_text())
    factor = reference["tolerance_factor"]
    expected_median = reference["median_error_m"][args.workload]
    method_medians = {m: statistics.median(v)
                      for m, v in sorted(quality_errors.items())}
    for method, ref in expected_median.items():
        got = method_medians.get(method)
        if got is None or not ref / factor <= got <= ref * factor:
            problems.append(f"median error of {method} is {got} m, "
                            f"reference {ref} m (x/÷{factor})")

    # wall time at the reference host speed
    normalized = [w * calibrate.nominal(threads) / h
                  for w, h in zip(walls, hosts)]
    attempted = sum(n for n, _ in quality_status.values())
    succeeded = sum(ok for _, ok in quality_status.values())
    errors = [e for v in quality_errors.values() for e in v]
    result = {
        "correct": not problems and failed_requests == 0,
        "attempted": len(walls) + failed_requests,
        "failed": failed_requests,
        "problems": problems,
        "details": {
            "requests": len(walls),
            "request_walls_s": walls,
            "host_kernel_s": hosts,
            "host_kernel_threads": threads,
            # raw wall-time figures: too unsteady on a shared host to
            # gate on (see README), so reported only here
            "wall_records_per_s": sum(counts) / sum(walls),
            "wall_request_latency_p50_ms":
                1e3 * float(np.percentile(walls, 50)),
            "wall_request_latency_p90_ms":
                1e3 * float(np.percentile(walls, 90)),
            # normalized like the metrics, but a run has too few
            # requests beyond its p90 (2-6) to gate on it (see README)
            "request_latency_p90_ms":
                1e3 * float(np.percentile(normalized, 90)),
            "records": sum(counts),
            "quality_requests": quality,
            "quality_records": attempted,
            "quality_failed_records": attempted - succeeded,
            "failed_share": ((attempted - succeeded) / attempted
                             if attempted else None),
            "median_error_m_by_method": method_medians,
            "records_sha256": repeat_digest,
            "harness_workers": bench._worker_count(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    if tracer is None:
        result["metrics"] = {
            "records_per_s": {"value": sum(counts) / sum(normalized),
                              "unit": "1/s"},
            "request_latency_p50_ms": {
                "value": 1e3 * float(np.percentile(normalized, 50)),
                "unit": "ms"},
            "success_share": {"value": succeeded / attempted,
                              "unit": "share"},
            "median_error_m": {"value": statistics.median(errors),
                               "unit": "m"},
            "peak_rss_mb": {
                "value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    else:
        from tracing import layer_metrics
        traced = set(range(quality))
        result["metrics"] = layer_metrics(
            tracer.spans, traced, sum(walls[:quality]),
            traced_wall - repeat_wall)
        tracer.write_csv(out / "spans.csv")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
