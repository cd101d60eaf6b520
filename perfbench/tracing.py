"""In-memory span tracing of multilat's layers, installed from outside.

The benchmark never edits the package.  Instead ``Tracer.install``
replaces each traced function at the module attribute that its caller
looks it up under -- ``multilat.bench`` for everything the harness
calls, and ``multilat.estimators.usrd_ls`` for the initial guess inside
``hyperbolic_ls`` -- and ``Tracer.uninstall`` puts the originals back.

A span is one call: (id, parent id, request id, thread, name, wall
start/end, thread-CPU start/end, tag).  Spans stay in a list until the
run ends.  Worker threads of the harness's thread pool have an empty
span stack, so their top-level spans take the request's
``bench.run_benchmark`` span as parent.  The tag carries the counts a
layer reports in its result (iterations, fallback flags, frames kept),
so they are aggregated after the run rather than shared between threads
while it runs.
"""

import csv
import functools
import itertools
import statistics
import threading
import time

import numpy as np

LAYERS = ("estimators.usrd_ls", "estimators.srd_ls", "estimators.conic_ls",
          "estimators.hyperbolic_ls")
TIMED_STATS = (("calls", "count"), ("self_s", "s"), ("cpu_s", "s"),
               ("wait_s", "s"), ("p50_us", "us"))
TIMED_LAYERS = tuple(f"{layer}.m{m}" for layer in LAYERS for m in (5, 8)) + (
    "tdoa.estimate_tdoa_matrix.vad_on", "tdoa.estimate_tdoa_matrix.vad_off",
    "simulate.synth_signals", "simulate.perturb_rd", "denoise.tdoa_average",
    "geometry.select_reference")
ROOT = "bench.run_benchmark"
WRITE = "bench.write"


def _by_mic_count(base):
    def name(args, kwargs):
        return f"{base}.m{len(args[1])}"
    return name


def _tdoa_name(args, kwargs):
    return f"tdoa.estimate_tdoa_matrix.vad_{kwargs.get('vad', 'on')}"


def _hyperbolic_tag(result, args, kwargs):
    return (result.info.get("iterations", 0), result.status)


def _srd_tag(result, args, kwargs):
    return (bool(result.info.get("null_completed")),
            result.info.get("reason") == "no multiplier root")


def _conic_tag(result, args, kwargs):
    return (bool(result.info.get("line_completed")),
            int(result.info.get("dropped_rows", 0)))


def _tdoa_tag(result, args, kwargs):
    signals, config = args[0], args[1]
    m = signals.mic_count
    frames = 1 + (signals.length - config.frame_length) // config.hop_length
    iu = np.triu_indices(m, k=1)
    return (int(result.frame_count_used[iu].sum()), len(iu[0]) * frames,
            int(np.count_nonzero(~np.isfinite(result.values[iu]))))


class Tracer:
    """Records spans around multilat's layer functions while installed."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._root = None
        # next() on a count and list.append are single C calls, which
        # the GIL makes atomic, so worker threads share them unlocked
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, tag=None):
        """Return ``fn`` wrapped in a span; ``name`` is a str or a callable
        of (args, kwargs), ``tag`` a callable of (result, args, kwargs)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            if name == ROOT:
                self._root = sid
            stack.append(sid)
            result = None
            # the CPU reads sit inside the wall reads, so wait >= 0
            t0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c1 = time.thread_time()
                t1 = time.perf_counter()
                stack.pop()
                if name == ROOT:
                    self._root = None
                label = name if isinstance(name, str) else name(args, kwargs)
                extra = (tag(result, args, kwargs)
                         if tag is not None and result is not None else None)
                self.spans.append((sid, parent, self.request,
                                   threading.get_ident(), label,
                                   t0, t1, c0, c1, extra))
        return traced

    def _patch(self, module, attr, name, tag=None):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, tag))

    def install(self, bench, estimators):
        """Wrap the layer functions at the names the harness calls."""
        self._patch(bench, "run_benchmark", ROOT)
        for attr, tag in (("usrd_ls", None), ("srd_ls", _srd_tag),
                          ("conic_ls", _conic_tag),
                          ("hyperbolic_ls", _hyperbolic_tag)):
            self._patch(bench, attr, _by_mic_count(f"estimators.{attr}"), tag)
        # hyperbolic_ls takes its initial guess from this module global
        self._patch(estimators, "usrd_ls",
                    _by_mic_count("estimators.usrd_ls"))
        self._patch(bench, "estimate_tdoa_matrix", _tdoa_name, _tdoa_tag)
        self._patch(bench, "synth_signals", "simulate.synth_signals")
        self._patch(bench, "perturb_rd", "simulate.perturb_rd")
        self._patch(bench, "tdoa_average", "denoise.tdoa_average")
        self._patch(bench, "select_reference", "geometry.select_reference")

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "parent", "request", "thread", "name",
                             "start_s", "end_s", "cpu_s", "tag"])
            for sid, parent, req, thread, label, t0, t1, c0, c1, extra \
                    in self.spans:
                writer.writerow([sid, "" if parent is None else parent, req,
                                 thread, label, repr(t0), repr(t1),
                                 repr(c1 - c0),
                                 "" if extra is None else extra])


def _union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def _quantile(values, q):
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


def layer_metrics(spans, requests, request_wall_s, overhead_s):
    """Per-layer metrics over the spans of the given request ids.

    ``self_s`` is a span's duration minus the union of its children's
    intervals; ``cpu_s`` its thread CPU time minus that of children on
    the same thread; ``wait_s`` sums ``self_s - cpu_s`` per call, floored
    at 0.  ``p50_us`` is
    the median inclusive duration of one call.  A layer the workload
    never calls reports zeros.
    """
    spans = [s for s in spans if s[2] in requests]
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    agg = {}
    for sid, _, _, thread, label, t0, t1, c0, c1, _ in spans:
        kids = children.get(sid, ())
        self_wall = (t1 - t0) - _union_length(
            [(k[5], k[6]) for k in kids], t0, t1)
        self_cpu = (c1 - c0) - sum(k[8] - k[7] for k in kids
                                   if k[3] == thread)
        entry = agg.setdefault(label, {"calls": 0, "self_s": 0.0,
                                       "cpu_s": 0.0, "wait_s": 0.0,
                                       "durations": []})
        entry["calls"] += 1
        entry["self_s"] += self_wall
        entry["cpu_s"] += self_cpu
        # the root's children run on pool threads while its own thread
        # also uses CPU, so its self CPU can exceed its self wall time
        entry["wait_s"] += max(0.0, self_wall - self_cpu)
        entry["durations"].append(t1 - t0)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in TIMED_LAYERS:
        entry = agg.get(layer, {"calls": 0, "self_s": 0.0, "cpu_s": 0.0,
                                "wait_s": 0.0, "durations": []})
        put(f"{layer}.calls", entry["calls"], "count")
        put(f"{layer}.self_s", entry["self_s"], "s")
        put(f"{layer}.cpu_s", entry["cpu_s"], "s")
        put(f"{layer}.wait_s", entry["wait_s"], "s")
        put(f"{layer}.p50_us", 1e6 * statistics.median(entry["durations"])
            if entry["durations"] else 0.0, "us")

    def tags(prefix):
        return [s[9] for s in spans
                if s[4].startswith(prefix) and s[9] is not None]

    hyper = tags("estimators.hyperbolic_ls.")
    iters = [it for it, _ in hyper]
    put("estimators.hyperbolic_ls.iterations_p50", _quantile(iters, 0.5),
        "count")
    put("estimators.hyperbolic_ls.iterations_p90", _quantile(iters, 0.9),
        "count")
    put("estimators.hyperbolic_ls.max_iterations_share",
        sum(status == "max_iterations" for _, status in hyper) / len(hyper)
        if hyper else 0.0, "share")
    srd = tags("estimators.srd_ls.")
    put("estimators.srd_ls.null_completed", sum(t[0] for t in srd), "count")
    put("estimators.srd_ls.no_multiplier_root", sum(t[1] for t in srd),
        "count")
    conic = tags("estimators.conic_ls.")
    put("estimators.conic_ls.line_completed", sum(t[0] for t in conic),
        "count")
    put("estimators.conic_ls.dropped_rows", sum(t[1] for t in conic),
        "count")
    tdoa = tags("tdoa.estimate_tdoa_matrix.")
    kept, possible = sum(t[0] for t in tdoa), sum(t[1] for t in tdoa)
    put("tdoa.frames_kept_ratio", kept / possible if possible else 0.0,
        "share")
    put("tdoa.invalid_pairs", sum(t[2] for t in tdoa), "count")

    root = agg.get(ROOT, {"self_s": 0.0, "wait_s": 0.0})
    put("bench.run_benchmark.self_s", root["self_s"], "s")
    put("bench.run_benchmark.wait_s", root["wait_s"], "s")
    put("bench.write_s", agg.get(WRITE, {"self_s": 0.0})["self_s"], "s")

    layered = [(s[5], s[6]) for s in spans if s[4] != ROOT]
    lo = min((s[5] for s in spans), default=0.0)
    hi = max((s[6] for s in spans), default=0.0)
    put("trace.coverage",
        _union_length(layered, lo, hi) / request_wall_s
        if request_wall_s > 0 else 0.0, "share")
    put("trace.overhead_s", overhead_s, "s")
    return metrics
