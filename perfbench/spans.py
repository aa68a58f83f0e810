"""Layer spans recorded from outside the package.

The tracer replaces public functions of the tlsrf modules with timing
wrappers by setattr on the module, so calls made inside a module (for
example chaotic_spectrum calling qrt_spectrum) are caught as well.
Spans are kept in memory as (name, start, end, parent, op) records and
written out when the run ends; a span's self time is its duration minus
the durations of its direct children, which never overlap because the
program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
import tracemalloc

# (module, function) pairs wrapped in a traced run.  photonstat and core
# take under a millisecond in every workload and are left out.
LAYERS = {
    "trajectory": ("simulate_tags", "apply_detector", "correlate"),
    "bloch": ("integrate", "chaotic_transient"),
    "emission": (
        "qrt_spectrum",
        "chaotic_spectrum",
        "qrt_g2",
        "chaotic_g2",
        "convolve_lorentzian",
        "convolve_gaussian",
    ),
    "lamp": ("synthesize_field", "estimate_g2", "fit_gaussian_g2"),
    "cli": ("main",),
}

# tracemalloc runs only inside these calls: it costs time on every
# allocation, and these two hold the large arrays.
ALLOC_WATCHED = {"trajectory.correlate", "lamp.synthesize_field"}

OP_SPAN = "bench.op"

# name -> unit of every per-layer metric a traced run reports
PER_LAYER_UNITS = {
    "trajectory.simulate_tags.self_s": "s",
    "trajectory.simulate_tags.tags": "count",
    "trajectory.simulate_tags.tags_per_s": "1/s",
    "trajectory.correlate.self_s": "s",
    "trajectory.correlate.pairs": "count",
    "trajectory.correlate.pairs_per_s": "1/s",
    "trajectory.correlate.peak_alloc_mb": "MB",
    "trajectory.apply_detector.self_s": "s",
    "bloch.chaotic_transient.self_s": "s",
    "bloch.chaotic_transient.member_steps": "count",
    "bloch.integrate.self_s": "s",
    "emission.qrt_spectrum.self_s": "s",
    "emission.qrt_spectrum.calls": "count",
    "emission.chaotic_spectrum.self_s": "s",
    "emission.chaotic_g2.self_s": "s",
    "emission.qrt_g2.self_s": "s",
    "emission.convolve_lorentzian.self_s": "s",
    "emission.convolve_gaussian.self_s": "s",
    "lamp.synthesize_field.self_s": "s",
    "lamp.synthesize_field.peak_alloc_mb": "MB",
    "lamp.estimate_g2.self_s": "s",
    "lamp.fit_gaussian_g2.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "traced_wall_s": "s",
    "tracing_overhead_s": "s",
}


def _tags(bound, result):
    return {"tags": len(result.times)}


def _pairs(bound, result):
    return {"pairs": int(result.counts.sum())}


def _member_steps(bound, result):
    return {"member_steps": int(bound.arguments["n_samples"]) * (len(result.rho11) - 1)}


# counts taken from a call's arguments and result, after its span closes
COUNTERS = {
    "trajectory.simulate_tags": _tags,
    "trajectory.correlate": _pairs,
    "bloch.chaotic_transient": _member_steps,
}


class Tracer:
    """Wraps the layer functions and records one span per call made
    while an operation is open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self):
        for mod_name, fns in LAYERS.items():
            module = importlib.import_module(f"tlsrf.{mod_name}")
            for fn_name in fns:
                fn = getattr(module, fn_name)
                self._originals.append((module, fn_name, fn))
                setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn))

    def uninstall(self):
        for module, fn_name, fn in reversed(self._originals):
            setattr(module, fn_name, fn)
        self._originals.clear()

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {"name": name, "parent": parent, "op": None if parent is None else self.spans[parent]["op"]}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        watch = name in ALLOC_WATCHED
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if watch:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if watch:
                    span["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._close(span)
            if counter is not None:
                span.update(counter(signature.bind(*args, **kwargs), result))
            return result

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) inside a root span for one operation."""
        span = self._open(OP_SPAN)
        span["op"] = op_id
        try:
            return fn(*args)
        finally:
            self._close(span)


def layer_metrics(spans: list[dict], op_id: int) -> dict[str, float]:
    """Per-layer metrics of one operation: self time per layer, counts
    summed over calls, and allocation peaks as the largest call's."""
    mine = [(i, s) for i, s in enumerate(spans) if s["op"] == op_id]
    child_time = {}
    for _, s in mine:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for i, s in mine:
        name = s["name"]
        self_s = s["end"] - s["start"] - child_time.get(i, 0.0)
        key = {"cli.main": "cli", OP_SPAN: "bench"}.get(name, name)
        out[f"{key}.self_s"] += self_s
        if name == OP_SPAN:
            out["traced_wall_s"] = s["end"] - s["start"]
        if name == "emission.qrt_spectrum":
            out["emission.qrt_spectrum.calls"] += 1
        for count in ("tags", "pairs", "member_steps"):
            if count in s:
                out[f"{name}.{count}"] += s[count]
        if "peak_alloc_mb" in s:
            key = f"{name}.peak_alloc_mb"
            out[key] = max(out[key], s["peak_alloc_mb"])
    for name, count in (("trajectory.simulate_tags", "tags"), ("trajectory.correlate", "pairs")):
        busy = out[f"{name}.self_s"]
        out[f"{name}.{count}_per_s"] = out[f"{name}.{count}"] / busy if busy > 0 else 0.0
    return out


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
