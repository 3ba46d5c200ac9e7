"""Span tracer for the traced benchmark run.

`install` replaces every public function and public method of the cubevar
modules with a wrapper that records a span (name, start, end, parent) and a
few work counters.  Functions are replaced at every import site, because
`from .core import fwht` binds a separate name in each importing module.
Spans stay in memory until `write_spans` is called at the end of the run.
The tracer keeps one span stack, so it is for single-threaded runs only.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time

#: The layers, in dependency order; each is a module of the cubevar package.
LAYERS = ("core", "krawtchouk", "operators", "variation", "experiments", "cli")

#: Private functions that are traced anyway: report I/O is its own layer row.
PRIVATE_TRACED = ("cli._emit",)

#: The layer the self-test slows down, by sleeping inside each of its calls.
SLOWED_LAYER = "variation.vr_pointwise_values"


def _first_array(args, kwargs):
    """The first positional argument, or the only keyword one, if it is an array."""
    value = args[0] if args else next(iter(kwargs.values()), None)
    return value if hasattr(value, "shape") and hasattr(value, "nbytes") else None


def _count_fwht(args, kwargs, result):
    values = _first_array(args, kwargs)
    if values is None or values.shape[0] < 2:
        return {}
    stages = int(math.log2(values.shape[0]))
    # Each radix-2 stage reads and writes the whole buffer once.
    return {"elems": values.shape[0], "bytes_computed": 2 * values.nbytes * stages}


def _count_stack(args, kwargs, result):
    if not hasattr(result, "shape"):
        return {}
    return {"rows": result.shape[0], "bytes_out": result.nbytes}


def _count_pointwise(args, kwargs, result):
    stack = _first_array(args, kwargs)
    if stack is None or stack.ndim != 2:
        return {}
    m, points = stack.shape
    return {"pair_updates": m * (m - 1) // 2 * points, "bytes_in": stack.nbytes}


#: Work counters recorded at a layer boundary, computed from arguments and result.
COUNTERS = {
    "core.fwht": _count_fwht,
    "operators.spherical_mean_stack": _count_stack,
    "variation.vr_pointwise_values": _count_pointwise,
}


class Tracer:
    """Collects spans and counters for one process.

    `delay` is slept inside every call of SLOWED_LAYER; it exists so a
    self-test can check that a slowed layer shows up in its own row.
    """

    def __init__(self, delay=0.0):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []          # indices of the open spans
        self.counters = {}       # span name -> {counter: total}
        self.cached = {}         # span name -> lru_cache object, for hit ratios
        self.delay = delay

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        delay = self.delay if name == SLOWED_LAYER else 0.0
        if hasattr(fn, "cache_info"):
            self.cached[name] = fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                if delay:
                    time.sleep(delay)
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                totals = self.counters.setdefault(name, {})
                for key, value in count(args, kwargs, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s (duration minus direct child
        spans), the work counters, and hit_ratio for cached functions."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        for name, totals in self.counters.items():
            out.setdefault(name, {}).update(totals)
        for name, fn in self.cached.items():
            info = fn.cache_info()
            if info.hits + info.misses:
                out.setdefault(name, {})["hit_ratio"] = info.hits / (info.hits + info.misses)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, timed on a function that does
    nothing; times the number of spans it estimates the tracing overhead of
    a run without the run-to-run noise of comparing two runs."""
    def nothing():
        return None

    wrapped = Tracer().wrap("nothing", nothing)
    times = []
    for fn in (nothing, wrapped, nothing, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - start)
    return (min(times[1::2]) - min(times[0::2])) / calls


def _targets(module, short):
    """(span name, owner, attribute, function) for every traced callable
    defined in `module`."""
    for attr, obj in list(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for method, member in list(vars(obj).items()):
                if inspect.isfunction(member) and not method.startswith("_"):
                    yield f"{short}.{method}", obj, method, member
        elif callable(obj) and (not attr.startswith("_") or f"{short}.{attr}" in PRIVATE_TRACED):
            yield f"{short}.{attr}", module, attr, obj


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, at every import site."""
    modules = {short: importlib.import_module(f"cubevar.{short}") for short in LAYERS}
    wrapped = {}    # id(original) -> wrapper
    names = set()
    for short, module in modules.items():
        for name, owner, attr, fn in list(_targets(module, short)):
            if name in names:
                raise RuntimeError(f"two traced callables share the span name {name}")
            names.add(name)
            wrapper = tracer.wrap(name, fn)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
            else:
                wrapped[id(fn)] = wrapper
    for module in (importlib.import_module("cubevar"), *modules.values()):
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
