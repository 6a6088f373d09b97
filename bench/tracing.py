"""Per-layer tracing of clentropy, installed from outside the package.

One layer per module: numerics, partitions, groups, measures, entropy, zeta
and cli.  ``install`` replaces each traced public function by a wrapper in
every module namespace that binds it.  Consumers bind them with
``from .x import f``, and ``_pow_p_minus`` and ``aut_order_parts`` are also
imported inside function bodies, which read the defining module's
attribute at call time; so patching every binding catches every call.

Three kinds of wrapper:

* spans, for calls coarse enough to record one by one: name, layer,
  request, start, end, parent span and self time (the span minus the part
  of it spent in timed children);
* timers, for calls too frequent for one record each (``aut_order_parts``,
  partition iteration, ``_pow_p_minus`` and the small helpers): their call
  count, total and self time are accumulated, and their time is still
  taken out of the enclosing span's self time;
* counters, for numerics, which makes millions of calls: calls only, so
  interval arithmetic stays inside its caller's self time.

Spans are kept in memory and written once, by ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

LAYERS = ("numerics", "partitions", "groups", "measures", "entropy", "zeta", "cli")

# Coarse calls recorded as spans, next to every entropy and zeta function;
# the other traced functions outside numerics are timed in aggregate.
SPANNED = {
    "groups": {"aut_order_bruteforce"},
    "measures": {
        "normalizing_constant", "cl_measure", "level_aut_reciprocal_sum", "level_stats",
        "hall_sum_partial", "bound_series_tail", "hall_tail_bounds", "total_mass",
    },
    "cli": {"main"},
}
# Private helpers traced anyway: they are shared across modules.
PRIVATE_TRACED = {"measures": {"_pow_p_minus"}}
LEVEL_FUNCTIONS = {"level_stats", "level_aut_reciprocal_sum"}


class Tracer:
    """Spans, timers and counters of one traced process."""

    def __init__(self):
        self.request = "setup"
        self.spans = []
        self.calls = defaultdict(int)  # "binding:layer.name" -> calls (yields)
        self.total_s = defaultdict(float)  # "layer.name" -> seconds, timed in aggregate
        self.self_s = defaultdict(float)
        self._stack = []  # open spans and timers: [span id or None, child seconds]
        self._levels = set()
        self._next_id = 0
        self._hom_count = None

    def _enter(self, span: bool):
        parent = self._stack[-1][0] if self._stack else None
        if span:
            self._next_id += 1
        frame = [self._next_id if span else None, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _leave(self, elapsed: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed

    def _attrs(self, layer, name, args, result) -> dict:
        if name in LEVEL_FUNCTIONS:
            key = (args[0], args[1])
            fill = key not in self._levels
            self._levels.add(key)
            return {"fill": fill}
        if result is None:
            return {}
        if (layer, name) == ("entropy", "entropy"):
            return {"level": result.H.truncation_level}
        if (layer, name) == ("zeta", "kl_direct"):
            return {"level": result.truncation_level}
        if name == "aut_order_bruteforce":
            group = args[0]
            return {"evals": self._hom_count(group) * group.order}
        return {}

    def span(self, layer, name, fn, binding):
        label = f"{binding}:{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[label] += 1
            frame, parent = self._enter(True)
            result = None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = time.perf_counter()
                self._leave(ended - started)
                self.spans.append([
                    frame[0], parent, self.request, layer, name, started, ended,
                    ended - started - frame[1], self._attrs(layer, name, args, result),
                ])

        return wrapper

    def timer(self, layer, name, fn, binding):
        label = f"{binding}:{layer}.{name}"
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[label] += 1
            frame, _ = self._enter(False)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._leave(elapsed)
                self.total_s[key] += elapsed
                self.self_s[key] += elapsed - frame[1]

        return wrapper

    def generator_timer(self, layer, name, fn, binding):
        """Times each step of a generator; a call counts its yields."""
        label = f"{binding}:{layer}.{name}"
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                started = time.perf_counter()
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    elapsed = time.perf_counter() - started
                    if self._stack:
                        self._stack[-1][1] += elapsed
                    self.total_s[key] += elapsed
                    self.self_s[key] += elapsed
                self.calls[label] += 1
                yield item

        return wrapper

    def counter(self, layer, name, fn, binding):
        label = f"{binding}:{layer}.{name}"
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, layer, name, fn, binding):
        if layer == "numerics":
            return self.counter(layer, name, fn, binding)
        if inspect.isgeneratorfunction(fn):
            return self.generator_timer(layer, name, fn, binding)
        if layer in ("entropy", "zeta") or name in SPANNED.get(layer, ()):
            return self.span(layer, name, fn, binding)
        return self.timer(layer, name, fn, binding)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "calls": self.calls, "total_s": self.total_s,
                       "self_s": self.self_s, **extra}, fh)


def _traced_functions(layer: str, module) -> dict:
    picked = {}
    for name, obj in vars(module).items():
        if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            continue
        if name.startswith("_") and name not in PRIVATE_TRACED.get(layer, ()):
            continue
        if layer == "cli" and name not in SPANNED["cli"]:
            continue  # the subcommand handlers run inside main's span
        picked[obj] = (layer, name)
    return picked


def install(tracer: Tracer) -> None:
    """Patch every clentropy binding of every traced function."""
    package = importlib.import_module("clentropy")
    modules = [importlib.import_module(f"clentropy.{layer}") for layer in LAYERS]
    traced = {}
    for layer, module in zip(LAYERS, modules):
        traced.update(_traced_functions(layer, module))
    tracer._hom_count = importlib.import_module("clentropy.groups").bruteforce_hom_count
    for module in [package, *modules]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in traced:
                layer, name = traced[obj]
                setattr(module, attr, tracer.wrap(layer, name, obj, module.__name__))


def _sum_calls(traces, suffix: str, binding: str | None = None) -> int:
    total = 0
    for trace in traces:
        for label, n in trace["calls"].items():
            where, what = label.split(":")
            if what == suffix and binding in (None, where):
                total += n
    return total


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the dumps of one traced pass.

    Times are totals over the pass (set-up included for library workloads);
    a layer the workload never reaches reads 0.
    """
    spans = [span for trace in traces for span in trace["spans"]]
    self_by_layer = defaultdict(float)
    for span in spans:
        self_by_layer[span[3]] += span[7]
    for trace in traces:
        for key, seconds in trace["self_s"].items():
            self_by_layer[key.split(".")[0]] += seconds

    def named(layer, name):
        return [s for s in spans if s[3] == layer and s[4] == name]

    def total(key):
        return sum(trace["total_s"].get(key, 0.0) for trace in traces)

    level_spans = [s for s in spans if s[3] == "measures" and s[4] in LEVEL_FUNCTIONS]
    fills = [s for s in level_spans if s[8]["fill"]]
    fill_s = sum(s[6] - s[5] for s in fills)
    tails = named("measures", "bound_series_tail")
    oracle = [s for s in named("groups", "aut_order_bruteforce") if "evals" in s[8]]
    evals = sum(s[8]["evals"] for s in oracle)
    visited = _sum_calls(traces, "partitions.iter_partitions")
    aut_calls = _sum_calls(traces, "groups.aut_order_parts")
    startups = [trace["startup_s"] for trace in traces if "startup_s" in trace]

    def deepest(layer, name):
        return max((s[8]["level"] for s in named(layer, name) if "level" in s[8]), default=0)

    numerics_calls = sum(
        n for trace in traces for label, n in trace["calls"].items()
        if label.split(":")[1].startswith("numerics.")
    )
    return {
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "cli.main.self_s": self_by_layer["cli"],
        "entropy.self_s": self_by_layer["entropy"],
        "entropy.truncation_level": deepest("entropy", "entropy"),
        "zeta.self_s": self_by_layer["zeta"],
        "zeta.kl_direct.truncation_level": deepest("zeta", "kl_direct"),
        "zeta.level_weight.partitions": _sum_calls(
            traces, "partitions.iter_partitions", "clentropy.zeta"),
        "measures.self_s": self_by_layer["measures"],
        "measures.level_stats.calls": len(level_spans),
        "measures.level_stats.hit_ratio": _ratio(len(level_spans) - len(fills), len(level_spans)),
        "measures.level_fill_s": fill_s,
        "measures.level_fill_s_per_level": _ratio(fill_s, len(fills)),
        "measures.bound_series_tail.calls": len(tails),
        "measures.bound_series_tail.ms_per_call": _ratio(
            sum(s[6] - s[5] for s in tails), len(tails), 1e3),
        "groups.self_s": self_by_layer["groups"],
        "groups.aut_order_parts.calls": aut_calls,
        "groups.aut_order_parts.us_per_call": _ratio(
            total("groups.aut_order_parts"), aut_calls, 1e6),
        "groups.oracle.evals": evals,
        "groups.oracle.ns_per_eval": _ratio(sum(s[6] - s[5] for s in oracle), evals, 1e9),
        "partitions.visited": visited,
        "partitions.us_per_partition": _ratio(
            total("partitions.iter_partitions"), visited, 1e6),
        "numerics.calls": numerics_calls,
    }
