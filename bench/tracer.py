"""Spans around every call into the package's public functions.

``install`` wraps each public function and class constructor of the
package's modules and rebinds every reference to it inside the package, so
calls between modules are recorded too. A span is ``[parent, name, start,
end]`` with ``parent`` the index of the enclosing span (-1 for a root).
Spans stay in memory; the caller writes them out when the run ends.
Instance methods are not wrapped: their time counts to the function that
called them.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("metric", "measure", "transport", "monad", "structure", "laws", "generate", "jsonio", "cli")
CLI_IMPORT = "import.kantorovich.cli"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.tensor = None
        self._stack = [-1]

    @contextmanager
    def span(self, name):
        record = [self._stack[-1], name, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[2] = time.perf_counter()
        try:
            yield len(self.spans) - 1
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [stack[-1], name, 0.0, 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result, record[3] - record[2])
            return result

        return traced

    def adopt(self, exported, parent):
        """Append spans and counts exported by another process under ``parent``."""
        base = len(self.spans)
        for p, name, t0, t1 in exported["spans"]:
            self.spans.append([parent if p < 0 else p + base, name, t0, t1])
        self.counts.update(exported["counts"])
        for key, values in exported["samples"].items():
            self.samples[key].extend(values)

    def count_tensor_cache(self):
        """Add the ``tensor`` cache's lifetime calls and hits to the counts."""
        info = self.tensor.cache_info()
        self.counts["tensor_calls"] += info.hits + info.misses
        self.counts["tensor_hits"] += info.hits

    def export(self):
        return {"spans": self.spans, "counts": dict(self.counts), "samples": dict(self.samples)}


# Counts kept where the work happens, keyed by span name.


def _space_built(tracer, args, result, seconds):
    n = len(args[0].points)
    tracer.counts["spaces_built"] += 1
    tracer.counts["triangle_triples"] += n**3


def _measure_built(tracer, args, result, seconds):
    tracer.counts["measures_built"] += 1


def _solved(tracer, args, result, seconds):
    p, q = args[0], args[1]
    tracer.samples["solve_ms"].append(seconds * 1000.0)
    if result[0] != 0:  # W1 is a metric: zero means p == q, which skips the solver
        n = len(p.weights)
        tracer.counts["grid_cells"] += n * n
        tracer.counts["support_cells"] += sum(1 for w in p.weights if w) * sum(1 for w in q.weights if w)


def _law_ran(tracer, args, result, seconds):
    tracer.counts[f"law:{args[0]}"] += seconds


def _decoded(tracer, args, result, seconds):
    if not isinstance(args[0], str):
        tracer.counts["objects_decoded"] += 1


HOOKS = {
    "metric.FinMetricSpace": _space_built,
    "measure.Measure": _measure_built,
    "transport.wasserstein": _solved,
    "laws.run_law": _law_ran,
}


def install(tracer):
    """Wrap the public callables of every loaded package module."""
    modules = {name: sys.modules[f"kantorovich.{name}"] for name in MODULES if f"kantorovich.{name}" in sys.modules}
    tracer.tensor = modules["metric"].tensor
    wrapped = {}
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            label = f"{short}.{attr}"
            if isinstance(obj, type):
                _wrap_class(tracer, obj, label)
            elif callable(obj):
                after = _decoded if short == "jsonio" and attr.endswith("_from_json") else HOOKS.get(label)
                wrapped[id(obj)] = (obj, tracer.wrap(label, obj, after))
    for name, module in list(sys.modules.items()):
        if name == "kantorovich" or name.startswith("kantorovich."):
            _rebind(vars(module), wrapped)


def _wrap_class(tracer, cls, label):
    if "__init__" in vars(cls):
        cls.__init__ = tracer.wrap(label, vars(cls)["__init__"], HOOKS.get(label))
    for attr, member in list(vars(cls).items()):
        if isinstance(member, classmethod) and not attr.startswith("_"):
            setattr(cls, attr, classmethod(tracer.wrap(f"{label}.{attr}", member.__func__)))


def _swap(value, wrapped):
    hit = wrapped.get(id(value))
    return hit[1] if hit is not None and hit[0] is value else value


def _rebind(namespace, wrapped):
    """Point names and module-level registries at the wrappers."""
    for key, value in list(namespace.items()):
        if key.startswith("__"):
            continue
        if isinstance(value, dict):
            for k, item in list(value.items()):
                if isinstance(item, tuple):
                    value[k] = tuple(_swap(x, wrapped) for x in item)
                else:
                    value[k] = _swap(item, wrapped)
        else:
            namespace[key] = _swap(value, wrapped)


# -- derived figures -------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for parent, _, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[k] for k, (_, _, t0, t1) in enumerate(spans)]


def root_of(spans):
    roots = []
    for k, (parent, _, _, _) in enumerate(spans):
        roots.append(k if parent < 0 else roots[parent])
    return roots


def op_self_excess(spans, op_name="bench.op"):
    """Largest amount by which the self times inside one operation exceed its wall time."""
    selfs = self_times(spans)
    inside = defaultdict(float)
    for k, root in enumerate(root_of(spans)):
        if root != k:
            inside[root] += selfs[k]
    worst = float("-inf")
    for k, (_, name, t0, t1) in enumerate(spans):
        if name == op_name:
            worst = max(worst, inside[k] - (t1 - t0))
    return worst


def layer_metrics(tracer):
    spans = tracer.spans
    selfs = self_times(spans)
    by_module = defaultdict(float)
    total = defaultdict(float)
    calls = Counter()
    for k, (_, name, t0, t1) in enumerate(spans):
        by_module[name.split(".", 1)[0]] += selfs[k]
        total[name] += t1 - t0
        calls[name] += 1
    counts = tracer.counts
    solve_ms = tracer.samples.get("solve_ms", [])
    grid = counts["grid_cells"]
    tensor_calls = counts["tensor_calls"]
    metrics = {f"{module}.self_s": by_module[module] for module in MODULES}
    metrics.update(
        {
            "metric.spaces_built": counts["spaces_built"],
            "metric.triangle_triples": counts["triangle_triples"],
            "metric.tensor_calls": tensor_calls,
            "metric.tensor_hit_ratio": counts["tensor_hits"] / tensor_calls if tensor_calls else 0.0,
            "measure.measures_built": counts["measures_built"],
            "transport.solves": len(solve_ms),
            "transport.solve_p50_ms": statistics.median(solve_ms) if solve_ms else 0.0,
            "transport.plan_check_s": total["transport.TransportPlan"],
            "transport.oracle_s": total["transport.wasserstein_oracle"],
            "transport.grid_cells": grid,
            "transport.support_fill": counts["support_cells"] / grid if grid else 0.0,
            "monad.nested_distances": calls["monad.nested_distance"],
            "structure.joints_built": calls["structure.product"],
            "jsonio.objects_decoded": counts["objects_decoded"],
            "cli.import_s": total[CLI_IMPORT],
            "cli.workspace_load_s": total["cli.Workspace.load"],
            "trace.spans": len(spans),
        }
    )
    for key, seconds in counts.items():
        if key.startswith("law:"):
            metrics[f"laws.{key[4:]}_s"] = seconds
    return metrics
