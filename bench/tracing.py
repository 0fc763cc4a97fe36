"""Per-layer tracing of digraphlab, installed from outside the package.

`Tracer.install` replaces selected public functions with wrappers, in the
module that defines each one and in every digraphlab module that imported it
by name.  Every wrapped call records one span (name, start, end, parent) in
flat in-memory arrays; spans are written out when the run ends, and a span's
self time is its duration minus the durations of its direct children.

The lazy product arc stream that `find_steep_path` feeds to
`find_level_walk` is wrapped as well: pulling arcs from it is timed as
`product.arcs_iter` spans (one per chunk of arcs), so that its cost does not
land in `level_search`.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from collections import defaultdict
from functools import wraps
from itertools import islice
from pathlib import Path
from time import perf_counter

#: Public functions timed per module.  `verify.run_job` spans are named
#: `verify.job.<job-id>` instead.
TRACED = {
    "core": ("make_digraph", "validate_hom"),
    "paths": ("path_family",),
    "constructions": (
        "tournament",
        "path",
        "complete",
        "arc_graph",
        "arc_graph_iter",
        "interleaved_adjoint",
        "inverse_interleaved_adjoint",
        "tree_dual",
        "circular_complete",
        "b_graph",
    ),
    "product": ("categorical_product",),
    "homs": ("hom_exists", "arc_consistency", "brute_force_hom"),
    "coloring": ("chromatic_number",),
    "level_search": ("find_level_walk",),
    "verify": ("find_steep_path", "h_function", "run_job"),
}

LAYERS = tuple(TRACED)

#: Arcs pulled from the product stream per span.
STREAM_CHUNK = 1024

_STREAM = "product.arcs_iter"


def job_span_name(job_id: str) -> str:
    """`verify.job.<job-id>`, with runs of characters outside [A-Za-z0-9_.-] mapped to '_'."""
    return f"verify.job.{re.sub(r'[^A-Za-z0-9_.-]+', '_', job_id).strip('_')}"


def per_layer_names(job_ids) -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    return list(layer_metrics(Tracer(), job_ids, 1, 0.0, 0.0))


class Tracer:
    """Span recorder; records only while `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.busy = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # `busy` marks span bookkeeping, which a time-limit alarm must not split.

    def _open(self, nid: int) -> int:
        self.busy = True
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        self.busy = False
        return i

    def _close(self, i: int) -> None:
        self.busy = True
        self.end[i] = perf_counter()
        self._stack.pop()
        self.busy = False

    def close_open_spans(self) -> None:
        """End every span still open, as after a time-limit alarm cut an
        operation short; the next operation starts from an empty stack."""
        now = perf_counter()
        for i in self._stack[1:]:
            self.end[i] = now
        del self._stack[1:]

    def span(self, name: str, fn, args, kwargs, on_result=None):
        """Call fn inside a span; `on_result(result)` runs after the span."""
        i = self._open(self._name_id(name))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(i)
            self.counts[name + ".raised"] += 1
            raise
        self._close(i)
        if on_result is not None:
            on_result(result)
        return result

    def stream(self, name: str, iterator):
        """Re-yield an iterator, timing each chunk pulled from it as a span."""
        nid = self._name_id(name)
        while True:
            i = self._open(nid)
            try:
                chunk = list(islice(iterator, STREAM_CHUNK))
            finally:
                self._close(i)
            if not chunk:
                return
            yield from chunk

    # --- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every function in TRACED wherever digraphlab binds it by name."""
        modules = [m for k, m in sys.modules.items() if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for layer, funcs in TRACED.items():
            home = sys.modules[f"{package.__name__}.{layer}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrapper(layer, fname, original, package)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)

    def _wrapper(self, layer: str, fname: str, fn, package):
        name = f"{layer}.{fname}"
        on_result = None
        counts = self.counts
        if name == "homs.hom_exists":
            exceeded = package.BUDGET_EXCEEDED

            def on_result(r):
                key = "none" if r is None else "budget_exceeded" if r is exceeded else "found"
                counts[f"{name}.{key}"] += 1

        elif name == "coloring.chromatic_number":

            def on_result(r):
                counts[name + ".certified"] += r.lower_bound_cert is not None

        elif name == "product.categorical_product":

            def on_result(r):
                counts[name + ".vertices"] += r.num_vertices

        elif layer == "constructions":

            def on_result(r):
                counts["constructions.vertices_built"] += r.n

        if name == "verify.run_job":

            @wraps(fn)
            def traced_job(spec):
                if not self.enabled:
                    return fn(spec)
                return self.span(job_span_name(spec[0]), fn, (spec,), {})

            return traced_job

        if name == "level_search.find_level_walk":

            @wraps(fn)
            def traced_walk(num_nodes, arcs, ell):
                if not self.enabled:
                    return fn(num_nodes, arcs, ell)
                counts[name + ".states"] += num_nodes * (ell + 1)
                if not isinstance(arcs, (list, tuple)):
                    arcs = self.stream(_STREAM, iter(arcs))
                return self.span(name, fn, (num_nodes, arcs, ell), {})

            return traced_walk

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.span(name, fn, args, kwargs, on_result)

        return traced

    # --- analysis -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total, self and max duration."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            s = out.get(self.names[self.name[i]])
            if s is None:
                s = out[self.names[self.name[i]]] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0, "top_s": 0.0}
            s["calls"] += 1
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            if dur[i] > s["max_s"]:
                s["max_s"] = dur[i]
            if self.parent[i] < 0:
                s["top_s"] += dur[i]
        return out

    def write(self, stem: Path) -> None:
        """Write spans as `<stem>.json` (name table) plus `<stem>.bin`
        (int32 name ids, int32 parents, float64 starts, float64 ends)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as f:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)
        meta = {"names": self.names, "spans": len(self.name), "arrays": ["name:i4", "parent:i4", "start:f8", "end:f8"]}
        stem.with_suffix(".json").write_text(json.dumps(meta))


def layer_metrics(tracer: Tracer, job_ids, passes: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-pass per-layer metrics from the recorded spans and counters."""
    summ = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0, "top_s": 0.0}

    def s(name):
        return summ.get(name, zero)

    m: dict[str, float] = {}
    counts = tracer.counts
    for fname in ("homs.brute_force_hom", "homs.hom_exists", "homs.arc_consistency", "coloring.chromatic_number",
                  "level_search.find_level_walk", "product.categorical_product", "paths.path_family",
                  "core.validate_hom", "core.make_digraph"):
        m[fname + ".calls"] = s(fname)["calls"] / passes
        m[fname + ".self_s"] = s(fname)["self_s"] / passes
    m["homs.hom_exists.max_s"] = s("homs.hom_exists")["max_s"]
    for key in ("found", "none", "budget_exceeded", "raised"):
        m[f"homs.hom_exists.{key}"] = counts[f"homs.hom_exists.{key}"] / passes
    m["coloring.chromatic_number.max_s"] = s("coloring.chromatic_number")["max_s"]
    m["coloring.chromatic_number.certified"] = counts["coloring.chromatic_number.certified"] / passes
    m["level_search.find_level_walk.states"] = counts["level_search.find_level_walk.states"] / passes
    m[_STREAM + ".self_s"] = s(_STREAM)["self_s"] / passes
    m["product.categorical_product.vertices"] = counts["product.categorical_product.vertices"] / passes
    m["constructions.calls"] = sum(v["calls"] for k, v in summ.items() if k.startswith("constructions.")) / passes
    m["constructions.vertices_built"] = counts["constructions.vertices_built"] / passes
    m["verify.find_steep_path.self_s"] = s("verify.find_steep_path")["self_s"] / passes
    m["verify.h_function.self_s"] = s("verify.h_function")["self_s"] / passes
    for job_id in job_ids:
        name = job_span_name(job_id)
        m[name + ".s"] = s(name)["total_s"] / passes
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in summ.items() if k.startswith(layer + ".")) / passes
    top = sum(v["top_s"] for v in summ.values()) / passes
    m["bench.self_s"] = traced_wall - top
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.spans"] = len(tracer.name) / passes
    return m
