"""Span tracing for the benchmark's traced runs.

The tracer wraps the public callables of each lenswrt module at the
places where callers look them up: every module attribute (in any loaded
lenswrt module) bound to a wrapped function, and the class attributes of
the wrapped methods.  Each call records one span (id, layer, start, end,
parent span, op id) in memory; self time is a span's duration minus the
time its child spans cover.  Nothing inside src/lenswrt is modified on
disk, and tracing is off unless a Tracer is installed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# layer name -> callables, as "module:function" or "module:Class.method"
LAYERS = {
    "numtheory": [
        f"lenswrt.numtheory:{name}"
        for name in (
            "mod_inverse", "jacobi_symbol", "sawtooth", "dedekind_sum", "count_squares_mod",
            "is_prime", "classify_order", "mat_mul", "j_letter", "lens_matrix", "sl2_expand",
            "rademacher_phi",
        )
    ],
    "gauss.sum": ["lenswrt.gauss:gauss_sum"],
    "gauss.closed_form": ["lenswrt.gauss:gauss_closed_form"],
    "cyclotomic.mul": ["lenswrt.cyclotomic:CyclotomicNumber.__mul__"],
    "cyclotomic.inverse": ["lenswrt.cyclotomic:CyclotomicNumber.inverse"],
    "cyclotomic.embed": ["lenswrt.cyclotomic:embed_complex"],
    "laurent.mul": ["lenswrt.laurent:LaurentPoly.__mul__"],
    "laurent.divexact": ["lenswrt.laurent:LaurentPoly.divexact"],
    "laurent.gcd": ["lenswrt.laurent:laurent_gcd"],
    "laurent.eval": ["lenswrt.laurent:LaurentPoly.eval_at_unit_root"],
    "laurent.rational": [
        f"lenswrt.laurent:RationalFunction.{name}"
        for name in ("__init__", "__add__", "__neg__", "__sub__", "__rsub__", "__mul__", "__truediv__")
    ],
    "skein": [
        f"lenswrt.skein:SkeinElement.{name}"
        for name in ("__init__", "__add__", "__sub__", "scale", "__eq__", "to_json", "from_json")
    ] + [f"lenswrt.skein:{name}" for name in ("chebyshev_expand", "chebyshev_matrix", "power_to_colored")],
    "wrt.f_poly": ["lenswrt.wrt:f_poly"],
    "wrt.f_link": ["lenswrt.wrt:f_link"],
    "wrt.eval": [f"lenswrt.wrt:{name}" for name in ("eval_meridian", "eval_link", "eval_z_combination")],
    "wrt.oracle": ["lenswrt.wrt:jeffrey_oracle"],
    "analysis.build": ["lenswrt.analysis:build_f_matrix"],
    "analysis.rank": ["lenswrt.analysis:rank"],
    "analysis.kernel": ["lenswrt.analysis:kernel"],
    "analysis.recover": ["lenswrt.analysis:recover_skein"],
    "analysis.certificate": ["lenswrt.analysis:fullrank_submatrix"],
    "analysis.interpolate": ["lenswrt.analysis:interpolate_f"],
}


class Tracer:
    """In-memory span recorder with per-layer call counts and self times."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.fpoly_keys: set = set()
        self.matrix_terms = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._ids = array("q")
        self._layers = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._ops = array("i")

    def layer_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.names.index(name)

    def wrap(self, name: str, fn, post=None):
        """A wrapper recording one `name` span per call while enabled."""
        layer = self.layer_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                self._ids.append(span_id)
                self._layers.append(layer)
                self._starts.append(start)
                self._ends.append(end)
                self._parents.append(parent)
                self._ops.append(self.op_id)
            if post is not None:
                post(args, result)
            return result

        return traced

    @property
    def span_count(self) -> int:
        return len(self._ids)

    def totals(self) -> dict:
        """Calls and self seconds per layer, plus the counters kept by post hooks."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "fpoly_distinct": len(self.fpoly_keys),
            "matrix_terms": self.matrix_terms,
        }

    def write_spans(self, path: str):
        """One JSON header line, then the span columns as raw machine arrays."""
        columns = (self._ids, self._layers, self._starts, self._ends, self._parents, self._ops)
        header = {
            "layers": self.names,
            "count": self.span_count,
            "columns": [
                ["id", "q"], ["layer", "i"], ["start", "d"], ["end", "d"], ["parent", "q"], ["op", "i"],
            ],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in columns:
                column.tofile(fh)


def _resolve(target: str):
    module_name, attr = target.split(":")
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


def install(tracer: Tracer) -> None:
    """Patch every lookup site of the traced callables with span wrappers.

    Call after the lenswrt modules the caller needs are imported: module
    attributes are replaced in every loaded lenswrt module, so both
    `lenswrt.wrt.f_poly` and `lenswrt.analysis.f_poly` are traced.
    """

    def record_fpoly(args, result):
        space, c, k = args[:3]
        tracer.fpoly_keys.add((space.p, space.q, c, k))

    def record_matrix(args, result):
        tracer.matrix_terms += sum(len(e.terms) for row in result.entries for e in row)

    posts = {"wrt.f_poly": record_fpoly, "analysis.build": record_matrix}
    function_wrappers = {}
    for layer, targets in LAYERS.items():
        for target in targets:
            owner, attr = _resolve(target)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(layer, raw.__func__, posts.get(layer)))
                else:
                    wrapped = tracer.wrap(layer, raw, posts.get(layer))
                # aliases such as __rmul__ = __mul__ share the function object
                for key, value in list(owner.__dict__.items()):
                    if value is raw:
                        setattr(owner, key, wrapped)
            else:
                original = getattr(owner, attr)
                function_wrappers[id(original)] = (original, tracer.wrap(layer, original, posts.get(layer)))
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "lenswrt" or module_name.startswith("lenswrt.")):
            continue
        for key, value in list(vars(module).items()):
            hit = function_wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])


def layer_metrics(totals: dict, per_layer_names) -> dict:
    """Map merged tracer totals onto the benchmark's per-layer metric names."""
    calls, self_s = totals["calls"], totals["self_s"]
    out = {}
    for name in per_layer_names:
        base, _, kind = name.rpartition(".")
        if kind == "calls" and base in calls:
            out[name] = calls[base]
        elif kind == "self_s" and base in self_s:
            out[name] = self_s[base]
    fcalls = calls.get("wrt.f_poly", 0)
    out["wrt.f_poly.hit_ratio"] = (fcalls - totals["fpoly_distinct"]) / fcalls if fcalls else 0.0
    out["analysis.matrix_terms"] = totals["matrix_terms"]
    return out


def merge_totals(parts) -> dict:
    """Sum tracer totals from several processes (distinct f_poly keys add per process)."""
    merged = {"calls": {}, "self_s": {}, "fpoly_distinct": 0, "matrix_terms": 0}
    for part in parts:
        for key in ("calls", "self_s"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["fpoly_distinct"] += part["fpoly_distinct"]
        merged["matrix_terms"] += part["matrix_terms"]
    return merged
