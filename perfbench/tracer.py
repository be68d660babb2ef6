"""Span tracer that wraps the library's public layer functions from outside.

`install` replaces each function listed in LAYERS, in every zonobalance
module namespace that holds it (the package, the defining module and each
module that imported it by name), with a wrapper that records a span:
name, start, end, parent span, instance id, an optional note taken from
the call, and whether an exception passed through.  Spans stay in memory
until `write`; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import sys
from time import perf_counter

import numpy as np


def _partial_k(args, kwargs, result):
    y = args[2] if len(args) > 2 else kwargs["y"]
    return len(y)


# (module, function, span name, note(args, kwargs, result) or None)
LAYERS = (
    ("convex", "lp_solve", "convex.lp", lambda a, k, r: float(not r.is_optimal)),
    ("convex", "project_polyhedron", "convex.project", None),
    ("zonotope", "preprocess", "zonotope.preprocess", None),
    ("zonotope", "zonotope_norm", "zonotope.norm", None),
    ("coloring", "balance", "coloring.balance", None),
    ("coloring", "partial_coloring", "coloring.partial", _partial_k),
    ("verify", "width_estimate", "verify.width", None),
    ("lewis", "lewis_position", "lewis.position", lambda a, k, r: r.iterations),
)

ROOT = "instance"
NAME, START, END, PARENT, INSTANCE, NOTE, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, instance: int) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, instance, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.spans[self._stack[-1]] if self._stack else None
            span = self._open(name, parent[INSTANCE] if parent else -1)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = perf_counter()
                span[ERROR] = True
                raise
            finally:
                self._stack.pop()
            span[END] = perf_counter()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every LAYERS function wherever a zonobalance module holds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "zonobalance" or name.startswith("zonobalance.")]
        for mod_name, fn_name, span_name, note in LAYERS:
            original = getattr(sys.modules["zonobalance." + mod_name], fn_name)
            wrapper = self._wrap(span_name, original, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def root(self, instance: int):
        """The root span of one instance."""
        span = self._open(ROOT, instance)
        span[START] = perf_counter()
        try:
            yield
        except BaseException:
            span[ERROR] = True
            raise
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def durations(self) -> np.ndarray:
        return np.array([s[END] - s[START] for s in self.spans])

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations()
        parent = np.array([s[PARENT] for s in self.spans], dtype=int)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "instance", "note", "error"])
            out.writerows(self.spans)


def span_metrics(tracer: Tracer, instances: int) -> dict[str, float]:
    """Per-layer figures from the spans, per traced instance unless the
    name says otherwise (ms_per_call)."""
    names = np.array([s[NAME] for s in tracer.spans])
    parent = np.array([s[PARENT] for s in tracer.spans], dtype=int)
    notes = np.array([np.nan if s[NOTE] is None else s[NOTE] for s in tracer.spans])
    errors = np.array([s[ERROR] for s in tracer.spans], dtype=bool)
    dur = tracer.durations()
    own = tracer.self_times()

    def pick(name):
        return names == name

    def per(x):
        return float(x) / instances

    out = {}
    for layer in ("convex.project", "convex.lp"):
        sel = pick(layer)
        calls = int(sel.sum())
        out[f"{layer}.calls"] = per(calls)
        out[f"{layer}.s"] = per(dur[sel].sum())
        out[f"{layer}.ms_per_call"] = 1e3 * float(dur[sel].sum()) / calls if calls else 0.0
        out[f"{layer}.errors"] = per(errors[sel].sum())
    out["convex.lp.nonoptimal"] = per(np.nansum(notes[pick("convex.lp")]))

    pre = pick("zonotope.preprocess")
    norm = pick("zonotope.norm")
    pre_ids = np.flatnonzero(pre)
    out["zonotope.preprocess.s"] = per(dur[pre].sum())
    out["zonotope.preprocess.self_s"] = per(own[pre].sum())
    out["zonotope.preprocess.norm_calls"] = per(np.isin(parent[norm], pre_ids).sum())
    out["zonotope.norm.calls"] = per(norm.sum())
    out["zonotope.norm.self_s"] = per(own[norm].sum())

    partial = pick("coloring.partial")
    endpoint = partial & (notes <= 2)
    out["coloring.balance.self_s"] = per(own[pick("coloring.balance")].sum())
    out["coloring.partial.calls"] = per(partial.sum())
    out["coloring.partial.self_s"] = per(own[partial].sum())
    out["coloring.endpoint.calls"] = per(endpoint.sum())
    out["coloring.endpoint.s"] = per(dur[endpoint].sum())

    out["verify.width.s"] = per(dur[pick("verify.width")].sum())

    lewis = pick("lewis.position")
    out["lewis.position.s"] = per(dur[lewis].sum())
    out["lewis.iterations"] = per(np.nansum(notes[lewis]))
    return out
