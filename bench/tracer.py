"""Out-of-program tracer for gradedhecke: wraps public functions from outside.

The package imports names by value (``from .linalg import rref``), so a
wrapper is rebound in every ``gradedhecke.*`` namespace that holds the
original, and methods are patched on their classes.  Each wrapped call opens
a frame on one stack; on exit its duration is added to the enclosing frame,
so a frame's self time is its duration minus what its children cover.

Two kinds of wrappers:

* span: records (id, name, start, end, parent span id, operation id) in
  memory; the spans are written out by ``dump`` at the end of the process.
* counter: hot leaves, called thousands of times per operation, record only
  calls and time, never a span.

``linalg.rank`` is opaque: the ``rref`` it runs is attributed to ``rank``,
so ``linalg.rref`` measures the small dense solves and ``linalg.rank`` the
bar-complex ranks.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


def _cells(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return len(rows) * len(rows[0]) if len(rows) else 0


def _unknowns(args, kwargs, result):
    return args[1] * args[2]


def _order(args, kwargs, result):
    return len(result)


def _dim(args, kwargs, result):
    return result.dim


def _group_key(args, kwargs, result):
    return id(args[0]), args[0]


def _parabolic_key(args, kwargs, result):
    return (id(args[0]), tuple(args[1])), args[0]


# (name, module, attribute path, kind, size counters, distinct-key function)
TARGETS = (
    ("linalg.rref", "linalg", "rref", "span", {"cells": _cells}, None),
    ("linalg.rank", "linalg", "rank", "opaque", {"cells": _cells}, None),
    ("linalg.intertwiner_matrices", "linalg", "intertwiner_matrices", "span",
     {"unknowns": _unknowns}, None),
    ("linalg.charpoly", "linalg", "charpoly", "span", {}, None),
    ("linalg.mat_mul", "linalg", "mat_mul", "counter", {}, None),
    ("rootdata.parabolic", "rootdata", "parabolic", "span", {}, None),
    ("weyl.enumerate_group", "weyl", "enumerate_group", "span",
     {"order": _order}, None),
    ("weyl.conjugacy_census", "weyl", "conjugacy_census", "span", {},
     _group_key),
    ("weyl.WeylGroup.mult", "weyl", "WeylGroup.mult", "counter", {}, None),
    ("poly.substitute_linear", "poly", "substitute_linear", "counter", {},
     None),
    ("poly.act_matrix", "poly", "act_matrix", "counter", {}, None),
    ("poly.divided_difference", "poly", "divided_difference", "counter", {},
     None),
    ("poly.molien_forms", "poly", "molien_forms", "span", {}, None),
    ("hecke.HeckeAlgebra.multiply", "hecke", "HeckeAlgebra.multiply", "span",
     {}, None),
    ("modules.parabolic_algebra", "modules", "parabolic_algebra", "span", {},
     _parabolic_key),
    ("modules.induce", "modules", "induce", "span", {"dim": _dim}, None),
    ("modules.FinModule.verify", "modules", "FinModule.verify", "span", {},
     None),
    ("modules.weights", "modules", "weights", "span", {}, None),
    ("modules.hom_space", "modules", "hom_space", "span", {}, None),
    ("modules.decompose", "modules", "decompose", "span", {}, None),
    ("modules.equivalent", "modules", "equivalent", "span", {}, None),
    ("modules.auto_catalog", "modules", "auto_catalog", "span", {}, None),
    ("modules.irr0_census", "modules", "irr0_census", "span", {}, None),
    ("homology.hochschild_boundary", "homology", "hochschild_boundary",
     "span", {}, None),
    ("homology.connes_boundary", "homology", "connes_boundary", "span", {},
     None),
    ("homology.verify_mixed_identities", "homology",
     "verify_mixed_identities", "span", {}, None),
    ("homology.crossed_product_census", "homology", "crossed_product_census",
     "span", {}, None),
    ("homology.verify_basis_theorem", "homology", "verify_basis_theorem",
     "span", {}, None),
    ("config.load_config", "config", "load_config", "span", {}, None),
    ("cli.run", "cli", "run", "span", {}, None),
)


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "active", "sizes", "keys")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0          # recursion depth; total_s counts outermost
        self.sizes = {}
        self.keys = {}           # distinct key -> argument kept alive, so
                                 # that its id() is not reused


class Tracer:
    """Wraps the TARGETS in the imported gradedhecke package."""

    def __init__(self):
        self.stats = {t[0]: _Stat() for t in TARGETS}
        self.spans = []
        self.op_id = 0
        self._stack = []         # frames: [child time, innermost span id]
        self._opaque = 0
        self._next_span = 1

    def install(self) -> None:
        modules = {t[1]: importlib.import_module(f"gradedhecke.{t[1]}")
                   for t in TARGETS}
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "gradedhecke" or n.startswith("gradedhecke.")]
        for name, module, path, kind, sizes, key in TARGETS:
            owner = modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, kind, sizes, key)
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for var, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, var, wrapper)

    def _wrap(self, name, fn, kind, sizes, key):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            if kind == "opaque":
                tracer._opaque += 1
            span_id = None
            if kind != "counter":
                span_id = tracer._next_span
                tracer._next_span += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent if span_id is None else span_id]
            stack.append(frame)
            stat.active += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stat.active -= 1
                if kind == "opaque":
                    tracer._opaque -= 1
                dur = end - start
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if not stat.active:
                    stat.total_s += dur
                if stack:
                    stack[-1][0] += dur
                if span_id is not None:
                    spans.append((span_id, name, start, end, parent,
                                  tracer.op_id))
            for stat_name, fn_size in sizes.items():
                stat.sizes[stat_name] = (stat.sizes.get(stat_name, 0)
                                         + fn_size(args, kwargs, result))
            if key is not None:
                k, keepalive = key(args, kwargs, result)
                stat.keys.setdefault(k, keepalive)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Per function: calls, total_s, self_s, size counters, distinct."""
        out = {}
        for name, st in self.stats.items():
            rec = {"calls": st.calls, "total_s": st.total_s,
                   "self_s": st.self_s}
            rec.update(st.sizes)
            if name in _DISTINCT:
                rec["distinct"] = len(st.keys)
            out[name] = rec
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": self.summary(), "spans": self.spans}, fh)


_DISTINCT = {t[0] for t in TARGETS if t[5] is not None}
_SIZES = {t[0]: tuple(t[4]) for t in TARGETS}


def merge(summaries) -> dict:
    """Sum per-function summaries from several traced processes."""
    out = {}
    for summary in summaries:
        for name, rec in summary.items():
            acc = out.setdefault(name, {})
            for stat, value in rec.items():
                acc[stat] = acc.get(stat, 0) + value
    return out


def layer_metrics(merged: dict) -> dict:
    """Flatten a merged summary into ``<module>.<function>.<stat>`` values.

    Functions that the traced processes never called still appear, with
    zero counts and times.  ``distinct_ratio`` is distinct argument keys per
    call, 0 without calls.
    """
    out = {}
    for name, *_ in TARGETS:
        rec = merged.get(name, {})
        calls = rec.get("calls", 0)
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = rec.get("total_s", 0.0)
        out[f"{name}.self_s"] = rec.get("self_s", 0.0)
        for stat in _SIZES[name]:
            out[f"{name}.{stat}"] = rec.get(stat, 0)
        if name in _DISTINCT:
            out[f"{name}.distinct_ratio"] = (rec.get("distinct", 0) / calls
                                             if calls else 0.0)
    return out
