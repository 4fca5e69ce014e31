"""Spans around the library's layer-boundary functions, from outside the library.

``Tracer.install`` replaces each boundary function by a wrapper in every
``wondertoric`` module namespace that holds it, because a module that did
``from .layers import intersect`` calls its own binding.  Recursive cached
functions (``typea.admissible_trees``) are rebound only in the modules that
import them: the span then covers the call across the layer boundary, and the
recursion inside is counted through ``cache_info()``.

Spans (name, start, end, parent) stay in memory until ``write_spans``.  A
span's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

import wondertoric as wt
import wondertoric.cli  # noqa: F401  (the package does not import its CLI)

# (module, function) pairs at the boundaries of the library's layers
BOUNDARY = (
    ("lattice", "hermite_form"),
    ("lattice", "smith_normal_form"),
    ("layers", "intersect"),
    ("layers", "poset_of_layers"),
    ("layers", "goodness_check"),
    ("fans", "equal_sign_basis"),
    ("fans", "extend_equal_sign_basis"),
    ("fans", "subfan"),
    ("fans", "betti_numbers"),
    ("models", "build_building_set"),
    ("models", "is_well_connected"),
    ("models", "enumerate_nested_sets"),
    ("models", "enumerate_admissible"),
    ("models", "poincare"),
    ("models", "rank_via_blowup_recursion"),
    ("presentation", "emit_presentation"),
    ("series", "tree_series"),
    ("series", "lec_series"),
    ("series", "eulerian_series"),
    ("series", "verify_main_identity"),
    ("series", "verify_lambda_recurrence"),
    ("typea", "admissible_trees"),
    ("typea", "lec"),
    ("cli", "reproduction_text"),
    ("files", "fixture_path"),
    ("files", "load_arrangement"),
    ("files", "load_fan"),
)
RECURSIVE = {("typea", "admissible_trees")}
LAYERS = ("lattice", "layers", "fans", "models", "presentation", "series", "typea", "cli", "files")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {
            "layers.poset.elements": 0,
            "layers.poset.new": 0,
            "models.nested_sets.count": 0,
            "models.admissible.count": 0,
            "presentation.generators.count": 0,
        }
        # cached functions read through cache_info(), taken before install()
        self.caches = {
            "lattice.smith_cache": wt.lattice._smith_of,
            "fans.betti_numbers": wt.fans.betti_numbers,
            "typea.admissible_trees": wt.typea.admissible_trees,
        }
        self.cache_base = {}

    def _wrap(self, name_id: int, fn, on_result):
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_result(self, name: str):
        counts = self.counts

        def poset(args, result):
            torus_dim, layers = args[0], args[1]
            known = set(layers) | {wt.Layer.torus(torus_dim)}
            counts["layers.poset.elements"] += len(result.elements)
            counts["layers.poset.new"] += len(result.elements) - len(known)

        def nested(args, result):
            counts["models.nested_sets.count"] += len(result)

        def admissible(args, result):
            counts["models.admissible.count"] += len(result)

        def generators(args, result):
            counts["presentation.generators.count"] += sum(result.class_sizes())

        return {
            "layers.poset_of_layers": poset,
            "models.enumerate_nested_sets": nested,
            "models.enumerate_admissible": admissible,
            "presentation.emit_presentation": generators,
        }.get(name)

    def install(self) -> None:
        """Wrap every boundary function; call once, after import, before use."""
        modules = [m for n, m in sys.modules.items() if n == "wondertoric" or n.startswith("wondertoric.")]
        for mod_name, fn_name in BOUNDARY:
            home = getattr(wt, mod_name)
            original = getattr(home, fn_name)
            name = f"{mod_name}.{fn_name}"
            self.names.append(name)
            wrapper = self._wrap(len(self.names) - 1, original, self._on_result(name))
            for mod in modules:
                if (mod_name, fn_name) in RECURSIVE and mod is home:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        self.cache_base = {k: f.cache_info() for k, f in self.caches.items()}

    def metrics(self) -> dict[str, float]:
        """Per-layer counters and times of everything traced so far."""
        n = len(self.span_name)
        names = [self.names[i] for i in self.span_name]
        parent = self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]

        def ancestors(i):
            p = parent[i]
            while p >= 0:
                yield names[p]
                p = parent[p]

        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        total_s = dict.fromkeys(self.names, 0.0)
        poset_intersects = 0
        for i in range(n):
            name = names[i]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            anc = set(ancestors(i))
            if name not in anc:
                total_s[name] += dur[i]
            if name == "layers.intersect" and "layers.poset_of_layers" in anc:
                poset_intersects += 1

        out: dict[str, float] = {}
        for layer in LAYERS:
            fns = [f for f in self.names if f.split(".")[0] == layer]
            out[f"{layer}.calls"] = sum(calls[f] for f in fns)
            out[f"{layer}.self_s"] = sum(self_s[f] for f in fns)
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.s"] = total_s[name]
        out["layers.poset_of_layers.intersect_calls"] = poset_intersects
        out.update(self.counts)
        out["layers.poset.new_per_intersect"] = (
            self.counts["layers.poset.new"] / poset_intersects if poset_intersects else 0.0
        )
        for key, fn in self.caches.items():
            now, base = fn.cache_info(), self.cache_base[key]
            hits, misses = now.hits - base.hits, now.misses - base.misses
            out[f"{key}.hits"] = hits
            out[f"{key}.misses"] = misses
            out[f"{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def write_spans(self, path, header: dict) -> None:
        """One JSON line with the header and the span names, then one
        [name, start, end, parent] line per span, in start order."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, names=self.names)) + "\n")
            for name, start, end, parent in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            ):
                fh.write(f"[{name}, {start!r}, {end!r}, {parent}]\n")
