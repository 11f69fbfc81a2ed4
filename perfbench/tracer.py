"""Per-layer tracing by patching the library from outside.

`Tracer.install()` replaces each function named in SPANNED or COUNTED in
every `permutree_lab` module namespace that binds it (`check_word`, for
example, is bound in both `s_weak_order` and `oruga`), and the named methods
on their classes, so the library's internal calls are caught with no change
to its source.

A SPANNED function records a span (id, name, start, end, parent id) and adds
its self time, its duration minus that of its child spans.  A COUNTED
function, one called up to millions of times, only adds to its call count.
Spans and counts stay in memory; `write()` saves them when the pass ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = [
    "weak_order",
    "permutree",
    "vectors",
    "automata",
    "s_weak_order",
    "flows",
    "oruga",
    "bicho",
    "posets",
]

# Spans carry self time.  Besides the functions with a self-time metric, this
# lists every library function the workloads call directly, so that spans of
# top-level calls cover the timed pass.
SPANNED = [
    "weak_order.perm_from_inversions",
    "weak_order.weak_order_hasse",
    "weak_order.evaluate_word",
    "permutree.insert",
    "permutree.rotation_lattice",
    "vectors.meet_via_inversions",
    "vectors.cubical_embedding",
    "automata.permutree_sort",
    "automata.coxeter_sort",
    "automata.avoids_all",
    "automata.product",
    "automata.coxeter_element_sets",
    "s_weak_order.all_words",
    "s_weak_order.s_hasse",
    "s_weak_order.join_candidate",
    "s_weak_order.planarity_ok",
    "s_weak_order.word_from_multiset",
    "s_weak_order.add_ascents",
    "s_weak_order.add_ascents_fixpoint",
    "oruga.build_oru",
    "oruga.default_epsilon",
    "oruga.hasse_from_adjacency",
    "oruga.oruga_height",
    "oruga.vertex_coordinates",
    "oruga.realize",
    "oruga.Realization.to_json",
    "oruga.Realization.coordinate_sum",
    "flows.routes",
    "flows.dual_adjacency_covers",
    "flows.minimal_conflicts",
    "flows.is_admissible",
    "flows.max_cliques",
    "bicho.build_bic",
    "bicho.permutree_clique",
    "bicho.rotation_from_adjacency",
    "posets.Hasse.__init__",
    "posets.Hasse.is_lattice",
    "posets.Hasse.meet",
    "posets.Hasse.to_json",
    "posets.Hasse.cover_pairs",
    "posets.isomorphic_via",
]
COUNTED = [
    "weak_order.transitive_closure_pairs",
    "permutree.rotate",
    "permutree.Permutree.inversion_pairs",
    "s_weak_order.check_composition",
    "s_weak_order.check_word",
    "s_weak_order.inversion_multiset",
    "s_weak_order.tc_closure",
    "s_weak_order.transpose_ascent",
    "oruga.oru_route",
    "oruga.prefix_route",
    "oruga.delta_w",
    "flows.conflicts",
    "flows.resolvents",
    "flows.coherent",
    "posets.Hasse.leq",
]
SPAN_RECORD_CAP = 100_000
PACKAGE = "permutree_lab"


def metric_name(target):
    return target.replace("__init__", "init")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.top_s = 0.0  # time inside spans that have no parent span
        self.spans = []  # (id, name, start, end, parent id)
        self.dropped = 0
        self.sizes = Counter()  # summed len() of selected results
        self.route_keys = set()  # distinct (route, s) given to oruga_height
        self._stack = []  # open spans: [id, child time]
        self._next_id = 0
        self._undo = []

    # --- wrappers -------------------------------------------------------------

    def _counted(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name, fn):
        calls, self_s, stack, spans, clock = (
            self.calls, self.self_s, self._stack, self.spans, time.perf_counter,
        )
        sized = name in ("s_weak_order.s_hasse", "permutree.rotation_lattice")
        routes = name == "oruga.oruga_height"

        def spanned(*args, **kwargs):
            calls[name] += 1
            if routes and len(args) >= 2:
                self.route_keys.add((args[0], tuple(args[1])))
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self_s[name] += took - frame[1]
                if parent is None:
                    self.top_s += took
                else:
                    parent[1] += took
                if len(spans) < SPAN_RECORD_CAP:
                    spans.append((frame[0], name, start, end, parent and parent[0]))
                else:
                    self.dropped += 1
            if sized:
                self.sizes[name] += len(out)
            return out

        return spanned

    # --- patching -------------------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS + ["cli", "verify"]}
        for targets, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for target in targets:
                mod, *path = target.split(".")
                owner = modules[mod]
                for name in path[:-1]:
                    owner = getattr(owner, name, None)
                orig = getattr(owner, path[-1], None)
                if orig is None:  # gone from the library: its metrics read 0
                    continue
                if len(path) == 2:  # a method: patch the class attribute
                    self._set(owner, path[1], make(metric_name(target), orig))
                    continue
                wrapped = make(target, orig)
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            self._set(other, attr, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- results --------------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics of one traced pass that took `wall_s` seconds."""
        out = {}
        for target in SPANNED:
            name = metric_name(target)
            out[f"{name}.self_s"] = self.self_s[name]
        for target in SPANNED + COUNTED:
            name = metric_name(target)
            out[f"{name}.calls"] = self.calls[name]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.split(".")[0] == layer
            )
        out["permutree.rotation_lattice.new_per_rotate"] = _ratio(
            self.sizes["permutree.rotation_lattice"] - self.calls["permutree.rotation_lattice"],
            self.calls["permutree.rotate"],
        )
        out["s_weak_order.s_hasse.new_per_transpose"] = _ratio(
            self.sizes["s_weak_order.s_hasse"] - self.calls["s_weak_order.s_hasse"],
            self.calls["s_weak_order.transpose_ascent"],
        )
        out["oruga.oruga_height.calls_per_route"] = _ratio(
            self.calls["oruga.oruga_height"], len(self.route_keys)
        )
        cached = getattr(importlib.import_module(f"{PACKAGE}.automata"), "_product_cached", None)
        if cached is not None:
            info = cached.cache_info()
            out["automata.product.cache_hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
        out["trace.top_span_share"] = _ratio(self.top_s, wall_s)
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
        }
        path.write_text(json.dumps(data, separators=(",", ":")))


def _ratio(num, den):
    return num / den if den else 0.0
