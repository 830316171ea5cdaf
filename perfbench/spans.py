"""Spans around calls into ordspace, recorded from outside the package.

Each traced function is wrapped once, and every attribute of every loaded
ordspace module that refers to it is rebound to the wrapper, so calls the
package makes to itself (census -> ball_set, line -> simplex.solve_lp) are
timed as well. A name the package no longer has is skipped: its metrics
read zero and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

# layer -> (module, function names); a layer may cover several functions
LAYERS = {
    "census.enumerate": ("ordspace.census", ("enumerate_spaces",)),
    "space.canonical_form": ("ordspace.space", ("canonical_form",)),
    "space.ordinal_type": ("ordspace.space", ("ordinal_type",)),
    "space.from_comparisons": ("ordspace.space", ("from_comparisons",)),
    "space.find_isomorphism": ("ordspace.space", ("find_isomorphism",)),
    "balls.ball_set": ("ordspace.balls", ("ball_set",)),
    "balls.hasse": ("ordspace.balls", ("hasse",)),
    "balls.hasse_isomorphic": ("ordspace.balls", ("hasse_isomorphic",)),
    "line.classify_four_point": ("ordspace.line", ("classify_four_point",)),
    "line.embed_line": ("ordspace.line", ("embed_line",)),
    "simplex.solve_lp": ("ordspace.simplex", ("solve_lp",)),
    "euclid.realize_simplex": ("ordspace.euclid", ("realize_simplex",)),
    "orddist.d_ord": ("ordspace.orddist", ("d_ord",)),
    "formats.parse": (
        "ordspace.formats",
        ("parse_rank_matrix", "parse_distance_csv", "parse_comparisons", "parse_hasse"),
    ),
}

# metric name -> (unit, better); every one is reported on every workload
PER_LAYER = {
    "census.enumerate_calls": ("count", "lower"),
    "census.enumerate_s": ("s", "lower"),
    "census.extremes_s": ("s", "lower"),
    "census.r1_s": ("s", "lower"),
    "space.canonical_form_calls": ("count", "lower"),
    "space.canonical_form_s": ("s", "lower"),
    "space.ordinal_type_s": ("s", "lower"),
    "space.from_comparisons_s": ("s", "lower"),
    "space.find_isomorphism_s": ("s", "lower"),
    "balls.ball_set_calls": ("count", "lower"),
    "balls.ball_set_s": ("s", "lower"),
    "balls.hasse_s": ("s", "lower"),
    "balls.hasse_isomorphic_s": ("s", "lower"),
    "line.classify_four_point_s": ("s", "lower"),
    "line.embed_line_calls": ("count", "lower"),
    "line.embed_line_s": ("s", "lower"),
    "line.embed_line_tail_ms": ("ms", "lower"),
    "line.scan_s": ("s", "lower"),
    "line.lp_per_call": ("ratio", "lower"),
    "line.witness_per_lp": ("ratio", "higher"),
    "simplex.solve_lp_calls": ("count", "lower"),
    "simplex.solve_lp_s": ("s", "lower"),
    "euclid.realize_simplex_calls": ("count", "lower"),
    "euclid.realize_simplex_s": ("s", "lower"),
    "orddist.d_ord_calls": ("count", "lower"),
    "orddist.d_ord_s": ("s", "lower"),
    "orddist.d_ord_tail_ms": ("ms", "lower"),
    "formats.parse_calls": ("count", "lower"),
    "formats.parse_s": ("s", "lower"),
}


class Tracer:
    """Spans in memory: (layer, start, end, parent index, returned non-None).
    Recording is on only while `active` is set, so the benchmark's own
    checks, which call some of the same functions, leave no spans."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []

    def wrap(self, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = result is not None
                return result
            finally:
                # a tuple of numbers and a str, which the garbage collector
                # stops tracking, so many spans do not slow collections
                spans[index] = (layer, start, clock(), parent, returned)
                stack.pop()

        return traced

    def install(self):
        """Import every ordspace module and rebind each traced function,
        wherever a module refers to it, to its wrapper."""
        package = importlib.import_module("ordspace")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"ordspace.{info.name}")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ordspace" or name.startswith("ordspace."))]
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules.get(module_name)
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    continue
                wrapper = self.wrap(layer, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)

    def metrics(self, items, census_stages):
        """Per-layer metrics for a timed phase of `items` user-level calls;
        `census_stages` sums each census report's runtime_seconds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        by_layer = {}
        for index, (layer, t0, t1, parent, _) in enumerate(spans):
            by_layer.setdefault(layer, []).append(index)

        def durations(layer):
            return [spans[i][2] - spans[i][1] for i in by_layer.get(layer, ())]

        def calls(layer):
            return len(by_layer.get(layer, ())) / items

        def seconds(layer):
            return sum(durations(layer)) / items

        def tail_ms(layer):
            d = sorted(durations(layer))
            return 1000 * d[max(len(d) - 11, 0)] if d else 0.0

        embeds = by_layer.get("line.embed_line", ())
        embed_set = set(embeds)
        lps_in_embed = 0
        for i in by_layer.get("simplex.solve_lp", ()):
            p = spans[i][3]
            while p >= 0 and p not in embed_set:
                p = spans[p][3]
            lps_in_embed += p >= 0
        witnesses = sum(spans[i][4] for i in embeds)

        values = {
            "census.enumerate_calls": calls("census.enumerate"),
            "census.enumerate_s": seconds("census.enumerate"),
            "census.extremes_s": census_stages.get("extremes", 0.0) / items,
            "census.r1_s": census_stages.get("r1", 0.0) / items,
            "space.canonical_form_calls": calls("space.canonical_form"),
            "space.canonical_form_s": seconds("space.canonical_form"),
            "space.ordinal_type_s": seconds("space.ordinal_type"),
            "space.from_comparisons_s": seconds("space.from_comparisons"),
            "space.find_isomorphism_s": seconds("space.find_isomorphism"),
            "balls.ball_set_calls": calls("balls.ball_set"),
            "balls.ball_set_s": seconds("balls.ball_set"),
            "balls.hasse_s": seconds("balls.hasse"),
            "balls.hasse_isomorphic_s": seconds("balls.hasse_isomorphic"),
            "line.classify_four_point_s": seconds("line.classify_four_point"),
            "line.embed_line_calls": calls("line.embed_line"),
            "line.embed_line_s": seconds("line.embed_line"),
            "line.embed_line_tail_ms": tail_ms("line.embed_line"),
            "line.scan_s": sum(spans[i][2] - spans[i][1] - child_time[i] for i in embeds) / items,
            "line.lp_per_call": lps_in_embed / len(embeds) if embeds else 0.0,
            "line.witness_per_lp": witnesses / lps_in_embed if lps_in_embed else 0.0,
            "simplex.solve_lp_calls": calls("simplex.solve_lp"),
            "simplex.solve_lp_s": seconds("simplex.solve_lp"),
            "euclid.realize_simplex_calls": calls("euclid.realize_simplex"),
            "euclid.realize_simplex_s": seconds("euclid.realize_simplex"),
            "orddist.d_ord_calls": calls("orddist.d_ord"),
            "orddist.d_ord_s": seconds("orddist.d_ord"),
            "orddist.d_ord_tail_ms": tail_ms("orddist.d_ord"),
            "formats.parse_calls": calls("formats.parse"),
            "formats.parse_s": seconds("formats.parse"),
        }
        return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
