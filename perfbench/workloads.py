"""The four workloads: what one user-level call is, how many units of result
it yields, and how its answers are checked.

Calls go through module attributes looked up at call time (m.line.embed_line,
not a bound name), so a traced run sees the wrappers. Every call uses the
public names with their default arguments.
"""

from __future__ import annotations

import importlib
import random
from types import SimpleNamespace

import checks
import gen


def import_modules(names):
    return SimpleNamespace(**{n: importlib.import_module(f"ordspace.{n}") for n in names})


class Workload:
    """Defaults: one unit of result per call, the whole result is the
    answer a repeated call must give again, and no stage timings."""

    def units(self, result):
        return 1

    def answer(self, result):
        return result

    def stages(self, result):
        return {}


class Census(Workload):
    modules = ("census",)

    def __init__(self, name, n, injective):
        self.name, self.n, self.injective = name, n, injective

    def load(self, seed):
        return ((self.n, self.injective),)

    def call(self, m, inp):
        n, injective = inp
        filt = m.census.CensusFilter.INJECTIVE if injective else m.census.CensusFilter.ALL
        return m.census.census_report(n, filt)

    def units(self, report):
        return report.total_nonisomorphic

    def answer(self, r):
        ex = r.extremes
        return (r.total_nonisomorphic, r.burnside_total, r.r1_embeddable_count,
                ex.max_balls, ex.max_witness, ex.min_balls_distinct, ex.min_witness)

    def stages(self, report):
        return report.runtime_seconds

    def check(self, m, inputs, results, seed):
        classes = checks.orbit_count(self.n, self.injective)
        if not self.injective:
            minimum = checks.min_injective_balls(self.n)
            return [p for _, r in results for p in checks.check_census_ties(r, classes, minimum)]
        rng = random.Random(f"{self.name}:{seed}")
        npairs = len(gen.pairs(self.n))
        sample = [tuple(rng.sample(range(1, npairs + 1), npairs)) for _ in range(2000)]
        return [p for _, r in results for p in checks.check_census_injective(r, classes, sample)]


class Embed(Workload):
    name = "embed"
    modules = ("formats", "space", "line", "euclid")

    def load(self, seed):
        return gen.embed_inputs(seed)

    def call(self, m, item):
        if item.fmt == "csv":
            s = m.space.ordinal_type(m.formats.parse_distance_csv(item.text))
        else:
            s = m.space.from_comparisons(m.formats.parse_comparisons(item.text))
        return s, m.line.embed_line(s), m.euclid.realize_simplex(s)

    def check(self, m, inputs, results, seed):
        out = []
        for index, (s, witness, cert) in results:
            item = inputs[index]
            if s.ranks != item.ranks:
                out.append(f"input {index} parsed to other ranks")
                continue
            if item.kind == "line":
                out += checks.check_line_witness(item.ranks, witness)
            else:
                def subspace_of(pts, r=item.ranks):
                    sub = gen.dense_ranks(4, lambda i, j: r[pts[i]][pts[j]])
                    return m.space.OrdinalSpace.from_rows(sub)

                out += checks.check_negative(item.ranks, witness, m.line.classify_four_point, subspace_of)
            out += checks.check_certificate(item.ranks, cert)
        return out


class Distance(Workload):
    name = "distance"
    modules = ("formats", "space", "orddist", "balls")

    def load(self, seed):
        return gen.distance_inputs(seed)

    def call(self, m, item):
        a = m.formats.parse_rank_matrix(item.text_a)
        b = m.formats.parse_rank_matrix(item.text_b)
        result = m.orddist.d_ord(a, b)
        iso = m.space.find_isomorphism(a, b)
        hasse_iso = m.balls.hasse_isomorphic(m.balls.hasse(m.balls.ball_set(a)),
                                             m.balls.hasse(m.balls.ball_set(b)))
        return a, b, result, iso, hasse_iso

    def check(self, m, inputs, results, seed):
        out = []
        for index, (a, b, result, iso, hasse_iso) in results:
            item = inputs[index]
            if (a.ranks, b.ranks) != (item.ranks_a, item.ranks_b):
                out.append(f"pair {index} parsed to other ranks")
                continue
            exhaustive = checks.exhaustive_distance(item.ranks_a, item.ranks_b)
            out += checks.check_distance(item, result, iso, hasse_iso, exhaustive)
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Census("census_ties", 4, injective=False),
        Census("census_injective", 5, injective=True),
        Embed(),
        Distance(),
    )
}
