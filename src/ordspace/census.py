"""Enumeration of ordinal spaces up to isomorphism, ball-count extremes,
and empirical verdicts for two counting conjectures: maximal ball counts
continuing OEIS A263511, which is open, and the triangular lower bound
n(n+1)/2 on injective-rank spaces, which holds at n = 3 and is refuted at
n = 4 (two four-point classes have 9 balls).

A space on n points is a surjection from the n(n-1)/2 point pairs onto an
initial segment of ranks, so the raw search space for n points has Fubini
(ordered-set-partition) size. Enumeration is orderly (Read 1978, "Every one
a winner"; McKay 1998, "Isomorph-free exhaustive generation"): one
depth-first search assigns levels pair by pair and cuts every prefix that
some point relabeling already makes lexicographically smaller, so each
isomorphism class is emitted exactly once, as its canonical (lex-minimal)
level vector, in sorted order. Nothing is deduplicated afterwards. A
census report enumerates once and reads the class count, both ball
extremes and the line-embeddable count off that one tuple of level
vectors. The bitmask kernel of `balls` counts balls on their rank rows,
and the line screen of `line`, exact for n <= 4, decides
line-embeddability on the same rows. `OrdinalSpace` objects are built
only for the two ball-extreme witnesses.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .balls import _ball_masks, ball_set, hasse, hasse_isomorphic
from .errors import SizeLimitError, SolverError, ValidationError
from .line import _forced_ordering
from .space import OrdinalSpace, _pair_perms, all_pairs

# maximal ball counts conjectured to continue this OEIS prefix
A263511_PREFIX = (1, 3, 6, 12, 19, 29, 40)


def triangular(n: int) -> int:
    return n * (n + 1) // 2


class CensusFilter(Enum):
    ALL = "all"
    INJECTIVE = "injective"


class Verdict(Enum):
    MATCH = "MATCH"
    MISMATCH = "MISMATCH"
    UNTESTED = "UNTESTED"


def fubini(p: int) -> int:
    """Number of ordered set partitions of a p-element set."""
    f = [1]
    for m in range(1, p + 1):
        f.append(sum(math.comb(m, i) * f[m - i] for i in range(1, m + 1)))
    return f[p]


def _orderly_levels(n, injective):
    """Canonical level vectors on n points, in lexicographic order.

    Depth-first over pair positions, levels tried in increasing order. A
    relabeling g reads the vector as w[t] = v[pg[t]]; the prefix dies as
    soon as some g makes w smaller on positions already fixed, and a child
    inherits only the relabelings whose comparison is still open, each with
    the first position not yet decided. A prefix also dies when too few
    positions remain to fill the levels skipped below its maximum.
    """
    p = n * (n - 1) // 2
    identity = tuple(range(p))
    perms = [pg for pg in _pair_perms(n) if pg != identity]
    v = [0] * p
    uses = [0] * (p + 1)
    out = []

    def extend(t, live, top, distinct):
        if t == p:
            out.append(tuple(v))
            return
        for x in range(1, p + 1):
            if injective and uses[x]:
                continue
            new_top = max(top, x)
            new_distinct = distinct + (uses[x] == 0)
            if new_top - new_distinct > p - 1 - t:
                if x > top:
                    break  # every larger level leaves even more unfilled
                continue
            v[t] = x
            undecided = []
            for pg, s in live:
                while s <= t and pg[s] <= t and v[pg[s]] == v[s]:
                    s += 1
                if s > t or pg[s] > t:
                    undecided.append((pg, s))
                elif v[pg[s]] < v[s]:
                    break  # g relabels this prefix to a smaller one
            else:
                uses[x] += 1
                extend(t + 1, undecided, new_top, new_distinct)
                uses[x] -= 1

    extend(0, [(pg, 0) for pg in perms], 0, 0)
    del extend  # the closure refers to itself; unbinding it lets refcounts free out
    return out


def _rank_rows(n, levels):
    """The rank matrix rows of each level vector, lazily. Row c is read out
    of (0,) + vector, where position 0 stands for the center itself."""
    if n == 1:
        return (((0,),) for _ in levels)  # a one-index itemgetter returns no tuple
    at = {}
    for t, (a, b) in enumerate(all_pairs(n), start=1):
        at[a, b] = at[b, a] = t
    rows = [itemgetter(*(at.get((c, x), 0) for x in range(n))) for c in range(n)]
    return ([row((0,) + lv) for row in rows] for lv in levels)


def _ball_counts(n, levels):
    """Ball count of each level vector."""
    return [len(_ball_masks(rows)) for rows in _rank_rows(n, levels)]


def _census_levels(n, filt, huge=False):
    """The one census guard and enumeration: every class wherever ALL is
    allowed (n <= 4, n = 5 with huge), else the injective classes (n <= 5).
    Returns the sorted level vectors, whether they are every class, and the
    indices of the injective ones, their distinct-rank slice."""
    if n < 1:
        raise ValidationError("need at least one point")
    full = n <= (5 if huge else 4)
    if filt is CensusFilter.ALL and not full:
        raise SizeLimitError("census ALL points", n, 5 if huge else 4)
    if n > 5:
        raise SizeLimitError("census INJECTIVE points", n, 5)
    levels = _orderly_levels(n, not full)
    p = n * (n - 1) // 2
    return levels, full, [i for i, lv in enumerate(levels) if max(lv, default=0) == p]


def enumerate_spaces(n: int, filt: CensusFilter = CensusFilter.ALL):
    """All isomorphism classes on n points, canonical representatives in
    sorted order. ALL needs n <= 4; INJECTIVE (all pair ranks distinct)
    needs n <= 5."""
    levels, _, injective = _census_levels(n, filt)
    if filt is CensusFilter.INJECTIVE:
        levels = [levels[i] for i in injective]
    return tuple(OrdinalSpace.from_levels(n, lv) for lv in levels)


def burnside_count(n: int, filt: CensusFilter = CensusFilter.ALL) -> int:
    """Class count straight from the orbit-counting lemma, no enumeration.

    A relabeling fixes an assignment iff the assignment is constant on the
    cycles of the induced pair permutation, so each permutation fixes
    Fubini(#cycles) surjections-onto-initial-segments; injective
    assignments are only fixed by the identity pair permutation.
    """
    p = n * (n - 1) // 2
    total = 0
    for pg in _pair_perms(n):
        seen = [False] * p
        cycles = 0
        for start in range(p):
            if seen[start]:
                continue
            cycles += 1
            t = start
            while not seen[t]:
                seen[t] = True
                t = pg[t]
        if filt is CensusFilter.ALL:
            total += fubini(cycles)
        elif cycles == p:
            total += math.factorial(p)
    return total // math.factorial(n)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class BallExtremes:
    max_balls: int | None
    max_witness: OrdinalSpace | None
    min_balls_distinct: int | None
    min_witness: OrdinalSpace | None
    matches_A263511: Verdict
    matches_triangular: Verdict


def _verdict(got, expected):
    if got is None or expected is None:
        return Verdict.UNTESTED
    return Verdict.MATCH if got == expected else Verdict.MISMATCH


def _extremes(n, levels, full, injective):
    """Ball extremes over one census's sorted level vectors: the maximum
    needs every class (full), the minimum reads the injective classes
    among them. The first class attaining an extreme is its witness."""
    counts = _ball_counts(n, levels)
    max_balls = max_witness = min_balls = min_witness = None
    if full:
        max_balls = max(counts)
        max_witness = OrdinalSpace.from_levels(n, levels[counts.index(max_balls)])
    if n >= 2:  # one point ranks no pair, so the bound is not tested there
        i = min(injective, key=counts.__getitem__)
        min_balls, min_witness = counts[i], OrdinalSpace.from_levels(n, levels[i])
    prefix = A263511_PREFIX[n - 1] if n <= len(A263511_PREFIX) else None
    return BallExtremes(
        max_balls, max_witness, min_balls, min_witness,
        _verdict(max_balls, prefix), _verdict(min_balls, triangular(n)),
    )


@dataclass(frozen=True)
class HasseShapeReport:
    """Shape statistics for the triangular-number conjecture's equality
    clause. Counts are over isomorphism classes of injective-rank spaces:
    once for the attainers of the computed minimum ball count, once for
    the classes attaining exactly n(n+1)/2 balls (these coincide when the
    conjectured bound is the true minimum)."""

    min_balls: int
    expected_min: int
    min_attainers: int
    min_matching: int
    bound_attainers: int
    bound_matching: int
    mismatch_witnesses: tuple  # bound attainers whose diagram differs

    @property
    def bound_is_minimum(self):
        return self.min_balls == self.expected_min

    @property
    def equality_clause_holds(self):
        # reference has exactly n(n+1)/2 vertices, so a matching diagram
        # forces the ball count; only the forward direction can fail
        return self.bound_matching == self.bound_attainers


def minimal_hasse_shape_probe(n: int, reference) -> HasseShapeReport:
    """Compare minimum-ball and triangular-ball injective-rank classes
    against the reference diagram shape."""
    if n not in (3, 4):
        raise ValidationError("shape probe covers n = 3 and 4")
    spaces = enumerate_spaces(n, CensusFilter.INJECTIVE)
    counts = [(len(_ball_masks(s.ranks)), s) for s in spaces]
    minimum = min(c for c, _ in counts)
    min_att = [s for c, s in counts if c == minimum]
    bound_att = [s for c, s in counts if c == triangular(n)]
    matches = lambda s: hasse_isomorphic(hasse(ball_set(s)), reference)
    min_match = sum(map(matches, min_att))
    mismatches = tuple(s for s in bound_att if not matches(s))
    return HasseShapeReport(
        min_balls=minimum,
        expected_min=triangular(n),
        min_attainers=len(min_att),
        min_matching=min_match,
        bound_attainers=len(bound_att),
        bound_matching=len(bound_att) - len(mismatches),
        mismatch_witnesses=mismatches,
    )


@dataclass(frozen=True)
class CensusReport:
    n: int
    filter: CensusFilter
    total_nonisomorphic: int
    burnside_total: int
    extremes: BallExtremes
    r1_embeddable_count: int | None
    runtime_seconds: dict


def census_report(
    n: int,
    filt: CensusFilter = CensusFilter.ALL,
    huge: bool = False,
) -> CensusReport:
    """Class count, ball extremes and line-embeddable count from one
    enumeration, the widest the census guard allows."""
    times = {}
    t0 = time.perf_counter()
    levels, full, injective = _census_levels(n, filt, huge)
    total = len(levels) if filt is CensusFilter.ALL else len(injective)
    times["enumerate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    expected = burnside_count(n, filt)
    times["burnside"] = time.perf_counter() - t0
    if total != expected:
        raise SolverError(f"enumeration found {total} classes, orbit count says {expected}")
    t0 = time.perf_counter()
    extremes = _extremes(n, levels, full, injective)
    times["extremes"] = time.perf_counter() - t0
    r1 = None
    if filt is CensusFilter.ALL and n <= 4:  # where the line screen decides
        t0 = time.perf_counter()
        r1 = sum(_forced_ordering(rows) is not None for rows in _rank_rows(n, levels))
        times["r1"] = time.perf_counter() - t0
    return CensusReport(
        n=n,
        filter=filt,
        total_nonisomorphic=total,
        burnside_total=expected,
        extremes=extremes,
        r1_embeddable_count=r1,
        runtime_seconds=times,
    )
