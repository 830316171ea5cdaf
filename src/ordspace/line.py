"""Order structure of the real line: majorization, exact 1-D embedding,
the four-point classification, and class-profile conditions.

Index sequences are 1-based positions into an enumeration (an ordering of
the points). A sequence (i_0, ..., i_k) is nondecreasing; consecutive
entries cut the enumeration into intervals whose ranks are compared between
two sequences of equal length by multiset matching.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import simplex
from .errors import SizeLimitError, SolverError, ValidationError
from .space import OrdinalSpace, Relation, _cmp, _ranks_like, _top_pairs, dp_pairs

DEFAULT_LIMIT = 8


class SeqRelation(enum.Enum):
    PREC = "PREC"
    EQUIV = "EQUIV"
    NEITHER = "NEITHER"


class MajorizationMode(enum.Enum):
    FULL = "FULL"
    CONSECUTIVE = "CONSECUTIVE"


@dataclass(frozen=True)
class IndexSequence:
    """Nondecreasing tuple of 1-based positions, at least two entries."""

    indices: tuple

    def __post_init__(self):
        idx = self.indices
        if len(idx) < 2:
            raise ValidationError("an index sequence needs at least two entries")
        if any(b < a for a, b in zip(idx, idx[1:])):
            raise ValidationError("index sequence must be nondecreasing")
        if idx[0] < 1:
            raise ValidationError("positions are 1-based")


def _as_indices(seq, n):
    idx = seq.indices if isinstance(seq, IndexSequence) else tuple(seq)
    IndexSequence(idx)
    if idx[-1] > n:
        raise ValidationError(f"position {idx[-1]} outside 1..{n}")
    return idx


def _check_enumeration(enumeration, n):
    e = tuple(enumeration)
    if sorted(e) != list(range(n)):
        raise ValidationError("enumeration must be a permutation of the points")
    return e


def interval_ranks(s: OrdinalSpace, enumeration, seq):
    """Ranks of the consecutive intervals of seq under the enumeration;
    a repeated position yields a zero interval."""
    e = _check_enumeration(enumeration, s.n)
    idx = _as_indices(seq, s.n)
    return tuple(
        s.ranks[e[a - 1]][e[b - 1]] for a, b in zip(idx, idx[1:])
    )


def compare_sequences(s: OrdinalSpace, a, b, enumeration) -> SeqRelation:
    """Multiset comparison of interval ranks of two equal-length sequences.

    EQUIV: some pairing matches all interval ranks exactly; PREC: some
    pairing is componentwise <= with at least one strict. Both reduce to
    comparing the sorted rank tuples: if a pairing with a_i <= b_pi(i)
    exists then for every threshold the count of a-ranks above it is at
    most the b-count, which is exactly sorted dominance, and the sorted
    pairing realizes it back. Equal multisets admit no strictly slack
    pairing because the totals agree.
    """
    ia = _as_indices(a, s.n)
    ib = _as_indices(b, s.n)
    if len(ia) != len(ib):
        raise ValidationError("sequences must have equal length")
    ra = sorted(interval_ranks(s, enumeration, ia))
    rb = sorted(interval_ranks(s, enumeration, ib))
    if ra == rb:
        return SeqRelation.EQUIV
    if all(x <= y for x, y in zip(ra, rb)):
        return SeqRelation.PREC
    return SeqRelation.NEITHER


@dataclass(frozen=True)
class MajorizationResult:
    ok: bool
    counterexample: tuple | None  # (seq_a, seq_b) or None

    def __bool__(self):
        return self.ok


def _strict_sequences(n, mode):
    """Strictly increasing position sequences of each length 2..n, grouped
    by length. CONSECUTIVE keeps only contiguous runs (i, i+1, ..., j)."""
    by_len = {}
    for m in range(2, n + 1):
        if mode is MajorizationMode.CONSECUTIVE:
            seqs = [tuple(range(i, i + m)) for i in range(1, n - m + 2)]
        else:
            seqs = [tuple(c) for c in itertools.combinations(range(1, n + 1), m)]
        by_len[m] = seqs
    return by_len


def check_majorization(
    s: OrdinalSpace, enumeration, mode: MajorizationMode = MajorizationMode.FULL
) -> MajorizationResult:
    """Does the enumeration majorize: every PREC pair of equal-length
    sequences has strictly ordered endpoint ranks, every EQUIV pair equal
    endpoint ranks?

    Dedup lemma: it is enough to compare strictly increasing sequences,
    padding the shorter one with copies of its first position. In a
    nondecreasing pair, zero intervals of the dominating side must pair
    with zeros of the other (nothing is below 0), and surplus zeros on the
    dominated side pair with anything; cancelling matched zeros leaves
    exactly the padded-core comparison, and the endpoints are those of the
    cores. A sequence with no proper interval never violates: its endpoint
    rank is 0, below every proper pair's rank.
    """
    e = _check_enumeration(enumeration, s.n)
    seqs = _strict_sequences(s.n, mode)
    rank_cache = {}
    for m, group in seqs.items():
        for t in group:
            ivals = sorted(
                s.ranks[e[a - 1]][e[b - 1]] for a, b in zip(t, t[1:])
            )
            rank_cache[t] = (ivals, s.ranks[e[t[0] - 1]][e[t[-1] - 1]])
    for qlen in range(2, s.n + 1):
        for plen in range(2, qlen + 1):
            pad = qlen - plen
            for a in seqs[plen]:
                ivals_a, end_a = rank_cache[a]
                for b in seqs[qlen]:
                    ivals_b, end_b = rank_cache[b]
                    # zero padding sorts in front; compare top-aligned
                    if any(
                        ivals_a[i] > ivals_b[i + pad] for i in range(plen - 1)
                    ):
                        continue
                    if pad == 0 and ivals_a == ivals_b:
                        if end_a != end_b:
                            return MajorizationResult(False, (a, b))
                    elif end_a >= end_b:
                        padded_a = (a[0],) * pad + a
                        return MajorizationResult(False, (padded_a, b))
    return MajorizationResult(True, None)


def _is_nested(r):
    """Nesting condition of an ordering, on its rank matrix r read along
    it: every pair strictly inside (i, j) ranks strictly below it.
    Shrinking (i, j) by one step at either end reaches every inner pair, so
    the adjacent steps suffice."""
    return all(
        r[i][j] > r[i + 1][j] and r[i][j] > r[i][j - 1]
        for i in range(len(r))
        for j in range(i + 2, len(r))
    )


def _crosses(r):
    """Crossing condition of an ordering, on its rank matrix r read along
    it: for positions i < k < j < l, (i, j) compares with (k, l) as (i, k)
    does with (j, l). On a line d(i, j) - d(k, l) = d(i, k) - d(j, l)."""
    return all(
        _cmp(r[i][j], r[k][l]) is _cmp(r[i][k], r[j][l])
        for i, k, j, l in itertools.combinations(range(len(r)), 4)
    )


def _forced_ordering(ranks):
    """The line screen on a rank matrix: the one point ordering, first
    point < last, that a line embedding or a majorizing enumeration can
    have, if it is nested and crosses; otherwise None.

    A nested ordering runs from the lower endpoint of the unique top-rank
    pair through the other points sorted by their rank from it (the strict
    Robinson order; Prea & Fortin 2014). Both conditions are necessary (for
    a majorizing enumeration, crossing compares (i, k, j) with (k, j, l));
    together they are exact for n <= 4, and below 4 crossing is vacuous.
    """
    if len(ranks) == 1:
        return (0,)
    top = _top_pairs(ranks)
    if len(top) != 1:
        return None
    e = tuple(sorted(range(len(ranks)), key=ranks[top[0][0]].__getitem__))
    r = [[ranks[a][b] for b in e] for a in e]
    return e if _is_nested(r) and _crosses(r) else None


def find_majorizing_enumeration(s: OrdinalSpace, limit: int = DEFAULT_LIMIT):
    """A majorizing enumeration with first point < last point, or None.

    Tests only the ordering that passes the line screen: any majorizing
    enumeration is nested and crosses, and an enumeration majorizes iff
    its reversal does.
    """
    if s.n > limit:
        raise SizeLimitError("find_majorizing_enumeration", s.n, limit)
    e = _forced_ordering(s.ranks)
    return e if e is not None and check_majorization(s, e).ok else None


# ---------------------------------------------------------------------------
# exact 1-D embedding

@dataclass(frozen=True)
class LineWitness:
    """Exact line realization: point at position p sits at the sum of the
    first p gaps; margin is the optimized slack of the strict inequalities
    and the smallest gap."""

    ordering: tuple  # position -> point index
    gaps: tuple  # n-1 positive Fractions summing to 1
    margin: Fraction

    def coordinates(self):
        coords = [Fraction(0)]
        for g in self.gaps:
            coords.append(coords[-1] + g)
        return tuple(coords)


def _margin_lp(s, ordering):
    """Margin-maximizing LP for a fixed point order; a witness exists for
    this order iff the optimum margin is strictly positive."""
    n = s.n
    m = n - 1  # variables: the gaps, then the margin t

    def gaps_of(p, q):
        return [int(p <= g < q) for g in range(m)]

    by_rank = {}
    for p in range(n):
        for q in range(p + 1, n):
            by_rank.setdefault(s.ranks[ordering[p]][ordering[q]], []).append((p, q))
    groups = [by_rank[r] for r in sorted(by_rank)]
    reps = [gaps_of(*group[0]) for group in groups]

    # each gap >= t; pairs of one rank equally long; each rank >= t above
    # the one below; the gaps sum to 1
    constraints = [(gaps_of(g, g + 1) + [-1], ">=", 0) for g in range(m)]
    for rep, group in zip(reps, groups):
        for other in group[1:]:
            constraints.append(([a - b for a, b in zip(gaps_of(*other), rep)] + [0], "==", 0))
    for lo, hi in zip(reps, reps[1:]):
        constraints.append(([a - b for a, b in zip(hi, lo)] + [-1], ">=", 0))
    constraints.append(([1] * m + [0], "==", 1))

    objective = [0] * m + [1]
    status, x, value = simplex.solve_lp(objective, constraints)
    if status == simplex.UNBOUNDED:
        raise SolverError("margin LP unbounded; constraint assembly is broken")
    if status != simplex.OPTIMAL or value <= 0:
        return None
    witness = LineWitness(tuple(ordering), tuple(x[:m]), x[m])
    at = dict(zip(ordering, witness.coordinates()))
    if not _ranks_like(s, [abs(at[i] - at[j]) for i, j in s.pairs()]):
        raise SolverError("line witness failed exact re-verification")
    return witness


def embed_line(s: OrdinalSpace, limit: int = DEFAULT_LIMIT):
    """Exact 1-D embedding decision: the margin LP on the one point order
    (up to reversal) that passes the line screen.

    A line realization's order is nested and crosses, so no other order
    needs testing. Floating point never enters: the order is integer
    comparisons and the LP is exact. Returns a verified LineWitness or None.
    """
    n = s.n
    if n > limit:
        raise SizeLimitError("embed_line", n, limit)
    if n == 1:
        return LineWitness((0,), (), Fraction(1))
    ordering = _forced_ordering(s.ranks)
    return None if ordering is None else _margin_lp(s, ordering)


# ---------------------------------------------------------------------------
# four-point classification

NOT_EMBEDDABLE = None

_EQUAL_DIAG_TAGS = {Relation.LT: "d3", Relation.EQ: "d2", Relation.GT: "d1"}  # by cmp(d23, d12)


def _pattern_tag(d12, d13, d23, d24, d34):
    """Tag of a configuration already known to satisfy the enumeration
    conditions, with d13 >= d24."""
    if d13 == d24:
        return _EQUAL_DIAG_TAGS[_cmp(d23, d12)]
    c_12_24 = _cmp(d12, d24)
    c_23_34 = _cmp(d23, d34)
    if c_12_24 is Relation.GT:
        return {Relation.GT: "d4", Relation.EQ: "d5", Relation.LT: "d6"}[c_23_34]
    if c_12_24 is Relation.EQ:
        return {Relation.GT: "d7", Relation.EQ: "d8", Relation.LT: "d9"}[c_23_34]
    c_12_23 = _cmp(d12, d23)
    if c_12_23 is Relation.GT:
        return {Relation.GT: "d10", Relation.EQ: "d11", Relation.LT: "d12"}[c_23_34]
    if c_12_23 is Relation.EQ:
        return "d13"
    return "d15"


def classify_four_point(s: OrdinalSpace):
    """Line-embeddability case tag of a 4-point space, or None.

    An enumeration matches the characteristic pattern when its ranks form
    the chain d12 < d13 < d14 > d24 > d34 with d23 below d13 and d24, and
    d13 compares with d24 as d12 does with d34: nesting and crossing, so
    only the ordering that passes the line screen matches; of it and its
    reversal (both match or neither) it is the first of the 24 in order.
    Its tag is returned; a mirror-* tag marks d13 < d24.
    """
    if s.n != 4:
        raise ValidationError("four-point classification needs exactly 4 points")
    e = _forced_ordering(s.ranks)
    if e is None:
        return NOT_EMBEDDABLE
    d = lambda i, j: s.ranks[e[i - 1]][e[j - 1]]
    d12, d13, d23, d24, d34 = d(1, 2), d(1, 3), d(2, 3), d(2, 4), d(3, 4)
    if d13 >= d24:
        return _pattern_tag(d12, d13, d23, d24, d34)
    # reversing the enumeration swaps d12 with d34 and d13 with d24
    return "mirror-" + _pattern_tag(d34, d24, d23, d13, d12)


# ---------------------------------------------------------------------------
# class profiles

def class_profile(s: OrdinalSpace):
    """Sizes of the rank classes from the largest rank down: entry i is the
    number of pairs in the (i+1)-th most distant class."""
    if s.n < 2:
        raise ValidationError("class profile needs at least 2 points")
    return tuple(len(c) for c in reversed(s.level_classes()))


def profile_necessary_check(s: OrdinalSpace):
    """Necessary profile conditions for a line embedding: at least n-1
    classes, a singleton top class, and the i-th class no larger than i.
    Returns (ok, reason)."""
    profile = class_profile(s)
    if len(profile) < s.n - 1:
        k = len(profile)
        return False, f"only {k} class{'' if k == 1 else 'es'} for {s.n} points"
    if profile[0] != 1:
        return False, f"top class has {profile[0]} pairs"
    for i, size in enumerate(profile, start=1):
        if size > i:
            return False, f"class {i} has {size} > {i} pairs"
    return True, None


@dataclass(frozen=True)
class ProfileEquivalenceReport:
    """Three profile statements that agree on every line-embeddable space:
    exactly n-1 classes; the nearest class holds n-1 pairs; the profile is
    the staircase (1, 2, ..., n-1)."""

    class_count_is_nm1: bool
    nearest_class_is_nm1: bool
    profile_is_staircase: bool

    def all_equal(self):
        return (
            self.class_count_is_nm1
            == self.nearest_class_is_nm1
            == self.profile_is_staircase
        )


def profile_equivalence_report(s: OrdinalSpace) -> ProfileEquivalenceReport:
    profile = class_profile(s)
    n = s.n
    return ProfileEquivalenceReport(
        class_count_is_nm1=(len(profile) == n - 1),
        nearest_class_is_nm1=(profile[-1] == n - 1),
        profile_is_staircase=(profile == tuple(range(1, len(profile) + 1))),
    )


def majorization_consequences(s: OrdinalSpace, enumeration):
    """Consequences every majorizing enumeration must satisfy; returns the
    names of violated clauses (empty for a majorizing enumeration).

    The clauses: nested pairs rank strictly below enclosing pairs; ranks
    rise along (first, t) and fall along (t, last); {first, last} is the
    unique diametrical pair; and for positions i < k < j < l the relation
    between (i,j) and (k,l) equals the relation between (i,k) and (j,l).
    """
    e = _check_enumeration(enumeration, s.n)
    n = s.n
    r = [[s.ranks[a][b] for b in e] for a in e]
    holds = {
        "nesting": _is_nested(r),
        "endpoint_chain": all(r[0][t] < r[0][t + 1] for t in range(1, n - 1))
        and all(r[t][n - 1] > r[t + 1][n - 1] for t in range(n - 2)),
        # fewer than two points leave no pair to be diametrical
        "single_diametrical_pair": n < 2 or dp_pairs(s) == (tuple(sorted((e[0], e[-1]))),),
        "crossing_equivalences": _crosses(r),
    }
    return [clause for clause, ok in holds.items() if not ok]


# ---------------------------------------------------------------------------
# conjecture probe

def probe_majorization_conjecture(spaces):
    """Status report for: a majorizing enumeration exists iff an exact line
    embedding exists. The forward direction (embedding implies majorizing)
    is proved and lands in must_hold_failures if ever broken; the
    converse is open and only reported."""
    report = {
        "tested": 0,
        "majorizing": 0,
        "embeddable": 0,
        "must_hold_failures": [],
        "conjecture_counterexamples": [],
    }
    for s in spaces:
        report["tested"] += 1
        enum_found = find_majorizing_enumeration(s)
        witness = embed_line(s)
        if enum_found is not None:
            report["majorizing"] += 1
        if witness is not None:
            report["embeddable"] += 1
            if enum_found is None:
                report["must_hold_failures"].append(s)
        if enum_found is not None and witness is None:
            report["conjecture_counterexamples"].append(s)
    return report
