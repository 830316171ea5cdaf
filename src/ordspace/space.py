"""Core model: finite ordinal spaces as normalized rank matrices.

A finite ordinal space records, for every two point pairs, only which pair
is the more distant one. Normal form: a symmetric n x n integer matrix with
zero diagonal and off-diagonal levels 1..k, every level attained. Level 0 is
reserved for the self pairs, so the matrix alone determines the full
quadruple relation delta(x, y, z, w) = cmp(rank(x, y), rank(z, w)).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AxiomViolation,
    SizeLimitError,
    UnderdeterminedOrder,
    ValidationError,
)

PERM_LIMIT = 8  # point-count guard of the n! scans: canonical form, d_ord


class Relation(enum.Enum):
    LT = "<"
    EQ = "="
    GT = ">"

    def flipped(self):
        if self is Relation.LT:
            return Relation.GT
        if self is Relation.GT:
            return Relation.LT
        return Relation.EQ


# module-level aliases: a global read is cheaper than an enum class attribute
_LT, _EQ, _GT = Relation.LT, Relation.EQ, Relation.GT


def _cmp(a, b):
    return _LT if a < b else _GT if a > b else _EQ


def all_pairs(n):
    """Unordered point pairs in lexicographic order; the pair index used
    throughout the package is the position in this list."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _dense_levels(values):
    """Dense ranks: the distinct values ascending get levels 1..k."""
    level = {v: r for r, v in enumerate(sorted(set(values)), 1)}
    return [level[v] for v in values]


def _ranks_like(s, values):
    """The exact re-check of a witness: are the pair values, in all_pairs
    order, positive and ranked exactly like s?"""
    return all(v > 0 for v in values) and tuple(_dense_levels(values)) == s.level_vector()


@dataclass(frozen=True)
class OrdinalSpace:
    """Normalized rank matrix of a finite ordinal space."""

    n: int
    k: int
    ranks: tuple  # n x n tuple of tuples of ints

    def __post_init__(self):
        n, k, ranks = self.n, self.k, self.ranks
        if n < 1:
            raise ValidationError("need at least one point")
        if len(ranks) != n or any(len(row) != n for row in ranks):
            raise ValidationError("rank matrix shape does not match n")
        seen = set()
        for i in range(n):
            if ranks[i][i] != 0:
                raise ValidationError("diagonal rank must be 0")
            for j in range(i + 1, n):
                r = ranks[i][j]
                if r != ranks[j][i]:
                    raise ValidationError("rank matrix must be symmetric")
                if not 1 <= r <= k:
                    raise ValidationError(f"off-diagonal rank {r} outside 1..{k}")
                seen.add(r)
        if n == 1:
            if k != 0:
                raise ValidationError("one-point space must have k = 0")
        elif len(seen) != k:
            raise ValidationError("every level 1..k must be attained")

    @staticmethod
    def from_rows(rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        k = max((v for row in rows for v in row), default=0)
        return OrdinalSpace(n, k, tuple(tuple(r) for r in rows))

    @staticmethod
    def from_levels(n, levels):
        """The space whose pair ranks, in all_pairs order, are levels."""
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(all_pairs(n), levels):
            rows[i][j] = rows[j][i] = v
        return OrdinalSpace(n, max(levels, default=0), tuple(tuple(r) for r in rows))

    @staticmethod
    def from_values(n, values):
        """The space whose pair ranks, in all_pairs order, are the dense
        ranks of values."""
        return OrdinalSpace.from_levels(n, _dense_levels(values))

    def relation(self, x, y, z, w):
        """delta(x, y, z, w) as a Relation; degenerate pairs rank 0."""
        return _cmp(self.ranks[x][y], self.ranks[z][w])

    def pairs(self):
        return all_pairs(self.n)

    def level_classes(self):
        """Pairs grouped by level, index r-1 holds the rank-r pairs."""
        classes = [[] for _ in range(self.k)]
        for i, j in self.pairs():
            classes[self.ranks[i][j] - 1].append((i, j))
        return tuple(tuple(c) for c in classes)

    def level_vector(self):
        """Ranks listed in pair order; the flattened form used for
        canonicalization and census dedup."""
        return tuple(self.ranks[i][j] for i, j in self.pairs())


@dataclass(frozen=True)
class DistanceMatrix:
    """Exact symmetric distance (or semimetric) matrix over Fractions."""

    n: int
    values: tuple  # n x n tuple of tuples of Fractions

    def __post_init__(self):
        n, v = self.n, self.values
        if n < 1:
            raise ValidationError("need at least one point")
        if len(v) != n or any(len(row) != n for row in v):
            raise ValidationError("distance matrix shape does not match n")
        for i in range(n):
            if v[i][i] != 0:
                raise ValidationError("diagonal distance must be 0")
            for j in range(i + 1, n):
                if v[i][j] != v[j][i]:
                    raise ValidationError("distance matrix must be symmetric")
                if v[i][j] <= 0:
                    raise ValidationError("off-diagonal distances must be positive")

    @staticmethod
    def from_rows(rows):
        conv = tuple(tuple(Fraction(x) for x in row) for row in rows)
        return DistanceMatrix(len(conv), conv)


@dataclass(frozen=True)
class ComparisonList:
    """Raw quadruple comparisons: entries (x, y, z, w, rel) meaning
    delta(x, y) rel delta(z, w). Point indices are 0-based."""

    n: int
    entries: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("need at least one point")
        for e in self.entries:
            if len(e) != 5:
                raise ValidationError(f"entry {e!r} is not a 5-tuple")
            x, y, z, w, rel = e
            for p in (x, y, z, w):
                if not 0 <= p < self.n:
                    raise ValidationError(f"point index {p} out of range in {e!r}")
            if not isinstance(rel, Relation):
                raise ValidationError(f"bad relation in {e!r}")


def ordinal_type(d: DistanceMatrix) -> OrdinalSpace:
    """Rank matrix of a distance matrix: distinct values sorted ascending,
    levels 1..k assigned in that order. Integer values are ranked as ints,
    which hash and compare faster than Fractions; others are not cleared to
    a common denominator, whose size can grow with every distinct one."""
    values = [d.values[i][j] for i, j in all_pairs(d.n)]
    if all(v.denominator == 1 for v in values):
        values = [v.numerator for v in values]
    return OrdinalSpace.from_values(d.n, values)


def realize(s: OrdinalSpace) -> DistanceMatrix:
    """Compatible metric d(x, y) = 1 + rank(x, y) / (2k), exact rationals.

    All distances lie in (1, 3/2], so any three satisfy the triangle
    inequality outright, and ordinal_type(realize(s)) == s.
    """
    rows = [
        [
            Fraction(0) if i == j else 1 + Fraction(s.ranks[i][j], 2 * s.k)
            for j in range(s.n)
        ]
        for i in range(s.n)
    ]
    return DistanceMatrix(s.n, tuple(tuple(r) for r in rows))


def subspace(s: OrdinalSpace, points) -> OrdinalSpace:
    """Induced space on a subset of points, levels renormalized to 1..k'."""
    pts = sorted(points)
    if len(set(pts)) != len(pts) or not pts:
        raise ValidationError("subspace needs a nonempty set of distinct points")
    return OrdinalSpace.from_values(
        len(pts), [s.ranks[a][b] for a, b in itertools.combinations(pts, 2)]
    )


def _top_pairs(ranks):
    """Pairs (i, j), i < j, at the largest entry of a rank matrix."""
    n = len(ranks)
    k = max(map(max, ranks))
    return tuple((i, j) for i in range(n) for j in range(i + 1, n) if ranks[i][j] == k)


def dp_pairs(s: OrdinalSpace):
    """Diametrical pairs: the pairs at the maximal rank."""
    return _top_pairs(s.ranks)


# ---------------------------------------------------------------------------
# comparisons -> space

def from_comparisons(c: ComparisonList) -> OrdinalSpace:
    """Build the normalized space determined by raw comparisons.

    Equalities merge pairs into classes (union-find); strict comparisons
    order the classes in one Kahn walk. Unstated relations are inferred by
    transitivity only. A cycle raises AxiomViolation: walking back from the
    smallest class the walk leaves over closes one, whose strict entries in
    order, each followed by the equalities that join it to the next, are
    the witnesses; the axiom is "iii" for two classes, "v/vi" otherwise.
    Without a cycle, the walk's first step with two sources raises
    UnderdeterminedOrder. Only the pairs that entries mention get
    union-find nodes, so the cost follows the entries, not the pairs.
    """
    n = c.n
    parent = {}

    def pair_of(x, y):
        if x == y:
            return None
        if x > y:
            x, y = y, x
        t = x * (2 * n - x - 1) // 2 + y - x - 1  # index in all_pairs(n)
        parent.setdefault(t, t)
        return t

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # normalize entries to LT/EQ between pair ids, screening the degenerate
    # cases against the self-pair axioms first
    lt_edges = []  # (pair_a, pair_b, entry)
    eq_edges = []
    for e in c.entries:
        x, y, z, w, rel = e
        a, b = pair_of(x, y), pair_of(z, w)
        if rel is Relation.GT:
            a, b, rel = b, a, Relation.LT
        if a is None and b is None:
            if rel is not Relation.EQ:
                raise AxiomViolation("vii", [e])
            continue
        if a is None:  # self pair vs proper pair: forced strictly below
            if rel is Relation.EQ:
                raise AxiomViolation("vii", [e])
            continue
        if b is None:  # proper pair below a self pair contradicts (vii)
            raise AxiomViolation("vii", [e])
        if rel is Relation.EQ:
            eq_edges.append((a, b, e))
        else:
            if a == b:
                raise AxiomViolation("i", [e])
            lt_edges.append((a, b, e))

    eq_adj = {}
    for a, b, e in eq_edges:
        eq_adj.setdefault(a, []).append((b, e))
        eq_adj.setdefault(b, []).append((a, e))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    def eq_path_entries(a, b):
        """Entries along one equality path a ~ ... ~ b (BFS)."""
        prev = {a: None}
        queue = [a]
        while queue:
            v = queue.pop(0)
            if v == b:
                break
            for w, e in eq_adj.get(v, ()):
                if w not in prev:
                    prev[w] = (v, e)
                    queue.append(w)
        out = []
        v = b
        while prev.get(v) is not None:
            v, e = prev[v]
            out.append(e)
        return out[::-1]

    # strict order digraph on classes: pred[rb][ra] is the first entry
    # (as pair ids a, b and the entry) that puts class ra below class rb
    pred = {}
    succ = {}
    for a, b, e in lt_edges:
        ra, rb = find(a), find(b)
        into = pred.setdefault(rb, {})
        if ra not in into:
            into[ra] = (a, b, e)
            succ.setdefault(ra, []).append(rb)

    # one Kahn walk to completion. An unmentioned pair is a class of its own
    # and a source at every step, so the two smallest stand for them all.
    npairs = n * (n - 1) // 2
    unmentioned = itertools.islice((t for t in range(npairs) if t not in parent), 2)
    roots = {find(t) for t in parent}
    indeg = {r: len(pred.get(r, ())) for r in itertools.chain(roots, unmentioned)}
    sources = [r for r in indeg if indeg[r] == 0]
    order = []
    first_fork = None
    while sources:
        if first_fork is None and len(sources) > 1:
            first_fork = sorted(sources)[:2]
        src = sources.pop()
        order.append(src)
        for b in succ.get(src, ()):
            indeg[b] -= 1
            if indeg[b] == 0:
                sources.append(b)

    if len(order) < len(indeg):
        # every class left over has a predecessor left over: walking back
        # from the smallest one must close a cycle
        walk, seen = [min(r for r in indeg if indeg[r])], set()
        while walk[-1] not in seen:
            seen.add(walk[-1])
            walk.append(next(u for u in pred[walk[-1]] if indeg[u]))
        cycle = walk[walk.index(walk[-1]):][:0:-1]  # forwards, from where it closed
        steps = [pred[w][u] for u, w in zip(cycle, cycle[1:] + cycle[:1])]
        witnesses = []
        for (_, b, e), (a, _, _) in zip(steps, steps[1:] + steps[:1]):
            witnesses += [e, *eq_path_entries(b, a)]
        raise AxiomViolation("iii" if len(cycle) == 2 else "v/vi", witnesses)
    if first_fork is not None:
        members = lambda root: tuple(
            _pair_at(n, t) for t in sorted(parent) if find(t) == root
        ) or (_pair_at(n, root),)
        raise UnderdeterminedOrder(*map(members, first_fork))

    level_of_root = {r: lvl + 1 for lvl, r in enumerate(order)}
    levels = [level_of_root[find(t) if t in parent else t] for t in range(npairs)]
    return OrdinalSpace.from_levels(n, levels)


def _pair_at(n, t):
    """The pair at index t of all_pairs(n): row x is the largest with
    x(2n - x - 1)/2 <= t, the smaller root of that quadratic rounded down."""
    x = (2 * n - 2 - math.isqrt((2 * n - 1) ** 2 - 8 * t - 1)) // 2
    return x, t - x * (2 * n - x - 1) // 2 + x + 1


def to_comparisons(s: OrdinalSpace) -> ComparisonList:
    """Minimal comparison list whose inferred closure reproduces s:
    within-class equalities chained to a representative, plus one strict
    comparison between consecutive class representatives."""
    entries = []
    classes = s.level_classes()
    for cls in classes:
        rep = cls[0]
        for p in cls[1:]:
            entries.append((p[0], p[1], rep[0], rep[1], Relation.EQ))
    for lower, upper in zip(classes, classes[1:]):
        a, b = lower[0], upper[0]
        entries.append((a[0], a[1], b[0], b[1], Relation.LT))
    return ComparisonList(s.n, tuple(entries))


# ---------------------------------------------------------------------------
# isomorphism and canonical form

@functools.cache
def _pair_perms(n):
    """For each point permutation, the induced map on pair indices:
    entry t maps pair index t to the index of the image pair."""
    pairs = all_pairs(n)
    index = {p: i for i, p in enumerate(pairs)}
    return [
        tuple(index[tuple(sorted((g[i], g[j])))] for i, j in pairs)
        for g in itertools.permutations(range(n))
    ]


def canonical_level_vector(vec, n):
    """Lexicographically minimal relabeling of a pair-indexed level vector.

    Minimizing the pair vector and minimizing the flattened n x n matrix
    pick the same permutations: reading the matrix row-major, every entry
    before the first occurrence of pair p repeats some pair earlier in pair
    order, so the first position where two flattened matrices differ is the
    first differing pair. Besides `canonical_form`, it is the reference the
    tests check the orderly census's canonical vectors against.
    """
    best = None
    for pg in _pair_perms(n):
        cand = tuple(vec[pg[t]] for t in range(len(vec)))
        if best is None or cand < best:
            best = cand
    return best


def canonical_form(s: OrdinalSpace) -> OrdinalSpace:
    """Canonical representative of the isomorphism class of s."""
    if s.n > PERM_LIMIT:
        raise SizeLimitError("canonical_form", s.n, PERM_LIMIT)
    return OrdinalSpace.from_levels(s.n, canonical_level_vector(s.level_vector(), s.n))


def find_isomorphism(a: OrdinalSpace, b: OrdinalSpace):
    """A rank-preserving relabeling a -> b, or None.

    The witness is the lexicographically first one: points are placed in
    index order and images tried ascending, and a partial map survives only
    if every already-assigned rank agrees, which prunes hard on small
    spaces. The images placed so far are its stack, so no recursion limit
    bounds the point count.
    """
    if a.n != b.n or a.k != b.k:
        return None
    n, ra, rb = a.n, a.ranks, b.ranks
    image, used, c = [], [False] * n, 0
    while len(image) < n:
        row = ra[len(image)]
        for c in range(c, n):
            if used[c]:
                continue
            crow = rb[c]
            for w, fw in enumerate(image):
                if row[w] != crow[fw]:
                    break
            else:
                break
        else:
            if not image:
                return None
            c = image.pop()
            used[c] = False
            c += 1
            continue
        image.append(c)
        used[c] = True
        c = 0
    return tuple(image)


def is_isomorphic(a: OrdinalSpace, b: OrdinalSpace) -> bool:
    return find_isomorphism(a, b) is not None


def weakly_similar(d1: DistanceMatrix, d2: DistanceMatrix) -> bool:
    """Order-preserving comparability of two distance matrices; holds iff
    their ordinal types are isomorphic."""
    return is_isomorphic(ordinal_type(d1), ordinal_type(d2))
