"""Balls, ball systems, and containment (Hasse) diagrams.

A ball is determined by a center and a cut of that center's rank spectrum:
member set {x : rank(c, x) <= t} for t running over the spectrum values.
Ball identity in a BallSet is the member set; provenance keeps every
(center, threshold) that produced it. One bitmask kernel, `_cuts`, gives
each cut as an integer whose bit x is point x; `ball_set` and the census's
ball counts read it, and `hasse` finds covers with bitsets over the balls.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .errors import SizeLimitError, ValidationError
from .space import PERM_LIMIT, OrdinalSpace, _first_match

VERTEX_LIMIT = 64  # diagram size guard of the isomorphism search


@dataclass(frozen=True)
class Ball:
    center: int
    threshold: int
    members: tuple  # sorted point indices

    def __post_init__(self):
        if self.center not in self.members:
            raise ValidationError("a ball contains its center")


@dataclass(frozen=True)
class BallSet:
    """All distinct balls of a space, sorted by (size, members)."""

    n: int
    members: tuple  # tuple of frozensets
    provenance: tuple  # tuple of tuples of (center, threshold), aligned

    def __len__(self):
        return len(self.members)

    def as_sets(self):
        return set(self.members)


@dataclass(frozen=True)
class HasseDiagram:
    """Covering digraph of a finite family of sets ordered by inclusion,
    stored as an abstract digraph: arcs point child -> parent."""

    vertices: tuple  # hashable labels, deterministic order
    arcs: tuple  # (child_index, parent_index)

    def __post_init__(self):
        m = len(self.vertices)
        if len(set(self.vertices)) != m:
            raise ValidationError("duplicate vertices")
        for u, v in self.arcs:
            if not (0 <= u < m and 0 <= v < m) or u == v:
                raise ValidationError(f"bad arc ({u}, {v})")
        if len(set(self.arcs)) != len(self.arcs):
            raise ValidationError("duplicate arcs")
        if self._topo_levels() is None:
            raise ValidationError("arcs must form an acyclic digraph")

    def _topo_levels(self):
        """Longest-path-from-a-source level per vertex; None on a cycle."""
        m = len(self.vertices)
        indeg = [0] * m
        succ = [[] for _ in range(m)]
        for u, v in self.arcs:
            succ[u].append(v)
            indeg[v] += 1
        level = [0] * m
        queue = [i for i in range(m) if indeg[i] == 0]
        seen = 0
        while queue:
            u = queue.pop()
            seen += 1
            for v in succ[u]:
                level[v] = max(level[v], level[u] + 1)
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        return level if seen == m else None

    def invariants(self):
        """Per-vertex (in-degree, out-degree, source level): the refinement
        used to cut the isomorphism search."""
        m = len(self.vertices)
        ind, outd = [0] * m, [0] * m
        for u, v in self.arcs:
            outd[u] += 1
            ind[v] += 1
        return list(zip(ind, outd, self._topo_levels()))


def spectrum(s: OrdinalSpace, center: int):
    """Sorted distinct ranks from the center, 0 (the center itself) first."""
    if not 0 <= center < s.n:
        raise ValidationError(f"center {center} out of range")
    return tuple(sorted({s.ranks[center][x] for x in range(s.n)}))


def balls_at(s: OrdinalSpace, center: int):
    """The ball chain at a center, one ball per spectrum cut, ascending."""
    chain = []
    for t in spectrum(s, center):
        members = tuple(x for x in range(s.n) if s.ranks[center][x] <= t)
        chain.append(Ball(center, t, members))
    return chain


def _cuts(row):
    """The balls at one center as {threshold: member mask}, ascending: the
    row sorted by rank, prefixes ORed; a tied rank keeps the longest one."""
    cuts, mask = {}, 0
    for x in sorted(range(len(row)), key=row.__getitem__):
        mask |= 1 << x
        cuts[row[x]] = mask
    return cuts


def _ball_count(rows):
    return len({mask for row in rows for mask in _cuts(row).values()})


def _bits(mask):
    """Positions of the set bits, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def ball_set(s: OrdinalSpace) -> BallSet:
    by_mask = {}
    for c, row in enumerate(s.ranks):
        for t, mask in _cuts(row).items():
            by_mask.setdefault(mask, []).append((c, t))
    order = sorted(by_mask, key=lambda m: (m.bit_count(), tuple(_bits(m))))
    return BallSet(
        n=s.n,
        members=tuple(frozenset(_bits(m)) for m in order),
        provenance=tuple(tuple(by_mask[m]) for m in order),
    )


def hasse(bs: BallSet) -> HasseDiagram:
    """Covering digraph of the ball family under set inclusion; needs the
    members sorted by size, as `ball_set` gives them. Bit b of holders[x]
    says ball b contains point x, so ANDing them over a ball's points gives
    its strict supersets. The lowest-index one left is a cover, and taking
    it removes it and its own supersets: a ball strictly between would come
    first and, taken or removed, would have removed it."""
    sets = bs.members
    holders = {}
    for b, members in enumerate(sets):
        for x in members:
            holders[x] = holders.get(x, 0) | 1 << b
    full = (1 << len(sets)) - 1
    above = [reduce(and_, map(holders.get, m), full) & ~(1 << a) for a, m in enumerate(sets)]
    arcs = []
    for a, up in enumerate(above):
        while up:
            b = (up & -up).bit_length() - 1
            arcs.append((a, b))
            up &= ~(1 << b | above[b])
    return HasseDiagram(tuple(sets), tuple(arcs))


# ---------------------------------------------------------------------------
# digraph isomorphism

def _labelled(h: HasseDiagram, inv):
    """The diagram as a matrix for `_first_match`: vertex invariants on the
    diagonal, 1 at [child][parent] and 2 at [parent][child]. The diagram is
    acyclic, so one entry tells both arc directions."""
    m = len(h.vertices)
    mat = [[0] * m for _ in range(m)]
    for u, v in h.arcs:
        mat[u][v], mat[v][u] = 1, 2
    for i in range(m):
        mat[i][i] = inv[i]
    return mat


def find_hasse_isomorphism(a: HasseDiagram, b: HasseDiagram):
    """Arc-preserving vertex bijection between two diagrams, or None.

    Isomorphism of the abstract digraphs; vertex labels carry no weight.
    A vertex maps only to one with equal (in-degree, out-degree, source
    level) invariants; vertices are placed rarest invariant first, and the
    witness is the first map found in that order, images tried ascending.
    """
    ma, mb = len(a.vertices), len(b.vertices)
    if max(ma, mb) > VERTEX_LIMIT:
        raise SizeLimitError("hasse isomorphism", max(ma, mb), VERTEX_LIMIT)
    if ma != mb:
        return None
    inv_a, inv_b = a.invariants(), b.invariants()
    if sorted(inv_a) != sorted(inv_b):
        return None
    freq = Counter(inv_a)
    order = sorted(range(ma), key=lambda i: (freq[inv_a[i]], inv_a[i], i))
    return _first_match(_labelled(a, inv_a), _labelled(b, inv_b), order)


def hasse_isomorphic(a: HasseDiagram, b: HasseDiagram) -> bool:
    return find_hasse_isomorphism(a, b) is not None


def ball_preserving_bijection(a: OrdinalSpace, b: OrdinalSpace):
    """Point bijection mapping balls onto balls in both directions, or None.

    Since a point bijection acts injectively on member sets, checking that
    every ball of a lands in b's ball family plus equal family sizes already
    forces the map to be onto, so preimages of b-balls are a-balls too.
    """
    if a.n > PERM_LIMIT:
        raise SizeLimitError("ball preserving bijection", a.n, PERM_LIMIT)
    if a.n != b.n:
        return None
    balls_a = ball_set(a).as_sets()
    balls_b = ball_set(b).as_sets()
    if len(balls_a) != len(balls_b):
        return None
    for f in itertools.permutations(range(b.n)):
        if all(frozenset(f[x] for x in ball) in balls_b for ball in balls_a):
            return f
    return None


def hasse_dot(h: HasseDiagram) -> str:
    """Deterministic DOT rendering; set-valued vertices get {x1,x2} labels."""
    lines = ["digraph hasse {"]
    for i, v in enumerate(h.vertices):
        lines.append(f'  v{i} [label="{_vertex_label(v)}"];')
    for u, v in sorted(h.arcs):
        lines.append(f"  v{u} -> v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _vertex_label(v):
    if isinstance(v, frozenset):
        return "{" + ",".join(f"x{p + 1}" for p in sorted(v)) + "}"
    return str(v)
