"""Balls, ball systems, and containment (Hasse) diagrams.

A ball is determined by a center and a cut of that center's rank spectrum:
member set {x : rank(c, x) <= t} for t running over the spectrum values.
A ball is its member set alone; `balls_at` still gives each center's chain.
One bitmask kernel, `_ball_masks`, gives the set of balls as integers whose
bit x is point x; `ball_set` sorts it, the census's ball counts take its
length, and `hasse` finds covers with bitsets over the balls.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import and_

from .errors import SizeLimitError, ValidationError
from .space import PERM_LIMIT, OrdinalSpace, _first_match

VERTEX_LIMIT = 64  # diagram size guard of the isomorphism search


@dataclass(frozen=True)
class HasseDiagram:
    """Covering digraph of a finite family of sets ordered by inclusion,
    stored as an abstract digraph: arcs point child -> parent."""

    vertices: tuple  # hashable labels, deterministic order
    arcs: tuple  # (child_index, parent_index)
    _levels: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.vertices)
        if len(set(self.vertices)) != m:
            raise ValidationError("duplicate vertices")
        for u, v in self.arcs:
            if not (0 <= u < m and 0 <= v < m) or u == v:
                raise ValidationError(f"bad arc ({u}, {v})")
        if len(set(self.arcs)) != len(self.arcs):
            raise ValidationError("duplicate arcs")
        levels = _source_levels(m, self.arcs)
        if levels is None:
            raise ValidationError("arcs must form an acyclic digraph")
        object.__setattr__(self, "_levels", levels)

    def invariants(self):
        """Per-vertex (in-degree, out-degree, source level): the refinement
        used to cut the isomorphism search."""
        m = len(self.vertices)
        ind, outd = [0] * m, [0] * m
        for u, v in self.arcs:
            outd[u] += 1
            ind[v] += 1
        return list(zip(ind, outd, self._levels))


def _source_levels(m, arcs):
    """Longest-path-from-a-source level per vertex; None on a cycle."""
    indeg = [0] * m
    succ = [[] for _ in range(m)]
    for u, v in arcs:
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


def balls_at(s: OrdinalSpace, center: int):
    """The ball chain at a center as sorted member tuples, one per cut of
    its rank spectrum, ascending: the first is (center,), the last every
    point."""
    if not 0 <= center < s.n:
        raise ValidationError(f"center {center} out of range")
    row = s.ranks[center]
    return [tuple(x for x in range(s.n) if row[x] <= t) for t in sorted(set(row))]


def _ball_masks(rows):
    """The distinct balls of a rank matrix as member masks, bit x for point
    x: each row sorted by rank, prefixes ORed; a tied rank keeps the
    longest one."""
    masks = set()
    for row in rows:
        cuts, mask = {}, 0
        for x in sorted(range(len(row)), key=row.__getitem__):
            mask |= 1 << x
            cuts[row[x]] = mask
        masks.update(cuts.values())
    return masks


def _bits(mask):
    """Positions of the set bits, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def ball_set(s: OrdinalSpace):
    """All distinct balls of a space as frozensets, sorted by (size, members)."""
    members = sorted((tuple(_bits(m)) for m in _ball_masks(s.ranks)), key=lambda t: (len(t), t))
    return tuple(map(frozenset, members))


def hasse(sets) -> HasseDiagram:
    """Covering digraph of a family of sets under inclusion; needs the sets
    sorted by size, as `ball_set` gives them. Bit b of holders[x]
    says ball b contains point x, so ANDing them over a ball's points gives
    its strict supersets. The lowest-index one left is a cover, and taking
    it removes it and its own supersets: a ball strictly between would come
    first and, taken or removed, would have removed it."""
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
    Kept for a paper claim: `tree5_a`/`tree5_b` have one without being
    isomorphic.
    """
    if a.n > PERM_LIMIT:
        raise SizeLimitError("ball preserving bijection", a.n, PERM_LIMIT)
    if a.n != b.n:
        return None
    balls_a = set(ball_set(a))
    balls_b = set(ball_set(b))
    if len(balls_a) != len(balls_b):
        return None
    for f in itertools.permutations(range(b.n)):
        if all(frozenset(f[x] for x in ball) in balls_b for ball in balls_a):
            return f
    return None
