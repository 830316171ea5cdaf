"""Balls, ball systems, and containment (Hasse) diagrams.

A ball is determined by a center and a cut of that center's rank spectrum:
member set {x : rank(c, x) <= t} for t running over the spectrum values.
A ball is its member set alone; `balls_at` still gives each center's chain.
One bitmask kernel, `_ball_masks`, gives the set of balls as integers whose
bit x is point x; `ball_set` sorts it, the census's ball counts take its
length; a `HasseDiagram` derives its arcs, the covers, from its sets with
bitsets. One point search, `_family_map`, decides ball-structure isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_

from .errors import SizeLimitError, ValidationError
from .space import OrdinalSpace

VERTEX_LIMIT = 64  # set-count guard of the ball-structure isomorphism search


@dataclass(frozen=True)
class HasseDiagram:
    """Covering digraph of a finite family of point sets (frozensets)
    ordered by inclusion. The family is the diagram: equality reads it
    alone, and the arcs are derived from it."""

    vertices: tuple  # frozensets, deterministic order

    def __post_init__(self):
        if not all(isinstance(v, frozenset) for v in self.vertices):
            raise ValidationError("vertices must be frozensets of points")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertices")

    @cached_property
    def arcs(self):
        """The covers as sorted (child_index, parent_index) pairs. With the
        sets taken in size order, bit b of holders[x] says set b contains
        point x, so ANDing them over a set's points gives its strict
        supersets. The lowest one left is a cover, and taking it removes it
        and its own supersets: a set strictly between would come first and,
        taken or removed, would have removed it."""
        order = sorted(range(len(self.vertices)), key=lambda i: len(self.vertices[i]))
        sets = [self.vertices[i] for i in order]
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
                arcs.append((order[a], order[b]))
                up &= ~(1 << b | above[b])
        return tuple(sorted(arcs))


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
    """The covering digraph of a family of sets under inclusion."""
    return HasseDiagram(tuple(sets))


# ---------------------------------------------------------------------------
# ball-structure isomorphism

def _pair_profiles(family, points):
    """profiles[i][j]: the sorted sizes of the sets holding both
    points[i] and points[j], as a list."""
    at = {x: i for i, x in enumerate(points)}
    profiles = [[[] for _ in points] for _ in points]
    for s in sorted(family, key=len):
        members = [at[x] for x in s]
        for i in members:
            row = profiles[i]
            for j in members:
                row[j].append(len(s))
    return profiles


def _family_map(fa, fb):
    """The lexicographically first point bijection mapping the set family
    fa onto fb, as the images of fa's points in ascending order, or None.

    Points are placed ascending and images tried ascending. A point maps
    only to one lying in as many sets of each size, and u goes to c only
    if, for every placed w, {u, w} and {c, f(w)} lie in as many sets of
    each size. Once a set's last point is placed, its image must be in
    fb: a complete map sends fa into fb injectively, so onto it, the
    families being equally large.
    """
    size = max(len(fa), len(fb))
    if size > VERTEX_LIMIT:
        raise SizeLimitError("hasse isomorphism", size, VERTEX_LIMIT)
    pa, pb = (sorted(frozenset().union(*f)) for f in (fa, fb))
    if len(fa) != len(fb) or len(pa) != len(pb):
        return None
    profile_a, profile_b = (
        [sorted(len(s) for s in f if x in s) for x in p] for f, p in ((fa, pa), (fb, pb))
    )
    if sorted(profile_a) != sorted(profile_b):
        return None
    n, at_a = len(pa), {x: i for i, x in enumerate(pa)}
    pair_a, pair_b = (_pair_profiles(f, p) for f, p in ((fa, pa), (fb, pb)))
    targets = {sum(1 << i for i, x in enumerate(pb) if x in s) for s in fb}
    closing = [[] for _ in range(n + 1)]  # fa's sets as positions, by last one
    for s in fa:
        members = sorted(map(at_a.get, s))
        closing[members[-1] if members else 0].append(members)
    image, used, c = [], [False] * n, 0
    while len(image) < n:
        u = len(image)
        for c in range(c, n):
            if used[c] or profile_b[c] != profile_a[u]:
                continue
            if any(pair_b[c][image[w]] != pair_a[u][w] for w in range(u)):
                continue
            image.append(c)
            if all(sum(1 << image[x] for x in s) in targets for s in closing[u]):
                break
            image.pop()
        else:
            if not image:
                return None
            c = image.pop()
            used[c] = False
            c += 1
            continue
        used[c] = True
        c = 0
    return tuple(pb[c] for c in image)


def hasse_isomorphic(a: HasseDiagram, b: HasseDiagram) -> bool:
    """Are two ball diagrams isomorphic as digraphs?

    Decided as a point bijection between the vertex families; the arcs,
    the covers of the family, are not read. The minimal balls are exactly
    the singletons, the sources of the digraph, so an isomorphism induces
    a point bijection f. A ball holds the points whose singletons reach it
    along arcs, so each ball B goes to f(B). Conversely a point bijection
    mapping one family onto the other keeps inclusion, hence covers.
    """
    return _family_map(a.vertices, b.vertices) is not None


def ball_preserving_bijection(a: OrdinalSpace, b: OrdinalSpace):
    """The lexicographically first point bijection mapping balls onto
    balls in both directions, or None.

    Kept for a paper claim: `tree5_a`/`tree5_b` have one without being
    isomorphic. Its answer is `hasse_isomorphic`'s on their diagrams.
    """
    return _family_map(ball_set(a), ball_set(b))
