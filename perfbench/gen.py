"""Seeded inputs for the benchmark, written in the package's text formats.

Nothing here imports ordspace: the inputs, and the facts the checkers need
about them (each input's own rank matrix, the bijection a near pair was
built with), come from the benchmark alone, so the program under test
receives only text.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

# pool sizes per kind; see README.md for why these mixes
EMBED_MIX = (("line", 6, 72), ("line", 7, 48), ("plane", 6, 72), ("plane", 7, 660))
DISTANCE_MIX = (("near", 6, 120), ("far", 6, 300), ("far", 7, 30))


def pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def dense_ranks(n, value):
    """Normalized rank matrix (levels 1..k) of the pair values value(i, j)."""
    vals = {p: value(*p) for p in pairs(n)}
    level = {v: r + 1 for r, v in enumerate(sorted(set(vals.values())))}
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in vals.items():
        rows[i][j] = rows[j][i] = level[v]
    return tuple(map(tuple, rows))


def relabel(ranks, perm):
    """Ranks of the space in which point perm[i] plays the role of point i."""
    n = len(ranks)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(tuple(ranks[inv[x]][inv[y]] for y in range(n)) for x in range(n))


def relabellings4(sub):
    """Pair-rank vectors of a 4-point rank matrix under all 24 relabellings."""
    return {tuple(sub[g[i]][g[j]] for i, j in pairs(4)) for g in itertools.permutations(range(4))}


@functools.cache
def line_patterns4(bound=6):
    """Pair-rank vectors of every labelled line-embeddable 4-point space,
    read off four points at integer gaps 1..bound. Gaps up to 4 already
    give all 14 classes (the paper's cases d1..d13 and d15); larger gaps
    add none, which the tests check."""
    out = set()
    for g in itertools.product(range(1, bound + 1), repeat=3):
        pos = (0, g[0], g[0] + g[1], g[0] + g[1] + g[2])
        out |= relabellings4(dense_ranks(4, lambda i, j: pos[j] - pos[i]))
    return frozenset(out)


def line_classes4(bound=6):
    """Isomorphism classes of line-embeddable 4-point spaces, each as its
    least pair-rank vector."""
    return {min(relabellings4(ranks_of(v, 4))) for v in line_patterns4(bound)}


def ranks_of(levels, n):
    """Rank matrix of a pair-indexed level vector (levels already 1..k)."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in zip(pairs(n), levels):
        rows[i][j] = rows[j][i] = v
    return tuple(map(tuple, rows))


def line_obstruction(ranks):
    """First 4-point subset (in lexicographic order) whose subspace does not
    embed in the line, or None."""
    for pts in itertools.combinations(range(len(ranks)), 4):
        sub = dense_ranks(4, lambda i, j: ranks[pts[i]][pts[j]])
        if tuple(sub[i][j] for i, j in pairs(4)) not in line_patterns4():
            return pts
    return None


# ---------------------------------------------------------------------------
# text writers, in the formats documented in the package README

def _frac(v):
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def csv_text(n, value):
    rows = [[_frac(value(i, j) if i < j else value(j, i) if j < i else 0) for j in range(n)]
            for i in range(n)]
    return "\n".join(",".join(r) for r in rows) + "\n"


def cmp_text(rng, ranks):
    """Comparison list fixing every rank: one comparison between each two
    consecutive pairs in rank order, each written in a random orientation,
    in random line order."""
    n = len(ranks)
    chain = sorted(pairs(n), key=lambda p: ranks[p[0]][p[1]])
    lines = []
    for p, q in zip(chain, chain[1:]):
        rel = "EQ" if ranks[p[0]][p[1]] == ranks[q[0]][q[1]] else "LT"
        p = p if rng.random() < 0.5 else p[::-1]
        q = q if rng.random() < 0.5 else q[::-1]
        if rng.random() < 0.5:
            p, q, rel = q, p, {"LT": "GT", "EQ": "EQ"}[rel]
        lines.append(f"{p[0] + 1} {p[1] + 1} {q[0] + 1} {q[1] + 1} {rel}")
    rng.shuffle(lines)
    return f"{n}\n" + "\n".join(lines) + "\n"


def ord_text(ranks):
    n = len(ranks)
    k = max((v for row in ranks for v in row), default=0)
    return f"{n} {k}\n" + "\n".join(" ".join(map(str, r)) for r in ranks) + "\n"


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class EmbedItem:
    kind: str  # "line": distinct points on the line; "plane": a 4-point obstruction exists
    fmt: str  # "csv" or "cmp"
    text: str
    ranks: tuple  # the benchmark's own rank matrix of the input


@dataclass(frozen=True)
class DistanceItem:
    kind: str  # "near": relabelled copy with a few ranks swapped; "far": independent
    text_a: str
    text_b: str
    ranks_a: tuple
    ranks_b: tuple
    built: tuple | None  # bijection a -> b a near pair was built with


def _line_item(rng, n, fmt):
    xs = rng.sample(range(1, 10_000), n)
    pos = [Fraction(x, rng.randint(1, 9)) for x in xs]
    while len(set(pos)) < n:
        pos = [Fraction(x, rng.randint(1, 9)) for x in xs]
    dist = lambda i, j: abs(pos[i] - pos[j])
    ranks = dense_ranks(n, dist)
    text = csv_text(n, dist) if fmt == "csv" else cmp_text(rng, ranks)
    return EmbedItem("line", fmt, text, ranks)


def _plane_item(rng, n, fmt):
    while True:
        pts = [divmod(c, 200) for c in rng.sample(range(200 * 200), n)]
        sq = lambda i, j: (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
        ranks = dense_ranks(n, sq)
        if line_obstruction(ranks) is not None:
            break
    # squared distances rank exactly like the distances
    text = csv_text(n, sq) if fmt == "csv" else cmp_text(rng, ranks)
    return EmbedItem("plane", fmt, text, ranks)


def embed_inputs(seed):
    rng = random.Random(f"embed:{seed}")
    items = []
    for kind, n, count in EMBED_MIX:
        make = _line_item if kind == "line" else _plane_item
        items.extend(make(rng, n, ("csv", "cmp")[t % 2]) for t in range(count))
    rng.shuffle(items)
    return tuple(items)


def random_injective(rng, n):
    levels = list(range(1, len(pairs(n)) + 1))
    rng.shuffle(levels)
    value = dict(zip(pairs(n), levels))
    return dense_ranks(n, lambda i, j: value[(i, j)])


def _distance_item(rng, kind, n):
    a = random_injective(rng, n)
    if kind == "far":
        b, built = random_injective(rng, n), None
    else:
        built = tuple(rng.sample(range(n), n))
        rows = [list(r) for r in relabel(a, built)]
        for _ in range(rng.randint(0, 3)):
            # exchange two consecutive ranks: one comparison flips
            r = rng.randint(1, len(pairs(n)) - 1)
            for x, y in pairs(n):
                if rows[x][y] in (r, r + 1):
                    rows[x][y] = rows[y][x] = 2 * r + 1 - rows[x][y]
        b = tuple(map(tuple, rows))
    return DistanceItem(kind, ord_text(a), ord_text(b), a, b, built)


def distance_inputs(seed):
    rng = random.Random(f"distance:{seed}")
    items = [
        _distance_item(rng, kind, n)
        for kind, n, count in DISTANCE_MIX
        for _ in range(count)
    ]
    rng.shuffle(items)
    return tuple(items)
