"""Text formats for spaces, distance matrices, comparison lists, and ball
inclusion diagrams, and every printed name of a point.

All formats allow blank lines and '#' comment lines. Point indices in files
are 1-based; the Python API is 0-based throughout. In reports point i is
`point_label(i)`, x1 for index 0, a pair is `pair_label`, (x1,x2), a
set of points is `point_set_label`, {x1,x2}, and a point map is
`point_map_label`, x1->x2 x2->x1; `hasse_dot` writes a diagram as Graphviz
DOT with those set labels.

rank matrix      line "n k", then n rows of n integers
distance matrix  n rows of n comma-separated values, decimal or p/q literals
comparisons      line "n", then lines "x y z w REL" with REL in {LT, EQ, GT}
diagram          line "hasse m", then m lines "v ID : members" and
                 arc lines "a CHILD PARENT" (vertex ids, child -> parent),
                 exactly the covers of the sets under inclusion
"""

from __future__ import annotations

import re
from fractions import Fraction

from .balls import HasseDiagram
from .errors import ValidationError
from .space import ComparisonList, DistanceMatrix, OrdinalSpace, Relation


def _payload_lines(text):
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_rank_matrix(text: str) -> OrdinalSpace:
    lines = _payload_lines(text)
    if not lines:
        raise ValidationError("empty rank matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValidationError(f"expected header 'n k', got {lines[0]!r}")
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValidationError(f"bad header {lines[0]!r}") from exc
    if len(lines) != n + 1:
        raise ValidationError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValidationError(f"bad matrix row {line!r}") from exc
        rows.append(row)
    s = OrdinalSpace(n, k, tuple(tuple(r) for r in rows))
    return s


def format_rank_matrix(s: OrdinalSpace) -> str:
    lines = [f"{s.n} {s.k}"]
    width = len(str(s.k))
    for row in s.ranks:
        lines.append(" ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines) + "\n"


# Fraction expands 10**exponent exactly, so a short literal such as
# 1e999999999 would build a huge integer; exponents are held to the limit
# Python already puts on integer digit strings.
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\Z", re.IGNORECASE)
_MAX_EXPONENT = 4300


def _parse_scalar(tok: str) -> Fraction:
    """A decimal or p/q literal as a Fraction. ASCII digit strings and
    ASCII p/q with digit strings on both sides are read by int(); every
    other token goes through Fraction(str) under the exponent guard. Both
    stay inside the try, so an overlong digit string or a zero denominator
    is a ValidationError."""
    tok = tok.strip()
    try:
        num, slash, den = tok.partition("/")
        if tok.isascii() and num.isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        exp = _EXPONENT.search(tok)
        if exp and abs(int(exp[1])) > _MAX_EXPONENT:
            raise ValidationError(f"exponent of {tok!r} exceeds {_MAX_EXPONENT}")
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad numeric literal {tok!r}") from exc


def parse_distance_csv(text: str) -> DistanceMatrix:
    lines = _payload_lines(text)
    if not lines:
        raise ValidationError("empty distance file")
    rows = [[_parse_scalar(tok) for tok in line.split(",")] for line in lines]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValidationError("distance matrix must be square")
    return DistanceMatrix(n, tuple(tuple(r) for r in rows))


def format_distance_csv(d: DistanceMatrix) -> str:
    lines = [",".join(_scalar_str(v) for v in row) for row in d.values]
    return "\n".join(lines) + "\n"


def _scalar_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


_REL_NAMES = {"LT": Relation.LT, "EQ": Relation.EQ, "GT": Relation.GT}


def parse_comparisons(text: str) -> ComparisonList:
    lines = _payload_lines(text)
    if not lines:
        raise ValidationError("empty comparison file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValidationError(f"bad point count {lines[0]!r}") from exc
    entries = []
    for line in lines[1:]:
        toks = line.split()
        if len(toks) != 5:
            raise ValidationError(f"expected 'x y z w REL', got {line!r}")
        try:
            x, y, z, w = (int(t) for t in toks[:4])
        except ValueError as exc:
            raise ValidationError(f"bad point index in {line!r}") from exc
        rel = _REL_NAMES.get(toks[4].upper())
        if rel is None:
            raise ValidationError(f"bad relation {toks[4]!r} in {line!r}")
        for p in (x, y, z, w):
            if not 1 <= p <= n:
                raise ValidationError(f"point index {p} outside 1..{n} in {line!r}")
        entries.append((x - 1, y - 1, z - 1, w - 1, rel))
    return ComparisonList(n, tuple(entries))


def format_comparisons(c: ComparisonList) -> str:
    lines = [str(c.n)]
    for x, y, z, w, rel in c.entries:
        lines.append(f"{x + 1} {y + 1} {z + 1} {w + 1} {rel.name}")
    return "\n".join(lines) + "\n"


def parse_hasse(text: str) -> HasseDiagram:
    """Read a ball inclusion diagram. Vertices are sets of 1-based point
    ids in the file and frozensets of 0-based indices in the API; the arcs
    must be exactly the covers of the vertex sets under inclusion."""
    lines = _payload_lines(text)
    if not lines:
        raise ValidationError("empty diagram file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "hasse":
        raise ValidationError(f"expected header 'hasse m', got {lines[0]!r}")
    try:
        m = int(head[1])
    except ValueError as exc:
        raise ValidationError(f"bad vertex count {head[1]!r}") from exc
    by_id = {}
    order = []
    arcs = []
    for line in lines[1:]:
        toks = line.split()
        if toks[0] == "v":
            if len(toks) < 3 or toks[2] != ":":
                raise ValidationError(f"expected 'v ID : members', got {line!r}")
            try:
                vid = int(toks[1])
                members = frozenset(int(t) - 1 for t in toks[3:])
            except ValueError as exc:
                raise ValidationError(f"bad vertex line {line!r}") from exc
            if vid in by_id:
                raise ValidationError(f"duplicate vertex id {vid}")
            if any(p < 0 for p in members):
                raise ValidationError(f"point ids are 1-based in {line!r}")
            by_id[vid] = members
            order.append(vid)
        elif toks[0] == "a":
            if len(toks) != 3:
                raise ValidationError(f"expected 'a CHILD PARENT', got {line!r}")
            try:
                arcs.append((int(toks[1]), int(toks[2])))
            except ValueError as exc:
                raise ValidationError(f"bad arc line {line!r}") from exc
        else:
            raise ValidationError(f"unrecognized diagram line {line!r}")
    if len(order) != m:
        raise ValidationError(f"expected {m} vertices, found {len(order)}")
    index = {vid: i for i, vid in enumerate(order)}
    for u, v in arcs:
        if u not in index or v not in index:
            raise ValidationError(f"arc ({u}, {v}) names an unknown vertex id")
    h = HasseDiagram(tuple(by_id[vid] for vid in order))
    arcs = [(index[u], index[v]) for u, v in arcs]
    for u, v in arcs:
        if u == v:
            raise ValidationError(f"bad arc ({u}, {v})")
        if not h.vertices[u] < h.vertices[v]:
            raise ValidationError(f"arc ({u}, {v}) is not a strict inclusion")
    if len(set(arcs)) != len(arcs):
        raise ValidationError("duplicate arcs")
    if set(arcs) != set(h.arcs):
        raise ValidationError("arcs are not the covers of the vertex sets")
    return h


def point_label(i):
    return f"x{i + 1}"


def point_set_label(members):
    return "{" + ",".join(map(point_label, sorted(members))) + "}"


def pair_label(x, y):
    return f"({point_label(x)},{point_label(y)})"


def point_map_label(f):
    """A point map, f[i] the image of point i, as x1->x2 x2->x1 ..."""
    return " ".join(f"{point_label(i)}->{point_label(j)}" for i, j in enumerate(f))


def format_hasse(h: HasseDiagram) -> str:
    """Write a diagram with vertices sorted by (size, members) for stable
    bytes."""
    vertices = h.vertices
    order = sorted(range(len(vertices)), key=lambda i: (len(vertices[i]), sorted(vertices[i])))
    new_id = {old: pos + 1 for pos, old in enumerate(order)}
    lines = [f"hasse {len(vertices)}"]
    for pos, old in enumerate(order):
        members = " ".join(str(p + 1) for p in sorted(vertices[old]))
        lines.append(f"v {pos + 1} : {members}")
    for u, v in sorted((new_id[u], new_id[v]) for u, v in h.arcs):
        lines.append(f"a {u} {v}")
    return "\n".join(lines) + "\n"


def hasse_dot(h: HasseDiagram) -> str:
    """Deterministic DOT rendering in vertex order, {x1,x2} labels."""
    lines = ["digraph hasse {"]
    for i, v in enumerate(h.vertices):
        lines.append(f'  v{i} [label="{point_set_label(v)}"];')
    for u, v in sorted(h.arcs):
        lines.append(f"  v{u} -> v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
