"""Checkers for the program's answers.

Every expected value is computed here, apart from the program, or is a
property the method must have; none is a copy of an earlier output. Each
checker returns a list of problems, empty when the answer is right.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from gen import dense_ranks, line_classes4, pairs, ranks_of

# OEIS A263511: maximal number of balls of an ordinal space on n points
A263511 = (1, 3, 6, 12)
# the paper's line-embeddable four-point cases d1..d13 and d15
LINE_CASES4 = 14


def _fubini(m):
    f = [1]
    for t in range(1, m + 1):
        f.append(sum(math.comb(t, i) * f[t - i] for i in range(1, t + 1)))
    return f[m]


def orbit_count(n, injective):
    """Burnside's lemma over S_n acting on rank assignments to the pairs:
    a relabelling fixes an assignment iff the assignment is constant on the
    cycles of the pair permutation it induces."""
    ps = pairs(n)
    index = {p: t for t, p in enumerate(ps)}
    total = 0
    for g in itertools.permutations(range(n)):
        image = [index[tuple(sorted((g[a], g[b])))] for a, b in ps]
        cycles, seen = 0, set()
        for t in range(len(ps)):
            if t not in seen:
                cycles += 1
                while t not in seen:
                    seen.add(t)
                    t = image[t]
        if not injective:
            total += _fubini(cycles)
        elif cycles == len(ps):
            total += math.factorial(len(ps))
    return total // math.factorial(n)


def ball_count(ranks):
    """Distinct sets {x : rank(c, x) <= t} over centers c and cut values t."""
    n = len(ranks)
    balls = set()
    for c in range(n):
        row = ranks[c]
        for t in set(row):
            balls.add(frozenset(x for x in range(n) if row[x] <= t))
    return len(balls)


def min_injective_balls(n):
    """Fewest balls over every raw injective rank assignment on n points."""
    p = len(pairs(n))
    return min(ball_count(ranks_of(lv, n)) for lv in itertools.permutations(range(1, p + 1)))


def is_injective(ranks):
    vals = [ranks[i][j] for i, j in pairs(len(ranks))]
    return len(set(vals)) == len(vals)


# ---------------------------------------------------------------------------
# census

def check_census_ties(report, expected_classes, expected_min):
    """census_report(4, ALL): expected_classes from orbit_count(4, False),
    expected_min from min_injective_balls(4)."""
    out = []
    ex = report.extremes
    if report.total_nonisomorphic != expected_classes:
        out.append(f"{report.total_nonisomorphic} classes, orbit count {expected_classes}")
    if ex.max_balls != A263511[3]:
        out.append(f"max balls {ex.max_balls}, A263511 gives {A263511[3]}")
    elif ball_count(ex.max_witness.ranks) != ex.max_balls:
        out.append("max-ball witness has another ball count")
    if ex.min_balls_distinct != expected_min:
        out.append(f"min balls {ex.min_balls_distinct}, raw minimum {expected_min}")
    elif not is_injective(ex.min_witness.ranks) or ball_count(ex.min_witness.ranks) != expected_min:
        out.append("min-ball witness is not injective or has another ball count")
    counted = len(line_classes4())
    if report.r1_embeddable_count != counted or counted != LINE_CASES4:
        out.append(f"{report.r1_embeddable_count} line-embeddable classes, "
                   f"{counted} counted from gaps, {LINE_CASES4} in the paper")
    return out


def check_census_injective(report, expected_classes, sample):
    """census_report(5, INJECTIVE): S5 acts freely on injective ranks, so
    the class count is 10!/5!; `sample` is raw injective level vectors."""
    out = []
    if report.total_nonisomorphic != expected_classes or expected_classes != math.factorial(10) // math.factorial(5):
        out.append(f"{report.total_nonisomorphic} classes, orbit count {expected_classes}")
    ex = report.extremes
    w = ex.min_witness
    if w is None or not is_injective(w.ranks):
        out.append("min-ball witness missing or not injective")
        return out
    if ball_count(w.ranks) != ex.min_balls_distinct:
        out.append(f"witness has {ball_count(w.ranks)} balls, report says {ex.min_balls_distinct}")
    fewer = [lv for lv in sample if ball_count(ranks_of(lv, 5)) < ex.min_balls_distinct]
    if fewer:
        out.append(f"raw assignment {fewer[0]} has fewer than {ex.min_balls_distinct} balls")
    return out


# ---------------------------------------------------------------------------
# embed

def check_line_witness(item_ranks, witness):
    """Positions from the gaps must rank exactly like the input."""
    n = len(item_ranks)
    if witness is None:
        return ["no line witness for points taken from the line"]
    if sorted(witness.ordering) != list(range(n)) or len(witness.gaps) != n - 1:
        return ["line witness has a malformed ordering or gap list"]
    if any(g <= 0 for g in witness.gaps):
        return ["line witness has a gap that is not positive"]
    pos = [Fraction(0)] * n
    x = Fraction(0)
    for p, point in enumerate(witness.ordering):
        pos[point] = x
        if p < n - 1:
            x += witness.gaps[p]
    if dense_ranks(n, lambda i, j: abs(pos[i] - pos[j])) != item_ranks:
        return ["distances from the line witness rank unlike the input"]
    return []


def check_negative(item_ranks, witness, classify, subspace_of):
    """A refusal must be backed by a four-point subspace that the
    four-point classifier rejects; line-embeddability is hereditary."""
    if witness is not None:
        return ["line witness for a space with a four-point obstruction"]
    for pts in itertools.combinations(range(len(item_ranks)), 4):
        if classify(subspace_of(pts)) is None:
            return []
    return ["refused, but every four-point subspace is classified embeddable"]


def check_certificate(item_ranks, euclid_witness):
    """Squared distances recomputed from unit_lower and diag in exact
    rationals must equal the certificate's own and rank like the input."""
    n = len(item_ranks)
    cert = euclid_witness.certificate
    if cert.rank != n - 1 or len(cert.diag) != n - 1 or any(d <= 0 for d in cert.diag):
        return [f"certificate rank {cert.rank}, want {n - 1} positive pivots"]
    if sorted(cert.order) != list(range(n)):
        return ["certificate order is not a permutation"]
    m = n - 1
    rows = [(Fraction(0),) * m] + [tuple(r) for r in cert.unit_lower]
    coords = {cert.order[i]: rows[i] for i in range(n)}

    def sq(a, b):
        return sum((coords[a][t] - coords[b][t]) ** 2 * cert.diag[t] for t in range(m))

    if any(sq(i, j) != cert.squared[i][j] for i, j in pairs(n)):
        return ["squared distances from the factors differ from the certificate's"]
    if dense_ranks(n, sq) != item_ranks:
        return ["squared distances from the factors rank unlike the input"]
    return []


# ---------------------------------------------------------------------------
# distance

def disagreements(ra, rb, perm):
    """Comparisons of distinct pairs that a and b order differently when
    point i of a is matched with point perm[i] of b."""
    count = 0
    for (x, y), (z, w) in itertools.combinations(pairs(len(ra)), 2):
        sa = (ra[x][y] > ra[z][w]) - (ra[x][y] < ra[z][w])
        u, v = rb[perm[x]][perm[y]], rb[perm[z]][perm[w]]
        count += sa != (u > v) - (u < v)
    return count


def exhaustive_distance(ra, rb):
    """Minimum of disagreements() over every bijection, vectorized."""
    # imported here so that a set-up timing counts numpy as the package's
    import numpy as np

    n = len(ra)
    ps = pairs(n)
    perms = np.array(list(itertools.permutations(range(n))))
    a = np.array([ra[i][j] for i, j in ps])
    b = np.array(rb)[perms[:, [i for i, _ in ps]], perms[:, [j for _, j in ps]]]
    u, v = map(np.array, zip(*itertools.combinations(range(len(ps)), 2)))
    sa = np.sign(a[u] - a[v])
    sb = np.sign(b[:, u] - b[:, v])
    return int((sb != sa).sum(axis=1).min())


def check_distance(item, result, iso, hasse_iso, exhaustive):
    ra, rb = item.ranks_a, item.ranks_b
    n = len(ra)
    out = []
    if sorted(result.witness) != list(range(n)):
        return ["d_ord witness is not a bijection"]
    recount = disagreements(ra, rb, result.witness)
    if recount != result.value or len(result.disagreements) != result.value:
        out.append(f"d_ord value {result.value}, its bijection disagrees on {recount}")
    if item.built is not None and result.value > disagreements(ra, rb, item.built):
        out.append("d_ord value above the count under the building bijection")
    if result.value != exhaustive:
        out.append(f"d_ord value {result.value}, exhaustive minimum {exhaustive}")
    if (result.value == 0) != (iso is not None):
        out.append("d_ord is 0 exactly when an isomorphism exists: it disagrees")
    if iso is not None:
        if sorted(iso) != list(range(n)) or any(
            ra[i][j] != rb[iso[i]][iso[j]] for i, j in pairs(n)
        ):
            out.append("isomorphism witness does not preserve ranks")
        if not hasse_iso:
            out.append("isomorphic spaces with non-isomorphic Hasse diagrams")
    return out
