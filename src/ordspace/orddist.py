"""Edit distance between equal-cardinality spaces: the minimal number of
pairwise-comparison disagreements over all point bijections.

The count is over unordered comparisons between distinct point pairs. Each
such comparison corresponds to exactly 8 ordered quadruples (2 orderings
per pair, 2 orderings of the pair of pairs), and degenerate quadruples
(repeated point in a pair, or the same pair twice) can never disagree, so
this equals the full ordered-quadruple count divided by 8. The numpy
oracle below counts the ordered version and asserts the divisibility.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError, ValidationError
from .space import OrdinalSpace, all_pairs, is_isomorphic

DEFAULT_LIMIT = 8


@dataclass(frozen=True)
class OrdDistResult:
    value: int
    witness: tuple  # witness[i] = image of point i
    disagreements: tuple  # ((pair, pair), ...) in the first space's labels


def d_ord(a: OrdinalSpace, b: OrdinalSpace, limit: int = DEFAULT_LIMIT) -> OrdDistResult:
    """Minimize disagreeing comparisons over all bijections.

    Every bijection is scored: b's levels under each point permutation are
    laid out as small integers, and the signs of all comparisons of
    distinct pairs are compared with a's. The permutations run in
    lexicographic order, in blocks that fix all points but the last
    min(n, 5), so working memory does not grow with n. Only a strictly
    smaller count replaces the incumbent, so the witness is the
    lexicographically smallest optimum.
    """
    if a.n != b.n:
        raise ValidationError("spaces must have the same cardinality")
    n = a.n
    if n > limit:
        raise SizeLimitError("d_ord points", n, limit)
    if n < 3:  # at most one pair: no comparisons to disagree on
        return OrdDistResult(0, tuple(range(n)), ())
    pairs = all_pairs(n)
    first, second = np.array(pairs).T
    u, v = np.array(list(itertools.combinations(range(len(pairs)), 2))).T
    # signed and wide enough for every level and every difference of two
    dtype = np.min_scalar_type(-1 - max(a.k, b.k))
    levels_a = np.array([a.ranks[i][j] for i, j in pairs], dtype=dtype)
    signs_a = np.sign(levels_a[u] - levels_a[v])
    ranks_b = np.array(b.ranks, dtype=dtype)

    def mismatches(perms):
        levels = ranks_b[perms[:, first], perms[:, second]]
        return np.sign(levels[:, u] - levels[:, v]) != signs_a

    free = min(n, 5)  # points permuted within one block of at most 120 rows
    fixed = n - free
    tails = np.array(list(itertools.permutations(range(free))))
    block = np.empty((len(tails), n), dtype=np.intp)
    best_value = len(u) + 1
    for head in itertools.permutations(range(n), fixed):
        block[:, :fixed] = head
        block[:, fixed:] = np.array(sorted(set(range(n)) - set(head)))[tails]
        counts = mismatches(block).sum(axis=1)
        row = counts.argmin()
        if counts[row] < best_value:
            best_value, best_perm = int(counts[row]), tuple(block[row].tolist())
    wrong = np.flatnonzero(mismatches(np.array([best_perm]))[0])
    return OrdDistResult(
        best_value, best_perm, tuple((pairs[u[c]], pairs[v[c]]) for c in wrong)
    )


def d_ord_oracle(a: OrdinalSpace, b: OrdinalSpace, limit: int = 6):
    """Brute force straight off the definition: for every bijection, count
    ordered quadruples (x,y,z,w) whose two relations differ, assert the
    count is divisible by 8, divide. Slow; exists to check d_ord."""
    if a.n != b.n:
        raise ValidationError("spaces must have the same cardinality")
    n = a.n
    if n > limit:
        raise SizeLimitError("d_ord_oracle points", n, limit)
    ra = np.array(a.ranks)
    rb = np.array(b.ranks)
    rel_a = np.sign(ra[:, :, None, None] - ra[None, None, :, :])
    best = None
    for p in itertools.permutations(range(n)):
        rp = rb[np.ix_(p, p)]
        rel_b = np.sign(rp[:, :, None, None] - rp[None, None, :, :])
        raw = int((rel_a != rel_b).sum())
        assert raw % 8 == 0, "degenerate quadruples must never disagree"
        value = raw // 8
        if best is None or value < best[0]:
            best = (value, p)
    return best


@dataclass(frozen=True)
class MetricProbeReport:
    pairs_checked: int
    triples_checked: int
    symmetry_violations: tuple
    identity_violations: tuple
    triangle_violations: tuple

    @property
    def ok(self):
        return not (
            self.symmetry_violations
            or self.identity_violations
            or self.triangle_violations
        )


def d_ord_is_metric_probe(spaces) -> MetricProbeReport:
    """Empirical metric-axiom check over a sample of same-size spaces:
    symmetry, zero exactly on isomorphic pairs, triangle inequality on every
    ordered triple. Any violation would mean a bug, so the report names the
    offenders."""
    spaces = list(spaces)
    if len({s.n for s in spaces}) > 1:
        raise ValidationError("metric probe needs equal cardinalities")
    values = {}
    sym = []
    ident = []
    for i, j in itertools.combinations_with_replacement(range(len(spaces)), 2):
        dij = d_ord(spaces[i], spaces[j]).value
        dji = d_ord(spaces[j], spaces[i]).value
        values[(i, j)] = values[(j, i)] = dij
        if dij != dji:
            sym.append((i, j, dij, dji))
        if (dij == 0) != is_isomorphic(spaces[i], spaces[j]):
            ident.append((i, j, dij))
    triples = list(itertools.permutations(range(len(spaces)), 3))
    tri = []
    for i, j, t in triples:
        if values[(i, t)] > values[(i, j)] + values[(j, t)]:
            tri.append((i, j, t, values[(i, t)], values[(i, j)], values[(j, t)]))
    return MetricProbeReport(
        pairs_checked=len(spaces) * (len(spaces) + 1) // 2,
        triples_checked=len(triples),
        symmetry_violations=tuple(sym),
        identity_violations=tuple(ident),
        triangle_violations=tuple(tri),
    )
