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

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError, ValidationError
from .space import PERM_LIMIT, OrdinalSpace, all_pairs


@dataclass(frozen=True)
class OrdDistResult:
    value: int
    witness: tuple  # witness[i] = image of point i
    disagreements: tuple  # ((pair, pair), ...) in the first space's labels


@functools.cache
def _scan_tables(n):
    """Read-only index tables of the bijection scan on n >= 3 points.

    A bijection is a head (the images of the first n - free points, in
    lexicographic order) and a tail (a permutation of the last `free`
    positions). `orders[h]` is the point order "head, then the other
    points ascending", `heads[h]` its pair map, and `tails[t]` the
    positions a tail sends the points to, so bijection (h, t) is
    `orders[h][tails[t]]`. `flat[t, c]` is P * m + Q for the pairs P, Q
    that comparison c reads under tail t, in a sign table relabelled by a
    head. C-contiguous intp indices keep the gather fast.
    """
    pairs = tuple(all_pairs(n))
    index = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    u, v = np.array(list(zip(*itertools.combinations(range(m), 2))), dtype=np.intp)

    def pair_map(order):
        return [index[min(order[i], order[j]), max(order[i], order[j])] for i, j in pairs]

    free = min(n, 5)  # points permuted within one block of at most 120 rows
    fixed = n - free
    orders = [
        head + tuple(sorted(set(range(n)) - set(head)))
        for head in itertools.permutations(range(n), fixed)
    ]
    tails = [
        tuple(range(fixed)) + tuple(fixed + x for x in tail)
        for tail in itertools.permutations(range(free))
    ]
    flat = np.empty((len(tails), len(u)), dtype=np.intp)
    for row, tail in zip(flat, tails):  # row by row: no full-size temporaries
        tail_map = np.array(pair_map(tail), dtype=np.intp)
        row[:] = tail_map[u] * m + tail_map[v]
    tables = (
        u,
        v,
        np.array(orders, dtype=np.intp),
        np.array([pair_map(o) for o in orders], dtype=np.intp),
        np.array(tails, dtype=np.intp),
        flat,
    )
    for t in tables:
        t.flags.writeable = False
    return pairs, tables


def d_ord(a: OrdinalSpace, b: OrdinalSpace) -> OrdDistResult:
    """Minimize disagreeing comparisons over all bijections.

    Every bijection is scored, in lexicographic order, in blocks of at most
    120 that share a head (see `_scan_tables`). With a's comparison signs
    x and b's signs y under a bijection, both in {-1, 0, 1}, comparison c
    agrees, [y = x], with value (y*y + x*y) / 2 if x != 0 and 1 - y*y if
    x = 0. A bijection only permutes b's comparisons, so the sum of y*y
    over all of them is the same for every bijection, and the count of
    disagreements differs by a constant from the score -y.x/2 plus 3/2 the
    sum of y*y over a's ties. So each block is one gather of y from b's
    sign table relabelled by the head and one float32 matrix-vector
    product, plus a sum of squares over a's ties when it has any. Scores
    are half-integers below 600 in absolute value, as is every partial
    sum, so float32 adds them exactly in any order. `argmin` takes the
    first minimum of a block and only a strictly smaller score replaces
    the incumbent, so the witness is the lexicographically smallest
    optimum; the value is an integer recount of its disagreements.
    """
    if a.n != b.n:
        raise ValidationError("spaces must have the same cardinality")
    n = a.n
    if n > PERM_LIMIT:
        raise SizeLimitError("d_ord points", n, PERM_LIMIT)
    if n < 3:  # at most one pair: no comparisons to disagree on
        return OrdDistResult(0, tuple(range(n)), ())
    pairs, (u, v, orders, heads, tails, flat) = _scan_tables(n)
    levels_a = np.array([a.ranks[i][j] for i, j in pairs])
    levels_b = np.array([b.ranks[i][j] for i, j in pairs])
    x = np.sign(levels_a[u] - levels_a[v])
    signs_b = np.sign(levels_b[:, None] - levels_b).astype(np.float32)
    relabelled = signs_b[heads[:, :, None], heads[:, None, :]].reshape(len(heads), -1)
    weights = (x * -0.5).astype(np.float32)
    ties = np.flatnonzero(x == 0)
    best_score = np.inf
    for h, table in enumerate(relabelled):
        y = table[flat]
        scores = y @ weights
        if ties.size:
            scores += 1.5 * np.square(y[:, ties]).sum(axis=1)
        row = scores.argmin()
        if scores[row] < best_score:
            best_score, best = scores[row], (h, row)
    perm = tuple(orders[best[0]][tails[best[1]]].tolist())
    levels = np.array([b.ranks[perm[i]][perm[j]] for i, j in pairs])
    wrong = np.flatnonzero(np.sign(levels[u] - levels[v]) != x)
    return OrdDistResult(
        len(wrong), perm, tuple((pairs[u[c]], pairs[v[c]]) for c in wrong)
    )


def d_ord_oracle(a: OrdinalSpace, b: OrdinalSpace):
    """Brute force straight off the definition: for every bijection, count
    ordered quadruples (x,y,z,w) whose two relations differ, assert the
    count is divisible by 8, divide. Slow; exists to check d_ord."""
    if a.n != b.n:
        raise ValidationError("spaces must have the same cardinality")
    n = a.n
    if n > PERM_LIMIT:
        raise SizeLimitError("d_ord_oracle points", n, PERM_LIMIT)
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
