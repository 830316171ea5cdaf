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


# multiply-adds per float32 product in d_ord. OpenBLAS runs a product this
# small on one thread; a larger one may wake a second thread, which then
# spin-waits between calls and takes a core from the caller.
PRODUCT_SIZE = 1 << 18


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
    `orders[h][tails[t]]`. Comparison c reads the pairs u[c] < v[c]; of
    the C = m(m-1)/2 comparisons of m pairs, tail t sends it to the
    comparison c' of the pairs tail_map[u[c]] and tail_map[v[c]], sorted,
    reversed when tail_map[u[c]] > tail_map[v[c]]. So `flat[t, c']` is c,
    plus C when reversed: an index into a's weights followed by their
    negations. C-contiguous intp indices keep the gather fast.
    """
    pairs = tuple(all_pairs(n))
    index = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    u, v = np.array(list(zip(*itertools.combinations(range(m), 2))), dtype=np.intp)
    comparison = np.zeros((m, m), dtype=np.intp)
    comparison[u, v] = np.arange(len(u))

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
        p, q = tail_map[u], tail_map[v]
        row[comparison[np.minimum(p, q), np.maximum(p, q)]] = np.arange(len(u)) + (p > q) * len(u)
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

    Every bijection is scored at once; `_scan_tables` splits them into a
    head and a tail. With a's comparison signs x and b's signs y under a
    bijection, both in {-1, 0, 1}, comparison c agrees, [y = x], with
    value (y*y + x*y) / 2 if x != 0 and 1 - y*y if x = 0. A bijection
    only permutes b's comparisons, so the sum of y*y over all of them is
    the same for every bijection, and twice the count of disagreements
    differs by a constant from the score -x.y plus 3 times the sum of y*y
    over a's ties.

    Signs are antisymmetric, so a tail sends each comparison to another,
    perhaps reversed. So b's signs are read once per head, on the C sorted
    comparisons, and each tail's weights are one signed gather of (-x, x)
    through `flat`. The (heads x tails) scores are one float32 matrix
    product, plus, when a ties some comparisons, one of y*y against 3 at
    the zero weights, computed a few heads at a time (`PRODUCT_SIZE`).
    Every term and partial sum is an integer of absolute value at most 3C
    (1,134 at n = 8), far below 2**24, so float32 adds them exactly in any
    order, however BLAS splits the work. Row-major order of the scores is
    (head, tail) order, which is lexicographic, so the first `argmin` is
    the lexicographically smallest optimum; the value is an integer
    recount of its disagreements.
    """
    if a.n != b.n:
        raise ValidationError("spaces must have the same cardinality")
    n = a.n
    if n > PERM_LIMIT:
        raise SizeLimitError("d_ord points", n, PERM_LIMIT)
    if n < 3:  # at most one pair: no comparisons to disagree on
        return OrdDistResult(0, tuple(range(n)), ())
    pairs, (u, v, orders, heads, tails, flat) = _scan_tables(n)
    levels_a = np.array([a.ranks[i][j] for i, j in pairs], dtype=np.float32)
    x = np.sign(levels_a.take(u) - levels_a.take(v))
    levels_b = np.array([b.ranks[i][j] for i, j in pairs], dtype=np.float32)[heads]
    y = levels_b.take(u, axis=1)  # b's signs under each head: (heads, C)
    y -= levels_b.take(v, axis=1)
    np.sign(y, out=y)
    weights = np.concatenate((-x, x))[flat].T
    ties = a.k < len(pairs)  # a ties the comparisons whose weight is 0
    if ties:
        tie_weights = np.float32(3) * (weights == 0)
    scores = np.empty((len(heads), len(tails)), dtype=np.float32)
    step = max(1, PRODUCT_SIZE // weights.size)
    for h in range(0, len(heads), step):
        rows, block = y[h:h + step], scores[h:h + step]
        np.dot(rows, weights, out=block)
        if ties:
            np.square(rows, out=rows)
            block += np.dot(rows, tie_weights)
    best = divmod(int(scores.argmin()), len(tails))
    perm = tuple(orders[best[0]][tails[best[1]]].tolist())
    levels = np.array([b.ranks[perm[i]][perm[j]] for i, j in pairs], dtype=np.float32)
    wrong = np.flatnonzero(np.sign(levels.take(u) - levels.take(v)) != x)
    return OrdDistResult(
        len(wrong), perm, tuple((pairs[u[c]], pairs[v[c]]) for c in wrong)
    )


def d_ord_oracle(a: OrdinalSpace, b: OrdinalSpace):
    """Brute force straight off the definition: for every bijection, count
    ordered quadruples (x,y,z,w) whose two relations differ, assert the
    count is divisible by 8, divide. Bijections are taken in
    `itertools.permutations` order, in blocks of at most 120 with int8
    signs, and the first minimum wins. Slow; exists to check d_ord."""
    if a.n != b.n:
        raise ValidationError("spaces must have the same cardinality")
    n = a.n
    if n > PERM_LIMIT:
        raise SizeLimitError("d_ord_oracle points", n, PERM_LIMIT)
    ra = np.array(a.ranks, dtype=np.int8)
    rb = np.array(b.ranks, dtype=np.int8)
    rel_a = np.sign(ra[:, :, None, None] - ra[None, None, :, :])
    perms = itertools.permutations(range(n))
    best = None
    while block := list(itertools.islice(perms, 120)):
        p = np.array(block)
        rp = rb[p[:, :, None], p[:, None, :]]
        rel_b = np.sign(rp[:, :, :, None, None] - rp[:, None, None, :, :])
        raw = (rel_a != rel_b).sum(axis=(1, 2, 3, 4))
        assert not (raw % 8).any(), "degenerate quadruples must never disagree"
        row = int(raw.argmin())
        value = int(raw[row]) // 8
        if best is None or value < best[0]:
            best = (value, block[row])
    return best
