"""Comparison-disagreement distance between equal-size spaces."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import collinear, load_space, random_space, relabel, space_from_values
from ordspace.errors import SizeLimitError, ValidationError
from ordspace.orddist import OrdDistResult, _scan_tables, d_ord, d_ord_oracle
from ordspace.space import PERM_LIMIT, all_pairs, find_isomorphism, is_isomorphic

THREE_POINT_TYPES = [
    space_from_values(3, [1, 1, 1]),
    space_from_values(3, [1, 1, 2]),
    space_from_values(3, [1, 2, 2]),
    space_from_values(3, [1, 2, 3]),
]


def test_distance_to_self_is_zero_with_identity_witness():
    # seven points span 42 blocks of 120 bijections; the identity must win
    # against every later block, including the reversal of collinear points
    spaces = THREE_POINT_TYPES + [
        load_space("table6.ord"),
        load_space("seven_swap.ord"),
        collinear(*range(7)),
    ]
    for s in spaces:
        r = d_ord(s, s)
        assert r.value == 0
        assert r.witness == tuple(range(s.n))
        assert r.disagreements == ()


def test_chain_vs_all_equal():
    r = d_ord(load_space("min3.ord"), space_from_values(3, [1, 1, 1]))
    assert r.value == 3
    # every comparison of distinct pairs disagrees: strict vs tie
    assert r.disagreements == (
        ((0, 1), (0, 2)),
        ((0, 1), (1, 2)),
        ((0, 2), (1, 2)),
    )


def test_chain_vs_two_nearest_sides():
    r = d_ord(load_space("min3.ord"), space_from_values(3, [1, 1, 2]))
    assert r.value == 1
    assert r.witness == (1, 0, 2)
    assert r.disagreements == (((0, 1), (1, 2)),)


def test_value_equals_disagreement_count():
    rng = random.Random(2)
    for _ in range(20):
        a = random_space(rng, 4, max_value=3)
        b = random_space(rng, 4, max_value=3)
        r = d_ord(a, b)
        assert r.value == len(r.disagreements)


def test_relabeling_gives_zero_and_inverse_witness():
    s = load_space("min3.ord")
    r = d_ord(s, relabel(s, (2, 1, 0)))
    assert r.value == 0
    assert r.witness == (2, 1, 0)
    t = load_space("tree5_a.ord")
    perm = (3, 0, 4, 1, 2)
    assert d_ord(t, relabel(t, perm)).value == 0
    # the inverse of this relabeling lies in the last block of bijections
    seven = load_space("seven_swap.ord")
    r = d_ord(seven, relabel(seven, (6, 5, 3, 4, 2, 1, 0)))
    assert r.value == 0
    assert r.witness == (6, 5, 4, 2, 3, 1, 0)


def test_zero_iff_isomorphic_exhaustive_n3():
    for a, b in itertools.combinations_with_replacement(THREE_POINT_TYPES, 2):
        assert (d_ord(a, b).value == 0) == is_isomorphic(a, b)


def test_symmetry():
    rng = random.Random(8)
    for _ in range(15):
        a = random_space(rng, 4, max_value=4)
        b = random_space(rng, 4, max_value=4)
        assert d_ord(a, b).value == d_ord(b, a).value


def test_agrees_with_ordered_quadruple_oracle():
    for a, b in itertools.product(THREE_POINT_TYPES, repeat=2):
        value, perm = d_ord_oracle(a, b)
        r = d_ord(a, b)
        assert r.value == value
        assert r.witness == perm
    rng = random.Random(13)
    for _ in range(12):
        a = random_space(rng, 4, max_value=3)
        b = random_space(rng, 4, max_value=4)
        value, _ = d_ord_oracle(a, b)
        assert d_ord(a, b).value == value
    # several blocks of bijections; few levels give tied optima across blocks
    for n in (6, 6, 6, 7):
        a = random_space(rng, n, max_value=3)
        b = random_space(rng, n, max_value=3)
        r = d_ord(a, b)
        assert (r.value, r.witness) == d_ord_oracle(a, b)


@st.composite
def same_size_pairs(draw):
    """Two spaces on the same 2-5 points, each with distinct ranks or
    with ties drawn from a few levels."""
    n = draw(st.integers(2, 5))
    p = n * (n - 1) // 2

    def one():
        if draw(st.booleans()):
            return space_from_values(n, draw(st.permutations(range(p))))
        levels = draw(st.integers(1, p))
        return space_from_values(
            n, draw(st.lists(st.integers(1, levels), min_size=p, max_size=p))
        )

    return one(), one()


@settings(max_examples=500, deadline=None)
@given(same_size_pairs())
def test_d_ord_properties(pair):
    a, b = pair
    r = d_ord(a, b)
    assert (r.value, r.witness) == d_ord_oracle(a, b)
    assert d_ord(b, a).value == r.value
    assert (r.value == 0) == (find_isomorphism(a, b) is not None)
    assert len(r.disagreements) == r.value


def count_disagreements(a, b, perm):
    def sign(x):
        return (x > 0) - (x < 0)

    pairs = list(itertools.combinations(range(a.n), 2))
    count = 0
    for (pa, pb) in itertools.combinations(pairs, 2):
        ra = sign(a.ranks[pa[0]][pa[1]] - a.ranks[pb[0]][pb[1]])
        rb = sign(
            b.ranks[perm[pa[0]]][perm[pa[1]]] - b.ranks[perm[pb[0]]][perm[pb[1]]]
        )
        count += ra != rb
    return count


def test_witness_is_lexicographically_smallest_optimum():
    rng = random.Random(21)
    for _ in range(8):
        a = random_space(rng, 4, max_value=2)
        b = random_space(rng, 4, max_value=2)
        r = d_ord(a, b)
        optima = [
            perm
            for perm in itertools.permutations(range(4))
            if count_disagreements(a, b, perm) == r.value
        ]
        assert r.witness == min(optima)
        assert all(count_disagreements(a, b, p) >= r.value for p in itertools.permutations(range(4)))


def test_guards():
    with pytest.raises(ValidationError):
        d_ord(THREE_POINT_TYPES[0], space_from_values(2, [1]))
    big = space_from_values(9, [1] * 36)
    with pytest.raises(SizeLimitError):
        d_ord(big, big)
    with pytest.raises(SizeLimitError, match="size 9 exceeds guard limit 8"):
        d_ord_oracle(big, big)
    one = space_from_values(1, [])
    assert d_ord(one, one).value == 0


def test_oracle_needs_equal_cardinalities():
    with pytest.raises(ValidationError, match="same cardinality"):
        d_ord_oracle(load_space("min3.ord"), load_space("min4.ord"))


def reference_d_ord(a, b):
    """The integer block scorer that preceded the float32 one, kept as it
    was: b's levels under each permutation of a block, then the signs of
    all comparisons against a's, counted per row."""
    if a.n != b.n:
        raise ValidationError("spaces must have the same cardinality")
    n = a.n
    if n > PERM_LIMIT:
        raise SizeLimitError("d_ord points", n, PERM_LIMIT)
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


def injective_pair(rng, n, near):
    """Two spaces with distinct ranks, as the distance benchmark draws
    them: independent, or (near) a relabelled copy with up to three
    exchanges of two consecutive ranks."""
    p = n * (n - 1) // 2
    values = rng.sample(range(p), p)
    if not near:
        return space_from_values(n, values), space_from_values(n, rng.sample(range(p), p))
    swapped = list(values)
    for _ in range(rng.randint(0, 3)):
        r = rng.randrange(p - 1)
        swapped = [2 * r + 1 - x if x in (r, r + 1) else x for x in swapped]
    return space_from_values(n, values), relabel(space_from_values(n, swapped), rng.sample(range(n), n))


def test_matches_reference_scorer_on_seeded_pairs():
    rng = random.Random(22)
    pairs = []
    for n in range(1, 8):
        for _ in range(80):
            levels = rng.choice((1, 2, 3, 6, None))
            pairs.append((random_space(rng, n, levels), random_space(rng, n, levels)))
    for levels in (1, 3, 28):
        for _ in range(4):
            pairs.append((random_space(rng, 8, levels), random_space(rng, 8, rng.choice((1, 3, 28)))))
    for n in (6, 7):
        for _ in range(12):
            pairs.append(injective_pair(rng, n, near=True))
            pairs.append(injective_pair(rng, n, near=False))
    assert len(pairs) == 620
    for a, b in pairs:
        assert d_ord(a, b) == reference_d_ord(a, b)


def test_scan_tables_stay_small():
    # the tables are cached for the life of the process; the gather is
    # several times slower on narrower or Fortran-ordered indices
    for n in range(3, PERM_LIMIT + 1):
        pairs, tables = _scan_tables(n)
        assert sum(t.nbytes for t in tables) < 512 * 1024
        assert all(t.dtype == np.intp and t.flags.c_contiguous for t in tables)
        assert not any(t.flags.writeable for t in tables)


def disagreement_counts(a, b):
    """Disagreements under every bijection, in lexicographic order, so
    bijection k lies in head k // 120 (n >= 5) at tail k % 120."""
    pairs = all_pairs(a.n)
    first, second = np.array(pairs).T
    u, v = np.array(list(itertools.combinations(range(len(pairs)), 2))).T
    levels_a = np.array([a.ranks[i][j] for i, j in pairs])
    x = np.sign(levels_a[u] - levels_a[v])
    ranks_b = np.array(b.ranks)
    perms = np.array(list(itertools.permutations(range(a.n))))
    counts = []
    for block in np.split(perms, range(720, len(perms), 720)):
        levels = ranks_b[block[:, first], block[:, second]]
        counts.append((np.sign(levels[:, u] - levels[:, v]) != x).sum(axis=1))
    return perms, np.concatenate(counts)


def test_tied_optima_across_heads_keep_the_first():
    # two levels tie many bijections; the optima of each pair span several
    # heads, and in some a later head holds an optimum at an earlier tail,
    # so only (head, tail) order finds the lexicographically first one
    rng = random.Random(24)
    crossing = []
    for n, count in ((7, 4), (8, 3)):
        for _ in range(count):
            a, b = random_space(rng, n, 2), random_space(rng, n, 2)
            perms, counts = disagreement_counts(a, b)
            optima = np.flatnonzero(counts == counts.min())
            assert len(set(optima // 120)) > 1
            first = optima[0]
            crossing.append(any(k // 120 > first // 120 and k % 120 < first % 120 for k in optima))
            r = d_ord(a, b)
            assert r == reference_d_ord(a, b)
            assert (r.value, r.witness) == (counts.min(), tuple(perms[first].tolist()))
    assert sum(crossing) >= 4


def test_all_equal_eight_points_give_the_identity():
    # every bijection scores alike when a ties every comparison
    flat8 = space_from_values(8, [1] * 28)
    other = random_space(random.Random(3), 8, 4)
    for b in (flat8, other):
        r = d_ord(flat8, b)
        assert r.witness == tuple(range(8))
        assert r == reference_d_ord(flat8, b)
    assert d_ord(flat8, flat8).value == 0


def test_only_optima_in_the_last_head():
    # an injective eight-point space has no symmetry, so a relabelled copy
    # has one optimum: the inverse relabelling, here in the last head
    s = space_from_values(8, random.Random(8).sample(range(28), 28))
    witness = (7, 6, 5, 2, 0, 4, 1, 3)
    inverse = tuple(witness.index(i) for i in range(8))
    b = relabel(s, inverse)
    perms, counts = disagreement_counts(s, b)
    optima = np.flatnonzero(counts == 0)
    assert len(optima) == 1 and optima[0] // 120 == len(perms) // 120 - 1
    r = d_ord(s, b)
    assert (r.value, r.witness) == (0, witness)
    assert r == reference_d_ord(s, b)
