"""Comparison-disagreement distance between equal-size spaces."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import collinear, load_space, random_space, relabel, space_from_values
from ordspace.errors import SizeLimitError, ValidationError
from ordspace.orddist import d_ord, d_ord_is_metric_probe, d_ord_oracle
from ordspace.space import find_isomorphism, is_isomorphic

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
        assert (r.value, r.witness) == d_ord_oracle(a, b, limit=7)


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
    with pytest.raises(SizeLimitError):
        d_ord_oracle(load_space("seven_swap.ord"), load_space("seven_swap.ord"))
    one = space_from_values(1, [])
    assert d_ord(one, one).value == 0


def test_oracle_needs_equal_cardinalities():
    with pytest.raises(ValidationError, match="same cardinality"):
        d_ord_oracle(load_space("min3.ord"), load_space("min4.ord"))


def test_metric_probe_on_all_three_point_types():
    report = d_ord_is_metric_probe(THREE_POINT_TYPES)
    assert report.ok
    assert report.pairs_checked == 10
    assert report.triples_checked == 24
    assert report.symmetry_violations == ()
    assert report.identity_violations == ()
    assert report.triangle_violations == ()


def test_metric_probe_sampling_and_validation():
    with pytest.raises(ValidationError):
        d_ord_is_metric_probe([THREE_POINT_TYPES[0], space_from_values(2, [1])])
