import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    collinear,
    fixture_text,
    load_space,
    random_space,
    relabel,
    space_from_values,
)
from ordspace.census import CensusFilter, enumerate_spaces
from ordspace.errors import (
    AxiomViolation,
    SizeLimitError,
    UnderdeterminedOrder,
    ValidationError,
)
from ordspace.formats import parse_comparisons
from ordspace.space import (
    ComparisonList,
    DistanceMatrix,
    OrdinalSpace,
    Relation,
    all_pairs,
    canonical_form,
    find_isomorphism,
    from_comparisons,
    is_isomorphic,
    ordinal_type,
    realize,
    subspace,
    to_comparisons,
    weakly_similar,
)


def test_rank_matrix_validation():
    with pytest.raises(ValidationError):
        OrdinalSpace(2, 1, ((0, 1), (1, 1)))  # bad diagonal
    with pytest.raises(ValidationError):
        OrdinalSpace(2, 2, ((0, 1), (2, 0)))  # asymmetric
    with pytest.raises(ValidationError):
        OrdinalSpace(3, 3, ((0, 1, 3), (1, 0, 3), (3, 3, 0)))  # level 2 skipped
    with pytest.raises(ValidationError):
        OrdinalSpace(1, 1, ((0,),))


def test_ordinal_type_dense_ranks():
    d = DistanceMatrix.from_rows([[0, 5, 9], [5, 0, 7], [9, 7, 0]])
    s = ordinal_type(d)
    assert s.k == 3
    assert s.ranks[0][1] == 1 and s.ranks[1][2] == 2 and s.ranks[0][2] == 3


def fraction_ranks(d):
    """Dense ranks by exact Fraction comparison, the definition."""
    values = sorted({d.values[i][j] for i, j in all_pairs(d.n)})
    level = {v: r for r, v in enumerate(values, 1)}
    return tuple(
        tuple(level[d.values[i][j]] if i != j else 0 for j in range(d.n)) for i in range(d.n)
    )


@st.composite
def mixed_distances(draw):
    """Symmetric matrices mixing integer and p/q values, ties included."""
    n = draw(st.integers(1, 7))
    integer = st.integers(1, 12).map(Fraction)
    ratio = st.builds(Fraction, st.integers(1, 40), st.integers(1, 12))
    values = draw(st.lists(st.one_of(integer, ratio), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in zip(all_pairs(n), values):
        rows[i][j] = rows[j][i] = v
    return DistanceMatrix(n, tuple(map(tuple, rows)))


@settings(max_examples=200)
@given(mixed_distances())
def test_ordinal_type_ranks_like_the_fractions(d):
    assert ordinal_type(d).ranks == fraction_ranks(d)


def test_ordinal_type_keeps_huge_denominators_apart():
    # distinct 3,000-bit denominators: clearing all 780 values to their lcm
    # would multiply megabit integers, so only integer values are cleared
    rng = random.Random(26)
    n = 40
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in all_pairs(n):
        den = rng.getrandbits(3000) | 1 << 2999
        rows[i][j] = rows[j][i] = Fraction(rng.randrange(den, 3 * den), den)
    d = DistanceMatrix(n, tuple(map(tuple, rows)))
    start = time.perf_counter()
    s = ordinal_type(d)
    assert time.perf_counter() - start < 5
    assert s.ranks == fraction_ranks(d)


def test_realize_round_trip_fixtures():
    for name in ("min3.ord", "min4.ord", "tree5_a.ord", "table6.ord", "seven_swap.ord"):
        s = load_space(name)
        d = realize(s)
        assert ordinal_type(d) == s
        for i in range(s.n):
            for j in range(i + 1, s.n):
                assert 1 < d.values[i][j] <= 1.5


def test_realize_round_trip_random():
    rng = random.Random(71)
    for _ in range(60):
        s = random_space(rng, rng.randint(2, 7))
        assert ordinal_type(realize(s)) == s


def test_subspace_renormalizes():
    s = load_space("table6.ord")
    t = subspace(s, (0, 2, 5))  # ranks 12, 6, 13 among a, c, f
    assert t.n == 3 and t.k == 3
    assert t.ranks[0][1] == 2  # a-c was 12, middle of {6, 12, 13}
    with pytest.raises(ValidationError):
        subspace(s, ())


def test_relation_flip():
    s = load_space("min3.ord")
    assert s.relation(0, 1, 0, 2) is Relation.LT
    assert s.relation(0, 2, 0, 1) is Relation.GT
    assert s.relation(1, 1, 2, 2) is Relation.EQ


def test_canonical_form_is_class_invariant():
    rng = random.Random(5)
    for _ in range(40):
        s = random_space(rng, rng.randint(2, 5))
        perm = list(range(s.n))
        rng.shuffle(perm)
        t = relabel(s, perm)
        assert canonical_form(s) == canonical_form(t)
        assert canonical_form(canonical_form(s)) == canonical_form(s)


def test_canonical_form_guard():
    s = space_from_values(9, list(range(36)))
    with pytest.raises(SizeLimitError):
        canonical_form(s)


def test_find_isomorphism_witness_is_sound():
    a = load_space("tree5_a.ord")
    perm = (3, 0, 4, 1, 2)
    b = relabel(a, perm)
    f = find_isomorphism(a, b)
    assert f is not None
    for x in range(a.n):
        for y in range(a.n):
            assert a.ranks[x][y] == b.ranks[f[x]][f[y]]


def _first_isomorphism_by_scan(a, b):
    """Oracle: the first permutation, in itertools order, preserving ranks."""
    for f in itertools.permutations(range(b.n)):
        if all(a.ranks[x][y] == b.ranks[f[x]][f[y]] for x in range(a.n) for y in range(a.n)):
            return f
    return None


def test_find_isomorphism_is_the_first_match_of_a_permutation_scan():
    rng = random.Random(29)
    small = [s for n in range(1, 5) for s in enumerate_spaces(n, CensusFilter.ALL)]
    five = rng.sample(enumerate_spaces(5, CensusFilter.INJECTIVE), 500)
    by_n = {}
    for s in small + five:
        by_n.setdefault(s.n, []).append(s)
    for s in small + five:
        perm = list(range(s.n))
        rng.shuffle(perm)
        for b in (relabel(s, perm), rng.choice(by_n[s.n])):
            assert find_isomorphism(s, b) == _first_isomorphism_by_scan(s, b)


def test_from_values_agrees_with_dense_ranking():
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(1, 7)
        pool = [rng.randint(-5, 5) for _ in range(3)] + [Fraction(rng.randint(1, 9), 4)]
        values = [rng.choice(pool) for _ in all_pairs(n)]
        assert OrdinalSpace.from_values(n, values) == space_from_values(n, values)


def test_not_isomorphic_pair():
    a = load_space("tree5_a.ord")
    b = load_space("tree5_b.ord")
    assert find_isomorphism(a, b) is None
    assert not is_isomorphic(a, b)


def test_weak_similarity_tracks_ordinal_type():
    a = load_space("min4.ord")
    d = realize(a)
    scaled = DistanceMatrix.from_rows(
        [[v * 7 for v in row] for row in d.values]
    )
    assert weakly_similar(d, scaled)
    assert not weakly_similar(realize(load_space("tree5_a.ord")),
                              realize(load_space("tree5_b.ord")))


def test_comparisons_round_trip():
    rng = random.Random(13)
    spaces = [load_space("min4.ord"), load_space("tree5_a.ord")]
    spaces += [random_space(rng, rng.randint(2, 6)) for _ in range(20)]
    for s in spaces:
        assert from_comparisons(to_comparisons(s)) == s


@st.composite
def rewritten_comparisons(draw):
    """A space on 1-6 points and its minimal comparison list, shuffled,
    with points swapped within pairs and some LT entries written as GT
    with their sides exchanged."""
    n = draw(st.integers(1, 6))
    p = n * (n - 1) // 2
    s = space_from_values(n, draw(st.lists(st.integers(1, max(p, 1)), min_size=p, max_size=p)))
    entries = []
    for x, y, z, w, rel in draw(st.permutations(to_comparisons(s).entries)):
        if draw(st.booleans()):
            x, y = y, x
        if draw(st.booleans()):
            z, w = w, z
        if rel is Relation.LT and draw(st.booleans()):
            x, y, z, w, rel = z, w, x, y, Relation.GT
        entries.append((x, y, z, w, rel))
    return s, ComparisonList(n, tuple(entries))


@settings(max_examples=300)
@given(rewritten_comparisons())
def test_comparisons_round_trip_survives_rewriting(case):
    s, c = case
    assert from_comparisons(c) == s


def test_comparison_axiom_errors():
    LT, EQ, GT = Relation.LT, Relation.EQ, Relation.GT
    # 2-cycle: p < q and q < p
    with pytest.raises(AxiomViolation) as err:
        from_comparisons(
            ComparisonList(3, ((0, 1, 0, 2, LT), (0, 2, 0, 1, LT)))
        )
    assert err.value.axiom == "iii"
    # p < p directly
    with pytest.raises(AxiomViolation) as err:
        from_comparisons(ComparisonList(2, ((0, 1, 0, 1, LT),)))
    assert err.value.axiom == "i"
    # p < q clashing with p = q
    with pytest.raises(AxiomViolation) as err:
        from_comparisons(
            ComparisonList(3, ((0, 1, 0, 2, LT), (0, 1, 0, 2, EQ), (1, 2, 0, 1, GT)))
        )
    assert err.value.axiom == "v/vi"
    # self pair equal to a proper pair
    with pytest.raises(AxiomViolation) as err:
        from_comparisons(ComparisonList(2, ((0, 0, 0, 1, EQ),)))
    assert err.value.axiom == "vii"
    # longer strict cycle through an equality
    with pytest.raises(AxiomViolation):
        from_comparisons(
            ComparisonList(
                4,
                (
                    (0, 1, 0, 2, LT),
                    (0, 2, 0, 3, LT),
                    (0, 3, 0, 1, LT),
                ),
            )
        )


def test_self_pair_entries_violate_axiom_vii():
    LT, EQ, GT = Relation.LT, Relation.EQ, Relation.GT
    for entry in (
        (0, 0, 1, 1, LT),  # self pair strictly below a self pair
        (0, 0, 1, 2, EQ),  # self pair equal to a proper pair
        (1, 2, 0, 0, LT),  # proper pair below a self pair
        (0, 0, 1, 2, GT),  # the same, written the other way round
    ):
        with pytest.raises(AxiomViolation) as err:
            from_comparisons(ComparisonList(3, (entry,)))
        assert err.value.axiom == "vii", entry
        assert err.value.witnesses == [entry], entry


def test_high_index_first_pairs_normalize():
    reversed_ = parse_comparisons(fixture_text("chain3_reversed.cmp"))
    assert reversed_.entries[0][:4] == (1, 0, 2, 0)
    assert from_comparisons(reversed_) == from_comparisons(
        parse_comparisons(fixture_text("chain3.cmp"))
    )


def test_comparisons_underdetermined():
    with pytest.raises(UnderdeterminedOrder):
        from_comparisons(ComparisonList(3, ((0, 1, 0, 2, Relation.LT),)))


def test_comparisons_cost_follows_the_entries():
    # one entry on 2,000 points: the 1,999,000 pairs are never built
    c = parse_comparisons("2000\n1 2 1 3 LT\n")
    t0 = time.perf_counter()
    with pytest.raises(UnderdeterminedOrder) as err:
        from_comparisons(c)
    assert time.perf_counter() - t0 < 0.2
    assert str(err.value) == (
        "order between pair classes ((0, 1),) and ((0, 3),) "
        "is not determined by the given comparisons"
    )


def _pair_chain(n):
    pairs = all_pairs(n)
    return [(*a, *b, Relation.LT) for a, b in zip(pairs, pairs[1:])]


def test_comparisons_deep_chain():
    # 1,224 strict entries chain all 1,225 pairs of 50 points
    s = from_comparisons(ComparisonList(50, tuple(_pair_chain(50))))
    assert s.level_vector() == tuple(range(1, 1226))


def test_comparisons_deep_cycle():
    entries = _pair_chain(50)
    (a, b), (c, d) = all_pairs(50)[-1], all_pairs(50)[0]
    entries.append((a, b, c, d, Relation.LT))
    with pytest.raises(AxiomViolation) as err:
        from_comparisons(ComparisonList(50, tuple(entries)))
    assert err.value.axiom == "v/vi"
    assert err.value.witnesses == entries


@st.composite
def comparison_lists(draw):
    """3-10 entries on 2-5 points; pairs are proper, written either way
    round, or the self pair (x1,x1); all three relations."""
    n = draw(st.integers(2, 5))
    pair = st.sampled_from([(x, y) for x in range(n) for y in range(n) if x != y] + [(0, 0)])
    entry = st.builds(lambda p, q, rel: (*p, *q, rel), pair, pair, st.sampled_from(Relation))
    return ComparisonList(n, tuple(draw(st.lists(entry, min_size=3, max_size=10))))


@settings(max_examples=400)
@given(comparison_lists())
def test_violation_witnesses_alone_are_a_contradiction(c):
    try:
        from_comparisons(c)
    except AxiomViolation as err:
        with pytest.raises(AxiomViolation) as again:
            from_comparisons(ComparisonList(c.n, tuple(err.witnesses)))
        assert again.value.axiom == err.axiom
    except UnderdeterminedOrder:
        pass


def test_gt_entries_normalize():
    s = from_comparisons(
        ComparisonList(
            3,
            (
                (0, 2, 0, 1, Relation.GT),
                (0, 2, 1, 2, Relation.GT),
                (1, 2, 0, 1, Relation.GT),
            ),
        )
    )
    assert s == load_space("min3.ord")


def test_axioms_exhaustive_small():
    """Def-style conditions for relation() on a couple of concrete spaces;
    the full census sweep lives in the acceptance suite."""
    for s in (load_space("min4.ord"), collinear(0, 1, 2), load_space("twomax3.ord")):
        pts = range(s.n)
        for x, y, z, w in itertools.product(pts, repeat=4):
            r = s.relation(x, y, z, w)
            assert s.relation(x, y, x, y) is Relation.EQ
            assert r is s.relation(y, x, z, w) is s.relation(x, y, w, z)
            assert r is s.relation(z, w, x, y).flipped()
        for x, y, u, v, z, w in itertools.product(pts, repeat=6):
            ab = s.relation(x, y, u, v)
            bc = s.relation(u, v, z, w)
            ac = s.relation(x, y, z, w)
            if ab is Relation.EQ and bc is Relation.EQ:
                assert ac is Relation.EQ
            if ab is Relation.LT and bc in (Relation.LT, Relation.EQ):
                assert ac is Relation.LT
            if ab in (Relation.LT, Relation.EQ) and bc is Relation.LT:
                assert ac is Relation.LT


def test_constructor_errors():
    LT = Relation.LT
    cases = [
        (lambda: OrdinalSpace(0, 0, ()), "at least one point"),
        (lambda: OrdinalSpace(2, 1, ((0, 1), (1,))), "shape"),
        (lambda: OrdinalSpace(2, 1, ((0, 2), (2, 0))), "outside 1..1"),
        (lambda: DistanceMatrix(0, ()), "at least one point"),
        (lambda: DistanceMatrix.from_rows([[0, 1], [1]]), "shape"),
        (lambda: DistanceMatrix.from_rows([[1, 1], [1, 0]]), "diagonal"),
        (lambda: DistanceMatrix.from_rows([[0, 1], [2, 0]]), "symmetric"),
        (lambda: DistanceMatrix.from_rows([[0, 0], [0, 0]]), "positive"),
        (lambda: ComparisonList(0, ()), "at least one point"),
        (lambda: ComparisonList(2, ((0, 1, 0, 1),)), "5-tuple"),
        (lambda: ComparisonList(2, ((0, 1, 0, 2, LT),)), "out of range"),
        (lambda: ComparisonList(2, ((0, 1, 0, 1, "<"),)), "bad relation"),
    ]
    for build, message in cases:
        with pytest.raises(ValidationError, match=message):
            build()


def test_self_pair_entries_consistent_with_axiom_vii_change_nothing():
    chain = parse_comparisons(fixture_text("chain3.cmp"))
    LT, EQ, GT = Relation.LT, Relation.EQ, Relation.GT
    extra = ((0, 0, 1, 1, EQ), (0, 0, 1, 2, LT), (1, 2, 0, 0, GT))
    padded = ComparisonList(chain.n, chain.entries + extra)
    assert from_comparisons(padded) == from_comparisons(chain)
