"""Line embeddability: majorization, the exact LP decision, the four-point
classification, and class-profile conditions."""

import functools
import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURES,
    collinear,
    fixture_text,
    load_space,
    random_space,
    relabel,
    space_from_values,
)
from ordspace import simplex
from ordspace.census import CensusFilter, enumerate_spaces
from ordspace.errors import SizeLimitError, SolverError, ValidationError
from ordspace.formats import parse_distance_csv
from ordspace.line import (
    NOT_EMBEDDABLE,
    MajorizationMode,
    MajorizationResult,
    SeqRelation,
    check_majorization,
    class_profile,
    classify_four_point,
    compare_sequences,
    embed_line,
    find_majorizing_enumeration,
    interval_ranks,
    majorization_consequences,
    _forced_ordering,
    _is_nested,
    _margin_lp,
    _pattern_tag,
    probe_majorization_conjecture,
    profile_equivalence_report,
    profile_necessary_check,
)
from ordspace.space import OrdinalSpace, dp_pairs, ordinal_type

IDENT7 = tuple(range(7))

ALL_EQUAL_3 = space_from_values(3, [1, 1, 1])
ALL_EQUAL_4 = space_from_values(4, [1, 1, 1, 1, 1, 1])

CASE_TAGS = [f"d{i}" for i in range(1, 14)] + ["d15"]


def test_index_sequence_validation():
    s, e = load_space("min3.ord"), (0, 1, 2)
    assert interval_ranks(s, e, (1, 1, 3)) == (0, 3)
    with pytest.raises(ValidationError, match="at least two entries"):
        interval_ranks(s, e, (2,))
    with pytest.raises(ValidationError, match="must be nondecreasing"):
        interval_ranks(s, e, (3, 2))
    with pytest.raises(ValidationError, match="1-based"):
        interval_ranks(s, e, (0, 1))


def test_interval_ranks_min3():
    s = load_space("min3.ord")
    assert interval_ranks(s, (0, 1, 2), (1, 2, 3)) == (1, 2)
    # repeated position gives a zero interval
    assert interval_ranks(s, (0, 1, 2), (1, 1, 3)) == (0, 3)
    with pytest.raises(ValidationError):
        interval_ranks(s, (0, 1, 2), (1, 4))
    with pytest.raises(ValidationError):
        interval_ranks(s, (0, 1, 1), (1, 2))


def test_compare_sequences_examples():
    s = load_space("min3.ord")
    e = (0, 1, 2)
    assert compare_sequences(s, (1, 2), (2, 3), e) is SeqRelation.PREC
    assert compare_sequences(s, (1, 1), (2, 2), e) is SeqRelation.EQUIV
    assert compare_sequences(s, (1, 3), (1, 2), e) is SeqRelation.NEITHER
    with pytest.raises(ValidationError):
        compare_sequences(s, (1, 2), (1, 2, 3), e)


def test_compare_sequences_seven_point():
    s = load_space("seven_swap.ord")
    assert compare_sequences(s, (1, 3, 4), (4, 6, 7), IDENT7) is SeqRelation.PREC


def test_seven_point_full_fails_with_pinned_counterexample():
    s = load_space("seven_swap.ord")
    res = check_majorization(s, IDENT7, MajorizationMode.FULL)
    assert not res
    assert res.counterexample == ((1, 3, 4), (4, 6, 7))


def test_seven_point_consecutive_passes():
    s = load_space("seven_swap.ord")
    res = check_majorization(s, IDENT7, MajorizationMode.CONSECUTIVE)
    assert res.ok
    assert res.counterexample is None


def test_min3_identity_majorizes():
    s = load_space("min3.ord")
    assert check_majorization(s, (0, 1, 2), MajorizationMode.FULL).ok


def test_check_majorization_rejects_bad_enumeration():
    s = load_space("min3.ord")
    with pytest.raises(ValidationError):
        check_majorization(s, (0, 1, 1))


def test_check_majorization_equiv_violation():
    # positions (1,2,3) and (2,3,4) both have interval ranks (1, 1), but
    # their endpoint ranks are 3 and 2
    s = OrdinalSpace.from_rows(((0, 1, 1, 2), (1, 0, 3, 1), (1, 3, 0, 4), (2, 1, 4, 0)))
    assert check_majorization(s, (2, 0, 1, 3)) == MajorizationResult(
        False, ((1, 2, 3), (2, 3, 4))
    )


def test_find_majorizing_enumeration_examples():
    assert find_majorizing_enumeration(load_space("min3.ord")) == (0, 1, 2)
    assert find_majorizing_enumeration(load_space("case_d8.ord")) == (0, 1, 2, 3)
    assert find_majorizing_enumeration(ALL_EQUAL_3) is None
    with pytest.raises(SizeLimitError, match="size 9 exceeds guard limit 8"):
        find_majorizing_enumeration(collinear(*range(9)))


def test_embed_line_min3_witness():
    w = embed_line(load_space("min3.ord"))
    assert w is not None
    assert w.gaps == (Fraction(1, 3), Fraction(2, 3))
    assert w.margin == Fraction(1, 3)
    assert w.coordinates() == (Fraction(0), Fraction(1, 3), Fraction(1))


def test_embed_line_two_max_sides_refused():
    assert embed_line(load_space("twomax3.ord")) is None


def test_embed_line_d8_gap_proportions():
    w = embed_line(load_space("case_d8.ord"))
    assert w is not None
    g = w.gaps
    # a = b + c with b = c: gaps proportional to (2, 1, 1) in some direction
    assert g in ((2 * g[1], g[1], g[1]), (g[0], g[0], 2 * g[0]))


def test_embed_line_guard_and_single_point():
    w = embed_line(space_from_values(1, []))
    assert w.ordering == (0,)
    # the guard refuses nine points even when they lie on the line
    with pytest.raises(SizeLimitError, match="size 9 exceeds guard limit 8"):
        embed_line(collinear(*range(9)))


def first_realizable_ordering(s):
    """First ordering in itertools.permutations order, with first point <
    last, whose margin LP succeeds, or None. A line realization of an
    ordering restricts to one of every sub-ordering, so an ordering with a
    three-point sub-ordering whose LP fails is ruled out without solving
    its own, larger LP."""

    @functools.cache
    def triple_realizable(x, y, z):
        sub = space_from_values(3, [s.ranks[x][y], s.ranks[x][z], s.ranks[y][z]])
        return _margin_lp(sub, (0, 1, 2)) is not None

    for ordering in itertools.permutations(range(s.n)):
        if ordering[0] > ordering[-1]:
            continue
        if all(
            triple_realizable(*t) for t in itertools.combinations(ordering, 3)
        ) and _margin_lp(s, ordering) is not None:
            return ordering
    return None


def test_embed_line_witness_is_first_realizable_ordering():
    spaces = [s for n in range(2, 5) for s in enumerate_spaces(n, CensusFilter.ALL)]
    spaces += [load_space(p.name) for p in sorted(FIXTURES.glob("*.ord"))]
    assert max(s.n for s in spaces) == 7
    found = 0
    for s in spaces:
        w = embed_line(s)
        assert (w and w.ordering) == first_realizable_ordering(s), s
        found += w is not None
    assert 0 < found < len(spaces)


GOLDEN_WITNESSES = {
    "seven_line.csv": (
        "LineWitness(ordering=(0, 1, 2, 3, 4, 5, 6), gaps=(Fraction(7, 58), "
        "Fraction(3, 29), Fraction(15, 58), Fraction(5, 58), Fraction(11, 58), "
        "Fraction(7, 29)), margin=Fraction(1, 58))"
    ),
    "min4.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(1, 7), "
        "Fraction(2, 7), Fraction(4, 7)), margin=Fraction(1, 7))"
    ),
    "case_d1.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(1, 4), "
        "Fraction(1, 2), Fraction(1, 4)), margin=Fraction(1, 4))"
    ),
    "case_d2.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(1, 3), "
        "Fraction(1, 3), Fraction(1, 3)), margin=Fraction(1, 3))"
    ),
    "case_d3.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(2, 5), "
        "Fraction(1, 5), Fraction(2, 5)), margin=Fraction(1, 5))"
    ),
    "case_d4.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(4, 7), "
        "Fraction(2, 7), Fraction(1, 7)), margin=Fraction(1, 7))"
    ),
    "case_d5.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(3, 5), "
        "Fraction(1, 5), Fraction(1, 5)), margin=Fraction(1, 5))"
    ),
    "case_d6.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(4, 7), "
        "Fraction(1, 7), Fraction(2, 7)), margin=Fraction(1, 7))"
    ),
    "case_d7.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(1, 2), "
        "Fraction(1, 3), Fraction(1, 6)), margin=Fraction(1, 6))"
    ),
    "case_d8.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(1, 2), "
        "Fraction(1, 4), Fraction(1, 4)), margin=Fraction(1, 4))"
    ),
    "case_d9.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(1, 2), "
        "Fraction(1, 6), Fraction(1, 3)), margin=Fraction(1, 6))"
    ),
    "case_d10.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(4, 9), "
        "Fraction(1, 3), Fraction(2, 9)), margin=Fraction(1, 9))"
    ),
    "case_d11.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(3, 7), "
        "Fraction(2, 7), Fraction(2, 7)), margin=Fraction(1, 7))"
    ),
    "case_d12.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(4, 9), "
        "Fraction(2, 9), Fraction(1, 3)), margin=Fraction(1, 9))"
    ),
    "case_d13.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(2, 5), "
        "Fraction(2, 5), Fraction(1, 5)), margin=Fraction(1, 5))"
    ),
    "case_d15.ord": (
        "LineWitness(ordering=(0, 1, 2, 3), gaps=(Fraction(1, 3), "
        "Fraction(1, 2), Fraction(1, 6)), margin=Fraction(1, 6))"
    ),
}

GOLDEN_ENUMERATIONS = {
    **{f"case_{tag}.ord": (0, 1, 2, 3) for tag in CASE_TAGS},
    "min3.ord": (0, 1, 2),
    "min4.ord": (0, 1, 2, 3),
    "allequal5.ord": None,
    "converse6_a.ord": (0, 1, 2, 3, 4, 5),
    "converse6_b.ord": (0, 1, 2, 3, 4, 5),
    "menger5.ord": None,
    "seven_swap.ord": None,
    "table6.ord": None,
    "tree5_a.ord": None,
    "tree5_b.ord": None,
    "twomax3.ord": None,
}


def test_embed_line_golden_witnesses():
    assert {p.name for p in FIXTURES.glob("case_d*.ord")} < set(GOLDEN_WITNESSES)
    for name, expected in GOLDEN_WITNESSES.items():
        if name.endswith(".csv"):
            s = ordinal_type(parse_distance_csv(fixture_text(name)))
        else:
            s = load_space(name)
        assert repr(embed_line(s)) == expected, name


def test_embed_line_rejects_a_witness_that_ranks_unlike_the_space(monkeypatch):
    # seven_line.csv passes the screen and has 21 distinct ranks; equal
    # gaps give only 6 distinct distances, so the re-check must refuse them
    s = ordinal_type(parse_distance_csv(fixture_text("seven_line.csv")))
    assert _forced_ordering(s.ranks) is not None and s.k == 21
    margin = Fraction(1, 100)

    def equal_gaps(objective, constraints):
        m = len(objective) - 1
        return simplex.OPTIMAL, [Fraction(1, m)] * m + [margin], margin

    monkeypatch.setattr(simplex, "solve_lp", equal_gaps)
    with pytest.raises(SolverError, match="line witness failed exact re-verification"):
        embed_line(s)


def test_find_majorizing_enumeration_golden():
    assert {p.name for p in FIXTURES.glob("*.ord")} == set(GOLDEN_ENUMERATIONS)
    for name, expected in GOLDEN_ENUMERATIONS.items():
        assert find_majorizing_enumeration(load_space(name)) == expected, name


@settings(max_examples=200)
@given(
    st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
        min_size=2,
        max_size=8,
        unique=True,
    )
)
def test_collinear_points_embed_in_their_order(xs):
    # a false "infeasible" from the LP would slip past witness re-verification
    w = embed_line(collinear(*xs))
    assert w is not None
    # the LP only bounds the gaps' sum by 1; a positive margin reaches it
    assert sum(w.gaps) == 1 and w.margin > 0
    order = tuple(sorted(range(len(xs)), key=xs.__getitem__))
    assert w.ordering in (order, order[::-1])


def embeddable_fixture_spaces():
    for tag in CASE_TAGS:
        yield f"case_{tag}.ord", load_space(f"case_{tag}.ord")
    yield "min3.ord", load_space("min3.ord")
    yield "min4.ord", load_space("min4.ord")


def test_witness_soundness_on_fixtures():
    # re-derive the ordinal type from the witness coordinates independently
    for name, s in embeddable_fixture_spaces():
        w = embed_line(s)
        assert w is not None, name
        coords = w.coordinates()
        assert all(g > 0 for g in w.gaps)
        assert sum(w.gaps) == 1
        values = []
        inv = {pt: pos for pos, pt in enumerate(w.ordering)}
        for i in range(s.n):
            for j in range(i + 1, s.n):
                values.append(abs(coords[inv[i]] - coords[inv[j]]))
        assert space_from_values(s.n, values) == s, name


def test_embed_line_success_implies_majorizing_enumeration():
    for name, s in embeddable_fixture_spaces():
        e = find_majorizing_enumeration(s)
        assert e is not None, name
        assert check_majorization(s, e, MajorizationMode.FULL).ok, name


def test_majorizing_enumeration_satisfies_consequences():
    for name, s in embeddable_fixture_spaces():
        e = find_majorizing_enumeration(s)
        assert majorization_consequences(s, e) == [], name


def test_consequence_clauses_fire():
    clauses = majorization_consequences(load_space("tree5_a.ord"), tuple(range(5)))
    assert clauses == [
        "nesting",
        "endpoint_chain",
        "single_diametrical_pair",
        "crossing_equivalences",
    ]
    for e in itertools.permutations(range(3)):
        assert "single_diametrical_pair" in majorization_consequences(
            load_space("twomax3.ord"), e
        )


def test_one_point_enumeration_violates_no_consequence():
    """One point has no pair, so the diametrical-pair clause is vacuous."""
    s = OrdinalSpace(1, 0, ((0,),))
    e = find_majorizing_enumeration(s)
    assert e == (0,) and check_majorization(s, e).ok
    assert majorization_consequences(s, e) == []


def test_classify_four_point_all_fixture_cases():
    for tag in CASE_TAGS:
        assert classify_four_point(load_space(f"case_{tag}.ord")) == tag


def test_classify_four_point_mirror_and_refusal():
    d4 = load_space("case_d4.ord")
    assert classify_four_point(relabel(d4, (3, 2, 1, 0))) == "mirror-d4"
    # swapping the two inner points keeps the diagonal order
    assert classify_four_point(relabel(d4, (0, 3, 2, 1))) == "d4"
    assert classify_four_point(ALL_EQUAL_4) is NOT_EMBEDDABLE
    with pytest.raises(ValidationError):
        classify_four_point(ALL_EQUAL_3)


def test_classify_four_point_d1_pattern():
    # delta14 > delta24 = delta13 > delta23 > delta12 = delta34
    s = space_from_values(4, [1, 3, 4, 2, 3, 1])
    assert classify_four_point(s) == "d1"


def test_classify_agrees_with_embed_line_on_samples():
    rng = random.Random(20260815)
    spaces = [s for _, s in embeddable_fixture_spaces() if s.n == 4]
    spaces += [ALL_EQUAL_4, relabel(load_space("case_d4.ord"), (3, 2, 1, 0))]
    spaces += [random_space(rng, 4, max_value=4) for _ in range(40)]
    for s in spaces:
        tag = classify_four_point(s)
        witness = embed_line(s)
        assert (tag is not NOT_EMBEDDABLE) == (witness is not None)


def permutation_scan_tag(s):
    """Four-point tag by scanning all 24 enumerations for the pattern."""
    for e in itertools.permutations(range(4)):
        d = lambda i, j: s.ranks[e[i - 1]][e[j - 1]]
        d12, d13, d14 = d(1, 2), d(1, 3), d(1, 4)
        d23, d24, d34 = d(2, 3), d(2, 4), d(3, 4)
        if not (d12 < d13 < d14 and d14 > d24 > d34 and d23 < d13 and d23 < d24):
            continue
        if (d13 < d24) != (d12 < d34) or (d13 == d24) != (d12 == d34):
            continue
        if d13 >= d24:
            return _pattern_tag(d12, d13, d23, d24, d34)
        return "mirror-" + _pattern_tag(d34, d24, d23, d13, d12)
    return NOT_EMBEDDABLE


def test_classify_four_point_matches_permutation_scan_on_raw_assignments():
    raw = [
        v for v in itertools.product(range(1, 7), repeat=6)
        if set(v) == set(range(1, max(v) + 1))
    ]
    assert len(raw) == 4683
    for v in raw:
        s = space_from_values(4, v)
        assert classify_four_point(s) == permutation_scan_tag(s)


def test_classify_four_point_agrees_with_embed_line_on_every_class():
    # every labelling: all 24 relabellings of each of the 225 classes
    spaces = enumerate_spaces(4, CensusFilter.ALL)
    assert len(spaces) == 225
    for s in spaces:
        for perm in itertools.permutations(range(4)):
            r = relabel(s, perm)
            assert (classify_four_point(r) is NOT_EMBEDDABLE) == (embed_line(r) is None)


def nested_ordering(s):
    """The forced ordering under the nesting condition alone, or None."""
    top = dp_pairs(s)
    if len(top) != 1:
        return None
    e = tuple(sorted(range(s.n), key=s.ranks[top[0][0]].__getitem__))
    return e if _is_nested([[s.ranks[a][b] for b in e] for a in e]) else None


def test_line_screen_decides_every_class_up_to_four_points():
    assert _forced_ordering(((0,),)) == (0,)
    crossing_rejects = 0
    for n in range(1, 5):
        for filt in CensusFilter:
            for s in enumerate_spaces(n, filt):
                screened = _forced_ordering(s.ranks)
                assert (screened is not None) == (embed_line(s) is not None)
                e = nested_ordering(s)
                if screened is None and e is not None:
                    # nested but not crossing: the LP on that ordering fails too
                    assert _margin_lp(s, e) is None
                    crossing_rejects += filt is CensusFilter.ALL
    # n = 4 has 27 nested classes, of which 14 embed
    assert crossing_rejects == 13


def test_line_screen_rejects_only_non_embeddable_injective_five_point_classes():
    crossing_rejects = 0
    for s in enumerate_spaces(5, CensusFilter.INJECTIVE):
        if _forced_ordering(s.ranks) is not None:
            continue
        assert embed_line(s) is None
        assert find_majorizing_enumeration(s) is None
        e = nested_ordering(s)
        if e is not None:
            # nesting holds, so only crossing rejected it: check that the
            # LP and the majorization check agree without the screen
            assert _margin_lp(s, e) is None
            assert not check_majorization(s, e).ok
            crossing_rejects += 1
    # of 384 nested classes, 61 pass the screen and 57 embed
    assert crossing_rejects == 323


def test_majorization_consequences_loads_no_numpy():
    code = (
        "import sys\n"
        "from ordspace.line import majorization_consequences\n"
        "from ordspace.space import OrdinalSpace\n"
        "s = OrdinalSpace.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]])\n"
        "assert majorization_consequences(s, (0, 1, 2)) == []\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_reverse_symmetry_of_full_check():
    rng = random.Random(99)
    for _ in range(30):
        s = random_space(rng, 5, max_value=6)
        e = list(range(5))
        rng.shuffle(e)
        fwd = check_majorization(s, tuple(e), MajorizationMode.FULL).ok
        rev = check_majorization(s, tuple(reversed(e)), MajorizationMode.FULL).ok
        assert fwd == rev


def test_class_profile_examples():
    assert class_profile(load_space("min3.ord")) == (1, 1, 1)
    assert class_profile(load_space("table6.ord")) == (1,) * 15
    assert class_profile(load_space("tree5_a.ord")) == (6, 1, 2, 1)
    profile = class_profile(ALL_EQUAL_4)
    assert profile == (6,)
    assert sum(profile) == 6
    with pytest.raises(ValidationError):
        class_profile(space_from_values(1, []))


def test_profile_necessary_check_examples():
    assert profile_necessary_check(load_space("min3.ord")) == (True, None)
    ok, reason = profile_necessary_check(ALL_EQUAL_3)
    assert not ok and reason == "only 1 class for 3 points"
    ok, reason = profile_necessary_check(load_space("twomax3.ord"))
    assert not ok and reason == "top class has 2 pairs"
    ok, reason = profile_necessary_check(load_space("tree5_a.ord"))
    assert not ok and reason == "top class has 6 pairs"


def test_profile_check_holds_for_embeddable_spaces():
    for name, s in embeddable_fixture_spaces():
        assert profile_necessary_check(s) == (True, None), name


def test_profile_equivalence_report():
    even = load_space("case_d2.ord")
    rep = profile_equivalence_report(even)
    assert (rep.class_count_is_nm1, rep.nearest_class_is_nm1, rep.profile_is_staircase) == (
        True,
        True,
        True,
    )
    assert rep.all_equal()

    rep = profile_equivalence_report(load_space("min3.ord"))
    assert (rep.class_count_is_nm1, rep.nearest_class_is_nm1, rep.profile_is_staircase) == (
        False,
        False,
        False,
    )
    assert rep.all_equal()

    rep = profile_equivalence_report(space_from_values(2, [1]))
    assert rep.class_count_is_nm1 and rep.nearest_class_is_nm1 and rep.profile_is_staircase


def test_profile_equivalence_clauses_agree_when_embeddable():
    for name, s in embeddable_fixture_spaces():
        assert profile_equivalence_report(s).all_equal(), name


def test_conjecture_probe_on_line_like_sample():
    rng = random.Random(5)
    spaces = []
    for _ in range(12):
        xs = sorted(rng.sample(range(40), 5))
        spaces.append(collinear(*xs))
    spaces.append(space_from_values(5, [1] * 10))
    report = probe_majorization_conjecture(spaces)
    assert report["tested"] == 13
    assert report["majorizing"] >= 12
    assert report["embeddable"] >= 12
    assert report["must_hold_failures"] == []


def test_conjecture_probe_on_injective_five_point_census():
    report = probe_majorization_conjecture(enumerate_spaces(5, CensusFilter.INJECTIVE))
    assert report == {
        "tested": 30240,
        "majorizing": 57,
        "embeddable": 57,
        "must_hold_failures": [],
        "conjecture_counterexamples": [],
    }


# five strict rank inequalities (lower pair < higher pair) of each n = 6
# converse counterexample whose gap coefficients cancel: on the line, their
# differences d(lower) - d(higher) < 0 add up to 0 < 0, so no gaps satisfy
# all five
CONVERSE6_OBSTRUCTIONS = {
    "converse6_a.ord": [
        ((2, 3), (3, 4)), ((1, 2), (2, 4)), ((0, 1), (1, 3)), ((1, 4), (4, 5)), ((3, 5), (0, 2)),
    ],
    "converse6_b.ord": [
        ((3, 4), (2, 3)), ((2, 4), (1, 2)), ((1, 3), (0, 1)), ((4, 5), (1, 4)), ((0, 3), (2, 5)),
    ],
}


def _nondecreasing(n, length):
    return itertools.combinations_with_replacement(range(1, n + 1), length)


def test_majorization_converse_fails_at_six_points():
    """The converse (a majorizing enumeration implies a line embedding)
    fails, in the library's formalisation of majorizing, on two six-point
    spaces: the identity majorizes them, by check_majorization and by brute
    force over every equal-length pair of short sequences, yet no gaps
    realize them on the line."""
    spaces = []
    for name, obstruction in CONVERSE6_OBSTRUCTIONS.items():
        s = load_space(name)
        spaces.append(s)
        ident = tuple(range(s.n))
        assert _forced_ordering(s.ranks) == ident
        assert find_majorizing_enumeration(s) == ident
        compared = 0
        for length in range(2, 5):
            for a, b in itertools.product(list(_nondecreasing(s.n, length)), repeat=2):
                rel = compare_sequences(s, a, b, ident)
                end_a = s.ranks[a[0] - 1][a[-1] - 1]
                end_b = s.ranks[b[0] - 1][b[-1] - 1]
                assert rel is not SeqRelation.PREC or end_a < end_b, (name, a, b)
                assert rel is not SeqRelation.EQUIV or end_a == end_b, (name, a, b)
                compared += 1
        assert compared == 19453
        assert embed_line(s) is None
        total = [0] * (s.n - 1)
        for lower, higher in obstruction:
            assert s.ranks[lower[0]][lower[1]] < s.ranks[higher[0]][higher[1]], name
            for (i, j), sign in ((lower, 1), (higher, -1)):
                for g in range(i, j):
                    total[g] += sign
        assert total == [0] * (s.n - 1), name
    report = probe_majorization_conjecture(spaces)
    assert report["must_hold_failures"] == []
    assert report["conjecture_counterexamples"] == spaces


def test_profile_check_names_an_oversized_class():
    s = OrdinalSpace.from_values(4, [1, 2, 3, 3, 3, 4])
    assert profile_necessary_check(s) == (False, "class 2 has 3 > 2 pairs")
