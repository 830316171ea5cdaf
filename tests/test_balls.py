import contextlib
import io
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURES,
    collinear,
    load_hasse,
    load_space,
    random_space,
    relabel,
    space_from_values,
)
from ordspace import balls, cli
from ordspace.balls import (
    BallSet,
    HasseDiagram,
    _ball_masks,
    ball_preserving_bijection,
    ball_set,
    balls_at,
    find_hasse_isomorphism,
    hasse,
    hasse_isomorphic,
    spectrum,
)
from ordspace.census import CensusFilter, _ball_counts, enumerate_spaces
from ordspace.errors import SizeLimitError, ValidationError
from ordspace.formats import hasse_dot
from ordspace.space import DistanceMatrix, is_isomorphic, ordinal_type, realize

# the six-point table lists one ball chain per center; a..f are points 1..6
TABLE_CHAINS = {
    0: ["a", "ab", "abf", "abef", "abcef", "abcdef"],
    1: ["b", "bc", "abc", "abcf", "abcdf", "abcdef"],
    2: ["c", "cd", "bcd", "bcde", "abcde", "abcdef"],
    3: ["d", "de", "cde", "cdef", "bcdef", "abcdef"],
    4: ["e", "ef", "def", "adef", "acdef", "abcdef"],
    5: ["f", "ef", "aef", "abef", "abdef", "abcdef"],
}
_LETTERS = "abcdef"


def _as_members(word):
    return tuple(sorted(_LETTERS.index(ch) for ch in word))


def test_table_chain_listing():
    s = load_space("table6.ord")
    for center, words in TABLE_CHAINS.items():
        chain = [b.members for b in balls_at(s, center)]
        assert chain == [_as_members(w) for w in words]
    assert len(ball_set(s)) == 29


def test_spectrum_contains_zero_and_center():
    s = load_space("min4.ord")
    for c in range(s.n):
        sp = spectrum(s, c)
        assert sp[0] == 0
        chain = balls_at(s, c)
        assert chain[0].members == (c,)
        assert chain[-1].members == tuple(range(s.n))
    with pytest.raises(ValidationError):
        spectrum(s, 9)


def test_ball_count_examples():
    assert len(ball_set(load_space("min3.ord"))) == 6
    assert len(ball_set(load_space("min4.ord"))) == 10
    assert len(ball_set(collinear(0, 1))) == 3
    one = ordinal_type(DistanceMatrix(1, ((Fraction(0),),)))
    assert len(ball_set(one)) == 1


def test_tree_pair_ball_structure():
    a = load_space("tree5_a.ord")
    b = load_space("tree5_b.ord")
    assert len(ball_set(a)) == 9 and len(ball_set(b)) == 9
    assert hasse_isomorphic(hasse(ball_set(a)), hasse(ball_set(b)))
    assert not is_isomorphic(a, b)


def test_balls_agree_with_distance_thresholds():
    """Balls computed from rank cuts equal balls of any realization read
    off with distance thresholds."""
    rng = random.Random(17)
    spaces = [load_space("table6.ord"), load_space("tree5_a.ord")]
    spaces += [random_space(rng, rng.randint(2, 6)) for _ in range(15)]
    for s in spaces:
        d = realize(s)
        from_ranks = set(ball_set(s).members)
        from_distances = set()
        for c in range(s.n):
            for r in {d.values[c][x] for x in range(s.n)}:
                from_distances.add(
                    frozenset(x for x in range(s.n) if d.values[c][x] <= r)
                )
        assert from_ranks == from_distances


def _implied_by_two(h, arc):
    u, v = arc
    for w in range(len(h.vertices)):
        if (u, w) in set(h.arcs) and (w, v) in set(h.arcs):
            return True
    return False


def test_hasse_is_transitive_reduction():
    for name in ("min4.ord", "table6.ord", "tree5_a.ord"):
        h = hasse(ball_set(load_space(name)))
        for arc in h.arcs:
            assert not _implied_by_two(h, arc)
        # and every arc is a genuine inclusion
        for u, v in h.arcs:
            assert h.vertices[u] < h.vertices[v]


def test_hasse_isomorphism_tree_vs_grid():
    tree = hasse(ball_set(load_space("tree5_a.ord")))
    grid = load_hasse("ref4.hasse")
    assert not hasse_isomorphic(tree, grid)


def test_hasse_isomorphism_witness_preserves_arcs():
    a = hasse(ball_set(load_space("min4.ord")))
    b = load_hasse("ref4.hasse")
    f = find_hasse_isomorphism(a, b)
    assert f is not None
    arcs_b = set(b.arcs)
    assert len(set(f)) == len(a.vertices)
    for u, v in a.arcs:
        assert (f[u], f[v]) in arcs_b


def test_hasse_isomorphism_finds_every_relabelled_class_diagram():
    rng = random.Random(41)
    for n in range(1, 5):
        for s in enumerate_spaces(n, CensusFilter.ALL):
            a = hasse(ball_set(s))
            m = len(a.vertices)
            perm = list(range(m))
            rng.shuffle(perm)  # vertex v of a becomes perm[v] of b
            verts = [None] * m
            for v in range(m):
                verts[perm[v]] = a.vertices[v]
            b = HasseDiagram(tuple(verts), tuple((perm[u], perm[v]) for u, v in a.arcs))
            f = find_hasse_isomorphism(a, b)
            assert f is not None and sorted(f) == list(range(m))
            arcs_a, arcs_b = set(a.arcs), set(b.arcs)
            for u, v in itertools.permutations(range(m), 2):
                assert ((u, v) in arcs_a) == ((f[u], f[v]) in arcs_b)


def test_hasse_isomorphism_vertex_guard():
    # these random ten-point spaces have 79 and 82 balls, past the 64-vertex guard
    rng = random.Random(10)
    a, b = random_space(rng, 10), random_space(rng, 10)
    with pytest.raises(SizeLimitError, match="hasse isomorphism: size 82 exceeds guard limit 64"):
        find_hasse_isomorphism(hasse(ball_set(a)), hasse(ball_set(b)))


def test_ball_bijection_point_guard():
    nine = space_from_values(9, list(range(36)))
    with pytest.raises(SizeLimitError, match="size 9 exceeds guard limit 8"):
        ball_preserving_bijection(nine, nine)


def test_ball_bijection_iff_hasse_isomorphic_n3():
    classes = enumerate_spaces(3, CensusFilter.ALL)
    for a, b in itertools.combinations_with_replacement(classes, 2):
        bij = ball_preserving_bijection(a, b)
        hi = hasse_isomorphic(hasse(ball_set(a)), hasse(ball_set(b)))
        assert (bij is not None) == hi


def test_ball_bijection_iff_hasse_isomorphic_n4_sampled():
    rng = random.Random(23)
    classes = enumerate_spaces(4, CensusFilter.ALL)
    for _ in range(40):
        a, b = rng.choice(classes), rng.choice(classes)
        bij = ball_preserving_bijection(a, b)
        hi = hasse_isomorphic(hasse(ball_set(a)), hasse(ball_set(b)))
        assert (bij is not None) == hi


def test_tree_pair_has_ball_bijection_without_isomorphism():
    a = load_space("tree5_a.ord")
    b = load_space("tree5_b.ord")
    f = ball_preserving_bijection(a, b)
    assert f is not None
    balls_b = set(ball_set(b).members)
    for ball in set(ball_set(a).members):
        assert frozenset(f[x] for x in ball) in balls_b


def test_isomorphic_spaces_share_ball_structure():
    rng = random.Random(39)
    for _ in range(10):
        s = random_space(rng, rng.randint(2, 5))
        perm = list(range(s.n))
        rng.shuffle(perm)
        t = relabel(s, perm)
        assert ball_preserving_bijection(s, t) is not None
        assert hasse_isomorphic(hasse(ball_set(s)), hasse(ball_set(t)))


def test_realization_hasse_matches_rank_hasse():
    rng = random.Random(41)
    for _ in range(10):
        s = random_space(rng, rng.randint(2, 6))
        h_rank = hasse(ball_set(s))
        h_real = hasse(ball_set(ordinal_type(realize(s))))
        assert h_rank.vertices == h_real.vertices
        assert h_rank.arcs == h_real.arcs


def test_dot_output_is_stable_and_labeled():
    h = hasse(ball_set(load_space("min3.ord")))
    out = hasse_dot(h)
    assert out == hasse_dot(h)
    assert '"{x1,x2}"' in out and out.startswith("digraph hasse {")


# ---------------------------------------------------------------------------
# the bitmask kernel against the set-based definitions it replaced


def chain_ball_set(s):
    """Ball set read off the ball chains of balls_at, one frozenset each."""
    found = {frozenset(b.members) for c in range(s.n) for b in balls_at(s, c)}
    return BallSet(members=tuple(sorted(found, key=lambda m: (len(m), sorted(m)))))


def cubic_hasse(bs):
    """Covering digraph by definition: a < b with no c strictly between."""
    sets = list(bs.members)
    idx = range(len(sets))
    below = [[sets[a] < sets[b] for b in idx] for a in idx]
    arcs = [
        (a, b)
        for a in idx
        for b in idx
        if below[a][b] and not any(below[a][c] and below[c][b] for c in idx)
    ]
    return HasseDiagram(tuple(sets), tuple(sorted(arcs)))


@st.composite
def tied_spaces(draw):
    """A space on 1-7 points, with distinct ranks or ties from a few levels."""
    n = draw(st.integers(1, 7))
    p = n * (n - 1) // 2
    if draw(st.booleans()):
        return space_from_values(n, draw(st.permutations(range(p))))
    levels = draw(st.integers(1, max(p, 1)))
    return space_from_values(
        n, draw(st.lists(st.integers(1, levels), min_size=p, max_size=p))
    )


@settings(max_examples=300)
@given(tied_spaces())
def test_ball_set_and_hasse_match_the_set_definitions(s):
    bs = ball_set(s)
    assert repr(bs) == repr(chain_ball_set(s))
    assert hasse(bs) == cubic_hasse(bs)
    assert len(_ball_masks(s.ranks)) == len(bs)


def test_ball_counts_match_ball_set_on_census_classes():
    cases = [(n, f) for n in (1, 2, 3, 4) for f in CensusFilter]
    cases.append((5, CensusFilter.INJECTIVE))
    for n, filt in cases:
        spaces = enumerate_spaces(n, filt)
        expected = [len(ball_set(s)) for s in spaces]
        assert [len(_ball_masks(s.ranks)) for s in spaces] == expected
        assert _ball_counts(n, [s.level_vector() for s in spaces]) == expected


def _cli_output(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in args])
    return code, out.getvalue()


def test_balls_and_hasse_commands_match_the_set_definitions(monkeypatch):
    runs = [
        (command, path, *extra)
        for path in sorted(FIXTURES.glob("*.ord"))
        for command, extra in (
            ("balls", ()),
            ("balls", ("--format", "json")),
            ("hasse", ()),
            ("hasse", ("--format", "json")),
            ("hasse", ("--dot",)),
        )
    ]
    got = [_cli_output(*args) for args in runs]
    monkeypatch.setattr(cli, "ball_set", chain_ball_set)
    monkeypatch.setattr(cli, "hasse", cubic_hasse)
    assert got == [_cli_output(*args) for args in runs]


def test_hasse_levels_are_computed_once_per_diagram(monkeypatch):
    calls = []
    levels = balls._source_levels

    def counted(*args):
        calls.append(args)
        return levels(*args)

    monkeypatch.setattr(balls, "_source_levels", counted)
    h = hasse(ball_set(load_space("tree5_a.ord")))
    first, second = h.invariants(), h.invariants()
    assert len(calls) == 1
    assert first == second and [lv for _, _, lv in first] == levels(*calls[0])


def test_ball_preserving_bijection_needs_equal_point_counts():
    two, three = space_from_values(2, [1]), space_from_values(3, [1, 2, 3])
    assert ball_preserving_bijection(two, three) is None
    assert ball_preserving_bijection(three, two) is None
