import contextlib
import io
import itertools
import random
import time
from fractions import Fraction
from types import SimpleNamespace

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
from ordspace import cli
from ordspace.balls import (
    HasseDiagram,
    _ball_masks,
    _family_map,
    ball_preserving_bijection,
    ball_set,
    balls_at,
    hasse,
    hasse_isomorphic,
)
from ordspace.census import CensusFilter, _ball_counts, enumerate_spaces
from ordspace.errors import SizeLimitError, ValidationError
from ordspace.formats import format_hasse, hasse_dot, parse_hasse
from ordspace.space import DistanceMatrix, OrdinalSpace, is_isomorphic, ordinal_type, realize

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
        assert balls_at(s, center) == [_as_members(w) for w in words]
    assert len(ball_set(s)) == 29


def test_spectrum_contains_zero_and_center():
    s = load_space("min4.ord")
    for c in range(s.n):
        chain = balls_at(s, c)
        assert len(chain) == len(set(s.ranks[c]))
        assert chain[0] == (c,)
        assert chain[-1] == tuple(range(s.n))
    with pytest.raises(ValidationError, match="center 9 out of range"):
        balls_at(s, 9)


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
        from_ranks = set(ball_set(s))
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


def _induced_vertex_map(a, b, f):
    """The vertex map a -> b that a point map induces, f[x] the image of x."""
    index = {v: i for i, v in enumerate(b.vertices)}
    return [index[frozenset(f[x] for x in v)] for v in a.vertices]


def _preserves_arcs(a, b, g):
    """Is g a vertex bijection with (u, v) an arc of a iff (g[u], g[v]) is
    one of b?"""
    arcs_a, arcs_b = set(a.arcs), set(b.arcs)
    m = len(a.vertices)
    return sorted(g) == list(range(len(b.vertices))) and all(
        ((u, v) in arcs_a) == ((g[u], g[v]) in arcs_b) for u, v in itertools.permutations(range(m), 2)
    )


def test_hasse_isomorphism_witness_preserves_arcs():
    a = hasse(ball_set(load_space("min4.ord")))
    b = load_hasse("ref4.hasse")
    f = _family_map(a.vertices, b.vertices)
    assert f is not None and hasse_isomorphic(a, b)
    assert _preserves_arcs(a, b, _induced_vertex_map(a, b, f))


def test_hasse_isomorphism_finds_every_relabelled_class_diagram():
    rng = random.Random(41)
    for n in range(1, 5):
        for s in enumerate_spaces(n, CensusFilter.ALL):
            a = hasse(ball_set(s))
            m = len(a.vertices)
            points = list(range(n))
            rng.shuffle(points)  # point x of a becomes points[x] of b
            perm = list(range(m))
            rng.shuffle(perm)  # vertex v of a becomes perm[v] of b
            verts = [None] * m
            for v in range(m):
                verts[perm[v]] = frozenset(points[x] for x in a.vertices[v])
            b = HasseDiagram(tuple(verts))
            f = _family_map(a.vertices, b.vertices)
            assert f is not None and sorted(f) == list(range(n))
            assert _preserves_arcs(a, b, _induced_vertex_map(a, b, f))


def _guard_spaces():
    """Random ten-point spaces with 79 and 82 balls, past the 64-set guard."""
    rng = random.Random(10)
    return random_space(rng, 10), random_space(rng, 10)


def test_hasse_isomorphism_vertex_guard():
    a, b = _guard_spaces()
    with pytest.raises(SizeLimitError, match="hasse isomorphism: size 82 exceeds guard limit 64"):
        hasse_isomorphic(hasse(ball_set(a)), hasse(ball_set(b)))


def test_ball_bijection_point_guard():
    a, b = _guard_spaces()
    with pytest.raises(SizeLimitError, match="hasse isomorphism: size 82 exceeds guard limit 64"):
        ball_preserving_bijection(a, b)
    # nine points with distinct ranks have 45 balls, inside the guard
    nine = space_from_values(9, list(range(36)))
    assert len(ball_set(nine)) == 45
    assert ball_preserving_bijection(nine, nine) == tuple(range(9))


def _cycles_space(n, cycles, labels):
    """n points at rank 2 apart, except consecutive points of each cycle,
    read off `labels` in turn, at rank 1."""
    rows = [[0 if x == y else 2 for y in range(n)] for x in range(n)]
    start = 0
    for k in cycles:
        for t in range(k):
            x, y = labels[start + t], labels[start + (t + 1) % k]
            rows[x][y] = rows[y][x] = 1
        start += k
    return OrdinalSpace(n, 2, tuple(map(tuple, rows)))


def test_ball_bijection_is_fast_on_cycle_families():
    # C5 + C7 against C12 on 16 points: 29 balls each (16 points, 12
    # closed neighbourhoods, the whole set), and every point lies in as
    # many sets of each size on both sides; only pairs of points tell them
    # apart. Each labelling took more than 4 s without the pair test.
    rng = random.Random(0)
    for _ in range(3):
        la, lb = rng.sample(range(16), 16), rng.sample(range(16), 16)
        a = _cycles_space(16, (5, 7), la)
        b = _cycles_space(16, (12,), lb)
        assert len(ball_set(a)) == len(ball_set(b)) == 29
        start = time.perf_counter()
        assert ball_preserving_bijection(a, b) is None
        assert time.perf_counter() - start < 2
    c = _cycles_space(16, (5, 7), lb)
    f = ball_preserving_bijection(a, c)
    assert {frozenset(f[x] for x in s) for s in ball_set(a)} == set(ball_set(c))


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
    balls_b = set(ball_set(b))
    for ball in set(ball_set(a)):
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
    found = {frozenset(b) for c in range(s.n) for b in balls_at(s, c)}
    return tuple(sorted(found, key=lambda m: (len(m), sorted(m))))


def cubic_hasse(bs):
    """The covers by definition, a < b with no c strictly between, as
    sorted index pairs."""
    sets = list(bs)
    idx = range(len(sets))
    below = [[sets[a] < sets[b] for b in idx] for a in idx]
    return tuple(
        (a, b)
        for a in idx
        for b in idx
        if below[a][b] and not any(below[a][c] and below[c][b] for c in idx)
    )


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
    assert hasse(bs).arcs == cubic_hasse(bs)
    assert len(_ball_masks(s.ranks)) == len(bs)


def _random_families(rng, count):
    """Families of distinct nonempty subsets of 1-6 points; a .hasse file
    has no line for the empty set."""
    for _ in range(count):
        n = rng.randint(1, 6)
        subsets = [frozenset(x for x in range(n) if mask >> x & 1) for mask in range(1, 1 << n)]
        yield rng.sample(subsets, rng.randint(1, min(len(subsets), 12)))


def _set_pairs(h, arcs):
    return {(h.vertices[u], h.vertices[v]) for u, v in arcs}


def test_hasse_of_a_shuffled_family_has_exactly_the_covers():
    # in this order the lowest-index superset of {x1} is {x1,x2,x3}, no cover
    families = [[frozenset(m) for m in ({0, 1, 2}, {0}, {0, 1}, {1}, {2})]]
    families += [list(ball_set(s)) for n in range(1, 5) for s in enumerate_spaces(n, CensusFilter.ALL)]
    rng = random.Random(27)
    families += list(_random_families(rng, 400))
    for family in families:
        rng.shuffle(family)
        h = hasse(family)
        covers = _set_pairs(h, cubic_hasse(h.vertices))
        assert _set_pairs(h, h.arcs) == covers
        text = format_hasse(h)
        back = parse_hasse(text)
        assert back == hasse(sorted(family, key=lambda v: (len(v), sorted(v))))
        assert _set_pairs(back, back.arcs) == covers and format_hasse(back) == text


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
    monkeypatch.setattr(
        cli, "hasse", lambda bs: SimpleNamespace(vertices=tuple(bs), arcs=cubic_hasse(bs))
    )
    assert got == [_cli_output(*args) for args in runs]


def test_ball_preserving_bijection_needs_equal_point_counts():
    two, three = space_from_values(2, [1]), space_from_values(3, [1, 2, 3])
    assert ball_preserving_bijection(two, three) is None
    assert ball_preserving_bijection(three, two) is None


# ---------------------------------------------------------------------------
# the point search against independent references


def scan_bijection(a, b):
    """The n! scan: the first point permutation, in lexicographic order,
    that maps every ball of a to a ball of b, on equally many balls."""
    balls_a, balls_b = set(ball_set(a)), set(ball_set(b))
    if a.n != b.n or len(balls_a) != len(balls_b):
        return None
    for f in itertools.permutations(range(a.n)):
        if all(frozenset(f[x] for x in ball) in balls_b for ball in balls_a):
            return f
    return None


def digraph_isomorphic(a, b):
    """Is there a vertex bijection g with (u, v) an arc of a iff
    (g[u], g[v]) is an arc of b? Vertices are placed in index order, each
    tried against every unused vertex of b; vertex sets carry no weight."""
    m = len(a.vertices)
    if m != len(b.vertices) or len(a.arcs) != len(b.arcs):
        return False
    arcs_a, arcs_b = set(a.arcs), set(b.arcs)
    g = []

    def extend():
        u = len(g)
        if u == m:
            return True
        for c in range(m):
            if c not in g and all(
                ((u, w) in arcs_a) == ((c, g[w]) in arcs_b)
                and ((w, u) in arcs_a) == ((g[w], c) in arcs_b)
                for w in range(u)
            ):
                g.append(c)
                if extend():
                    return True
                g.pop()
        return False

    return extend()


def test_ball_bijection_is_the_first_of_the_permutation_scan():
    rng = random.Random(29)
    checked = found = 0
    for n in range(2, 8):
        for i in range(24 if n < 7 else 12):
            a = random_space(rng, n, rng.choice([None, 2, 3, 5]))
            if i % 3:  # a random space, with as many balls as a if one of ten has
                drawn = [random_space(rng, n, rng.choice([None, 2, 3, 5])) for _ in range(10)]
                b = next((c for c in drawn if len(ball_set(c)) == len(ball_set(a))), drawn[0])
            else:
                points = list(range(n))
                rng.shuffle(points)
                b = relabel(a, points)
            f = ball_preserving_bijection(a, b)
            assert f == scan_bijection(a, b), (a, b)
            checked += 1
            found += f is not None
    assert found > checked // 3  # the relabelled pairs and a few more
    tree_a, tree_b = load_space("tree5_a.ord"), load_space("tree5_b.ord")
    assert ball_preserving_bijection(tree_a, tree_b) == scan_bijection(tree_a, tree_b)


def test_hasse_isomorphic_agrees_with_a_literal_digraph_isomorphism():
    diagrams = [
        hasse(ball_set(s)) for n in (1, 2, 3) for s in enumerate_spaces(n, CensusFilter.ALL)
    ]
    for a, b in itertools.product(diagrams, repeat=2):
        assert hasse_isomorphic(a, b) == digraph_isomorphic(a, b)
    by_count = {}
    for s in enumerate_spaces(4, CensusFilter.ALL):
        h = hasse(ball_set(s))
        by_count.setdefault(len(h.vertices), []).append(h)
    rng = random.Random(31)
    counts = sorted(by_count)
    answers = []
    for _ in range(300):
        group = by_count[rng.choice(counts)]
        a, b = rng.choice(group), rng.choice(group)
        answers.append(hasse_isomorphic(a, b))
        assert answers[-1] == digraph_isomorphic(a, b)
    assert True in answers and False in answers
